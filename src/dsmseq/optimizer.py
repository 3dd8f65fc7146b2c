"""The iterative LLM search loop over sequences.

Each iteration samples precedent solutions from the archive, renders the
prompt, asks the provider for one candidate order, parses it, and files it
in the archive, which scores each new order once. The loop stops at the
iteration budget or when the best score reaches a known optimal threshold.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from .llm import ChatRequest, ProviderError
from .model import DsmCase, build_adjacency
from .prompts import (
    WITH_KNOWLEDGE,
    WITHOUT_KNOWLEDGE,
    OrderParseError,
    build_prompt,
    make_prompt_context,
    parse_order_response,
    prompt_sha256,
)
from .scoring import score_sequence
from .solutions import SolutionBase, SolutionRecord, TerminationPolicy

# corrective re-asks after an unparseable reply, per iteration
INVALID_RETRY_BUDGET = 2


@dataclass(frozen=True)
class OptimizerConfig:
    termination: TerminationPolicy = field(default_factory=TerminationPolicy)
    knowledge_mode: str = WITH_KNOWLEDGE
    seed: int = 0
    audit_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.knowledge_mode not in (WITH_KNOWLEDGE, WITHOUT_KNOWLEDGE):
            raise ValueError(f"unknown knowledge_mode {self.knowledge_mode!r}")


class OptimizationAborted(RuntimeError):
    """Provider gave up mid-run; the partial trace survives, best-so-far in every row."""

    def __init__(self, message: str, trace: list[dict]):
        super().__init__(message)
        self.trace = trace


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _audit_write(audit_dir, iteration: int, attempt: int, kind: str, text: str) -> None:
    if audit_dir is None:
        return
    directory = Path(audit_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"iter{iteration:03d}_attempt{attempt}_{kind}.txt").write_text(
        text, encoding="utf-8"
    )


def run_optimization(case: DsmCase, cfg: OptimizerConfig, client) -> tuple[SolutionRecord, list[dict]]:
    """Run the loop; returns (best record, per-iteration trace).

    The trace has one entry for iteration 0 (the random seed order) and one
    per LLM iteration after that, with prompt/response hashes, the parsed
    sequence or failure kind, and the running unique count and best-so-far.
    Raises OptimizationAborted if the provider fails; the exception carries
    the partial trace. The archive scores each distinct order once and
    answers a repeat from its record; the returned best is re-scored
    independently, and a mismatch raises RuntimeError.
    """
    matrix = build_adjacency(case)
    rng = random.Random(cfg.seed)
    base = SolutionBase(matrix)

    initial, _ = base.insert(rng.sample(list(case.node_ids), case.n))
    # one seeded edge order for every prompt of the run
    edges = list(case.edges)
    rng.shuffle(edges)
    shuffled_case = replace(case, edges=tuple(edges))

    def entry(iteration: int, **extra) -> dict:
        best = base.best()
        row = {
            "iteration": iteration,
            "prompt_sha256": None,
            "response_sha256": None,
            "sequence": None,
            "score": None,
            "failure": None,
            "duplicate": False,
            "attempts": 0,
            "unique_count": len(base),
            "best_score": best.score,
            "best_sequence": best.sequence,
        }
        row.update(extra)
        return row

    trace = [entry(0, sequence=list(initial.sequence), score=initial.score)]

    model_name = getattr(client, "model", "") or ""
    iteration = 0
    while not base.should_terminate(cfg.termination, iteration):
        iteration += 1
        records = base.sample_for_prompt(rng)
        prompt = build_prompt(make_prompt_context(shuffled_case, records, cfg.knowledge_mode))

        attempt_prompt = prompt
        parsed = None
        failure = None
        response_text = None
        attempts = 0
        for _ in range(INVALID_RETRY_BUDGET + 1):
            try:
                result = client.complete(ChatRequest.single_turn(model_name, attempt_prompt))
            except ProviderError as exc:
                trace.append(
                    entry(
                        iteration,
                        prompt_sha256=prompt_sha256(attempt_prompt),
                        failure="provider-error",
                        attempts=attempts,
                    )
                )
                raise OptimizationAborted(
                    f"provider failed at iteration {iteration}: {exc}", trace
                ) from exc
            attempts += 1
            response_text = result.text
            _audit_write(cfg.audit_dir, iteration, attempts, "prompt", attempt_prompt)
            _audit_write(cfg.audit_dir, iteration, attempts, "response", response_text)
            try:
                parsed = parse_order_response(response_text, matrix)
                failure = None
                break
            except OrderParseError as exc:
                failure = exc.kind
                attempt_prompt = (
                    prompt
                    + f"\n\nYour previous response was invalid ({exc}). Please answer "
                    "again: cover all nodes exactly once, start with <order> and "
                    "end with </order>."
                )

        if parsed is None:
            trace.append(
                entry(
                    iteration,
                    prompt_sha256=prompt_sha256(attempt_prompt),
                    response_sha256=_sha256(response_text),
                    failure=failure,
                    attempts=attempts,
                )
            )
            continue

        record, is_new = base.insert(parsed)
        trace.append(
            entry(
                iteration,
                prompt_sha256=prompt_sha256(attempt_prompt),
                response_sha256=_sha256(response_text),
                sequence=parsed,
                score=record.score,
                duplicate=not is_new,
                attempts=attempts,
            )
        )

    best = base.best()
    rescored = score_sequence(matrix, best.sequence)
    if rescored != best.score:
        raise RuntimeError(f"LLM best re-scores to {rescored}, not its recorded {best.score}")
    return best, trace
