"""The iterative LLM search loop over sequences.

Each iteration samples precedent solutions from the archive, renders the
prompt, asks the provider for one candidate order, parses it, and files it
in the archive, which scores each new order once. The loop stops at the
iteration budget or when the best score reaches a known optimal threshold.

Inside the loop an order is a list of matrix row indices: the parser maps a
reply's ids to rows and checks them once, and the archive scores the rows.
The model sees only fresh ids drawn from the seed; trace rows and the
returned best map the archive's records back to the case's ids.
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from .llm import ChatRequest, ProviderError, ScriptedProvider
from .model import DsmCase, anonymize_ids, build_adjacency, check_int
from .prompts import (
    WITH_KNOWLEDGE,
    WITHOUT_KNOWLEDGE,
    OrderParseError,
    PromptContext,
    PromptFrame,
    build_prompt,
    parse_order_response,
    retry_prompt,
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
        # random.Random(-s) draws as random.Random(s) does
        check_int("seed", self.seed, 0)
        if self.knowledge_mode not in (WITH_KNOWLEDGE, WITHOUT_KNOWLEDGE):
            raise ValueError(f"unknown knowledge_mode {self.knowledge_mode!r}")
        # anything else would fail only at the first audit write, and "" would write into the working directory
        if self.audit_dir == "" or not (self.audit_dir is None or isinstance(self.audit_dir, (str, os.PathLike))):
            raise ValueError(f"audit_dir must be None or a path, got {self.audit_dir!r}")


class OptimizationAborted(RuntimeError):
    """Provider gave up mid-run; the partial trace survives, best-so-far in every row."""

    def __init__(self, message: str, trace: list[dict]):
        super().__init__(message)
        self.trace = trace


def _audit_write(audit_dir, iteration: int, attempt: int, kind: str, text: str) -> None:
    if audit_dir is None:
        return
    (Path(audit_dir) / f"iter{iteration:03d}_attempt{attempt}_{kind}.txt").write_text(
        text, encoding="utf-8"
    )


def run_optimization(case: DsmCase, cfg: OptimizerConfig, client) -> tuple[SolutionRecord, list[dict]]:
    """Run the loop; returns (best record, per-iteration trace).

    The trace has one entry for iteration 0 (the random seed order) and one
    per LLM iteration after that, with the hashes of the last prompt sent in
    the iteration and of its reply, the parsed sequence or failure kind,
    and the running unique count and best-so-far.
    Raises OptimizationAborted if the provider fails; the exception carries
    the partial trace. The archive scores each distinct order once and
    answers a repeat from its record; the returned best is re-scored
    independently on the case's matrix, and a mismatch raises RuntimeError.
    A ScriptedProvider, whose replies name the case's ids, answers through a
    renamed copy that records into its prompts list.
    """
    if cfg.audit_dir is not None:  # an unwritable audit dir fails before any request
        Path(cfg.audit_dir).mkdir(parents=True, exist_ok=True)
    anon_case, mapping = anonymize_ids(case, cfg.seed)
    if isinstance(client, ScriptedProvider):
        client = client.renamed(mapping)
    to_case = {new: old for old, new in mapping.items()}.__getitem__
    case_order = functools.cache(lambda order: tuple(map(to_case, order)))  # one per best record
    matrix = build_adjacency(anon_case)
    rng = random.Random(cfg.seed)
    base = SolutionBase(matrix)

    # draws as sampling the id list would, and row r is the id node_ids[r]
    initial, _ = base.insert(rng.sample(range(case.n), case.n))
    # one seeded edge order for every prompt of the run
    edges = list(anon_case.edges)
    rng.shuffle(edges)
    frame = PromptFrame(replace(anon_case, edges=tuple(edges)), cfg.knowledge_mode)

    def entry(
        iteration: int,
        record: SolutionRecord | None = None,
        sent: str | None = None,
        reply: str | None = None,
        failure: str | None = None,
        duplicate: bool = False,
        attempts: int = 0,
    ) -> dict:
        """A trace row; sent is the last prompt sent and reply its answer."""
        best = base.best()
        return {
            "iteration": iteration,
            "prompt_sha256": None if sent is None else frame.sha256(sent),
            "response_sha256": None if reply is None else hashlib.sha256(reply.encode("utf-8")).hexdigest(),
            "sequence": None if record is None else list(map(to_case, record.sequence)),
            "score": None if record is None else record.score,
            "failure": failure,
            "duplicate": duplicate,
            "attempts": attempts,
            "unique_count": len(base),
            "best_score": best.score,
            "best_sequence": case_order(best.sequence),
        }

    trace = [entry(0, initial)]

    model_name = getattr(client, "model", "") or ""
    policy = cfg.termination
    iteration = 0
    while iteration < policy.max_iterations and (
        policy.optimal_threshold is None or base.best().score > policy.optimal_threshold
    ):
        iteration += 1
        records = base.sample_for_prompt(rng)
        prompt = sent = build_prompt(PromptContext(frame, tuple(records)))
        rows = failure = None
        for attempt in range(1, INVALID_RETRY_BUDGET + 2):
            try:
                reply = client.complete(ChatRequest.single_turn(model_name, sent)).text
            except ProviderError as exc:
                trace.append(entry(iteration, sent=sent, failure="provider-error", attempts=attempt - 1))
                raise OptimizationAborted(
                    f"provider failed at iteration {iteration}: {exc}", trace
                ) from exc
            _audit_write(cfg.audit_dir, iteration, attempt, "prompt", sent)
            _audit_write(cfg.audit_dir, iteration, attempt, "response", reply)
            try:
                rows = parse_order_response(reply, matrix)
                failure = None
                break
            except OrderParseError as exc:
                failure = exc.kind
                if attempt <= INVALID_RETRY_BUDGET:
                    sent = retry_prompt(prompt, exc)

        # a failed iteration files nothing, and so repeats nothing
        record, is_new = (None, True) if rows is None else base.insert(rows)
        trace.append(
            entry(iteration, record, sent, reply, failure, duplicate=not is_new, attempts=attempt)
        )

    best = base.best()
    best = SolutionRecord(case_order(best.sequence), best.score)
    rescored = score_sequence(build_adjacency(case), best.sequence)
    if rescored != best.score:
        raise RuntimeError(f"LLM best re-scores to {rescored}, not its recorded {best.score}")
    return best, trace
