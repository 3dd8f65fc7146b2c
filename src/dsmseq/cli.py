"""Command-line front end. Thin wrappers over the library functions.

Subcommands: run, score, baseline, ga, llm, oracle, metrics. Results go to
stdout as JSON (or to files under an output directory for `run`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import bench, ga
from .llm import OpenAIChatProvider, ProviderError, ScriptedProvider
from .model import build_adjacency, check_int, load_case, network_metrics, read_json
from .optimizer import OptimizationAborted, OptimizerConfig, run_optimization
from .prompts import WITH_KNOWLEDGE, WITHOUT_KNOWLEDGE
from .ranking import DETERMINISTIC_METHODS
from .scoring import brute_force_optimum, score_sequence
from .solutions import TerminationPolicy


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_script(path: str) -> list[str]:
    """The canned responses in a --script file, which must be a JSON list of strings."""
    responses = read_json(path, "--script")
    if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
        raise ValueError(f"--script {path}: expected a JSON list of strings")
    return responses


def _make_output_parent(option: str, path: str | None) -> None:
    """Make the parent of an output file, so a path that cannot be written
    fails before the run."""
    if path is None:
        return
    if Path(path).is_dir():
        raise ValueError(f"{option} {path}: is a directory")
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def _cmd_run(args) -> int:
    spec = bench.load_experiment_spec(args.spec)
    if args.script:  # each run replays the script from its first reply
        script = _load_script(args.script)
        spec = dataclasses.replace(spec, provider=lambda: ScriptedProvider(script))
    elif any(m in bench.LLM_METHODS for m in spec.methods):
        client = OpenAIChatProvider.from_env()  # a missing key fails before any cell
        spec = dataclasses.replace(spec, provider=lambda: client)
    table = bench.run_experiment(spec)
    _emit({"summary": table.summary, "failures": table.failures,
           "output_dir": str(spec.output_dir)})
    return 0


def _cmd_score(args) -> int:
    case = load_case(args.case)
    matrix = build_adjacency(case)
    order = [part.strip() for part in args.order.split(",") if part.strip()]
    _emit({"order": order, "score": score_sequence(matrix, order)})
    return 0


def _cmd_baseline(args) -> int:
    case = load_case(args.case)
    matrix = build_adjacency(case)
    method = args.method.removeprefix("det-")
    if method not in DETERMINISTIC_METHODS:
        raise ValueError(
            f"unknown baseline {args.method!r}; choose from {sorted(DETERMINISTIC_METHODS)}"
        )
    ranking = DETERMINISTIC_METHODS[method](matrix, seed=args.seed)
    payload = ranking.to_dict()
    payload["score"] = score_sequence(matrix, ranking.order)
    _emit(payload)
    return 0


def _cmd_ga(args) -> int:
    case = load_case(args.case)
    matrix = build_adjacency(case)
    cfg = ga.preset_config(args.preset, seed=args.seed, generations=args.generations)
    _make_output_parent("--convergence-out", args.convergence_out)
    best, convergence = ga.run_ga(matrix, cfg, stop_score=case.known_optimum)
    if args.convergence_out:
        bench.write_csv(args.convergence_out, ["unique_count", "best_score"], convergence)
    _emit(
        {
            "preset": args.preset,
            "config": dataclasses.asdict(cfg),
            "best_order": list(best.sequence),
            "best_score": best.score,
            "unique_solutions": convergence[-1][0],
        }
    )
    return 0


def _cmd_llm(args) -> int:
    check_int("--trials", args.trials, 1)
    case = load_case(args.case)
    knowledge_mode = WITH_KNOWLEDGE if args.knowledge == "on" else WITHOUT_KNOWLEDGE
    cfg = OptimizerConfig(TerminationPolicy(max_iterations=args.trials), knowledge_mode, args.seed, args.audit_dir)
    if args.script:
        provider = ScriptedProvider(_load_script(args.script))
    else:
        provider = OpenAIChatProvider.from_env(model=args.model)
    _make_output_parent("--trace-out", args.trace_out)
    try:
        _, trace = run_optimization(case, cfg, provider)
    except OptimizationAborted as exc:
        if args.trace_out:  # the partial trace is the record of the aborted run
            bench.write_jsonl(args.trace_out, exc.trace)
        raise
    if args.trace_out:
        bench.write_jsonl(args.trace_out, trace)
    last = trace[-1]
    _emit(
        {
            "knowledge": args.knowledge,
            "trials": args.trials,
            "best_order": last["best_sequence"],
            "best_score": last["best_score"],
            "iterations_run": last["iteration"],
            "unique_solutions": last["unique_count"],
        }
    )
    return 0


def _cmd_oracle(args) -> int:
    case = load_case(args.case)
    matrix = build_adjacency(case)
    score, order = brute_force_optimum(matrix)
    _emit({"optimal_score": score, "optimal_order": order})
    return 0


def _cmd_metrics(args) -> int:
    case = load_case(args.case)
    _emit(dataclasses.asdict(network_metrics(case)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsm-seq",
        description="Sequence dependency networks to minimize feedback loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute an experiment grid from a JSON spec")
    p.add_argument("--spec", required=True, help="experiment spec JSON file")
    p.add_argument("--script", help="JSON list of canned responses (offline LLM runs)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("score", help="score one comma-separated order")
    p.add_argument("--case", required=True)
    p.add_argument("--order", required=True, help='e.g. "a,b,c"')
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("baseline", help="run one deterministic ordering")
    p.add_argument("method", help=f"one of {sorted(DETERMINISTIC_METHODS)} (det- prefix ok)")
    p.add_argument("--case", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("ga", help="run the genetic algorithm")
    p.add_argument("--preset", default="balanced",
                   choices=list(ga.PRESETS))
    p.add_argument("--case", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generations", type=int, default=ga.GENERATIONS_DEFAULT,
                   help="generations budget; the run stops earlier at known_optimum")
    p.add_argument("--convergence-out", help="write (unique_count, best_score) CSV here")
    p.set_defaults(func=_cmd_ga)

    p = sub.add_parser("llm", help="run the LLM search loop")
    p.add_argument("--knowledge", choices=["on", "off"], required=True)
    p.add_argument("--trials", type=int, default=20,
                   help="LLM generations budget; the run stops earlier at known_optimum")
    p.add_argument("--case", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default=None, help="override OPENAI_MODEL")
    p.add_argument("--script", help="JSON list of canned responses instead of a live provider")
    p.add_argument("--audit-dir", help="dump per-iteration prompts and responses here")
    p.add_argument("--trace-out", help="write the JSONL trace here")
    p.set_defaults(func=_cmd_llm)

    p = sub.add_parser("oracle", help="exact optimum by subset dynamic program (n <= 20)")
    p.add_argument("--case", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("metrics", help="network size/shape statistics")
    p.add_argument("--case", required=True)
    p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ProviderError, OptimizationAborted) as exc:
        # bad input (CaseError included), an output path that cannot be
        # written, no API key, or a provider that gave up mid-run: one line,
        # no traceback
        raise SystemExit(f"dsm-seq: error: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
