"""Seeded experiment grid over cases and methods, with CSV/JSONL outputs.

Runs every (case, method, run) cell, aggregates mean/std/best per cell
(population std), and writes convergence series on the unique-solutions axis.
Seeds are derived as base_seed + run index so a manifest replays exactly.
"""

from __future__ import annotations

import csv
import functools
from collections import Counter
import io
import json
import os
import tempfile
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .ga import GENERATIONS_DEFAULT, PRESETS, preset_config, run_ga
# anonymize_ids is unused here but stays importable from this module:
# benchmarks/workloads.py wraps bench.anonymize_ids by name
from .model import AdjacencyMatrix, DsmCase, anonymize_ids, build_adjacency, check_int, load_case, read_json  # noqa: F401
from .optimizer import OptimizationAborted, OptimizerConfig, run_optimization
from .prompts import WITH_KNOWLEDGE, WITHOUT_KNOWLEDGE
from .llm import ProviderError
from .ranking import DETERMINISTIC_METHODS
from .scoring import score_sequence
from .solutions import TerminationPolicy


@dataclass(kw_only=True)
class ExperimentSpec:
    cases: list[str | Path]
    methods: list[str] = field(default_factory=lambda: list(ALL_METHODS))
    output_dir: str | Path
    runs_per_method: int = 10
    trial_budgets: list[int] = field(default_factory=lambda: [1, 5, 20])
    base_seed: int = 0
    ga_generations: int = GENERATIONS_DEFAULT
    # a zero-argument factory called once per LLM run: a provider class, or `lambda: client`
    provider: object = None

    def __post_init__(self) -> None:
        # a spec read from JSON may hold any type in any field; numpy's
        # generators refuse a negative seed
        for name, minimum in (("runs_per_method", 1), ("base_seed", 0), ("ga_generations", 1)):
            check_int(name, getattr(self, name), minimum)
        for name, kind, what in (
            ("trial_budgets", int, "ints"),
            ("methods", str, "strs"),
            ("cases", (str, os.PathLike), "paths"),
        ):
            value = getattr(self, name)
            if not (isinstance(value, list) and all(isinstance(item, kind) for item in value)):
                raise ValueError(f"{name} must be a list of {what}, got {value!r}")
        for i, budget in enumerate(self.trial_budgets):
            check_int(f"trial_budgets[{i}]", budget, 1)
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(f"output_dir must be a path, got {self.output_dir!r}")
        if not (self.provider is None or callable(self.provider)):
            raise ValueError(f"provider must be a zero-argument factory, got {self.provider!r}")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {list(ALL_METHODS)}")
        for i, method in enumerate(self.methods):
            if method in self.methods[:i]:  # its cells would run, and be written, twice
                raise ValueError(f"methods[{i}] {method!r} is listed twice")
        for name in ("cases", "methods", "trial_budgets", "output_dir"):  # "" is the working directory
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        stems = [Path(p).stem for p in self.cases]  # outputs are keyed by stem
        for i, stem in enumerate(stems):
            first = stems.index(stem)
            if first < i:
                raise ValueError(f"cases {str(self.cases[first])!r} and {str(self.cases[i])!r} share the name {stem!r}")


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    """Read a JSON spec; relative case paths are read from the spec's directory.

    A key that is not a spec field, a missing required key or case file, or
    a field of the wrong type, is a ValueError naming the spec. The spec has
    no provider; set one with dataclasses.replace.
    """
    path = Path(path)
    raw = read_json(path, "spec")
    if not isinstance(raw, dict):
        raise ValueError(f"spec {path}: top level must be an object")
    known = {f.name for f in fields(ExperimentSpec)} - {"provider"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"spec {path}: unknown keys {unknown}; known keys are {sorted(known)}")
    for key in ("cases", "output_dir"):
        if key not in raw:
            raise ValueError(f"spec {path}: missing required key {key!r}")
    try:
        spec = ExperimentSpec(**raw)
    except ValueError as exc:
        raise ValueError(f"spec {path}: {exc}") from exc
    cases = [path.parent / case for case in spec.cases]
    for case in cases:
        if not case.is_file():
            raise ValueError(f"spec {path}: case file {case} does not exist")
    return replace(spec, cases=cases)


def aggregate_stats(scores) -> dict:
    """Mean, population standard deviation, and best (minimum)."""
    scores = list(scores)
    if not scores:
        raise ValueError("no scores to aggregate")
    return {
        "mean": float(np.mean(scores)),
        "std": float(np.std(scores)),  # ddof=0: population formula
        "best": float(min(scores)),
    }


def step_value(curve: list[tuple[int, float]], x: int) -> float:
    """Value of a change-point step function at x (first y before the curve starts)."""
    value = curve[0][1]
    for cx, cy in curve:
        if cx <= x:
            value = cy
        else:
            break
    return float(value)


def merge_curves(curves: list[list[tuple[int, float]]]) -> list[tuple[int, float]]:
    """Mean of several step functions, evaluated on the union of their x grids."""
    if not curves:
        raise ValueError("no curves to merge")
    grid = sorted({x for curve in curves for x, _ in curve})
    return [(x, float(np.mean([step_value(c, x) for c in curves]))) for x in grid]


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Atomically write a header line and then one line per row as CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write_text(Path(path), buffer.getvalue())


def write_jsonl(path: str | Path, rows: list[dict]) -> None:
    """Atomically write one JSON object per line, keys sorted."""
    _atomic_write_text(
        Path(path), "\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n"
    )


@dataclass
class ResultTable:
    rows: list[dict]
    summary: list[dict]
    failures: list[dict]


@dataclass(frozen=True)
class CellResult:
    """What one grid cell produced: the best score per trial budget (the one
    key None for single-shot methods), the GA curve and the LLM trace."""

    scores: dict[int | None, float]
    curve: list[tuple[int, int]] | None = None
    trace: list[dict] | None = None


# The runners look up the functions they call when called, not at import, so
# a wrapper installed on a module attribute or DETERMINISTIC_METHODS key sees every call.
def _deterministic_cell(
    case: DsmCase, matrix: AdjacencyMatrix, seed: int, spec: ExperimentSpec, key: str
) -> CellResult:
    ranking = DETERMINISTIC_METHODS[key](matrix, seed=seed)
    return CellResult(scores={None: score_sequence(matrix, ranking.order)})


def _ga_cell(
    case: DsmCase, matrix: AdjacencyMatrix, seed: int, spec: ExperimentSpec, preset: str
) -> CellResult:
    cfg = preset_config(preset, seed=seed, generations=spec.ga_generations)
    # nothing beats the known optimum, so the generations after it are waste
    best, curve = run_ga(matrix, cfg, stop_score=case.known_optimum)
    return CellResult(scores={None: best.score}, curve=curve)


def run_llm(case: DsmCase, seed: int, knowledge_mode: str, iterations: int, provider,
            audit_dir: str | Path | None = None) -> list[dict]:
    """The one LLM run of the grid and the CLI; returns the trace.

    The run stops after `iterations` or at the case's known_optimum.
    """
    cfg = OptimizerConfig(
        termination=TerminationPolicy(max_iterations=iterations, optimal_threshold=case.known_optimum),
        knowledge_mode=knowledge_mode,
        seed=seed,
        audit_dir=audit_dir,
    )
    return run_optimization(case, cfg, provider)[1]


def _llm_cell(
    case: DsmCase, matrix: AdjacencyMatrix, seed: int, spec: ExperimentSpec, knowledge_mode: str
) -> CellResult:
    """One run_llm, read off at every trial budget."""
    if spec.provider is None:
        raise ProviderError("auth", "LLM methods need a provider factory")
    budgets = sorted(spec.trial_budgets)
    trace = run_llm(case, seed, knowledge_mode, budgets[-1], spec.provider())
    # row i is iteration i; a run that stopped early keeps its best for the larger budgets
    scores = {budget: trace[min(budget, len(trace) - 1)]["best_score"] for budget in budgets}
    return CellResult(scores=scores, trace=trace)


# Every method of the grid: name -> run(case, matrix, seed, spec) -> CellResult.
METHODS = {
    "llm-with-knowledge": functools.partial(_llm_cell, knowledge_mode=WITH_KNOWLEDGE),
    "llm-without-knowledge": functools.partial(_llm_cell, knowledge_mode=WITHOUT_KNOWLEDGE),
    **{
        f"ga-{preset}": functools.partial(_ga_cell, preset=preset)
        for preset in PRESETS
    },
    **{f"det-{key}": functools.partial(_deterministic_cell, key=key) for key in DETERMINISTIC_METHODS},
}
ALL_METHODS = tuple(METHODS)
LLM_METHODS = tuple(m for m in ALL_METHODS if m.startswith("llm-"))
GA_METHODS = tuple(m for m in ALL_METHODS if m.startswith("ga-"))
DET_METHODS = tuple(m for m in ALL_METHODS if m.startswith("det-"))


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Execute the whole grid and write artifacts under spec.output_dir.

    Writes results.csv (per-run rows), results_summary.csv (mean/std/best
    per cell), convergence/*.csv for GA methods, traces/*.jsonl for
    LLM runs, and manifest.json with every seed used. A cell that raises
    is recorded in the failures with its exception type and message, and
    the grid keeps going; an LLM run whose provider failed still writes the
    trace of the iterations that ran.
    """
    # a bad case file, or an unwritable output dir, fails before any cell runs
    cases = {Path(case_path).stem: load_case(case_path) for case_path in spec.cases}
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = [spec.base_seed + run for run in range(spec.runs_per_method)]
    rows: list[dict] = []
    failures: list[dict] = []

    for case_name, case in cases.items():
        matrix = build_adjacency(case)
        for method in spec.methods:
            curves: list[list[tuple[int, int]]] = []
            for run, seed in enumerate(seeds):
                cell = f"{case_name}__{method}__run{run}"
                try:
                    result = METHODS[method](case, matrix, seed, spec)
                except Exception as exc:  # one bad cell must not lose the grid
                    if isinstance(exc, OptimizationAborted):
                        write_jsonl(out / "traces" / f"{cell}.jsonl", exc.trace)
                    failures.append(
                        {"case": case_name, "method": method, "run": run,
                         "seed": seed, "error": f"{type(exc).__name__}: {exc}"}
                    )
                    continue
                if result.curve is not None:
                    curves.append(result.curve)
                    write_csv(
                        out / "convergence" / f"{cell}.csv", ["unique_count", "best_score"], result.curve
                    )
                if result.trace is not None:
                    write_jsonl(out / "traces" / f"{cell}.jsonl", result.trace)
                for budget, score in result.scores.items():
                    rows.append(
                        {"case": case_name, "method": method, "budget": budget,
                         "run": run, "seed": seed, "score": score}
                    )
            if curves:
                write_csv(
                    out / "convergence" / f"{case_name}__{method}__mean.csv",
                    ["unique_count", "mean_best_score"],
                    merge_curves(curves),
                )

    summary: list[dict] = []
    cells: dict[tuple, list[float]] = {}
    for row in rows:
        cells.setdefault((row["case"], row["method"], row["budget"]), []).append(row["score"])
    failed_counts = Counter((failure["case"], failure["method"]) for failure in failures)
    for (case_name, method, budget), scores in sorted(
        cells.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] if kv[0][2] is not None else -1)
    ):
        stats = aggregate_stats(scores)
        summary.append(
            {"case": case_name, "method": method, "budget": budget,
             "runs": len(scores),
             "failed": failed_counts[(case_name, method)],
             **stats}
        )

    write_csv(
        out / "results.csv",
        ["case", "method", "budget", "run", "seed", "score"],
        [
            [r["case"], r["method"], "" if r["budget"] is None else r["budget"],
             r["run"], r["seed"], r["score"]]
            for r in rows
        ],
    )
    write_csv(
        out / "results_summary.csv",
        ["case", "method", "budget", "runs", "failed", "mean", "std", "best"],
        [
            [s["case"], s["method"], "" if s["budget"] is None else s["budget"],
             s["runs"], s["failed"], f"{s['mean']:.6f}", f"{s['std']:.6f}", s["best"]]
            for s in summary
        ],
    )
    manifest = {
        "cases": [str(Path(p).name) for p in spec.cases],
        "methods": list(spec.methods),
        "runs_per_method": spec.runs_per_method,
        "trial_budgets": list(spec.trial_budgets),
        "base_seed": spec.base_seed,
        "ga_generations": spec.ga_generations,
        "seed_derivation": "base_seed + run_index",
        "seeds": {case_name: dict.fromkeys(spec.methods, seeds) for case_name in cases},
        "failures": failures,
    }
    _atomic_write_text(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ResultTable(rows=rows, summary=summary, failures=failures)
