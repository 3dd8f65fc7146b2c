"""Workload process of the benchmark: runs one workload, checks it, reports.

run.py starts this script in a fresh interpreter with BLAS pinned to one
thread, after writing the workload's inputs under the work directory:

    python3 benchmarks/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR

Each workload is a closed loop: one client calls the program and waits for
every call. A round is one pass over the seed's inputs; rounds repeat
until the next one would end after S seconds, with at least two, and
every round must reproduce the first one's outputs. Rounds, calls and
spans are timed on the speed-corrected clock of pace.py. With --trace 1
each untraced round is followed by a traced one, and the per-layer numbers
come from the spans of the traced rounds. The measurements go to
DIR/child.json.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import dsmseq
from dsmseq import bench, ga, model, optimizer, prompts, ranking, scoring, solutions

import gate
import spans
import synth
from pace import Pace

MIN_ROUNDS = 2
LLM_ITERATIONS = 1000
LLM_RUNS_PER_MODE = 4  # averages the final best over searches, which vary by 7 % IQR
LLM_MODES = (prompts.WITH_KNOWLEDGE, prompts.WITHOUT_KNOWLEDGE)
GA_PRESETS = tuple(m.removeprefix("ga-") for m in bench.GA_METHODS)
RANKINGS = tuple(ranking.DETERMINISTIC_METHODS)
FALLBACK_PREFIX = "power-iteration"


def _size_tag(matrix, *args, **kwargs) -> str:
    return f"n{matrix.n}"


def _archive_tag(base, *args, **kwargs) -> str:
    size = len(base)
    return "lt100" if size < 100 else "ge500" if size >= 500 else "mid"


def _prompt_tag(ctx) -> str:
    return f"n{len(ctx.nodes)}.{ctx.knowledge_mode}"


class Trace:
    """A tracer plus the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.tracer = spans.Tracer()
        self.score_calls = 0
        self.distinct_orders = 0
        self._orders: set = set()

    def start_round(self, run_id: int) -> None:
        self.tracer.run_id = run_id
        self.distinct_orders += len(self._orders)
        self._orders = set()

    def finish(self) -> None:
        self.distinct_orders += len(self._orders)
        self._orders = set()

    def _score_tag(self, matrix, order) -> str:
        self.score_calls += 1
        self._orders.add(tuple(order))
        return f"n{matrix.n}"

    def replacements(self):
        """The names the modules import from each other, plus the public
        functions the benchmark calls, each with its layer-qualified span name."""
        score = ("scoring.score_sequence", self._score_tag)
        targets = [
            (bench, "run_experiment", "bench.run_experiment", None),
            (bench, "merge_curves", "bench.merge_curves", None),
            (bench, "load_case", "model.load_case", None),
            (bench, "build_adjacency", "model.build_adjacency", None),
            (bench, "anonymize_ids", "model.anonymize_ids", None),
            (bench, "run_ga", "ga.run_ga", None),
            (bench, "run_optimization", "optimizer.run_optimization", None),
            (bench, "score_sequence", *score),
            (ga, "score_sequence", *score),
            (ga, "tournament_select", "ga.tournament_select", None),
            (ga, "order_crossover", "ga.order_crossover", None),
            (ga, "pmx_crossover", "ga.pmx_crossover", None),
            (ga, "shuffle_mutation", "ga.shuffle_mutation", None),
            (solutions, "score_sequence", *score),
            (solutions.SolutionBase, "insert", "solutions.insert", _archive_tag),
            (solutions.SolutionBase, "best", "solutions.best", _archive_tag),
            (solutions.SolutionBase, "sample_for_prompt", "solutions.sample", _archive_tag),
            (optimizer, "run_optimization", "optimizer.run_optimization", None),
            (optimizer, "build_adjacency", "model.build_adjacency", None),
            (optimizer, "build_prompt", "prompts.build_prompt", _prompt_tag),
            (optimizer, "parse_order_response", "prompts.parse_order_response",
             lambda raw, matrix: f"n{matrix.n}"),
            (optimizer, "score_sequence", *score),
            (prompts, "is_valid_sequence", "scoring.is_valid_sequence", None),
            (scoring, "matrix_from_array", "model.matrix_from_array", None),
            (model, "network_metrics", "model.network_metrics", lambda case: f"n{case.n}"),
            (scoring, "score_sequence", *score),
            (scoring, "brute_force_optimum", "scoring.brute_force_optimum", _size_tag),
            (ranking, "reachability_closure", "ranking.reachability_closure", _size_tag),
            *((ranking.DETERMINISTIC_METHODS, key, f"ranking.{key}", _size_tag) for key in RANKINGS),
            (synth.LocalSearchClient, "complete", "llm.provider", None),
        ]
        wrap = self.tracer.wrap
        return [
            (owner, attribute, lambda fn, name=name, tag=tag: wrap(name, fn, tag))
            for owner, attribute, name, tag in targets
        ]


def _capture(log: list, kind: str):
    """Wrapper factory recording (kind, args, result, start, end) of each call."""

    def wrap(fn):
        def captured(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            log.append((kind, args, result, start, time.perf_counter()))
            return result

        return captured

    return wrap


def _corrected(pace: Pace):
    """Function mapping perf_counter readings to the speed-corrected clock."""
    times, readings = pace.knots()
    return lambda t: np.interp(t, times, readings)


def _loop_samples(clients, clock) -> np.ndarray:
    """Corrected milliseconds from each client reply to the client's next call."""
    gaps = [
        (replied, called)
        for client in clients
        for (_, replied), (called, _) in zip(client.calls, client.calls[1:])
    ]
    if not gaps:
        return np.zeros(0)
    replied, called = np.array(gaps).T
    return (clock(called) - clock(replied)) * 1e3


class GridBundled:
    """run_experiment over the five bundled cases and all ten methods."""

    ga_generations = ga.GENERATIONS_DEFAULT

    def __init__(self, seed: int, work: Path, inputs: dict, pace: Pace):
        self.seed = seed
        self.pace = pace
        self.work = work
        self.paths = [Path(p) for p in inputs["cases"]]
        self.cases = {p.stem: gate.Case.load(p) for p in self.paths}
        self.optima = dict(gate.REFERENCE_OPTIMA)

    def run_round(self, index: int, replacements) -> dict:
        out = self.work / "grid" / f"round{index}"
        factory = synth.ClientFactory(self.seed)
        spec = bench.ExperimentSpec(
            cases=self.paths,
            methods=list(bench.ALL_METHODS),
            output_dir=out,
            runs_per_method=1,
            base_seed=self.seed,
            ga_generations=self.ga_generations,
            provider=factory,
        )
        log: list = []
        capture = [
            (bench, "run_ga", _capture(log, "ga")),
            (bench, "run_optimization", _capture(log, "llm")),
            *((ranking.DETERMINISTIC_METHODS, key, _capture(log, key)) for key in RANKINGS),
        ]
        with spans.patched(capture + replacements):
            table, wall, raw = self.pace.timed(lambda: bench.run_experiment(spec))
        files = [p for p in out.rglob("*") if p.is_file()]
        return {
            "wall": wall,
            "raw_wall": raw,
            "budget": max(spec.trial_budgets),
            "out": out,
            "table": table,
            "log": log,
            "clients": factory.clients,
            "fingerprint": gate.file_digests(out, gate.REPLAY_FILES),
            "files": len(files),
            "bytes": sum(p.stat().st_size for p in files),
        }

    def attempted(self, result: dict) -> int:
        return len(self.cases) * len(bench.ALL_METHODS)

    def check(self, check: gate.Gate, result: dict) -> dict:
        for name in gate.ORACLE_CASES:
            matrix = model.build_adjacency(model.load_case(self._path(name)))
            optimum, order = scoring.brute_force_optimum(matrix)
            check.order(self.cases[name], order, optimum, optimum, f"oracle {name}")
            self.optima[name] = optimum
        check.check(
            len(result["fingerprint"]) == len(gate.REPLAY_FILES),
            f"grid outputs missing: {sorted(set(gate.REPLAY_FILES) - set(result['fingerprint']))}",
        )
        budget = str(result["budget"])
        final: dict[tuple[str, str], int] = {}
        with open(result["out"] / "results.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["budget"] in ("", budget):
                    final[(row["case"], row["method"])] = int(row["score"])
        by_ids = {tuple(case.ids): name for name, case in self.cases.items()}
        ga_seen: dict[str, int] = {}
        for kind, args, value, _, _ in result["log"]:
            if kind == "llm":  # checked below from the traces the grid wrote
                continue
            name = by_ids[tuple(args[0].ids)]
            if kind == "ga":
                method = bench.GA_METHODS[ga_seen.get(name, 0)]
                ga_seen[name] = ga_seen.get(name, 0) + 1
                order, reported = value[0].sequence, value[0].score
                check.check(
                    final.get((name, method)) == reported,
                    f"{name} {method}: results.csv score {final.get((name, method))} != returned {reported}",
                )
            else:
                method = f"det-{kind}"
                order, reported = value.order, final.get((name, method))
            check.order(self.cases[name], order, reported, self.optima[name], f"{name} {method}")
        for name, case in self.cases.items():
            for method in bench.LLM_METHODS:
                rows = _jsonl(result["out"] / "traces" / f"{name}__{method}__run0.jsonl")
                where = f"{name} {method}"
                for row in rows:
                    if row["sequence"] is not None:
                        check.order(case, row["sequence"], row["score"], self.optima[name], where)
                last = rows[-1]
                check.order(case, last["best_sequence"], last["best_score"], self.optima[name], where)
                check.check(
                    final.get((name, method)) == last["best_score"],
                    f"{where}: results.csv score {final.get((name, method))} != trace best {last['best_score']}",
                )
        expected = {(c, m) for c in self.cases for m in bench.ALL_METHODS}
        check.check(set(final) == expected, f"grid cells missing: {sorted(expected - set(final))}")
        gaps = [score - self.optima[case] for (case, _), score in final.items()]
        return {
            "feedback_mean": statistics.fmean(final.values()),
            "gap_mean": statistics.fmean(gaps),
        }

    def _path(self, name: str) -> Path:
        return next(p for p in self.paths if p.stem == name)

    def fallbacks(self, result: dict) -> int:
        return sum(1 for kind, _, value, _, _ in result["log"] if kind in RANKINGS and _fell_back(value.warning))

    def llm_traces(self, result: dict) -> list[list[dict]]:
        return [_jsonl(p) for p in sorted((result["out"] / "traces").glob("*.jsonl"))]

    def failed(self, result: dict) -> int:
        return len(result["table"].failures)


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class AnalyzeSynthetic:
    """network_metrics, the five rankings and scoring over synthetic networks;
    the n = 10 networks also get the exact optimum."""

    def __init__(self, seed: int, work: Path, inputs: dict, pace: Pace):
        self.seed = seed
        self.pace = pace
        self.paths = [Path(p) for p in inputs["cases"]]
        self.cases = [gate.Case.load(p) for p in self.paths]
        self.loaded = [model.load_case(p) for p in self.paths]
        self.matrices = [model.build_adjacency(c) for c in self.loaded]

    def run_round(self, index: int, replacements) -> dict:
        outputs = []
        failed = 0

        def body():
            nonlocal failed
            for case, matrix in zip(self.loaded, self.matrices):
                metrics = model.network_metrics(case)
                orders = {}
                for key in RANKINGS:
                    try:
                        node_ranking = ranking.DETERMINISTIC_METHODS[key](matrix, seed=self.seed)
                    except ValueError:  # the resolvent refuses near-singular systems
                        failed += 1
                        continue
                    score = scoring.score_sequence(matrix, node_ranking.order)
                    orders[key] = (node_ranking.order, score, node_ranking.warning)
                oracle = scoring.brute_force_optimum(matrix) if matrix.n <= 10 else None
                outputs.append((metrics, orders, oracle))

        with spans.patched(replacements):
            _, wall, raw = self.pace.timed(body)
        fingerprint = [
            (m.n, m.e, m.diameter, {k: (o, s) for k, (o, s, _) in orders.items()}, oracle)
            for m, orders, oracle in outputs
        ]
        return {
            "wall": wall,
            "raw_wall": raw,
            "outputs": outputs,
            "failed": failed,
            "fingerprint": fingerprint,
        }

    def attempted(self, result: dict) -> int:
        per_network = 1 + 2 * len(RANKINGS)
        return sum(per_network + (m.n <= 10) for m in self.matrices)

    def failed(self, result: dict) -> int:
        return result["failed"]

    def check(self, check: gate.Gate, result: dict) -> dict:
        scores = []
        for path, case, (metrics, orders, oracle) in zip(self.paths, self.cases, result["outputs"]):
            where = path.stem
            check.check(
                (metrics.n, metrics.e) == (len(case.ids), len(case.edges)),
                f"{where}: network_metrics reports n={metrics.n} e={metrics.e}",
            )
            floor = case.two_cycles()
            if oracle is not None:
                optimum, order = oracle
                check.order(case, order, optimum, floor, f"{where} oracle")
                floor = optimum
            for key, (order, score, _) in orders.items():
                check.order(case, order, score, floor, f"{where} {key}")
                scores.append(score)
        return {"feedback_mean": statistics.fmean(scores)}

    def fallbacks(self, result: dict) -> int:
        return sum(
            1 for _, orders, _ in result["outputs"] for _, _, warning in orders.values() if _fell_back(warning)
        )

    def llm_traces(self, result: dict) -> list[list[dict]]:
        return []


class LlmLong:
    """run_optimization, LLM_RUNS_PER_MODE runs in each knowledge mode of
    LLM_ITERATIONS iterations, on one synthetic n = 100 case, answered by the
    local-search client."""

    def __init__(self, seed: int, work: Path, inputs: dict, pace: Pace):
        self.seed = seed
        self.pace = pace
        (path,) = inputs["cases"]
        self.case_file = gate.Case.load(path)
        self.case = model.load_case(path)

    def run_round(self, index: int, replacements) -> dict:
        runs = []
        clients = []

        def body():
            for mode in LLM_MODES:
                for run in range(LLM_RUNS_PER_MODE):
                    client = synth.LocalSearchClient(("llm-long", self.seed, mode, run))
                    cfg = optimizer.OptimizerConfig(
                        termination=solutions.TerminationPolicy(max_iterations=LLM_ITERATIONS),
                        knowledge_mode=mode,
                        seed=LLM_RUNS_PER_MODE * self.seed + run,
                    )
                    runs.append(optimizer.run_optimization(self.case, cfg, client))
                    clients.append(client)

        with spans.patched(replacements):
            _, wall, raw = self.pace.timed(body)
        fingerprint = [(best.score, best.sequence, len(trace)) for best, trace in runs]
        return {
            "wall": wall,
            "raw_wall": raw,
            "runs": runs,
            "clients": clients,
            "fingerprint": fingerprint,
        }

    def attempted(self, result: dict) -> int:
        return sum(len(trace) - 1 for _, trace in result["runs"])

    def failed(self, result: dict) -> int:
        return sum(1 for _, trace in result["runs"] for row in trace if row["failure"])

    def fallbacks(self, result: dict) -> int:
        return 0

    def llm_traces(self, result: dict) -> list[list[dict]]:
        return [trace for _, trace in result["runs"]]

    def check(self, check: gate.Gate, result: dict) -> dict:
        floor = self.case_file.two_cycles()
        bests = []
        modes = [mode for mode in LLM_MODES for _ in range(LLM_RUNS_PER_MODE)]
        for index, (mode, (best, trace)) in enumerate(zip(modes, result["runs"])):
            where = f"llm {mode} run {index}"
            check.order(self.case_file, best.sequence, best.score, floor, where)
            scored = [row for row in trace if row["sequence"] is not None]
            for row in scored:
                check.order(self.case_file, row["sequence"], row["score"], floor, where)
            check.check(
                best.score == min(row["score"] for row in scored),
                f"{where}: best {best.score} is not the lowest scored order",
            )
            check.check(
                len(trace) == LLM_ITERATIONS + 1,
                f"{where}: {len(trace) - 1} iterations instead of {LLM_ITERATIONS}",
            )
            bests.append(best.score)
        return {"feedback_mean": statistics.fmean(bests)}


WORKLOADS = {
    "grid-bundled": GridBundled,
    "analyze-synthetic": AnalyzeSynthetic,
    "llm-long": LlmLong,
}


def _mean(values, scale: float = 1.0) -> float:
    return float(np.mean(values)) * scale if len(values) else 0.0


def layer_metrics(trace: Trace, traced: list[dict], untraced: list[dict], workload) -> dict:
    """Per-layer numbers: per-call times and self times from the spans of the
    traced rounds, counts from the outputs; GA run times and evaluation rates
    from the untraced rounds, where no step spans slow the GA down. Times are
    read off the speed-corrected clock. A layer the workload does not reach
    reads 0."""
    clock = _corrected(workload.pace)
    arrays = trace.tracer.arrays()
    names = trace.tracer.names
    index = {name: i for i, name in enumerate(names)}
    name_ids = arrays["name"]
    parent = arrays["parent"]
    parent_ids = np.where(parent >= 0, name_ids[parent], -1)
    duration = clock(arrays["end"]) - clock(arrays["start"])
    layer_names = sorted({name.split(".", 1)[0] for name in names})
    layer_of_name = np.array([layer_names.index(name.split(".", 1)[0]) for name in names] or [0])
    layer_self = np.bincount(
        layer_of_name[name_ids],
        weights=spans.self_times(parent, duration),
        minlength=len(layer_names),
    )
    rounds = len(traced)

    def per_call(span: str, scale: float) -> float:
        return _mean(duration[name_ids == index.get(span, -2)], scale)

    def self_total(layer: str, scale: float) -> float:
        if layer not in layer_names:
            return 0.0
        return float(layer_self[layer_names.index(layer)]) * scale / rounds

    out: dict[str, float] = {}
    out["model.network_metrics_ms.n100"] = per_call("model.network_metrics@n100", 1e3)
    out["model.network_metrics_ms.n400"] = per_call("model.network_metrics@n400", 1e3)
    out["model.anonymize_ms"] = per_call("model.anonymize_ids", 1e3)
    out["model.self_ms"] = self_total("model", 1e3)
    for n in (17, 100, 400):
        out[f"scoring.score_us.n{n}"] = per_call(f"scoring.score_sequence@n{n}", 1e6)
    out["scoring.calls_per_unique"] = (
        trace.score_calls / trace.distinct_orders if trace.distinct_orders else 0.0
    )
    out["scoring.oracle_ms.n10"] = per_call("scoring.brute_force_optimum@n10", 1e3)
    out["scoring.self_ms"] = self_total("scoring", 1e3)

    ga_calls = [entry for r in untraced for entry in r.get("log", ()) if entry[0] == "ga"]
    for preset in GA_PRESETS:
        seconds = [clock(e[4]) - clock(e[3]) for e in ga_calls if e[1][1] == _preset(preset, e[1][1])]
        out[f"ga.run_s.{preset}"] = sum(seconds) / len(untraced)
    individuals = sum(e[1][1].population_size * (e[1][1].generations + 1) for e in ga_calls)
    unique = sum(e[2][1][-1][0] for e in ga_calls)
    ga_seconds = sum(clock(e[4]) - clock(e[3]) for e in ga_calls)
    out["ga.evals_per_s"] = individuals / ga_seconds if ga_seconds else 0.0
    out["ga.unique_evals"] = unique / len(untraced)
    out["ga.cache_hit_ratio"] = 1.0 - unique / individuals if individuals else 0.0
    out["ga.select_us"] = per_call("ga.tournament_select", 1e6)
    out["ga.crossover_us"] = per_call("ga.order_crossover", 1e6)
    out["ga.mutate_us"] = per_call("ga.shuffle_mutation", 1e6)
    scored_ids = [i for name, i in index.items() if name.startswith("scoring.score_sequence@")]
    from_ga = np.isin(name_ids, scored_ids) & (parent_ids == index.get("ga.run_ga", -2))
    out["ga.evaluate_us"] = _mean(duration[from_ga], 1e6)
    out["ga.self_ms"] = self_total("ga", 1e3)

    for key in RANKINGS:
        for n in (100, 400):
            out[f"ranking.{key}_ms.n{n}"] = per_call(f"ranking.{key}@n{n}", 1e3)
    out["ranking.reachability_ms.n400"] = per_call("ranking.reachability_closure@n400", 1e3)
    out["ranking.fallback_count"] = _mean([workload.fallbacks(r) for r in traced])
    out["ranking.self_ms"] = self_total("ranking", 1e3)

    for op in ("insert", "best", "sample"):
        for size in ("lt100", "ge500"):
            out[f"solutions.{op}_us.{size}"] = per_call(f"solutions.{op}@{size}", 1e6)
    out["solutions.duplicate_ratio"] = _duplicate_ratio([t for r in traced for t in workload.llm_traces(r)])
    out["solutions.self_ms"] = self_total("solutions", 1e3)

    for mode in LLM_MODES:
        out[f"prompts.build_us.n100.{mode}"] = per_call(f"prompts.build_prompt@n100.{mode}", 1e6)
    out["prompts.parse_us.n100"] = per_call("prompts.parse_order_response@n100", 1e6)
    out["prompts.self_ms"] = self_total("prompts", 1e3)

    samples = _loop_samples([c for r in untraced for c in r.get("clients", ())], clock)
    out["optimizer.self_ms"] = self_total("optimizer", 1e3)
    out["optimizer.parse_retries"] = _mean([_parse_retries(workload.llm_traces(r)) for r in traced])
    out["optimizer.iter_ms_p50"] = float(np.percentile(samples, 50)) if len(samples) else 0.0
    out["optimizer.iter_ms_p99"] = float(np.percentile(samples, 99)) if len(samples) else 0.0
    out["optimizer.iter_samples"] = len(samples)
    out["llm.provider_ms"] = per_call("llm.provider", 1e3)

    out["bench.self_s"] = self_total("bench", 1.0)
    out["bench.files_written"] = _mean([r.get("files", 0) for r in traced])
    out["bench.bytes_written"] = _mean([r.get("bytes", 0) for r in traced])
    out["bench.merge_curves_ms"] = per_call("bench.merge_curves", 1e3)

    out["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - statistics.median(
        r["wall"] for r in untraced
    )
    out["trace.spans"] = len(trace.tracer) / rounds
    return out


def _preset(name: str, cfg):
    return ga.preset_config(name, seed=cfg.seed, generations=cfg.generations)


def _fell_back(warning: str | None) -> bool:
    return bool(warning) and warning.startswith(FALLBACK_PREFIX)


def _duplicate_ratio(traces: list[list[dict]]) -> float:
    rows = [row for t in traces for row in t[1:] if row["sequence"] is not None]
    return sum(row["duplicate"] for row in rows) / len(rows) if rows else 0.0


def _parse_retries(traces: list[list[dict]]) -> int:
    return sum(max(row["attempts"] - 1, 0) for t in traces for row in t[1:])


def environment() -> dict:
    blas = {}
    for module in (np, __import__("scipy")):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = f"{info.get('name')} {info.get('version')}"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "networkx": __import__("networkx").__version__,
        "dsmseq": dsmseq.__version__,
        "dsmseq_path": str(Path(dsmseq.__file__).resolve().parent),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    warnings.filterwarnings("ignore", message="power iteration", category=RuntimeWarning)

    inputs = json.loads((args.work / "inputs.json").read_text(encoding="utf-8"))
    pace = Pace()
    workload = WORKLOADS[args.workload](args.seed, args.work, inputs, pace)
    trace = Trace() if args.trace else None
    untraced: list[dict] = []
    traced: list[dict] = []

    def settle(result: dict, keep_outputs: bool) -> dict:
        result["attempted"] = workload.attempted(result)
        result["failed"] = workload.failed(result)
        if not keep_outputs:  # later untraced rounds only need their fingerprint
            for key in ("outputs", "runs", "table"):
                result.pop(key, None)
        return result

    start = time.perf_counter()
    while True:
        untraced.append(settle(workload.run_round(len(untraced) + len(traced), []), not untraced))
        if trace is not None:
            trace.start_round(len(traced))
            index = len(untraced) + len(traced)
            traced.append(settle(workload.run_round(index, trace.replacements()), True))
        elapsed = time.perf_counter() - start
        per_set = elapsed / len(untraced)
        if len(untraced) + len(traced) >= MIN_ROUNDS and elapsed + per_set > args.seconds:
            break

    check = gate.Gate()
    first = untraced[0]
    quality = workload.check(check, first)
    for index, result in enumerate(untraced[1:] + traced, start=1):
        check.check(
            result["fingerprint"] == first["fingerprint"],
            f"round {index} differs from round 0 for the same seed",
        )
    rounds = untraced + traced
    report = {
        "wall_s": statistics.median(r["wall"] for r in untraced),
        "rounds_wall_s": [r["wall"] for r in untraced],
        "rounds_raw_wall_s": [r["raw_wall"] for r in untraced],
        "median_probe_s": pace.median_probe_s(),
        "traced_wall_s": [r["wall"] for r in traced],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "failures": check.failures,
        "quality": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }
    samples = _loop_samples([c for r in untraced for c in r.get("clients", ())], _corrected(pace))
    if len(samples):
        report["loop_ms"] = {
            "p50": float(np.percentile(samples, 50)),
            "p99": float(np.percentile(samples, 99)),
            "samples": len(samples),
        }
    if trace is not None:
        trace.finish()
        report["layers"] = layer_metrics(trace, traced, untraced, workload)
        trace.tracer.save(args.work / "spans.npz")
    (args.work / "child.json").write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
