"""dsmseq benchmark: runs one workload, checks its outputs, prints its metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload grid-bundled --seed 0 --seconds 35 --trace 0

The workload seed makes the inputs; the program gets only those inputs. The
package is imported from ``src/`` of the same tree in fresh interpreters
pinned to one BLAS thread. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (see METRICS.md). Every metric is printed
with its unit, then the environment record, and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every correctness check passed. Full results,
spans and outputs go under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import synth

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_out"
WORKLOADS = ("grid-bundled", "analyze-synthetic", "llm-long")
SETUP_REPEATS = 5
TIME_LIMIT_S = 170

# name: (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "feedback_mean": ("count", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# name: (unit, better)
PER_LAYER = {
    "model.import_s": ("s", "lower"),
    "model.load_case_ms": ("ms", "lower"),
    "model.network_metrics_ms.n100": ("ms", "lower"),
    "model.network_metrics_ms.n400": ("ms", "lower"),
    "model.anonymize_ms": ("ms", "lower"),
    "model.self_ms": ("ms", "lower"),
    "scoring.score_us.n17": ("us", "lower"),
    "scoring.score_us.n100": ("us", "lower"),
    "scoring.score_us.n400": ("us", "lower"),
    "scoring.calls_per_unique": ("ratio", "lower"),
    "scoring.oracle_ms.n10": ("ms", "lower"),
    "scoring.self_ms": ("ms", "lower"),
    "ga.run_s.exploration": ("s", "lower"),
    "ga.run_s.exploitation": ("s", "lower"),
    "ga.run_s.balanced": ("s", "lower"),
    "ga.evals_per_s": ("1/s", "higher"),
    "ga.unique_evals": ("count", "lower"),
    "ga.cache_hit_ratio": ("ratio", "higher"),
    "ga.select_us": ("us", "lower"),
    "ga.crossover_us": ("us", "lower"),
    "ga.mutate_us": ("us", "lower"),
    "ga.evaluate_us": ("us", "lower"),
    "ga.self_ms": ("ms", "lower"),
    **{
        f"ranking.{key}_ms.n{n}": ("ms", "lower")
        for key in ("outin", "eig", "exp", "resolvent", "visibility")
        for n in (100, 400)
    },
    "ranking.reachability_ms.n400": ("ms", "lower"),
    "ranking.fallback_count": ("count", "lower"),
    "ranking.self_ms": ("ms", "lower"),
    **{
        f"solutions.{op}_us.{size}": ("us", "lower")
        for op in ("insert", "best", "sample")
        for size in ("lt100", "ge500")
    },
    "solutions.duplicate_ratio": ("ratio", "lower"),
    "solutions.self_ms": ("ms", "lower"),
    "prompts.build_us.n100.with": ("us", "lower"),
    "prompts.build_us.n100.without": ("us", "lower"),
    "prompts.parse_us.n100": ("us", "lower"),
    "prompts.self_ms": ("ms", "lower"),
    "optimizer.self_ms": ("ms", "lower"),
    "optimizer.parse_retries": ("count", "lower"),
    "optimizer.iter_ms_p50": ("ms", "lower"),
    "optimizer.iter_ms_p99": ("ms", "lower"),
    "optimizer.iter_samples": ("count", "higher"),
    "llm.provider_ms": ("ms", "lower"),
    "bench.self_s": ("s", "lower"),
    "bench.files_written": ("count", "lower"),
    "bench.bytes_written": ("bytes", "lower"),
    "bench.merge_curves_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def make_inputs(workload: str, seed: int, directory: Path) -> list[Path]:
    if workload == "grid-bundled":
        return [SRC / "dsmseq" / "data" / f"{name}.json" for name in gate.GRID_CASES]
    if workload == "analyze-synthetic":
        return synth.analyze_cases(seed, directory)
    return [synth.llm_case(directory)]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(command: list, env: dict, deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter to completion; subprocess.run kills and reaps it on timeout."""
    return subprocess.run(
        [sys.executable, *map(str, command)],
        env=env,
        cwd=ROOT,
        timeout=max(deadline - time.monotonic(), 1.0),
        check=True,
        **kwargs,
    )


def measure_setup(cases: list[Path], env: dict, deadline: float) -> list[dict]:
    """One warm-up probe (bytecode and file caches), then SETUP_REPEATS timed ones."""
    probes = []
    for _ in range(SETUP_REPEATS + 1):
        done = run_child(
            [BENCH_DIR / "setup_probe.py", *cases], env, deadline, capture_output=True, text=True
        )
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    expected = (SRC / "dsmseq" / "__init__.py").resolve()
    if Path(probes[0]["package"]).resolve() != expected:
        raise RuntimeError(f"dsmseq imported from {probes[0]['package']}, not {expected}")
    return probes[1:]


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _rounded(values) -> list[float]:
    return [round(v, 3) for v in values]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "dsmseq" / "__init__.py").is_file():
        print(f"no dsmseq sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cases = make_inputs(args.workload, args.seed, work / "inputs")
    (work / "inputs.json").write_text(json.dumps({"cases": [str(p) for p in cases]}), encoding="utf-8")

    env = child_env()
    probes = measure_setup(cases, env, deadline)
    run_child(
        [
            BENCH_DIR / "workloads.py",
            "--workload", args.workload,
            "--seed", args.seed,
            "--seconds", args.seconds,
            "--trace", args.trace,
            "--work", work,
        ],
        env,
        deadline,
        stdout=sys.stderr,
    )
    child = json.loads((work / "child.json").read_text(encoding="utf-8"))

    if args.trace:
        values = dict(child["layers"])
        values["model.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["model.load_case_ms"] = statistics.median(p["load_s"] for p in probes) * 1e3
        table = PER_LAYER
    else:
        values = {
            "wall_s": child["wall_s"],
            "feedback_mean": child["quality"]["feedback_mean"],
            "peak_rss_mb": child["peak_rss_mb"],
            "setup_s": statistics.median(p["import_s"] + p["load_s"] for p in probes),
        }
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()}

    environment = {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        **child["environment"],
        **source_record(),
        "cases": {p.stem: [len(c.ids), len(c.edges)] for p in cases for c in [gate.Case.load(p)]},
    }
    correct = not child["failures"]
    record = {
        **vars(args),
        **child,
        "correct": correct,
        "setup_probes": probes,
        "metrics": metrics,
        "environment": environment,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in child["quality"].items():
        print(f"# quality {name} = {value:.6g}")
    if child.get("loop_ms"):
        loop = child["loop_ms"]
        print(f"# loop ms per iteration: p50 {loop['p50']:.4f}  p99 {loop['p99']:.4f}  "
              f"samples {loop['samples']}")
    print(f"# rounds wall s at reference speed: {_rounded(child['rounds_wall_s'])}  "
          f"traced: {_rounded(child['traced_wall_s'])}")
    print(f"# rounds raw wall s: {_rounded(child['rounds_raw_wall_s'])}  "
          f"median probe {child['median_probe_s'] * 1e3:.3f} ms")
    print(f"# attempted {child['attempted']}  failed {child['failed']}")
    print("# environment " + json.dumps(environment, sort_keys=True))
    for failure in child["failures"]:
        print(f"# FAILED CHECK: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
