"""Smoke and determinism tests of the benchmark's own code.

They run the workloads' rounds at reduced size in-process; the full
workloads run only through ``python3 benchmarks/run.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
import pace as pace_module  # noqa: E402
from pace import Pace  # noqa: E402
from dsmseq import (  # noqa: E402
    ChatRequest,
    OrderParseError,
    build_adjacency,
    load_case,
    parse_order_response,
    scoring,
)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    first = synth.analyze_cases(3, tmp_path / "a")
    again = synth.analyze_cases(3, tmp_path / "b")
    other = synth.analyze_cases(4, tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]
    lo, hi = synth.DEGREE_RANGE
    for path in first:
        case = load_case(path)
        assert lo * case.n - 0.5 <= len(case.edges) <= hi * case.n + 0.5


def test_degrees_span_the_bundled_range():
    lo, hi = synth.DEGREE_RANGE
    degrees = synth.spread_degrees(4, lo, hi)
    width = (hi - lo) / 4
    assert [int((d - lo) // width) for d in degrees] == [0, 1, 2, 3]


def _prompt(order):
    return (
        "<Edges> [] </Edges>\n"
        f"{{'solution': {', '.join(reversed(order))!r}, 'score': 5.0}},\n"
        f"{{'solution': {', '.join(order)!r}, 'score': 3.0}}\n"
    )


def test_client_replies_follow_the_schedule():
    order = [f"t{i}" for i in range(8)]
    request = ChatRequest.single_turn("m", _prompt(order))
    client, twin = synth.LocalSearchClient(7), synth.LocalSearchClient(7)
    replies = [client.complete(request).text for _ in range(30)]
    assert replies == [twin.complete(request).text for _ in range(30)]
    for k, text in enumerate(replies):
        slot = k % synth.SCHEDULE_PERIOD
        if slot == synth.MALFORMED_SLOT:
            with pytest.raises(OrderParseError):
                parse_order_response(text, order)
            continue
        got = text.removeprefix("<order> ").removesuffix(" </order>").split(", ")
        assert sorted(got) == sorted(order)
        differing = sum(a != b for a, b in zip(got, order))
        assert differing == (0 if slot == synth.DUPLICATE_SLOT else 2)
    assert len(client.calls) == 30


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()

    leaf = tracer.wrap("a.leaf", lambda: 1)
    inner = tracer.wrap("a.inner", lambda: leaf() + leaf())
    assert inner() == 2
    arrays = tracer.arrays()
    assert list(arrays["parent"]) == [-1, 0, 0]
    duration = arrays["end"] - arrays["start"]
    own = spans.self_times(arrays["parent"], duration)
    assert own[0] == pytest.approx(duration[0] - duration[1] - duration[2])
    assert list(own[1:]) == list(duration[1:])


def test_patched_restores_originals_also_on_error():
    module_like = {"f": len}
    with pytest.raises(RuntimeError):
        with spans.patched([(module_like, "f", lambda fn: (lambda x: -1))]):
            assert module_like["f"]("abc") == -1
            raise RuntimeError
    assert module_like["f"] is len


def test_corrected_clock_skips_probes_and_follows_their_speed():
    pace = Pace()
    pace.probes = [(0.0, 1.0), (3.0, 5.0), (6.0, 7.0)]  # durations 1, 2, 1
    unit = pace_module.REFERENCE_S / 1.5
    assert pace.scaled(3.0, 5.0) == 0.0
    assert pace.scaled(1.0, 3.0) == pytest.approx(2 * unit)
    assert pace.scaled(0.5, 7.0) == pytest.approx(3 * unit)


def test_timed_block_reports_raw_and_corrected_time():
    pace = Pace()
    result, scaled, raw = pace.timed(lambda: sum(range(200_000)))
    assert result == sum(range(200_000))
    assert raw > 0 and scaled > 0
    assert len(pace.probes) >= 2


def test_gate_rejects_wrong_orders():
    case = gate.Case({"nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
                      "edges": [{"dependent": "b", "predecessor": "a"},
                                {"dependent": "a", "predecessor": "b"}]})
    assert case.two_cycles() == 1
    check = gate.Gate()
    check.order(case, ["a", "b", "c"], 1, 1, "ok")
    assert check.failures == []
    check.order(case, ["a", "b"], 1, 1, "short")
    check.order(case, ["a", "b", "c"], 0, 0, "misreported")
    check.order(case, ["a", "b", "c"], 1, 2, "below floor")
    assert [f.split(":")[0] for f in check.failures] == ["short", "misreported", "below floor"]


def test_reference_optima(monkeypatch):
    """The recorded optima are what the exact subset DP gives with its size
    guard lifted."""
    monkeypatch.setattr(scoring, "EXHAUSTIVE_LIMIT", 17)
    data = ROOT / "src" / "dsmseq" / "data"
    for name, optimum in gate.REFERENCE_OPTIMA.items():
        matrix = build_adjacency(load_case(data / f"{name}.json"))
        assert scoring.brute_force_optimum(matrix)[0] == optimum, name


def _rounds(workload):
    trace = workloads.Trace()
    untraced = [workload.run_round(0, [])]
    trace.start_round(0)
    traced = [workload.run_round(1, trace.replacements())]
    trace.finish()
    return trace, untraced, traced


def _layers_complete(layers):
    setup_only = {"model.import_s", "model.load_case_ms"}
    assert set(layers) | setup_only == set(run.PER_LAYER)


@pytest.mark.filterwarnings("ignore:power iteration:RuntimeWarning")
def test_small_grid_replays_byte_identical_and_passes_the_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.GridBundled, "ga_generations", 20)
    cases = run.make_inputs("grid-bundled", 5, tmp_path)
    grid = workloads.GridBundled(5, tmp_path, {"cases": [str(p) for p in cases]}, Pace())
    trace, untraced, traced = _rounds(grid)
    assert traced[0]["fingerprint"] == untraced[0]["fingerprint"]
    assert len(untraced[0]["fingerprint"]) == len(gate.REPLAY_FILES)
    check = gate.Gate()
    quality = grid.check(check, untraced[0])
    assert check.failures == []
    assert quality["gap_mean"] > 0
    layers = workloads.layer_metrics(trace, traced, untraced, grid)
    _layers_complete(layers)
    assert layers["ga.unique_evals"] > 0 and layers["bench.files_written"] > 0


def test_short_llm_loop_is_deterministic_and_passes_the_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "LLM_ITERATIONS", 40)
    monkeypatch.setattr(workloads, "LLM_RUNS_PER_MODE", 1)
    cases = run.make_inputs("llm-long", 2, tmp_path)
    loop = workloads.LlmLong(2, tmp_path, {"cases": [str(p) for p in cases]}, Pace())
    trace, untraced, traced = _rounds(loop)
    assert traced[0]["fingerprint"] == untraced[0]["fingerprint"]
    check = gate.Gate()
    loop.check(check, untraced[0])
    assert check.failures == []
    assert loop.failed(untraced[0]) == 0
    layers = workloads.layer_metrics(trace, traced, untraced, loop)
    _layers_complete(layers)
    assert layers["optimizer.parse_retries"] > 0 and layers["solutions.duplicate_ratio"] > 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"][:2] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "llm-long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert not (tmp_path / ".bench_out").exists()
