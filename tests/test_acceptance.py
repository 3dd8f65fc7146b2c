"""Acceptance gate: one test per shipping criterion, at fixed tolerances.

Run with -v to get one pass/fail line per criterion. Every expected value
here is either derived independently inside the test (naive loops, series
oracles, graph search) or frozen as a literal.
"""

import dataclasses
import hashlib
import json
import math
import os
import random
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from dsmseq import (
    DETERMINISTIC_METHODS,
    ExperimentSpec,
    OptimizerConfig,
    ScriptedProvider,
    SolutionBase,
    TerminationPolicy,
    brute_force_optimum,
    build_adjacency,
    build_prompt,
    load_case,
    matrix_from_array,
    network_metrics,
    out_in_degree_order,
    preset_config,
    reachability_closure,
    run_experiment,
    run_ga,
    run_optimization,
    score_sequence,
    visibility_order,
    walk_exponential_order,
    walk_resolvent_order,
)
from conftest import adjacency, dense, make_case, naive_score, random_case
from test_prompts import (
    FIXTURE_DESCRIPTION,
    FIXTURE_EDGES,
    FIXTURE_HISTORICAL,
    FIXTURE_NODES,
    fixture_context,
)


@contextmanager
def runtime_budget(seconds: float, label: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"{label}: {elapsed:.2f}s (budget {seconds:.0f}s)")
    assert elapsed < seconds, f"{label} exceeded its runtime budget: {elapsed:.1f}s"


@contextmanager
def quiet_runtime_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def test_01_exact_oracle_bounds_every_heuristic():
    """200 random graphs, n in [4,8]: the exhaustive optimum is a lower
    bound for all five deterministic orders and a short GA, and the matrix
    scorer agrees exactly with a naive double loop."""
    rng = random.Random(101)
    with runtime_budget(120, "criterion 1"):
        for trial in range(200):
            n = rng.randint(4, 8)
            density = rng.uniform(0.1, 0.9)
            case = random_case(rng, n, density)
            matrix = adjacency(case)
            optimum, optimal_order = brute_force_optimum(matrix)
            assert naive_score(case, optimal_order) == optimum

            candidate_orders = []
            with quiet_runtime_warnings():
                for method in DETERMINISTIC_METHODS.values():
                    candidate_orders.append(method(matrix, seed=trial).order)
            ga_best, _ = run_ga(
                matrix, preset_config("exploitation", seed=trial, generations=30)
            )
            candidate_orders.append(ga_best.sequence)
            for _ in range(3):
                candidate_orders.append(tuple(rng.sample(list(matrix.ids), n)))

            for order in candidate_orders:
                score = score_sequence(matrix, order)
                assert score == naive_score(case, order)
                assert optimum <= score


def test_02_bundled_case_statistics():
    """The four bundled benchmark networks hit their frozen density and
    average-degree values within 0.001 (density = 2E/(n(n-1)),
    average degree = 2E/n)."""
    expected = {
        "packaging_line_12.json": (12, 47, 0.712, 7.833),
        "espresso_machine_13.json": (13, 41, 0.526, 6.308),
        "irrigation_network_17.json": (17, 41, 0.302, 4.824),
        "elevator_system_14.json": (14, 32, 0.352, 4.571),
    }
    data_dir = Path(__file__).resolve().parent.parent / "src" / "dsmseq" / "data"
    with runtime_budget(1, "criterion 2"):
        for filename, (n, e, density, avg_degree) in expected.items():
            metrics = network_metrics(load_case(data_dir / filename))
            assert metrics.n == n
            assert metrics.e == e
            assert abs(metrics.density - density) <= 1e-3, filename
            assert abs(metrics.average_degree - avg_degree) <= 1e-3, filename
            # cross-check the closed forms directly
            assert metrics.density == pytest.approx(2 * e / (n * (n - 1)))
            assert metrics.average_degree == pytest.approx(2 * e / n)


def random_dag(rng: random.Random, n: int):
    """DAG via a hidden topological order with forward edges only."""
    topo = list(range(n))
    rng.shuffle(topo)
    position = {v: i for i, v in enumerate(topo)}
    p = rng.uniform(0.15, 0.35)
    pairs = []
    for pred in range(n):
        for dep in range(n):
            if pred != dep and position[pred] < position[dep] and rng.random() < p:
                pairs.append((dep, pred))
    if not pairs:
        first, second = topo[0], topo[1]
        pairs.append((second, first))
    return make_case(n, pairs)


def test_03_acyclic_networks_reach_zero():
    """50 random DAGs (n <= 12): the balanced GA finds a zero-feedback
    order within 2000 generations at least 90% of the time, and the
    out-in degree baseline is exact whenever its keys are tie-free and
    their descending order respects the dependencies."""
    rng = random.Random(303)
    with runtime_budget(300, "criterion 3"):
        dags = [random_dag(rng, rng.randint(5, 12)) for _ in range(50)]
        ga_hits = 0
        for i, case in enumerate(dags):
            matrix = adjacency(case)
            best, _ = run_ga(
                matrix,
                preset_config("balanced", seed=i, generations=2000),
                stop_score=0,
            )
            if best.score == 0:
                ga_hits += 1
        print(f"criterion 3: GA reached 0 on {ga_hits}/50 DAGs")
        assert ga_hits >= 45

        # the degree baseline, on every qualifying DAG plus a guaranteed one
        qualifying = 0
        complete_dag = make_case(
            6, [(d, p) for p in range(6) for d in range(p + 1, 6)]
        )
        for case in dags + [complete_dag]:
            matrix = adjacency(case)
            ranking = out_in_degree_order(matrix, seed=0)
            keys = [ranking.primary_keys[i] for i in matrix.ids]
            if len(set(keys)) != matrix.n:
                continue
            by_key = sorted(matrix.ids, key=lambda i: -ranking.primary_keys[i])
            position = {node_id: idx for idx, node_id in enumerate(by_key)}
            if any(position[e.predecessor] > position[e.dependent] for e in case.edges):
                continue  # descending keys are not a valid dependency order here
            qualifying += 1
            assert score_sequence(matrix, ranking.order) == 0
        print(f"criterion 3: degree baseline checked on {qualifying} qualifying DAGs")
        assert qualifying >= 1


def sample_small_norm_matrix(rng: random.Random):
    """Random binary matrix with both matrix norms <= 5.5, so truncated
    series oracles stay far below the comparison tolerance."""
    while True:
        n = rng.randint(4, 12)
        density = rng.uniform(0.1, 0.4)
        a = (np.asarray([[rng.random() for _ in range(n)] for _ in range(n)]) < density)
        np.fill_diagonal(a, False)
        a = a.astype(np.int64)
        if max(np.abs(a).sum(axis=0).max(), np.abs(a).sum(axis=1).max()) <= 5.5:
            return matrix_from_array(a, tuple(f"n{i:03d}" for i in range(n)))


def test_04_matrix_function_oracles():
    """100 random binary matrices (n <= 12): exponential-walk keys match a
    30-term Taylor oracle and resolvent keys a 50-term geometric oracle
    within 1e-9; the visibility closure equals breadth-first reachability
    exactly."""
    rng = random.Random(404)
    with runtime_budget(60, "criterion 4"):
        for _ in range(100):
            matrix = sample_small_norm_matrix(rng)
            a = dense(matrix).astype(float)
            n = matrix.n

            taylor = np.eye(n)
            power = np.eye(n)
            for k in range(1, 31):
                power = power @ a
                taylor = taylor + power / math.factorial(k)
            exp_keys = walk_exponential_order(matrix, seed=0).primary_keys
            exp_cols = np.array([exp_keys[i] for i in matrix.ids])
            assert np.allclose(exp_cols, taylor.sum(axis=0), rtol=1e-9, atol=1e-9)

            geometric = np.eye(n)
            power = np.eye(n)
            for _ in range(50):
                power = power @ (0.025 * a)
                geometric = geometric + power
            res_keys = walk_resolvent_order(matrix, seed=0).primary_keys
            res_cols = np.array([res_keys[i] for i in matrix.ids])
            assert np.allclose(res_cols, geometric.sum(axis=0), rtol=1e-9, atol=1e-9)

            closure = reachability_closure(matrix)
            reach = np.eye(n, dtype=np.int64)
            adj_out = [np.nonzero(a[:, j])[0].tolist() for j in range(n)]
            for start in range(n):
                stack = [start]
                seen = {start}
                while stack:
                    node = stack.pop()
                    for nxt in adj_out[node]:
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                for target in seen:
                    reach[target, start] = 1
            assert np.array_equal(closure, reach)
            # and the ranking built on it uses exactly those column sums
            vis_keys = visibility_order(matrix, seed=0).primary_keys
            vis_cols = np.array([vis_keys[i] for i in matrix.ids])
            assert np.array_equal(vis_cols, reach.sum(axis=0).astype(float))


def test_05_prompt_golden_files():
    """Both prompt variants match their hand-transcribed golden files byte
    for byte."""
    golden_dir = Path(__file__).resolve().parent / "golden"
    with runtime_budget(1, "criterion 5"):
        with_text = build_prompt(fixture_context("with"))
        without_text = build_prompt(fixture_context("without"))
        assert with_text == (golden_dir / "prompt_with_knowledge.txt").read_text(
            encoding="utf-8"
        )
        assert without_text == (golden_dir / "prompt_without_knowledge.txt").read_text(
            encoding="utf-8"
        )
        for marker in (
            "<Description of the Entire Network>",
            "<Nodes with Descriptions>",
            "<Edges>",
            "<order>",
        ):
            assert marker in with_text
        assert "<Nodes>" in without_text


def test_06_scripted_loop_end_to_end():
    """A scripted provider feeding strictly improving orders drives the
    search to the exhaustive optimum and stops there, with monotone
    best-so-far, correct unique counting, and a replayable trace."""
    with runtime_budget(1, "criterion 6"):
        case = make_case(6, [(i + 1, i) for i in range(5)])
        matrix = adjacency(case)
        optimum, _ = brute_force_optimum(matrix)
        assert optimum == 0
        case = dataclasses.replace(case, known_optimum=optimum)

        responses = [
            "<order> v01, v00, v03, v02, v05, v04 </order>",  # 3 feedbacks
            "<order> v05, v00, v01, v02, v03, v04 </order>",  # 1 feedback
            "<order> v00, v01, v02, v03, v04, v05 </order>",  # optimal
        ]
        cfg = OptimizerConfig(termination=TerminationPolicy(max_iterations=20), seed=77)
        best, trace = run_optimization(case, cfg, ScriptedProvider(list(responses)))
        assert best.score == optimum
        assert trace[-1]["iteration"] == 3  # stopped at the declared optimum, not the budget
        assert [row["score"] for row in trace[1:]] == [3, 1, 0]
        best_line = [row["best_score"] for row in trace]
        assert all(b <= a for a, b in zip(best_line, best_line[1:]))
        assert trace[0]["score"] > 3  # seeded start really was worst
        assert [row["unique_count"] for row in trace] == [1, 2, 3, 4]

        _, replay = run_optimization(case, cfg, ScriptedProvider(list(responses)))
        assert replay == trace


def test_07_sampling_contract():
    """1000 seeded prompt samples from 20 distinct-score records: the 5
    best always included, no duplicates, and the random slots uniform over
    the remaining 15 (chi-square p > 0.01)."""
    with runtime_budget(5, "criterion 7"):
        n = 20
        case = make_case(n, [(i + 1, i) for i in range(n - 1)])
        matrix = build_adjacency(case)
        ids = list(matrix.ids)
        base = SolutionBase(matrix)
        for k in range(n):
            sequence = tuple(list(reversed(ids[: k + 1])) + ids[k + 1 :])
            score = score_sequence(matrix, sequence)
            assert score == k  # reversing a k+1 prefix creates exactly k feedbacks
            base.insert([matrix.index_of[node_id] for node_id in sequence])

        counts = {score: 0 for score in range(5, 20)}
        for seed in range(1000):
            records = base.sample_for_prompt(random.Random(seed))
            scores = [r.score for r in records]
            assert len(scores) == 10
            assert len(set(scores)) == 10  # distinct-score base: no duplicates
            assert set(range(5)) <= set(scores)  # the 5 best are always there
            assert scores == sorted(scores, reverse=True)  # worst first
            for score in scores:
                if score >= 5:
                    counts[score] += 1

        observed = np.array([counts[s] for s in range(5, 20)], dtype=float)
        assert observed.sum() == 5000
        chi2, p_value = stats.chisquare(observed, f_exp=np.full(15, 5000 / 15))
        print(f"criterion 7: chi2={chi2:.2f}, p={p_value:.4f}")
        assert p_value > 0.01


def tree_digest(root: Path) -> dict[str, str]:
    digest = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digest


def test_08_seeded_replay_is_hash_equal(tmp_path):
    """Every non-LLM method, rerun with the same seeds, writes byte-identical
    CSV and manifest artifacts."""
    data_dir = Path(__file__).resolve().parent.parent / "src" / "dsmseq" / "data"
    methods = [f"det-{name}" for name in DETERMINISTIC_METHODS] + [
        "ga-exploration",
        "ga-exploitation",
        "ga-balanced",
    ]
    with runtime_budget(60, "criterion 8"):
        digests = []
        for label in ("first", "second"):
            out = tmp_path / label
            spec = ExperimentSpec(
                cases=[data_dir / "packaging_line_12.json"],
                methods=methods,
                output_dir=out,
                runs_per_method=3,
                ga_generations=120,
                base_seed=5,
            )
            with quiet_runtime_warnings():
                run_experiment(spec)
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]
        assert any(name.endswith("results.csv") for name in digests[0])
        assert any(name.startswith("convergence") for name in digests[0])


def test_09_user_supplied_reference_scores():
    """Conditional: point DSMSEQ_REAL_CASES at a directory of case JSONs
    plus expected_scores.json ({case: {method: [mean, std]}}) and the
    deterministic baselines must land within 1.0 of the recorded means."""
    root = os.environ.get("DSMSEQ_REAL_CASES")
    if not root:
        pytest.skip("set DSMSEQ_REAL_CASES to a directory with original case data")
    root = Path(root)
    expected = json.loads((root / "expected_scores.json").read_text(encoding="utf-8"))
    for case_name, method_rows in expected.items():
        case = load_case(root / f"{case_name}.json")
        matrix = build_adjacency(case)
        for method, (mean, _std) in method_rows.items():
            name = method.removeprefix("det-")
            scores = []
            with quiet_runtime_warnings():
                for seed in range(10):
                    ranking = DETERMINISTIC_METHODS[name](matrix, seed=seed)
                    scores.append(score_sequence(matrix, ranking.order))
            observed = float(np.mean(scores))
            print(f"criterion 9: {case_name}/{method}: observed {observed}, recorded {mean}")
            assert abs(observed - mean) <= 1.0
