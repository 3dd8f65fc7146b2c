"""Deterministic orderings, each checked against an independent computation."""

import dataclasses
import math
import random
import time
import warnings
from contextlib import contextmanager

import networkx as nx
import numpy as np
import pytest

from dsmseq import (
    DETERMINISTIC_METHODS,
    AdjacencyMatrix,
    DsmCase,
    Edge,
    Node,
    NodeRanking,
    build_adjacency,
    eigenvector_order,
    load_case,
    matrix_from_array,
    out_in_degree_order,
    reachability_closure,
    score_sequence,
    visibility_order,
    walk_exponential_order,
    walk_resolvent_order,
)
from dsmseq.model import strong_components
from dsmseq.ranking import KEY_TOLERANCE, RESOLVENT_MAX_TERMS, _rank, _tie_starts
from conftest import adjacency, dense, make_case, random_case, run_with_blas_threads
from test_analysis_golden import ANALYSIS_DRAWS

# 0 -> 1 -> 2 -> 0 plus 0 -> 2: strongly connected and aperiodic, all keys distinct
PLASTIC_EDGES = [(1, 0), (2, 1), (0, 2), (2, 0)]


def chain(n):
    return adjacency(make_case(n, [(i + 1, i) for i in range(n - 1)]))


def complete_digraph(k, isolated=0):
    """The complete digraph on k nodes, followed by isolated nodes."""
    n = k + isolated
    a = np.zeros((n, n), dtype=np.int64)
    a[:k, :k] = 1 - np.eye(k, dtype=np.int64)
    return matrix_from_array(a, tuple(f"v{i:03d}" for i in range(n)))


def geometric_resolvent(a: np.ndarray, delta: float, terms: int = 60) -> np.ndarray:
    total = np.eye(a.shape[0])
    power = np.eye(a.shape[0])
    for _ in range(terms):
        power = power @ (delta * a)
        total = total + power
    return total


def perron_vector(matrix) -> np.ndarray:
    """The Perron vector of A^T (the left Perron vector of A) from the dense
    eigensolver, scaled to 1-norm 1. The root is real and no eigenvalue has
    a larger real part, while -rho (on a periodic network) has the same
    modulus."""
    values, vectors = np.linalg.eig(dense(matrix).T.astype(float))
    vector = np.abs(np.real(vectors[:, np.argmax(values.real)]))
    return vector / vector.sum()


def dependency_digraph(matrix) -> nx.DiGraph:
    """The matrix as a networkx graph with an edge from each predecessor
    to its dependent."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(matrix.n))
    rows, cols = np.nonzero(dense(matrix))
    graph.add_edges_from(zip(cols.tolist(), rows.tolist()))
    return graph


@contextmanager
def quiet_runtime_warnings():
    """Some methods legitimately warn on defective spectra; ignore that here."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def reference_tie_partition(values: list[float]) -> list[list[int]]:
    """Group positions of a descending-sorted value list, chaining near-equals."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        if groups:
            prev = values[groups[-1][-1]]
            tol = KEY_TOLERANCE * max(1.0, abs(prev), abs(v))
            if abs(prev - v) <= tol:
                groups[-1].append(i)
                continue
        groups.append([i])
    return groups


def reference_rank(method, matrix, primary, secondary, seed, warning=None) -> NodeRanking:
    """_rank written as one walk over the keys: sort by primary key, split
    the tie groups, put each group in node order, sort it by secondary key
    and split that again, and shuffle each group left in node order."""
    rng = random.Random(seed)
    ids = matrix.ids
    primary_keys = primary.tolist()
    secondary_keys = None if secondary is None else secondary.tolist()
    # a stable sort, reversed too, keeps equal keys in node order
    order_idx = sorted(range(matrix.n), key=primary_keys.__getitem__, reverse=True)
    sorted_primary = [primary_keys[i] for i in order_idx]

    final: list[int] = []
    residual_groups: list[tuple[str, ...]] = []
    for group in reference_tie_partition(sorted_primary):
        if len(group) == 1:
            final.append(order_idx[group[0]])
            continue
        members = sorted(order_idx[g] for g in group)
        if secondary_keys is not None:
            members.sort(key=secondary_keys.__getitem__)
            sub_groups = reference_tie_partition([secondary_keys[i] for i in members])
        else:
            sub_groups = [list(range(len(members)))]
        for sub in sub_groups:
            sub_members = sorted(members[s] for s in sub)
            if len(sub_members) > 1:
                rng.shuffle(sub_members)
                residual_groups.append(tuple(ids[i] for i in sub_members))
            final.extend(sub_members)

    return NodeRanking(
        method=method,
        order=tuple(ids[i] for i in final),
        primary_keys=dict(zip(ids, primary_keys)),
        secondary_keys=None if secondary_keys is None else dict(zip(ids, secondary_keys)),
        tie_groups=tuple(residual_groups),
        warning=warning,
    )


def key_vector(rng: random.Random, n: int, kind: str) -> np.ndarray:
    """n keys of one kind, each drawn to put ties where the tolerance test
    decides them."""
    draw = {
        # many exact ties, as degree and visibility counts have
        "integer": lambda: float(rng.randrange(-3, 4)),
        # steps of 0.9e-9 chain three or four keys into one group
        "chain": lambda: rng.choice([-1.0, 1.0, 2.0]) + rng.randrange(4) * 0.9e-9,
        # below magnitude 1 the tolerance is absolute; 0 and 1e-9 tie at the bound itself
        "zero": lambda: rng.choice([0.0, -0.0, 1e-10, -1e-10, 1e-9, 2e-9, 1.0]),
        # near 1e12 it is relative, 1e3: 999 ties, 1001 and 2000 do not
        "large": lambda: rng.choice([1e12, -1e12]) + rng.choice([0.0, 999.0, 1001.0, 1998.0, -999.0, 2e3]),
        "uniform": lambda: rng.uniform(-5.0, 5.0),
    }[kind]
    return np.array([draw() for _ in range(n)])


class TestTieStarts:
    @staticmethod
    def starts(values) -> list[int]:
        return np.flatnonzero(_tie_starts(np.array(values))).tolist()

    def test_groups_near_equal_values(self):
        assert self.starts([5.0, 5.0 + 1e-12, 3.0]) == [0, 2]

    def test_chains_through_adjacent_members(self):
        assert self.starts([1.0, 1.0 + 0.9e-9, 1.0 + 1.8e-9]) == [0]

    def test_distinct_values_stay_apart(self):
        assert self.starts([2.0, 1.0, 0.0]) == [0, 1, 2]


class TestRank:
    """Keys that differ by far less than the tie tolerance give the ranking
    of the exact keys: every tie group shuffles from node order."""

    TIE_KEYS = [0.3, 0.7, 0.3, 1.1, 0.7, 0.3, 0.7, 0.3, 1.1, 0.7, 0.3, 0.2]
    SECONDARY = [2.5, 1.0, 2.5, 4.0, 1.0, 2.5, 3.0, 0.5, 4.0, 1.0, 0.5, 2.0]

    @staticmethod
    def jitter(values, rng) -> np.ndarray:
        return np.array([v * (1 + rng.uniform(-1e-13, 1e-13)) for v in values])

    @pytest.mark.parametrize("with_secondary", [False, True])
    def test_sub_tolerance_noise_changes_nothing(self, with_secondary):
        matrix = chain(len(self.TIE_KEYS))
        secondary = np.array(self.SECONDARY) if with_secondary else None
        rng = random.Random(3)
        for seed in range(5):
            exact = _rank("m", matrix, np.array(self.TIE_KEYS), secondary, seed)
            assert len(exact.tie_groups) >= 2
            for _ in range(20):
                noisy_secondary = None if secondary is None else self.jitter(secondary, rng)
                noisy = _rank("m", matrix, self.jitter(self.TIE_KEYS, rng), noisy_secondary, seed)
                assert (noisy.order, noisy.tie_groups) == (exact.order, exact.tie_groups)

    KINDS = ("integer", "chain", "zero", "large", "uniform")

    def test_matches_the_reference_walk(self):
        """2,100 seeded key vectors at every size, with and without a
        secondary key: the same order, tie groups and keys, the sign of a
        zero key included."""
        # _rank reads only the matrix's size and ids
        matrices = {n: complete_digraph(0, isolated=n) for n in (0, 1, 2, 3, 10, 100, 400)}
        compared = 0
        for seed in range(10):
            rng = random.Random(seed)
            for n, matrix in matrices.items():
                for kind in self.KINDS:
                    for secondary_kind in (None,) + self.KINDS:
                        primary = key_vector(rng, n, kind)
                        secondary = None if secondary_kind is None else key_vector(rng, n, secondary_kind)
                        got = _rank("m", matrix, primary, secondary, seed)
                        want = reference_rank("m", matrix, primary, secondary, seed)
                        where = (seed, n, kind, secondary_kind)
                        assert (got.order, got.tie_groups) == (want.order, want.tie_groups), where
                        assert repr((got.primary_keys, got.secondary_keys)) == repr(
                            (want.primary_keys, want.secondary_keys))
                        compared += 1
        assert compared == 2100


class TestOutInDegree:
    def test_chain_endpoints(self):
        ranking = out_in_degree_order(chain(5), seed=3)
        assert ranking.order[0] == "v00"  # only supplies, never consumes
        assert ranking.order[-1] == "v04"
        assert set(ranking.order[1:4]) == {"v01", "v02", "v03"}
        assert ranking.tie_groups == (tuple(ranking.order[1:4]),)
        assert ranking.primary_keys == {
            "v00": 1.0,
            "v01": 0.0,
            "v02": 0.0,
            "v03": 0.0,
            "v04": -1.0,
        }
        assert ranking.secondary_keys is None

    def test_matches_direct_degree_arithmetic(self):
        rng = random.Random(7)
        for _ in range(20):
            case = random_case(rng, 8, 0.3)
            matrix = adjacency(case)
            ranking = out_in_degree_order(matrix, seed=0)
            for idx, node_id in enumerate(matrix.ids):
                out_deg = sum(1 for e in case.edges if e.predecessor == node_id)
                in_deg = sum(1 for e in case.edges if e.dependent == node_id)
                assert ranking.primary_keys[node_id] == out_deg - in_deg
            # keys must be non-increasing along the order
            keys = [ranking.primary_keys[i] for i in ranking.order]
            assert all(a >= b for a, b in zip(keys, keys[1:]))


class TestEigenvector:
    def test_matches_dense_eigensolver(self):
        matrix = adjacency(make_case(3, PLASTIC_EDGES))
        ranking = eigenvector_order(matrix, seed=0)
        assert ranking.warning is None
        oracle = perron_vector(matrix)
        for idx, node_id in enumerate(matrix.ids):
            assert ranking.primary_keys[node_id] == pytest.approx(oracle[idx], abs=1e-8)

    def test_plastic_case_order(self):
        # left eigenvector entries solve v2 = v0/lam, v1 = v0/lam^2 with
        # lam ~ 1.3247: v0 feeds both others
        matrix = adjacency(make_case(3, PLASTIC_EDGES))
        ranking = eigenvector_order(matrix, seed=0)
        assert ranking.order == ("v00", "v02", "v01")
        assert ranking.tie_groups == ()

    def test_keys_are_one_norm_normalized(self):
        matrix = adjacency(make_case(3, PLASTIC_EDGES))
        ranking = eigenvector_order(matrix, seed=0)
        assert sum(ranking.primary_keys.values()) == pytest.approx(1.0)

    def test_zero_matrix_is_an_all_tie_shuffle(self):
        matrix = adjacency(make_case(4, []))
        ranking = eigenvector_order(matrix, seed=5)
        assert ranking.warning == "acyclic"
        assert sorted(ranking.order) == ["v00", "v01", "v02", "v03"]
        assert ranking.tie_groups == (ranking.order,)
        assert eigenvector_order(matrix, seed=5).order == ranking.order

    def test_uniform_fixed_point_on_a_pure_cycle(self):
        # permutation matrices keep the uniform vector: everything ties
        matrix = adjacency(make_case(3, [(1, 0), (2, 1), (0, 2)]))
        ranking = eigenvector_order(matrix, seed=1)
        assert ranking.warning is None
        assert len(ranking.tie_groups) == 1
        assert set(ranking.tie_groups[0]) == {"v00", "v01", "v02"}

    def test_acyclic_networks_are_an_all_tie_shuffle(self):
        # every eigenvalue is 0, so no dominant eigenvector exists; power
        # iteration on A + I would run all 10,000 steps, about ten times the
        # time bound below
        rng = random.Random(37)
        edges = [(d, p) for d in range(100) for p in range(d) if rng.random() < 0.04]
        for matrix in (chain(4), adjacency(make_case(100, edges))):
            assert strong_components(matrix.n, matrix.dep_idx, matrix.pred_idx)[0] == matrix.n
            elapsed = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for _ in range(3):
                    start = time.perf_counter()
                    ranking = eigenvector_order(matrix, seed=2)
                    elapsed.append(time.perf_counter() - start)
            assert ranking.warning == "acyclic"
            assert set(ranking.primary_keys.values()) == {0.0}
            assert ranking.tie_groups == (ranking.order,)
            assert sorted(ranking.order) == sorted(matrix.ids)
            assert min(elapsed) < 0.01

    def test_oscillating_spectrum_converges(self):
        # two suppliers feeding one consumer and back: eigenvalues +-sqrt(2)
        # and 0, so power iteration on A alone alternates with period 2
        matrix = adjacency(make_case(3, [(0, 2), (1, 2), (2, 0), (2, 1)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranking = eigenvector_order(matrix, seed=0)
        assert ranking.warning is None
        keys = [ranking.primary_keys[node_id] for node_id in matrix.ids]
        assert keys == pytest.approx(perron_vector(matrix).tolist(), abs=1e-8)

    def test_jordan_block_at_the_radius_warns(self):
        # a 2-cycle feeding another: eigenvalue 1 twice in one Jordan block,
        # so the iterate drifts towards the upstream pair only like 1/k;
        # v01, which v02 draws on directly, leads
        matrix = adjacency(make_case(4, [(0, 1), (1, 0), (2, 3), (3, 2), (2, 1)]))
        with pytest.warns(RuntimeWarning, match="failed to converge"):
            ranking = eigenvector_order(matrix, seed=0)
        assert ranking.warning == "power-iteration-no-convergence"
        assert ranking.order[:2] == ("v01", "v00")
        assert set(ranking.order[2:]) == {"v02", "v03"}

    def test_keys_are_the_perron_vector(self, data_dir):
        """Every bundled case and every golden analysis draw with a cycle,
        periodic ones such as the gearbox (three eigenvalues of modulus
        1.5511) included."""
        matrices = [build_adjacency(load_case(path)) for path in sorted(data_dir.glob("*.json"))]
        rng = random.Random(2026)
        for n, density in ANALYSIS_DRAWS:
            matrix = build_adjacency(random_case(rng, n, density))
            if strong_components(matrix.n, matrix.dep_idx, matrix.pred_idx)[0] < n:
                matrices.append(matrix)
        assert len(matrices) > 10
        for matrix in matrices:
            ranking = eigenvector_order(matrix, seed=0)
            assert ranking.warning is None
            keys = np.array([ranking.primary_keys[node_id] for node_id in matrix.ids])
            assert np.abs(keys - perron_vector(matrix)).max() < 1e-8


class TestWalkExponential:
    def test_single_edge_closed_form(self):
        # nilpotent of index 2: exp(A) is exactly I + A
        matrix = adjacency(make_case(2, [(1, 0)]))
        ranking = walk_exponential_order(matrix, seed=0)
        assert ranking.order == ("v00", "v01")
        assert ranking.primary_keys == {"v00": 2.0, "v01": 1.0}
        assert ranking.secondary_keys == {"v00": 1.0, "v01": 2.0}

    def test_chain_sums_are_exact(self):
        # nilpotent of index 4: the series ends after A^3, 1 + 1 + 1/2 + 1/6
        ranking = walk_exponential_order(chain(4), seed=0)
        assert ranking.order == ("v00", "v01", "v02", "v03")
        assert ranking.primary_keys == {"v00": 8 / 3, "v01": 5 / 2, "v02": 2.0, "v03": 1.0}
        assert ranking.secondary_keys == {"v00": 1.0, "v01": 2.0, "v02": 5 / 2, "v03": 8 / 3}

    def test_matches_expm_row_and_column_sums(self, data_dir):
        """Every bundled case and every golden analysis draw, the dense
        (100, 0.3) draw with its 80-odd series terms included: the keys are
        the row and column sums of scipy's expm, and so is the order. The
        tolerance is expm's: on the dense draw its sums sit 2.2e-12 below a
        long-double sum of the series, the keys 8e-16 from it. The column
        sums are the primary key, the row sums the secondary."""
        import scipy.linalg

        matrices = [build_adjacency(load_case(path)) for path in sorted(data_dir.glob("*.json"))]
        rng = random.Random(2026)
        matrices += [build_adjacency(random_case(rng, n, density)) for n, density in ANALYSIS_DRAWS]
        for matrix in matrices:
            ranking = walk_exponential_order(matrix, seed=0)
            f = scipy.linalg.expm(dense(matrix).astype(float))
            rows, cols = f.sum(axis=1), f.sum(axis=0)
            assert [ranking.primary_keys[i] for i in matrix.ids] == pytest.approx(cols.tolist(), rel=1e-11)
            assert [ranking.secondary_keys[i] for i in matrix.ids] == pytest.approx(rows.tolist(), rel=1e-11)
            assert ranking.order == _rank("walk-exponential", matrix, cols, rows, 0).order

    @staticmethod
    def overflow_refusal_seconds() -> float:
        """How long the complete digraph on 720 nodes, whose exp(A) has row
        sums e^719, takes to be refused, alone and with an isolated node
        added (n = 721)."""
        matrices = [complete_digraph(720, isolated) for isolated in (0, 1)]
        start = time.perf_counter()
        for matrix in matrices:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # the ValueError is the one report
                with pytest.raises(ValueError, match=f"exp\\(A\\) overflows float64 .* at n={matrix.n}"):
                    walk_exponential_order(matrix)
        return time.perf_counter() - start

    def test_overflow_is_refused_quickly(self):
        # each network has over half a million edges, and a product over
        # them costs milliseconds: a refusal has to come within a few terms,
        # from the Collatz-Wielandt floor, not after the 621 terms it takes
        # the sums to pass float64
        elapsed = run_with_blas_threads(
            "import test_ranking; print(test_ranking.TestWalkExponential.overflow_refusal_seconds())", 1
        )
        assert float(elapsed) < 2.0

    def test_column_ties_break_by_row_sums_ascending(self):
        # v03 -> v02 -> {v00, v01}: v02 and v03 share the column sum 3;
        # v03 draws on nothing, so its row sum is smaller and it ranks first
        matrix = adjacency(make_case(4, [(0, 2), (1, 2), (2, 3)]))
        ranking = walk_exponential_order(matrix, seed=9)
        assert ranking.order[:2] == ("v03", "v02")
        assert set(ranking.order[2:]) == {"v00", "v01"}
        assert len(ranking.tie_groups) == 1
        assert set(ranking.tie_groups[0]) == {"v00", "v01"}


class TestWalkResolvent:
    def test_matches_geometric_series(self):
        rng = random.Random(17)
        for _ in range(15):
            matrix = adjacency(random_case(rng, 6, 0.3))
            ranking = walk_resolvent_order(matrix, seed=0)
            oracle = geometric_resolvent(dense(matrix).astype(float), 0.025)
            cols, rows = oracle.sum(axis=0), oracle.sum(axis=1)
            for idx, node_id in enumerate(matrix.ids):
                assert ranking.primary_keys[node_id] == pytest.approx(cols[idx], rel=1e-9)
                assert ranking.secondary_keys[node_id] == pytest.approx(rows[idx], rel=1e-9)

    def test_exactly_singular_system_is_rejected(self, monkeypatch):
        # I - A is singular (eigenvalues +-1): the series diverges
        matrix = adjacency(make_case(2, [(0, 1), (1, 0)]))
        monkeypatch.setattr("dsmseq.ranking.DELTA", 1.0)
        with pytest.raises(ValueError, match="diverges at n=2"):
            walk_resolvent_order(matrix)

    def test_nearly_singular_system_is_rejected(self, monkeypatch):
        # delta * rho = 1 - 1e-13: the series converges, but only after far
        # more terms than the cap
        matrix = adjacency(make_case(2, [(0, 1), (1, 0)]))
        monkeypatch.setattr("dsmseq.ranking.DELTA", 1.0 - 1e-13)
        with pytest.raises(ValueError, match=f"does not converge within {RESOLVENT_MAX_TERMS:,} terms"):
            walk_resolvent_order(matrix)

    def test_refusal_follows_the_spectral_radius_and_cond(self, monkeypatch):
        """A system is accepted only if delta times the spectral radius of
        A is below 1, and then its keys are the column and row sums of
        np.linalg.solve(I - delta*A, I). A system refused as divergent has
        delta * rho >= 1. One refused at the term cap has delta * rho so
        close to 1 that (delta * rho)^RESOLVENT_MAX_TERMS is still above
        2^-54, so its geometric terms still count in float64: the 2-cycle
        at delta 1 - 1e-3 is one. Every cap refusal here has delta * rho
        at most 1, so it is ill-conditioned: A has a zero diagonal, so
        I - delta*A has an eigenvalue of modulus at least 1 and one of
        1 - delta * rho, and its 1-norm condition is at least
        1 / (1 - delta * rho) > RESOLVENT_MAX_TERMS / (54 ln 2), infinite
        at delta * rho = 1. And every system whose condition passes 1e12
        is refused."""
        rng = random.Random(41)
        two_cycle = adjacency(make_case(2, [(0, 1), (1, 0)]))
        systems = [(two_cycle, delta) for delta in (1.0, 1 - 1e-13, 1 - 2e-12, 1 - 2.5e-12, 1 - 1e-3)]
        for _ in range(30):
            matrix = adjacency(random_case(rng, rng.randrange(4, 13), rng.choice([0.15, 0.3])))
            systems += [(matrix, delta) for delta in (0.025, 0.1, 0.2, 0.3, 0.5, 1.0)]
        outcomes = []
        for matrix, delta in systems:
            monkeypatch.setattr("dsmseq.ranking.DELTA", delta)
            a = dense(matrix)
            radius = delta * np.abs(np.linalg.eigvals(a)).max()
            try:
                ranking = walk_resolvent_order(matrix)
            except ValueError as caught:
                message = str(caught)
                if "diverges" in message:
                    outcomes.append("diverges")
                    assert radius >= 1 - 1e-12, message  # eigvals rounds a radius of exactly 1
                else:
                    outcomes.append("cap")
                    assert f"does not converge within {RESOLVENT_MAX_TERMS:,} terms" in message
                    assert radius ** RESOLVENT_MAX_TERMS > 2.0**-54, radius
                    condition = np.linalg.cond(np.eye(matrix.n) - delta * a, 1)
                    assert condition > RESOLVENT_MAX_TERMS / (54 * math.log(2)), condition
                continue
            outcomes.append("accepted")
            assert radius < 1
            assert np.linalg.cond(np.eye(matrix.n) - delta * a, 1) <= 1e12
            f = np.linalg.solve(np.eye(matrix.n) - delta * a, np.eye(matrix.n))
            assert list(ranking.primary_keys.values()) == pytest.approx(f.sum(axis=0).tolist(), rel=1e-12)
            assert list(ranking.secondary_keys.values()) == pytest.approx(f.sum(axis=1).tolist(), rel=1e-12)
        assert outcomes[:5] == ["diverges", "cap", "cap", "cap", "cap"]
        assert {"accepted", "diverges", "cap"} <= set(outcomes[5:])

    def test_periodic_hub_ranks(self):
        """A hub in 2-cycles with k spokes has spectral radius sqrt(k) and
        period 2, so its series alternates between hub and spokes: at
        k = 1,000, delta * rho is about 0.79, and the terms of each node
        rise and fall from one step to the next. The series still ranks
        it, with LAPACK's order and keys within 1e-12 of the solve."""
        for spokes in (50, 1000):
            n = spokes + 1
            matrix = adjacency(make_case(n, [e for i in range(1, n) for e in ((0, i), (i, 0))]))
            ranking = walk_resolvent_order(matrix, seed=3)
            system = np.eye(n) - 0.025 * dense(matrix)
            rows = np.linalg.solve(system, np.ones(n))
            cols = np.linalg.solve(system.T, np.ones(n))
            assert list(ranking.primary_keys.values()) == pytest.approx(cols.tolist(), rel=1e-12)
            assert list(ranking.secondary_keys.values()) == pytest.approx(rows.tolist(), rel=1e-12)
            assert ranking.order == _rank("walk-resolvent", matrix, cols, rows, 3).order
            assert ranking.order[0] == matrix.ids[0]  # the hub

    def test_divergent_series_is_refused(self, monkeypatch):
        # the complete digraphs on 41 and 42 nodes: delta * spectral radius
        # is 0.025 * 40 = 1 and 0.025 * 41 > 1. The first term already shows
        # it, so a cap of one term refuses both. With an isolated node
        # added, min g stays 0, but the second term is at least the first
        # on the first term's support, so a cap of two terms refuses them
        for k, isolated in ((41, 0), (42, 0), (41, 1), (42, 1)):
            monkeypatch.setattr("dsmseq.ranking.RESOLVENT_MAX_TERMS", 1 + isolated)
            with pytest.raises(ValueError, match=f"diverges at n={k + isolated}"):
                walk_resolvent_order(complete_digraph(k, isolated))


class TestVisibility:
    def test_chain_row_and_column_sums(self):
        matrix = chain(5)
        closure = reachability_closure(matrix)
        assert closure.sum(axis=1).tolist() == [1, 2, 3, 4, 5]
        assert closure.sum(axis=0).tolist() == [5, 4, 3, 2, 1]
        ranking = visibility_order(matrix, seed=0)
        assert ranking.order == ("v00", "v01", "v02", "v03", "v04")
        assert ranking.tie_groups == ()

    def test_closure_matches_graph_reachability(self):
        rng = random.Random(23)
        # sparse draws leave many singleton components, dense ones make
        # the whole network one component
        for density in [0.25] * 20 + [0.9] * 5:
            case = random_case(rng, 9, density)
            matrix = adjacency(case)
            closure = reachability_closure(matrix)
            graph = dependency_digraph(matrix)
            for i in range(matrix.n):
                for j in range(matrix.n):
                    assert closure[i][j] == int(nx.has_path(graph, j, i))

    def test_closure_matches_descendants_at_the_timed_size(self):
        # 100 nodes at 1.4 to 3.9 edges per node: each draw holds a
        # multi-node strongly connected component, from a quarter to nearly
        # all of the nodes, with singleton components up- and downstream
        rng = random.Random(29)
        for degree in (1.4, 1.8, 2.6, 3.9):
            matrix = adjacency(random_case(rng, 100, degree / 99))
            closure = reachability_closure(matrix)
            graph = dependency_digraph(matrix)
            assert max(len(c) for c in nx.strongly_connected_components(graph)) >= 20
            for j in range(matrix.n):
                reached = np.zeros(matrix.n, dtype=np.int64)
                reached[list(nx.descendants(graph, j) | {j})] = 1
                assert np.array_equal(closure[:, j], reached)

    def test_keys_are_the_closure_sums(self, data_dir):
        """Visibility counts on the component rows and does not read the
        closure, so the two are held together here: on the bundled cases
        and seeded draws from one component to many, the primary keys are
        the closure's column sums and the secondary keys its row sums."""
        matrices = [build_adjacency(load_case(path)) for path in sorted(data_dir.glob("*.json"))]
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randrange(2, 80)
            matrices.append(adjacency(random_case(rng, n, rng.choice([0.5, 1.5, 3.0, 8.0]) / n)))
        for matrix in matrices:
            ranking = visibility_order(matrix, seed=0)
            closure = reachability_closure(matrix)
            assert [ranking.primary_keys[i] for i in matrix.ids] == closure.sum(axis=0).tolist()
            assert [ranking.secondary_keys[i] for i in matrix.ids] == closure.sum(axis=1).tolist()

    def test_closure_is_binary_and_reflexive(self):
        matrix = adjacency(random_case(random.Random(4), 7, 0.4))
        closure = reachability_closure(matrix)
        assert set(np.unique(closure).tolist()) <= {0, 1}
        assert np.array_equal(np.diag(closure), np.ones(matrix.n, dtype=np.int64))


class TestSharedBehavior:
    TIE_FREE = PLASTIC_EDGES

    @pytest.mark.parametrize("name", sorted(DETERMINISTIC_METHODS))
    def test_registry_produces_full_orders(self, name):
        matrix = adjacency(make_case(5, [(1, 0), (2, 1), (3, 1), (4, 2), (0, 4)]))
        with quiet_runtime_warnings():
            ranking = DETERMINISTIC_METHODS[name](matrix, seed=0)
        assert isinstance(ranking, NodeRanking)
        assert sorted(ranking.order) == sorted(matrix.ids)
        assert set(ranking.primary_keys) == set(matrix.ids)

    @pytest.mark.parametrize("name", sorted(DETERMINISTIC_METHODS))
    def test_keys_come_from_the_edge_lists(self, name, data_dir):
        """No ranking reads the dense matrix: on a matrix whose a raises,
        every ranking gives the same result as on the plain one."""

        class EdgesOnly(AdjacencyMatrix):
            @property
            def a(self):
                raise AssertionError("a ranking read the dense matrix")

        matrices = [build_adjacency(load_case(path)) for path in sorted(data_dir.glob("*.json"))]
        matrices.append(adjacency(random_case(random.Random(5), 40, 0.1)))
        for matrix in matrices:
            edges_only = EdgesOnly(**{f.name: getattr(matrix, f.name) for f in dataclasses.fields(matrix)})
            with quiet_runtime_warnings():
                ranking = DETERMINISTIC_METHODS[name](edges_only, seed=0)
                assert ranking == DETERMINISTIC_METHODS[name](matrix, seed=0)

    @pytest.mark.parametrize("name", sorted(DETERMINISTIC_METHODS))
    def test_empty_matrix_gives_an_empty_order(self, name):
        matrix = matrix_from_array(np.zeros((0, 0), dtype=np.int64), ())
        assert DETERMINISTIC_METHODS[name](matrix, seed=0).order == ()

    @pytest.mark.parametrize("name", sorted(DETERMINISTIC_METHODS))
    def test_same_seed_same_result(self, name):
        matrix = adjacency(random_case(random.Random(31), 8, 0.3))
        with quiet_runtime_warnings():
            first = DETERMINISTIC_METHODS[name](matrix, seed=42)
            second = DETERMINISTIC_METHODS[name](matrix, seed=42)
        assert first == second

    def test_seed_only_moves_tied_nodes(self):
        matrix = chain(6)
        orders = {out_in_degree_order(matrix, seed=s).order for s in range(6)}
        assert len(orders) > 1  # middle block reshuffles
        for order in orders:
            assert order[0] == "v00" and order[-1] == "v05"

    def test_node_listing_order_is_irrelevant_when_tie_free(self):
        base = make_case(3, PLASTIC_EDGES)
        shuffled_nodes = (base.nodes[2], base.nodes[0], base.nodes[1])
        reordered = DsmCase(nodes=shuffled_nodes, edges=base.edges, description=base.description)
        for name in ("outin", "eig", "exp", "resolvent", "visibility"):
            with quiet_runtime_warnings():
                a = DETERMINISTIC_METHODS[name](build_adjacency(base), seed=0)
                b = DETERMINISTIC_METHODS[name](build_adjacency(reordered), seed=0)
            if not a.tie_groups and not b.tie_groups:
                assert a.order == b.order

    def test_to_dict_round_trip_shape(self):
        ranking = out_in_degree_order(chain(4), seed=0)
        as_dict = ranking.to_dict()
        assert as_dict["method"] == "out-in-degree"
        assert as_dict["order"] == list(ranking.order)
        assert as_dict["warning"] is None
        assert isinstance(as_dict["tie_groups"], list)


class TestOrientation:
    """Every primary key is larger for a node more of the network depends
    on, so one descending sort puts suppliers before their dependents."""

    def test_visibility_puts_every_dag_in_dependency_order(self):
        # on an acyclic network a predecessor reaches its dependent and all
        # that the dependent reaches, so its column sum is strictly larger
        rng = random.Random(53)
        for _ in range(30):
            n = rng.randrange(2, 101)
            labels = rng.sample(range(n), n)  # node order is no topological order
            density = rng.choice([0.02, 0.05, 0.2])
            pairs = [(labels[d], labels[p]) for d in range(n) for p in range(d) if rng.random() < density]
            matrix = adjacency(make_case(n, pairs))
            assert score_sequence(matrix, visibility_order(matrix, seed=0).order) == 0

    @pytest.mark.parametrize("name", ["exp", "resolvent"])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_walk_rankings_run_a_chain_from_its_source(self, name, n):
        # node i's column sum exceeds node i + 1's by the weight of one walk
        # of length n - 1 - i; past n = 6 (0.025^6 = 2.4e-10) the
        # resolvent's weights fall below the tie tolerance
        ranking = DETERMINISTIC_METHODS[name](chain(n), seed=0)
        assert ranking.order == tuple(f"v{i:02d}" for i in range(n))
        assert ranking.tie_groups == ()

    def test_walk_rankings_beat_a_random_order(self, data_dir):
        """Over the bundled cases and the golden analysis draws, each walk
        ranking leaves fewer feedbacks than half the edges, the mean score
        of a random order."""
        matrices = [build_adjacency(load_case(path)) for path in sorted(data_dir.glob("*.json"))]
        rng = random.Random(2026)
        matrices += [build_adjacency(random_case(rng, n, density)) for n, density in ANALYSIS_DRAWS]
        half = sum(len(m.dep_idx) for m in matrices) / 2
        for name in ("eig", "exp", "resolvent", "visibility"):
            with quiet_runtime_warnings():
                total = sum(score_sequence(m, DETERMINISTIC_METHODS[name](m, seed=0).order) for m in matrices)
            assert total < half, (name, total, half)
