"""Scoring, validation, reordering, and the exhaustive optimum."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from dsmseq import (
    brute_force_optimum,
    build_adjacency,
    bundled_case,
    bundled_case_names,
    is_valid_sequence,
    reorder_matrix,
    score_sequence,
)
from dsmseq import scoring
from dsmseq.model import matrix_from_array
from dsmseq.scoring import feedback_count

from conftest import dense, make_case, naive_score, random_case


def enumeration_oracle(case):
    """Literal sweep over all permutations using the naive scorer only."""
    ids = list(case.node_ids)
    best = None
    best_order = None
    for perm in itertools.permutations(ids):
        s = naive_score(case, perm)
        if best is None or s < best or (s == best and list(perm) < best_order):
            best = s
            best_order = list(perm)
    return best, best_order


def reference_optimum(matrix):
    """The subset DP as a pure-Python loop over every mask and every set bit
    of it, with the same front-first, smallest-id reconstruction: the
    reference for the numpy fill by subset size."""
    n = matrix.n
    preds_mask = [0] * n
    for d, p in zip(matrix.dep_idx, matrix.pred_idx):
        preds_mask[int(d)] |= 1 << int(p)

    full = (1 << n) - 1
    dp = [0] * (full + 1)
    for mask in range(1, full + 1):
        best = None
        rest = mask
        while rest:
            v_bit = rest & -rest
            rest ^= v_bit
            v = v_bit.bit_length() - 1
            cost = (preds_mask[v] & (mask ^ v_bit)).bit_count() + dp[mask ^ v_bit]
            if best is None or cost < best:
                best = cost
        dp[mask] = best

    by_id = sorted(range(n), key=lambda v: matrix.ids[v])
    order = []
    mask = full
    while mask:
        for v in by_id:
            v_bit = 1 << v
            if not mask & v_bit:
                continue
            cost = (preds_mask[v] & (mask ^ v_bit)).bit_count() + dp[mask ^ v_bit]
            if cost == dp[mask]:
                order.append(matrix.ids[v])
                mask ^= v_bit
                break
    return dp[full], order


class TestValidation:
    def test_any_permutation_is_valid(self, demo_case):
        order = sorted(demo_case.node_ids)
        ok, diag = is_valid_sequence(build_adjacency(demo_case), order)
        assert ok and diag == "ok"

    def test_repeat_and_missing_named(self):
        ok, diag = is_valid_sequence(build_adjacency(make_case(3, [])), ["v00", "v00", "v01"])
        assert not ok
        assert "duplicated" in diag and "v00" in diag
        assert "missing" in diag and "v02" in diag

    def test_unknown_id_named(self):
        ok, diag = is_valid_sequence(["v00", "v01"], ["v00", "zzzzz"])
        assert not ok
        assert "unknown" in diag and "zzzzz" in diag


def counter_verdict(ids, candidate):
    """The full Counter check, run on every candidate."""
    expected = set(ids)
    counts = Counter(candidate)
    problems = [
        f"{kind} ids: {found}"
        for kind, found in (
            ("duplicated", sorted(item for item, c in counts.items() if c > 1)),
            ("unknown", sorted(counts.keys() - expected)),
            ("missing", sorted(expected - counts.keys())),
        )
        if found
    ]
    return (False, "; ".join(problems)) if problems else (True, "ok")


def candidate_kinds(rng, ids):
    """(kind, candidate list) pairs covering every way a candidate can fail."""
    perm = rng.sample(ids, len(ids))
    dup = list(perm)
    i, j = rng.sample(range(len(ids)), 2)
    dup[i] = dup[j]
    unknown = list(perm)
    unknown[rng.randrange(len(ids))] = "zz" + str(rng.randrange(100))
    return [
        ("permutation", perm),
        ("duplicate-and-missing", dup),
        ("unknown", unknown),
        ("unknown-extra", perm + ["zz"]),
        ("short", perm[: rng.randrange(len(ids))]),
        ("long", perm + [rng.choice(ids)]),
        ("empty", []),
    ]


class TestValidationFastPath:
    @pytest.mark.parametrize("target", ["matrix", "ids"])
    def test_matches_the_counter_check(self, target):
        rng = random.Random(11)
        for trial in range(60):
            case = random_case(rng, rng.randint(2, 12), 0.3)
            ids = list(case.node_ids)
            check = {"matrix": build_adjacency(case), "ids": ids}[target]
            for kind, candidate in candidate_kinds(rng, ids):
                expected = counter_verdict(ids, candidate)
                assert expected[0] == (kind == "permutation"), (trial, kind)
                assert is_valid_sequence(check, candidate) == expected, (trial, kind)
                assert is_valid_sequence(check, tuple(candidate)) == expected
                assert is_valid_sequence(check, (c for c in candidate)) == expected

    def test_plain_iterable_of_ids_may_be_a_generator(self):
        ids = ["a", "b", "c"]
        assert is_valid_sequence((i for i in ids), ["c", "a", "b"]) == (True, "ok")
        assert is_valid_sequence((i for i in ids), ["c", "a"]) == (False, "missing ids: ['b']")


class TestScoreSequence:
    def test_single_edge_both_orders(self):
        case = make_case(2, [(1, 0)])  # v01 depends on v00
        m = build_adjacency(case)
        assert score_sequence(m, ["v00", "v01"]) == 0
        assert score_sequence(m, ["v01", "v00"]) == 1

    def test_three_cycle_floor_and_ceiling(self):
        # a directed 3-cycle cannot be sequenced below 1 feedback: orders
        # following the cycle score 1, orders against it score 2
        case = make_case(3, [(1, 0), (2, 1), (0, 2)])
        m = build_adjacency(case)
        scores = sorted(score_sequence(m, p) for p in itertools.permutations(case.node_ids))
        assert scores == [1, 1, 1, 2, 2, 2]
        assert score_sequence(m, ("v00", "v01", "v02")) == 1

    def test_dag_topological_order_is_zero(self):
        # diamond: 1 and 2 depend on 0; 3 depends on 1 and 2
        case = make_case(4, [(1, 0), (2, 0), (3, 1), (3, 2)])
        m = build_adjacency(case)
        assert score_sequence(m, ["v00", "v01", "v02", "v03"]) == 0
        assert score_sequence(m, ["v00", "v02", "v01", "v03"]) == 0

    def test_matches_naive_double_loop(self):
        rng = random.Random(42)
        for trial in range(60):
            case = random_case(rng, rng.randint(3, 9), rng.uniform(0.1, 0.9))
            m = build_adjacency(case)
            order = rng.sample(list(case.node_ids), case.n)
            assert score_sequence(m, order) == naive_score(case, order)

    def test_a_stack_of_orders_scores_each_row(self):
        rng = random.Random(23)
        for trial in range(40):
            case = random_case(rng, rng.randint(2, 12), rng.uniform(0.1, 0.9))
            m = build_adjacency(case)
            rows = [rng.sample(range(case.n), case.n) for _ in range(rng.randint(1, 6))]
            expected = [naive_score(case, [case.node_ids[i] for i in row]) for row in rows]
            stack = np.array(rows, dtype=np.uint8)
            assert feedback_count(m, stack).tolist() == expected
            assert [feedback_count(m, row) for row in stack] == expected

    def test_forward_plus_reverse_equals_edge_count(self):
        rng = random.Random(7)
        for trial in range(40):
            case = random_case(rng, rng.randint(3, 10), rng.uniform(0.1, 0.9))
            m = build_adjacency(case)
            order = rng.sample(list(case.node_ids), case.n)
            total = score_sequence(m, order) + score_sequence(m, list(reversed(order)))
            assert total == len(case.edges)

    def test_invalid_sequence_rejected_with_diagnostic(self, demo_case):
        m = build_adjacency(demo_case)
        with pytest.raises(ValueError, match="missing"):
            score_sequence(m, list(demo_case.node_ids)[:-1])


class TestReorder:
    def test_identity(self, demo_case):
        m = build_adjacency(demo_case)
        same = reorder_matrix(m, list(m.ids))
        assert np.array_equal(dense(same), dense(m))

    def test_preserves_one_count_and_row_sum_multiset(self, demo_case):
        rng = random.Random(1)
        m = build_adjacency(demo_case)
        for _ in range(10):
            order = rng.sample(list(m.ids), m.n)
            r = reorder_matrix(m, order)
            assert dense(r).sum() == dense(m).sum()
            assert sorted(dense(r).sum(axis=1)) == sorted(dense(m).sum(axis=1))

    def test_permutes_the_edge_lists_without_a_dense_array(self, demo_case):
        rng = random.Random(3)
        for _ in range(10):
            m = build_adjacency(demo_case)
            order = rng.sample(list(m.ids), m.n)
            r = reorder_matrix(m, order)
            assert r.ids == tuple(order)
            # row-major, as build_adjacency leaves them
            assert np.array_equal(np.lexsort((r.pred_idx, r.dep_idx)), np.arange(len(r.dep_idx)))
            idx = [m.index_of[node_id] for node_id in order]
            assert np.array_equal(dense(r), dense(m)[np.ix_(idx, idx)])

    def test_upper_triangle_equals_score(self, demo_case):
        rng = random.Random(2)
        m = build_adjacency(demo_case)
        for _ in range(10):
            order = rng.sample(list(m.ids), m.n)
            r = reorder_matrix(m, order)
            assert int(np.triu(dense(r), k=1).sum()) == score_sequence(m, order)


class TestBruteForce:
    def test_empty_edges(self):
        case = make_case(4, [])
        score, order = brute_force_optimum(build_adjacency(case))
        assert score == 0
        assert sorted(order) == sorted(case.node_ids)

    def test_three_cycle(self):
        case = make_case(3, [(1, 0), (2, 1), (0, 2)])
        score, _ = brute_force_optimum(build_adjacency(case))
        assert score == 1

    def test_two_independent_three_cycles(self):
        case = make_case(6, [(1, 0), (2, 1), (0, 2), (4, 3), (5, 4), (3, 5)])
        score, _ = brute_force_optimum(build_adjacency(case))
        assert score == 2

    def test_guard_refuses_large(self):
        case = make_case(11, [(1, 0)])
        with pytest.raises(ValueError, match="n <= 10"):
            brute_force_optimum(build_adjacency(case))

    def test_matches_literal_enumeration(self):
        rng = random.Random(99)
        for trial in range(25):
            case = random_case(rng, rng.randint(3, 6), rng.uniform(0.15, 0.8))
            m = build_adjacency(case)
            expect_score, expect_order = enumeration_oracle(case)
            got_score, got_order = brute_force_optimum(m)
            assert got_score == expect_score
            # identical tie rule: lexicographically smallest optimum
            assert got_order == expect_order

    def test_returned_order_achieves_returned_score(self, demo_case):
        m = build_adjacency(demo_case)
        score, order = brute_force_optimum(m)
        assert score_sequence(m, order) == score
        assert score == demo_case.known_optimum

    def test_matches_the_pure_python_reference(self):
        rng = np.random.default_rng(28)
        for trial in range(2000):
            n = int(rng.integers(1, 11))
            # every tenth network is empty or complete, the rest any density
            density = (0.0, 1.0)[trial // 10 % 2] if trial % 10 == 0 else rng.random()
            a = (rng.random((n, n)) < density).astype(np.int8)
            np.fill_diagonal(a, 0)
            # shuffled ids: their sorted order is not the row order, so ties
            # are broken by the id rule and not by the row index
            ids = tuple(f"n{i:03d}" for i in rng.permutation(1000)[:n])
            m = matrix_from_array(a, ids)
            assert brute_force_optimum(m) == reference_optimum(m), trial

    @pytest.mark.parametrize("name", bundled_case_names())
    def test_declared_optima_are_exact(self, name, monkeypatch):
        # the subset DP is exact at any n; its guard only bounds the time,
        # about 20 ms at the largest bundled case (n = 17)
        monkeypatch.setattr(scoring, "EXHAUSTIVE_LIMIT", 17)
        case = bundled_case(name)
        m = build_adjacency(case)
        score, order = brute_force_optimum(m)
        assert score == case.known_optimum
        assert (score, order) == reference_optimum(m)
