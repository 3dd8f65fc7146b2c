"""Solution archive: insertion, dedup, best, sampling, termination."""

import random

import pytest

from dsmseq import (
    SolutionBase,
    TerminationPolicy,
    build_adjacency,
    score_sequence,
)
from dsmseq import solutions
from conftest import make_case


@pytest.fixture()
def chain_case():
    # chain: v01 dep v00, v02 dep v01, v03 dep v02
    return make_case(4, [(1, 0), (2, 1), (3, 2)])


def rows(matrix, order):
    """An order of ids as the matrix row indices the archive takes."""
    return [matrix.index_of[node_id] for node_id in order]


def filled_base(matrix, orders):
    base = SolutionBase(matrix)
    for order in orders:
        base.insert(rows(matrix, order))
    return base


class TestInsert:
    def test_dedup(self, chain_case):
        m = build_adjacency(chain_case)
        base = SolutionBase(m)
        order = list(m.ids)
        first, is_new = base.insert(rows(m, order))
        assert is_new is True and first.sequence == tuple(order)
        again, is_new = base.insert(tuple(rows(m, order)))
        assert is_new is False
        assert again is first  # the stored record, as first found
        assert len(base) == 1

    def test_two_distinct(self, chain_case):
        m = build_adjacency(chain_case)
        base = filled_base(m, [list(m.ids), list(reversed(m.ids))])
        assert len(base) == 2

    def test_score_must_match_evaluator(self, chain_case):
        m = build_adjacency(chain_case)
        base = SolutionBase(m)
        rng = random.Random(1)
        scores = []
        for _ in range(10):
            order = rng.sample(list(m.ids), m.n)
            record, _ = base.insert(rows(m, order))
            assert record.sequence == tuple(order)
            assert record.score == score_sequence(m, order)
            scores.append(record.score)
        assert base.best().score == min(scores)

    def test_invalid_sequence_rejected(self, chain_case):
        m = build_adjacency(chain_case)
        base = SolutionBase(m)
        for bad in ((0, 0, 1, 2), (0, 1, 2), (0, 1, 2, 3, 3), (1, 2, 3, 4), (-1, 0, 1, 2)):
            with pytest.raises(ValueError, match="invalid sequence"):
                base.insert(bad)
        assert len(base) == 0

    def test_ids_are_the_matrix_own_strings(self, chain_case):
        m = build_adjacency(chain_case)
        record, _ = SolutionBase(m).insert([3, 1, 0, 2])
        assert all(got is m.ids[r] for got, r in zip(record.sequence, (3, 1, 0, 2)))


class TestBest:
    def test_best_is_min_score(self, chain_case):
        rng = random.Random(0)
        m = build_adjacency(chain_case)
        orders = set()
        while len(orders) < 20:
            orders.add(tuple(rng.sample(list(m.ids), m.n)))
        base = filled_base(m, sorted(orders))
        assert base.best().score == min(score_sequence(m, order) for order in orders)

    def test_tie_broken_by_iteration(self, chain_case):
        m = build_adjacency(chain_case)
        s1 = ("v01", "v00", "v02", "v03")  # one feedback (v01 before v00)
        s2 = ("v00", "v02", "v01", "v03")  # one feedback (v02 before v01)
        assert score_sequence(m, s1) == score_sequence(m, s2) == 1
        assert filled_base(m, [s1, s2]).best().sequence == s1

    def test_tie_goes_to_arrival_not_iteration(self, chain_case):
        m = build_adjacency(chain_case)
        s1 = ("v01", "v00", "v02", "v03")
        s2 = ("v00", "v02", "v01", "v03")
        assert filled_base(m, [s2, s1]).best().sequence == s2

    def test_empty_base_errors(self, chain_case):
        base = SolutionBase(build_adjacency(chain_case))
        with pytest.raises(ValueError, match="empty"):
            base.best()


def tied_archive(seed, inserts=60):
    """An archive filled with random orders of a sparse 6-node case, so
    many records share a score; returns it with the accepted records in
    arrival order."""
    rng = random.Random(seed)
    case = make_case(6, [(1, 0), (2, 1), (4, 3), (5, 2)])
    m = build_adjacency(case)
    base = SolutionBase(m)
    arrived = []
    for _ in range(inserts):
        record, is_new = base.insert(rng.sample(range(m.n), m.n))
        if is_new:
            arrived.append(record)
    return base, arrived


class TestRanking:
    """The archive's ranking against a brute-force sort by (score, arrival)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_best_and_top_match_brute_force(self, seed, monkeypatch):
        base, arrived = tied_archive(seed)
        ranked = [arrived[i] for i in sorted(range(len(arrived)), key=lambda i: (arrived[i].score, i))]
        assert len({r.score for r in arrived}) < len(arrived) // 4  # heavy ties
        assert base.best() == ranked[0]
        monkeypatch.setattr(solutions, "K_Q", 0)
        for k_p in (1, 3, 10):
            monkeypatch.setattr(solutions, "K_P", k_p)
            out = base.sample_for_prompt(random.Random(seed))
            assert out == sorted(ranked[:k_p], key=lambda r: -r.score)

    @pytest.mark.parametrize("seed", range(8))
    def test_sample_draws_like_a_full_sort(self, seed, monkeypatch):
        # the same rng.sample call over the ranks below the top k_p, so a
        # seeded run picks the same precedents as sorting the whole archive
        base, arrived = tied_archive(seed)
        ranked = sorted(range(len(arrived)), key=lambda i: (arrived[i].score, i))
        for k_p, k_q in ((5, 5), (2, 9), (1, 0), (40, 5)):
            monkeypatch.setattr(solutions, "K_P", k_p)
            monkeypatch.setattr(solutions, "K_Q", k_q)
            rng_ref, rng = random.Random(seed), random.Random(seed)
            rest = ranked[k_p:]
            picked = rng_ref.sample(rest, min(k_q, len(rest)))
            expected = sorted((arrived[i] for i in ranked[:k_p] + picked), key=lambda r: -r.score)
            assert base.sample_for_prompt(rng) == expected
            assert rng.random() == rng_ref.random()  # same number of draws


class TestSampling:
    def make_distinct_score_base(self, size=20):
        """n=size chain: prefix-reversal orders give distinct scores."""
        case = make_case(size, [(i + 1, i) for i in range(size - 1)])
        m = build_adjacency(case)
        ids = list(m.ids)
        base = SolutionBase(m)
        for k in range(size):
            order = list(reversed(ids[: k + 1])) + ids[k + 1 :]
            assert score_sequence(m, order) == k  # reversing a k-prefix flips k edges
            base.insert(rows(m, order))
        return base

    def test_undersized_base_returns_all(self, chain_case):
        m = build_adjacency(chain_case)
        base = filled_base(m, [list(m.ids), list(reversed(m.ids)),
                               ["v01", "v00", "v02", "v03"]])
        out = base.sample_for_prompt(random.Random(0))
        assert len(out) == 3

    def test_contains_k_best_and_length(self):
        base = self.make_distinct_score_base(20)
        out = base.sample_for_prompt(random.Random(123))
        assert len(out) == 10
        scores = [r.score for r in out]
        assert set(range(5)).issubset(set(scores))

    def test_worst_first_ordering(self):
        base = self.make_distinct_score_base(20)
        out = base.sample_for_prompt(random.Random(5))
        scores = [r.score for r in out]
        assert scores == sorted(scores, reverse=True)
        assert scores[-1] == 0  # global best closes the list

    def test_no_duplicates(self):
        base = self.make_distinct_score_base(20)
        for seed in range(50):
            out = base.sample_for_prompt(random.Random(seed))
            sequences = [r.sequence for r in out]
            assert len(set(sequences)) == len(sequences)

    def test_deterministic_given_seed(self):
        base = self.make_distinct_score_base(20)
        a = base.sample_for_prompt(random.Random(77))
        b = base.sample_for_prompt(random.Random(77))
        assert a == b

    def test_empty_base_errors(self, chain_case):
        base = SolutionBase(build_adjacency(chain_case))
        with pytest.raises(ValueError, match="empty"):
            base.sample_for_prompt(random.Random(0))


class TestTermination:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TerminationPolicy(max_iterations=0)
        for value in (2.5, True, "3"):
            with pytest.raises(ValueError, match=f"max_iterations must be an int, got {value!r}"):
                TerminationPolicy(max_iterations=value)


class TestScoreOnce:
    def counting_base(self, monkeypatch, matrix):
        calls = []
        original = solutions.feedback_count

        def counting(m, order):
            calls.append(tuple(order.tolist()))
            return original(m, order)

        monkeypatch.setattr(solutions, "feedback_count", counting)
        return SolutionBase(matrix), calls

    def test_repeat_is_not_scored_again(self, monkeypatch, chain_case):
        m = build_adjacency(chain_case)
        base, calls = self.counting_base(monkeypatch, m)
        order, other = (0, 1, 2, 3), (3, 2, 1, 0)
        first, _ = base.insert(order)
        base.insert(other)
        again, is_new = base.insert(list(order))
        assert (again, is_new) == (first, False)
        assert calls == [order, other]

    def test_score_validates(self, monkeypatch, chain_case):
        m = build_adjacency(chain_case)
        base, calls = self.counting_base(monkeypatch, m)
        bad = (0, 0, 1, 2)
        for _ in range(2):  # a failed order is not remembered as a repeat
            with pytest.raises(ValueError, match="invalid sequence"):
                base.insert(bad)
        assert calls == []  # refused before it is scored
        assert len(base) == 0
