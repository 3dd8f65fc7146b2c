"""Genetic algorithm: presets, operator closure, selection pressure, runs."""

import hashlib
import json
import random
from collections import defaultdict

import numpy as np
import pytest

from dsmseq import (
    GaConfig,
    bundled_case,
    bundled_case_names,
    build_adjacency,
    matrix_from_array,
    order_crossover,
    pmx_crossover,
    preset_config,
    run_ga,
    score_sequence,
    shuffle_mutation,
    tournament_select,
)
from dsmseq import ga
from dsmseq.ga import GENERATIONS_DEFAULT, _draws, _permutation_stack
from conftest import adjacency, make_case, naive_score

LETTERS = b"abcdefgh"


def chain_matrix(n=7):
    return adjacency(make_case(n, [(i + 1, i) for i in range(n - 1)]))


def cycle_matrix():
    return adjacency(make_case(3, [(1, 0), (2, 1), (0, 2)]))


class TestPresets:
    @pytest.mark.parametrize(
        "name, pop, indpb, tournament, cxpb, mutpb",
        [
            ("exploration", 50, 0.05, 5, 0.6, 0.4),
            ("exploitation", 10, 0.01, 20, 0.9, 0.1),
            ("balanced", 20, 0.02, 10, 0.7, 0.3),
        ],
    )
    def test_tuned_values(self, name, pop, indpb, tournament, cxpb, mutpb):
        cfg = preset_config(name, seed=7)
        assert cfg.population_size == pop
        assert cfg.indpb == indpb
        assert cfg.tournament_size == tournament
        assert cfg.cxpb == cxpb
        assert cfg.mutpb == mutpb
        assert cfg.generations == 2000
        assert cfg.seed == 7

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("chaotic")

    def test_generation_override(self):
        assert preset_config("balanced", generations=50).generations == 50


class TestConfigValidation:
    def test_population_floor(self):
        with pytest.raises(ValueError, match="population_size"):
            GaConfig(population_size=1, generations=10, indpb=0.1, tournament_size=2, cxpb=0.5, mutpb=0.5)

    def test_generation_floor(self):
        with pytest.raises(ValueError, match="generations"):
            GaConfig(population_size=4, generations=0, indpb=0.1, tournament_size=2, cxpb=0.5, mutpb=0.5)

    @pytest.mark.parametrize("field, value", [("indpb", -0.1), ("cxpb", 1.5), ("mutpb", 2.0)])
    def test_probability_bounds(self, field, value):
        kwargs = dict(population_size=4, generations=10, indpb=0.1, tournament_size=2, cxpb=0.5, mutpb=0.5)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            GaConfig(**kwargs)

    def test_tournament_floor(self):
        with pytest.raises(ValueError, match="tournament_size"):
            GaConfig(population_size=4, generations=10, indpb=0.1, tournament_size=0, cxpb=0.5, mutpb=0.5)

    @pytest.mark.parametrize(
        "field, value",
        [("population_size", 10.0), ("generations", 2.5), ("generations", True), ("tournament_size", 2.0)],
    )
    def test_sizes_must_be_ints(self, field, value):
        # a float size used to fail late, inside run_ga, and True ran one generation
        kwargs = dict(population_size=4, generations=10, indpb=0.1, tournament_size=2, cxpb=0.5, mutpb=0.5)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an int, got {value!r}"):
            GaConfig(**kwargs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            preset_config("balanced", seed=-1)
        with pytest.raises(ValueError, match="seed must be an int"):
            preset_config("balanced", seed=1.5)


def random_swaps(rng, n, count):
    swaps = []
    for _ in range(count):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        swaps.append((i, j + (j >= i)))
    return swaps


class TestMutation:
    def test_zero_rate_is_identity(self):
        assert shuffle_mutation(LETTERS, []) == LETTERS

    def test_always_a_permutation(self):
        rng = random.Random(1)
        for _ in range(200):
            out = shuffle_mutation(LETTERS, random_swaps(rng, len(LETTERS), rng.randrange(1, 9)))
            assert sorted(out) == sorted(LETTERS)

    def test_deterministic_under_seed(self):
        # the swaps are applied in list order, so their order matters
        assert shuffle_mutation(LETTERS, [(0, 1), (1, 2)]) == b"bcadefgh"
        assert shuffle_mutation(LETTERS, [(1, 2), (0, 1)]) == b"cabdefgh"
        swaps = random_swaps(random.Random(9), len(LETTERS), 5)
        assert shuffle_mutation(LETTERS, swaps) == shuffle_mutation(LETTERS, swaps)

    def test_swap_partner_is_never_self(self):
        # run_ga draws one partner per swapping position, uniform over the
        # other positions; with two positions a swap must exchange them
        cfg = GaConfig(population_size=6, generations=40, indpb=1.0, tournament_size=2, cxpb=0.0, mutpb=1.0)
        swaps = [
            (i, j)
            for _, _, mutations in _draws(np.random.default_rng(0), cfg, 2)
            for _, i, j in mutations
        ]
        assert len(swaps) == 40 * 6 * 2
        assert set(swaps) == {(0, 1), (1, 0)}
        assert shuffle_mutation(b"xy", [(0, 1)]) == b"yx"

    def test_swap_outside_the_sequence_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            shuffle_mutation(LETTERS, [(0, 8)])
        with pytest.raises(ValueError, match="outside"):
            shuffle_mutation(LETTERS, [(-1, 2)])


def random_cut(rng, n):
    return tuple(sorted(rng.sample(range(n), 2)))


class TestOrderCrossover:
    def test_hand_worked_slice(self):
        p1 = b"abcdefgh"
        p2 = b"hgfedcba"
        c1, c2 = order_crossover(p1, p2, (2, 4))
        assert c1 == b"gfcdebah"
        assert c2 == b"bcfedgha"

    def test_children_are_permutations(self):
        rng = random.Random(3)
        ids = list(range(9))
        for _ in range(200):
            p1 = bytes(rng.sample(ids, 9))
            p2 = bytes(rng.sample(ids, 9))
            c1, c2 = order_crossover(p1, p2, random_cut(rng, 9))
            assert sorted(c1) == sorted(ids)
            assert sorted(c2) == sorted(ids)

    def test_equal_parents_reproduce(self):
        rng = random.Random(5)
        parent = bytes(rng.sample(list(LETTERS), len(LETTERS)))
        for cut in [(0, 1), (2, 5), (6, 7), (0, 7)]:
            c1, c2 = order_crossover(parent, parent, cut)
            assert c1 == parent and c2 == parent

    def test_matches_positional_reference(self):
        def reference(keep, other, a, b):
            # fill positions b+1, b+2, ... (wrapping) in the other parent's order
            n = len(keep)
            child = [None] * n
            child[a : b + 1] = keep[a : b + 1]
            fill = [g for i in range(n) if (g := other[(b + 1 + i) % n]) not in keep[a : b + 1]]
            for offset, gene in enumerate(fill):
                child[(b + 1 + offset) % n] = gene
            return bytes(child)

        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(2, 10)
            p1 = bytes(rng.sample(range(n), n))
            p2 = bytes(rng.sample(range(n), n))
            a, b = random_cut(rng, n)
            assert order_crossover(p1, p2, (a, b)) == (reference(p1, p2, a, b), reference(p2, p1, a, b))

    def test_two_gene_parents(self):
        c1, c2 = order_crossover(b"xy", b"yx", (0, 1))
        assert sorted(c1) == list(b"xy")
        assert sorted(c2) == list(b"xy")

    def test_mismatched_parents_rejected(self):
        with pytest.raises(ValueError, match="permutations"):
            order_crossover(b"ab", b"ac", (0, 1))

    def test_repeated_genes_rejected(self):
        # equal sets and lengths, but neither parent is a permutation
        with pytest.raises(ValueError, match="permutations"):
            order_crossover(b"aab", b"abb", (0, 1))

    def test_repeated_genes_in_the_second_parent_rejected(self):
        # the second parent's bytes all occur in the first, but not all of
        # the first's occur in it
        with pytest.raises(ValueError, match="permutations"):
            order_crossover(b"abc", b"aab", (0, 1))
        with pytest.raises(ValueError, match="permutations"):
            pmx_crossover(b"abc", b"aab", (0, 1))

    @pytest.mark.parametrize("cut", [(1, 1), (2, 1), (-1, 2), (0, 8)])
    def test_bad_cut_rejected(self, cut):
        with pytest.raises(ValueError, match="cut"):
            order_crossover(LETTERS, LETTERS[::-1], cut)


class TestPmxCrossover:
    def test_children_are_permutations(self):
        rng = random.Random(11)
        ids = list(range(9))
        for _ in range(200):
            p1 = bytes(rng.sample(ids, 9))
            p2 = bytes(rng.sample(ids, 9))
            c1, c2 = pmx_crossover(p1, p2, random_cut(rng, 9))
            assert sorted(c1) == sorted(ids)
            assert sorted(c2) == sorted(ids)

    def test_equal_parents_reproduce(self):
        rng = random.Random(13)
        parent = bytes(rng.sample(list(LETTERS), len(LETTERS)))
        c1, c2 = pmx_crossover(parent, parent, (2, 5))
        assert c1 == parent and c2 == parent

    def test_deterministic_under_seed(self):
        # hand-traced swap by swap over positions 2, 3, 4
        p1 = b"abcdefgh"
        p2 = b"cadbfehg"
        assert pmx_crossover(p1, p2, (2, 4)) == (b"acdbfegh", b"dabcefhg")
        assert pmx_crossover(p1, p2, (2, 4)) == pmx_crossover(p1, p2, (2, 4))

    def test_mismatched_parents_rejected(self):
        with pytest.raises(ValueError, match="permutations"):
            pmx_crossover(b"abc", b"abd", (0, 1))

    def test_repeated_genes_rejected(self):
        with pytest.raises(ValueError, match="permutations"):
            pmx_crossover(b"aab", b"abb", (0, 1))


class TestTournament:
    def test_size_one_is_a_uniform_pick(self):
        pop = [("a",), ("b",), ("c",)]
        assert tournament_select(pop, [5, 1, 3], [[2], [0], [1], [0]]) == [("c",), ("a",), ("b",), ("a",)]
        # and run_ga draws each entrant uniformly over the population
        cfg = GaConfig(population_size=3, generations=200, indpb=0.0, tournament_size=1, cxpb=0.0, mutpb=0.0)
        entrants = np.concatenate([e for e, _, _ in _draws(np.random.default_rng(0), cfg, 4)])
        counts = np.bincount(entrants.ravel(), minlength=3)
        assert counts.sum() == 600
        assert counts.min() > 150

    def test_large_tournament_finds_the_best(self):
        pop = [(f"s{i}",) for i in range(5)]
        entrants = np.random.default_rng(1).integers(5, size=(50, 60))
        assert tournament_select(pop, [9, 4, 7, 0, 6], entrants) == [("s3",)] * 50

    def test_tie_keeps_first_sampled(self):
        pop = [("first",), ("second",)]
        assert tournament_select(pop, [2, 2], [[1, 0]]) == [("second",)]
        assert tournament_select(pop, [2, 2], [[0, 1]]) == [("first",)]

    def test_oversized_tournament_allowed(self):
        pop = [("a",), ("b",)]
        assert tournament_select(pop, [1, 0], [[0] * 9 + [1]]) == [("b",)]


class TestRunGa:
    def test_solves_an_acyclic_network(self):
        # chain-7 has one zero-feedback order in 5,040; 300 balanced
        # generations find it in about 38 % of seeds. On seeds 0-59 the
        # random.Random GA this one replaced scored 24 hits and this GA
        # scores 23; 16 is two binomial standard deviations below 24.
        matrix = chain_matrix(7)
        hits = 0
        for seed in range(60):
            cfg = preset_config("balanced", seed=seed, generations=300)
            best, convergence = run_ga(matrix, cfg, stop_score=0)
            assert sorted(best.sequence) == sorted(matrix.ids)
            assert convergence[-1][1] == best.score
            hits += best.score == 0
        assert hits >= 16

    def test_cycle_floor_is_one(self):
        best, _ = run_ga(cycle_matrix(), preset_config("exploitation", seed=0, generations=50), stop_score=1)
        assert best.score == 1

    def test_score_agrees_with_independent_count(self):
        case = make_case(8, [(i + 1, i) for i in range(7)] + [(0, 7), (3, 6)])
        cfg = preset_config("exploration", seed=2, generations=20)
        best, _ = run_ga(adjacency(case), cfg)
        assert best.score == naive_score(case, best.sequence)

    def test_convergence_series_shape(self):
        cfg = preset_config("balanced", seed=5, generations=60)
        _, convergence = run_ga(chain_matrix(8), cfg)
        for (x0, y0), (x1, y1) in zip(convergence, convergence[1:]):
            assert x1 > x0
            assert y1 <= y0
        # a repeated score is only legal as the terminal extent marker
        repeats = [
            i
            for i in range(1, len(convergence))
            if convergence[i][1] == convergence[i - 1][1]
        ]
        assert repeats in ([], [len(convergence) - 1])

    def test_unique_counter_bounds(self):
        cfg = preset_config("balanced", seed=8, generations=40)
        _, convergence = run_ga(chain_matrix(6), cfg)
        evaluated = convergence[-1][0]
        assert 1 <= evaluated <= cfg.population_size * (cfg.generations + 1)

    def test_deterministic_runs(self):
        cfg = preset_config("exploration", seed=12, generations=30)
        assert run_ga(chain_matrix(6), cfg) == run_ga(chain_matrix(6), cfg)

    def test_seed_changes_the_search(self):
        a = run_ga(chain_matrix(6), preset_config("balanced", seed=1, generations=30))
        b = run_ga(chain_matrix(6), preset_config("balanced", seed=2, generations=30))
        assert a != b

    def test_stop_score_short_circuits(self):
        matrix = chain_matrix(6)
        cfg = preset_config("balanced", seed=4, generations=2000)
        best, convergence = run_ga(matrix, cfg, stop_score=0)
        assert best.score == 0
        # far fewer evaluations than the full budget would allow
        assert convergence[-1][0] < cfg.population_size * (cfg.generations + 1) / 10

    @pytest.mark.parametrize("bad", ["3", True, 2.5, -1])
    def test_stop_score_must_be_a_non_negative_int(self, bad):
        # unchecked, "3" fails only after the initial population is scored,
        # and True stops the run at a score of 1
        with pytest.raises(ValueError, match=r"^stop_score must be"):
            run_ga(chain_matrix(6), preset_config("balanced", generations=5), stop_score=bad)

    def test_single_node_rejected(self):
        matrix = matrix_from_array(np.zeros((1, 1), dtype=int), ("a",))
        with pytest.raises(ValueError, match="at least 2 nodes"):
            run_ga(matrix, preset_config("balanced", generations=5))

    def test_more_nodes_than_a_byte_holds_rejected(self):
        n = 257
        matrix = matrix_from_array(np.zeros((n, n), dtype=int), tuple(f"v{i}" for i in range(n)))
        with pytest.raises(ValueError, match="at most 256 nodes, got 257"):
            run_ga(matrix, preset_config("balanced", generations=5))

    def test_a_child_that_is_not_a_permutation_is_caught(self, monkeypatch):
        def repeat_first_gene(p1, p2, a, b):
            return p1[:1] * len(p1), p2

        # run_ga crosses through the unchecked kernel, so only the batch
        # permutation check stands between a bad child and the scorer
        monkeypatch.setattr(ga, "_ox", repeat_first_gene)
        with pytest.raises(RuntimeError, match="not a permutation"):
            run_ga(chain_matrix(6), preset_config("balanced", seed=0, generations=20))

    def test_a_best_that_re_scores_differently_is_caught(self, monkeypatch):
        monkeypatch.setattr(ga, "score_sequence", lambda matrix, order: score_sequence(matrix, order) + 1)
        with pytest.raises(RuntimeError, match="re-scores"):
            run_ga(chain_matrix(6), preset_config("balanced", seed=0, generations=20))


@pytest.mark.parametrize("generations", [1, 31, 32, 33, 64, 65])
def test_draws_yield_one_item_per_generation(generations):
    # an odd population leaves its last offspring out of every pair
    pop, n = 7, 5
    cfg = GaConfig(population_size=pop, generations=generations, indpb=0.3, tournament_size=3, cxpb=0.7, mutpb=0.5)
    items = list(_draws(np.random.default_rng(generations), cfg, n))
    assert len(items) == generations
    for entrants, crossovers, mutations in items:
        assert entrants.shape == (pop, 3)
        for i, a, b in crossovers:
            assert i % 2 == 0 and i + 1 < pop and 0 <= a < b < n
        rows = [row for row, _, _ in mutations]
        assert rows == sorted(rows)
        for row, i, j in mutations:
            assert 0 <= row < pop and i != j and {i, j} <= set(range(n))
    assert any(crossovers for _, crossovers, _ in items) and any(mutations for _, _, mutations in items)


def reference_generations(rng, cfg, n):
    """Each generation's draws from _draws: its entrant matrix, its
    crossovers as (first offspring index, cut) and its mutations as
    {offspring index: swap list}."""
    for entrants, crossovers, mutations in _draws(rng, cfg, n):
        swaps = defaultdict(list)
        for row, i, j in mutations:
            swaps[row].append((i, j))
        yield entrants, [(i, (a, b)) for i, a, b in crossovers], swaps


def reference_ga(matrix, cfg, stop_score=None):
    """run_ga spelled out one individual at a time with the public
    operators and score_sequence, from the same draws."""
    rng = np.random.default_rng(cfg.seed)
    start = rng.permuted(np.tile(np.arange(matrix.n), (cfg.population_size, 1)), axis=1)
    population = [bytes(row.astype(np.uint8)) for row in start]
    cache, convergence, best = {}, [], None

    def evaluate(individuals):
        nonlocal best
        for order in individuals:
            if order not in cache:
                cache[order] = score_sequence(matrix, [matrix.ids[i] for i in order])
                if best is None or cache[order] < cache[best]:
                    best = order
                    convergence.append((len(cache), cache[order]))
        return [cache[order] for order in individuals]

    scores = evaluate(population)
    for entrants, cuts, swaps in reference_generations(rng, cfg, matrix.n):
        if stop_score is not None and cache[best] <= stop_score:
            break
        offspring = tournament_select(population, scores, entrants)
        for i, cut in cuts:
            offspring[i], offspring[i + 1] = order_crossover(offspring[i], offspring[i + 1], cut)
        for row, row_swaps in swaps.items():
            offspring[row] = shuffle_mutation(offspring[row], row_swaps)
        population = offspring
        scores = evaluate(population)
    if convergence[-1] != (len(cache), cache[best]):
        convergence.append((len(cache), cache[best]))
    return tuple(matrix.ids[i] for i in best), cache[best], convergence


@pytest.mark.parametrize("name", bundled_case_names())
def test_run_ga_matches_the_public_operators(name):
    """run_ga applies each generation's draws through the unchecked
    crossover kernel; replaying the same draws through the public
    operators gives the same runs. The budgets sit on both sides of the
    _DRAW_BLOCK = 32 boundary, and each run is repeated with stop_score at
    its own best, which stops it after the generation that first reaches
    that score. The full exploitation budget runs mostly through run_ga's
    path for a collapsed population, which reference_ga does not have."""
    matrix = build_adjacency(bundled_case(name))
    runs = [
        preset_config(preset, seed=seed, generations=generations)
        for preset in ("exploration", "exploitation", "balanced")
        for seed in range(3)
        for generations in (1, 31, 32, 33, 100)
    ]
    for cfg in runs + [preset_config("exploitation", seed=0, generations=GENERATIONS_DEFAULT)]:
        best, convergence = run_ga(matrix, cfg)
        assert reference_ga(matrix, cfg) == (best.sequence, best.score, convergence)
        best, convergence = run_ga(matrix, cfg, stop_score=best.score)
        assert reference_ga(matrix, cfg, best.score) == (best.sequence, best.score, convergence)


def test_a_collapsed_population_skips_selection(monkeypatch):
    """The gearbox's exploitation run at seed 0 collapses early and never
    reaches the optimum: a generation that starts with every individual the
    same order runs no tournament (269 of its 2,000 generations do), and the
    run is the same as reference_ga's, which selects in every generation."""
    matrix = build_adjacency(bundled_case("demo_gearbox_7"))
    cfg = preset_config("exploitation", seed=0)
    calls = 0

    def counting_select(*args):
        nonlocal calls
        calls += 1
        return tournament_select(*args)

    monkeypatch.setattr(ga, "tournament_select", counting_select)
    best, convergence = run_ga(matrix, cfg)
    assert calls < cfg.generations
    assert reference_ga(matrix, cfg) == (best.sequence, best.score, convergence)


class TestPermutationStack:
    IDENTITY = bytes(range(4))

    @pytest.mark.parametrize("bad", [b"\x00\x01\x02", b"\x00\x01\x01\x03", b"\x00\x01\x02\x04"])
    def test_a_short_repeated_or_out_of_range_order_is_rejected(self, bad):
        with pytest.raises(RuntimeError, match=r"GA produced \(.*\), not a permutation of range\(4\)"):
            _permutation_stack([b"\x03\x02\x01\x00", bad], self.IDENTITY)

    def test_the_first_bad_order_is_named(self):
        with pytest.raises(RuntimeError, match=r"^GA produced \(0, 0, 2, 3\)"):
            _permutation_stack([b"\x00\x00\x02\x03", b"\x00\x01\x02"], self.IDENTITY)

    def test_every_byte_value_is_a_permutation_at_256(self):
        orders = [bytes(range(256)), bytes(range(255, -1, -1))]
        stack = _permutation_stack(orders, bytes(range(256)))
        assert stack.shape == (2, 256) and stack.dtype == np.uint8
        assert stack[1].tolist() == list(range(255, -1, -1))
        with pytest.raises(RuntimeError, match=r"not a permutation of range\(256\)"):
            _permutation_stack([bytes(range(255)) + b"\x00"], bytes(range(256)))


@pytest.mark.parametrize("n", [2, ga.MAX_NODES])
def test_run_ga_at_the_node_bounds(n):
    # two nodes are the fewest the GA takes and 256 the most a byte holds
    rng = np.random.default_rng(n)
    a = (rng.random((n, n)) < min(1.0, 3 / n)).astype(int)
    np.fill_diagonal(a, 0)
    matrix = matrix_from_array(a, tuple(f"v{i}" for i in range(n)))
    best, convergence = run_ga(matrix, preset_config("balanced", seed=0, generations=33))
    assert sorted(best.sequence) == sorted(matrix.ids)
    assert score_sequence(matrix, best.sequence) == best.score == convergence[-1][1]


def test_full_budget_runs_match_golden_digests(golden_dir):
    """Each bundled case x preset at the full budget and seed 3: the sha256
    of repr((best sequence, best score, convergence)) is pinned in
    golden/ga_sha256.json, so a faster GA must reproduce every run exactly."""
    digests = {}
    for name in bundled_case_names():
        matrix = build_adjacency(bundled_case(name))
        for preset in ("exploration", "exploitation", "balanced"):
            best, convergence = run_ga(matrix, preset_config(preset, seed=3, generations=GENERATIONS_DEFAULT))
            run = repr((best.sequence, best.score, convergence))
            digests[f"{name}/{preset}"] = hashlib.sha256(run.encode("utf-8")).hexdigest()
    expected = json.loads((golden_dir / "ga_sha256.json").read_text(encoding="utf-8"))
    assert digests == expected
