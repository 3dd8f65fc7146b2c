"""Permutation genetic algorithm: tournament selection, ordered crossover,
shuffle-index mutation, plain generational replacement (no elitism).

The operators are pure functions of explicit random draws (an entrant
matrix, a cut pair, a swap list). run_ga searches over tuples of matrix row
indices, takes every draw from one numpy Generator in bulk per block of
generations, and maps back to node ids only for the returned best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AdjacencyMatrix
from .scoring import feedback_count, score_sequence
from .solutions import SolutionRecord

GENERATIONS_DEFAULT = 2000
# generations whose random draws are taken in one batch; bounds the draw
# arrays at _DRAW_BLOCK * population_size * n uniforms
_DRAW_BLOCK = 32


@dataclass(frozen=True)
class GaConfig:
    population_size: int
    generations: int
    indpb: float
    tournament_size: int
    cxpb: float
    mutpb: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        for name in ("indpb", "cxpb", "mutpb"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.tournament_size < 1:
            # larger than the population is fine: sampling is with replacement
            raise ValueError("tournament_size must be >= 1")


# population / indpb / tournament size / cxpb / mutpb
_PRESETS = {
    "exploration": (50, 0.05, 5, 0.6, 0.4),
    "exploitation": (10, 0.01, 20, 0.9, 0.1),
    "balanced": (20, 0.02, 10, 0.7, 0.3),
}


def preset_config(name: str, seed: int = 0, generations: int = GENERATIONS_DEFAULT) -> GaConfig:
    """One of the three tuned presets: exploration, exploitation, balanced."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {sorted(_PRESETS)}")
    pop, indpb, tourn, cxpb, mutpb = _PRESETS[name]
    return GaConfig(
        population_size=pop,
        generations=generations,
        indpb=indpb,
        tournament_size=tourn,
        cxpb=cxpb,
        mutpb=mutpb,
        seed=seed,
    )


def tournament_select(population, scores, entrants) -> list:
    """One winner per row of entrants, a 2-D array of population indices.

    Each row is one tournament whose entrants were sampled uniformly with
    replacement; the lowest score wins, and a tie goes to the entrant
    sampled first (leftmost in the row).
    """
    entrants = np.asarray(entrants)
    keys = np.asarray(scores)[entrants]
    winners = entrants[np.arange(len(entrants)), keys.argmin(axis=1)]
    return [population[i] for i in winners.tolist()]


def shuffle_mutation(seq, swaps) -> tuple:
    """Apply the position swaps (i, j), in order, to a copy of seq.

    run_ga draws one swap per position with probability indpb, paired with
    a uniform other position. Always returns a permutation of the input.
    """
    out = list(seq)
    n = len(out)
    for i, j in swaps:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"swap ({i}, {j}) is outside positions 0..{n - 1}")
        out[i], out[j] = out[j], out[i]
    return tuple(out)


def _check_parents(p1: tuple, p2: tuple) -> None:
    genes = set(p1)
    if len(p2) != len(p1) or len(genes) != len(p1) or genes != set(p2):
        raise ValueError("parents must be permutations of the same node set")


def _check_cut(cut, n: int) -> tuple[int, int]:
    a, b = cut
    if not 0 <= a < b < n:
        raise ValueError(f"cut must be two positions 0 <= a < b < {n}, got {tuple(cut)}")
    return a, b


def order_crossover(p1, p2, cut) -> tuple[tuple, tuple]:
    """Ordered crossover on the slice cut = (a, b), both ends inclusive.

    Each child keeps its own parent's slice and fills the remaining
    positions in the other parent's relative order, wrapping past the slice
    end.
    """
    p1, p2 = tuple(p1), tuple(p2)
    _check_parents(p1, p2)
    a, b = _check_cut(cut, len(p1))
    tail = len(p1) - 1 - b

    def ox(keep, other):
        kept = keep[a : b + 1]
        used = set(kept)
        fill = [g for g in other[b + 1 :] + other[: b + 1] if g not in used]
        return tuple(fill[tail:]) + kept + tuple(fill[:tail])

    return ox(p1, p2), ox(p2, p1)


def pmx_crossover(p1, p2, cut) -> tuple[tuple, tuple]:
    """Partially matched crossover on the slice cut = (a, b), both ends
    inclusive. A standalone operator: run_ga always uses order_crossover."""
    p1, p2 = tuple(p1), tuple(p2)
    _check_parents(p1, p2)
    a, b = _check_cut(cut, len(p1))
    c1, c2 = list(p1), list(p2)
    pos1 = {g: i for i, g in enumerate(c1)}
    pos2 = {g: i for i, g in enumerate(c2)}
    for i in range(a, b + 1):
        g1, g2 = c1[i], c2[i]
        j1, j2 = pos1[g2], pos2[g1]
        c1[i], c1[j1] = g2, g1
        c2[i], c2[j2] = g1, g2
        pos1[g1], pos1[g2] = j1, i
        pos2[g2], pos2[g1] = j2, i
    return tuple(c1), tuple(c2)


def _draws(rng: np.random.Generator, cfg: GaConfig, n: int):
    """Yield the random draws of each generation, taken _DRAW_BLOCK at a time.

    Each item is the tournament entrant matrix, the crossovers as (first
    offspring index, cut pair) and the mutations as {offspring index: swap
    list}. A mutation that draws no swap is left out: it is the identity.
    """
    pop = cfg.population_size
    for done in range(0, cfg.generations, _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, cfg.generations - done)
        entrants = rng.integers(pop, size=(size, pop, cfg.tournament_size))

        cx_gen, cx_pair = np.nonzero(rng.random((size, pop // 2)) < cfg.cxpb)
        first = rng.integers(n, size=len(cx_gen))
        second = rng.integers(n - 1, size=len(cx_gen))
        second += second >= first
        crossovers = [[] for _ in range(size)]
        for g, pair, a, b in zip(
            cx_gen.tolist(),
            cx_pair.tolist(),
            np.minimum(first, second).tolist(),
            np.maximum(first, second).tolist(),
        ):
            crossovers[g].append((2 * pair, (a, b)))

        mutating = rng.random((size, pop)) < cfg.mutpb
        mut_gen, mut_row, swap_pos = np.nonzero(
            mutating[:, :, None] & (rng.random((size, pop, n)) < cfg.indpb)
        )
        partner = rng.integers(n - 1, size=len(swap_pos))
        partner += partner >= swap_pos
        mutations: list[dict[int, list]] = [{} for _ in range(size)]
        for g, row, i, j in zip(mut_gen.tolist(), mut_row.tolist(), swap_pos.tolist(), partner.tolist()):
            mutations[g].setdefault(row, []).append((i, j))

        yield from zip(entrants, crossovers, mutations)


def run_ga(
    matrix: AdjacencyMatrix,
    cfg: GaConfig,
    stop_score: int | None = None,
) -> tuple[SolutionRecord, list[tuple[int, int]]]:
    """Generational GA over permutations of the matrix's node ids.

    Returns the best record found and a compact convergence series of
    (unique_count, best_score) change points: one point when the first
    individual is scored and one per strict improvement, each stamped with
    the number of distinct permutations evaluated so far. stop_score, when
    given, ends the run as soon as best <= stop_score (the series still
    reflects everything evaluated). Every random number comes from
    numpy.random.default_rng(cfg.seed), so a seed fixes the run.
    """
    n = matrix.n
    if n < 2:
        raise ValueError(f"the GA needs at least 2 nodes, got {n}")
    rng = np.random.default_rng(cfg.seed)
    genes = set(range(n))

    score_cache: dict[tuple[int, ...], int] = {}
    unique_count = 0
    best_seq: tuple[int, ...] | None = None
    best_score: int | None = None
    convergence: list[tuple[int, int]] = []

    def evaluate(individuals: list[tuple[int, ...]]) -> list[int]:
        """Score each individual, looking it up in the cache once; a miss
        is checked, scored and counted, in population order."""
        nonlocal unique_count, best_seq, best_score
        scores = []
        for individual in individuals:
            score = score_cache.get(individual)
            if score is None:
                if len(individual) != n or set(individual) != genes:
                    raise RuntimeError(f"GA produced {individual}, not a permutation of range({n})")
                score = feedback_count(matrix, np.fromiter(individual, dtype=np.int64, count=n))
                score_cache[individual] = score
                unique_count += 1
                if best_score is None or score < best_score:
                    best_seq, best_score = individual, score
                    convergence.append((unique_count, score))
            scores.append(score)
        return scores

    start = rng.permuted(np.tile(np.arange(n), (cfg.population_size, 1)), axis=1)
    population = [tuple(row) for row in start.tolist()]
    scores = evaluate(population)

    for entrants, crossovers, mutations in _draws(rng, cfg, n):
        if stop_score is not None and best_score <= stop_score:
            break
        offspring = tournament_select(population, scores, entrants)
        for i, cut in crossovers:
            # crossing a parent with itself reproduces it: skip the work
            if offspring[i] != offspring[i + 1]:
                offspring[i], offspring[i + 1] = order_crossover(offspring[i], offspring[i + 1], cut)
        for i, swaps in mutations.items():
            offspring[i] = shuffle_mutation(offspring[i], swaps)
        population = offspring
        scores = evaluate(population)

    best_ids = tuple(matrix.ids[i] for i in best_seq)
    rescored = score_sequence(matrix, best_ids)
    if rescored != best_score:
        raise RuntimeError(f"GA best re-scores to {rescored}, not its recorded {best_score}")
    best = SolutionRecord(best_ids, best_score)
    if not convergence or convergence[-1] != (unique_count, best_score):
        convergence.append((unique_count, best_score))
    return best, convergence
