"""Permutation genetic algorithm: tournament selection, ordered crossover,
shuffle-index mutation, plain generational replacement (no elitism).

The operators are pure functions of explicit random draws (an entrant
matrix, a cut pair, a swap list). run_ga searches over byte strings of
matrix row indices, one byte per node, so it takes at most 256 nodes. It
takes every draw from one numpy Generator in bulk per block of generations
and hands each generation its own slice of them; it crosses parents with
the same kernel as order_crossover, skipping the argument checks, and
checks each generation's new orders as permutations once, before scoring
them in one batch. It maps back to node ids only for the returned best.

A generation that starts with every individual the same order skips the
tournament and the crossovers: every winner is that order, and crossing it
with itself gives it back, so only the generation's swaps can make a new
order, and a generation that draws none leaves the population and its
scores as they are. Its draws are still taken with its block's, so the
random stream, and with it every run, is the same as without the skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse

import numpy as np

from .model import AdjacencyMatrix, check_int, check_real
from .scoring import feedback_count, score_sequence
from .solutions import SolutionRecord

GENERATIONS_DEFAULT = 2000
# an individual holds one byte per matrix row index
MAX_NODES = 256
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
        # a tournament larger than the population is fine: sampling is with
        # replacement; numpy's generators refuse a negative seed
        for name, minimum in (("population_size", 2), ("generations", 1), ("tournament_size", 1), ("seed", 0)):
            check_int(name, getattr(self, name), minimum)
        for name in ("indpb", "cxpb", "mutpb"):
            check_real(name, getattr(self, name), 0, 1)


# population / indpb / tournament size / cxpb / mutpb
PRESETS = {
    "exploration": (50, 0.05, 5, 0.6, 0.4),
    "exploitation": (10, 0.01, 20, 0.9, 0.1),
    "balanced": (20, 0.02, 10, 0.7, 0.3),
}


def preset_config(name: str, seed: int = 0, generations: int = GENERATIONS_DEFAULT) -> GaConfig:
    """One of the three tuned presets: exploration, exploitation, balanced."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {sorted(PRESETS)}")
    pop, indpb, tourn, cxpb, mutpb = PRESETS[name]
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
    # run_ga passes its scores as an array already; asarray returns it as is
    keys = np.asarray(scores)[entrants]
    winners = entrants[np.arange(len(entrants)), keys.argmin(axis=1)]
    return [population[i] for i in winners.tolist()]


def shuffle_mutation(seq: bytes, swaps) -> bytes:
    """Apply the position swaps (i, j), in order, to a copy of seq.

    run_ga draws one swap per position with probability indpb, paired with
    a uniform other position. Always returns a permutation of the input.
    """
    out = bytearray(seq)
    n = len(out)
    for i, j in swaps:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"swap ({i}, {j}) is outside positions 0..{n - 1}")
        out[i], out[j] = out[j], out[i]
    return bytes(out)


def _check_parents(p1: bytes, p2: bytes) -> None:
    # p1 has n distinct bytes and p2 holds all of them in n bytes, so p2 is
    # a permutation of p1 too
    if not (len(p2) == len(p1) == len(set(p1)) and not p1.translate(None, p2)):
        raise ValueError("parents must be permutations of the same node set")


def _check_cut(cut, n: int) -> tuple[int, int]:
    a, b = cut
    if not 0 <= a < b < n:
        raise ValueError(f"cut must be two positions 0 <= a < b < {n}, got {tuple(cut)}")
    return a, b


def order_crossover(p1: bytes, p2: bytes, cut) -> tuple[bytes, bytes]:
    """Ordered crossover on the slice cut = (a, b), both ends inclusive.

    Each child keeps its own parent's slice and fills the remaining
    positions in the other parent's relative order, wrapping past the slice
    end.
    """
    _check_parents(p1, p2)
    return _ox(p1, p2, *_check_cut(cut, len(p1)))


def _ox(p1: bytes, p2: bytes, a: int, b: int) -> tuple[bytes, bytes]:
    """order_crossover's kernel: the parents and the cut are not checked."""
    tail = len(p1) - 1 - b
    kept1, kept2 = p1[a : b + 1], p2[a : b + 1]
    # the other parent read from b + 1 on, wrapping, minus the kept genes
    fill1 = (p2[b + 1 :] + p2[: b + 1]).translate(None, kept1)
    fill2 = (p1[b + 1 :] + p1[: b + 1]).translate(None, kept2)
    return fill1[tail:] + kept1 + fill1[:tail], fill2[tail:] + kept2 + fill2[:tail]


def pmx_crossover(p1: bytes, p2: bytes, cut) -> tuple[bytes, bytes]:
    """Partially matched crossover on the slice cut = (a, b), both ends
    inclusive. A standalone operator: run_ga always uses ordered crossover."""
    _check_parents(p1, p2)
    a, b = _check_cut(cut, len(p1))
    c1, c2 = bytearray(p1), bytearray(p2)
    pos1 = {g: i for i, g in enumerate(c1)}
    pos2 = {g: i for i, g in enumerate(c2)}
    for i in range(a, b + 1):
        g1, g2 = c1[i], c2[i]
        j1, j2 = pos1[g2], pos2[g1]
        c1[i], c1[j1] = g2, g1
        c2[i], c2[j2] = g1, g2
        pos1[g1], pos1[g2] = j1, i
        pos2[g2], pos2[g1] = j2, i
    return bytes(c1), bytes(c2)


def _permutation_stack(orders: list[bytes], identity: bytes) -> np.ndarray:
    """The orders as one (k, n) uint8 array, each checked to be a
    permutation of identity, bytes(range(n)); a RuntimeError names the first
    that is not."""
    n = len(identity)
    for order in orders:
        # n bytes that hold every value of range(n) are a permutation of it
        if len(order) != n or identity.translate(None, order):
            raise RuntimeError(f"GA produced {tuple(order)}, not a permutation of range({n})")
    return np.frombuffer(b"".join(orders), dtype=np.uint8).reshape(len(orders), n)


def _draws(rng: np.random.Generator, cfg: GaConfig, n: int):
    """Yield each generation's draws, taken in blocks of _DRAW_BLOCK generations.

    Each item is (entrants, crossovers, mutations). entrants is the
    (population, tournament) entrant array. crossovers is a list of
    (first offspring index, a, b), one per crossing pair, with the cut
    a < b; mutations is a list of (offspring index, i, j), one per position
    swap, sorted by offspring, in the order each offspring applies them. A
    mutation that draws no swap is left out: it is the identity.
    """
    pop = cfg.population_size
    for done in range(0, cfg.generations, _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, cfg.generations - done)
        entrants = rng.integers(pop, size=(size, pop, cfg.tournament_size))

        cx_gen, cx_pair = np.nonzero(rng.random((size, pop // 2)) < cfg.cxpb)
        first = rng.integers(n, size=len(cx_gen))
        second = rng.integers(n - 1, size=len(cx_gen))
        second += second >= first
        crossovers = list(
            zip((2 * cx_pair).tolist(), np.minimum(first, second).tolist(), np.maximum(first, second).tolist())
        )

        mutating = rng.random((size, pop)) < cfg.mutpb
        # np.nonzero's order; the flat indices unravel several times faster
        # than np.nonzero finds them in three dimensions
        mut_gen, mut_row, swap_pos = np.unravel_index(
            np.flatnonzero(mutating[:, :, None] & (rng.random((size, pop, n)) < cfg.indpb)),
            (size, pop, n),
        )
        partner = rng.integers(n - 1, size=len(swap_pos))
        partner += partner >= swap_pos
        mutations = list(zip(mut_row.tolist(), swap_pos.tolist(), partner.tolist()))

        # both generation arrays come out sorted: each generation's events
        # run from its bound to the next
        cx = np.searchsorted(cx_gen, np.arange(size + 1)).tolist()
        mut = np.searchsorted(mut_gen, np.arange(size + 1)).tolist()
        for g in range(size):
            yield entrants[g], crossovers[cx[g] : cx[g + 1]], mutations[mut[g] : mut[g + 1]]


def run_ga(
    matrix: AdjacencyMatrix,
    cfg: GaConfig,
    stop_score: int | None = None,
) -> tuple[SolutionRecord, list[tuple[int, int]]]:
    """Generational GA over permutations of the matrix's node ids, for 2 to
    MAX_NODES (256) nodes.

    Returns the best record found and a compact convergence series of
    (unique_count, best_score) change points: one point when the first
    individual is scored and one per strict improvement, each stamped with
    the number of distinct permutations evaluated so far. stop_score, when
    given, is an int >= 0 that ends the run as soon as best <= stop_score
    (the series still reflects everything evaluated). Every random number
    comes from numpy.random.default_rng(cfg.seed), so a seed fixes the run.
    """
    n = matrix.n
    if n < 2:
        raise ValueError(f"the GA needs at least 2 nodes, got {n}")
    if n > MAX_NODES:
        raise ValueError(f"the GA stores one byte per node and takes at most {MAX_NODES} nodes, got {n}")
    if stop_score is not None:
        check_int("stop_score", stop_score, 0)
    rng = np.random.default_rng(cfg.seed)
    identity = bytes(range(n))
    pop = cfg.population_size

    score_cache: dict[bytes, int] = {}
    unique_count = 0
    best_seq: bytes | None = None
    best_score: int | None = None
    convergence: list[tuple[int, int]] = []

    def evaluate(individuals: list[bytes]) -> np.ndarray:
        """Score each individual through the cache. The misses are checked
        and scored in one batch, then counted in population order, first
        occurrence first."""
        nonlocal unique_count, best_seq, best_score
        misses = list(dict.fromkeys(filterfalse(score_cache.__contains__, individuals)))
        if misses:
            scores = feedback_count(matrix, _permutation_stack(misses, identity))
            for individual, score in zip(misses, scores.tolist()):
                score_cache[individual] = score
                unique_count += 1
                if best_score is None or score < best_score:
                    best_seq, best_score = individual, score
                    convergence.append((unique_count, score))
        return np.fromiter(map(score_cache.__getitem__, individuals), dtype=np.int64, count=len(individuals))

    start = rng.permuted(np.tile(np.arange(n), (pop, 1)), axis=1)
    population = list(map(bytes, start.astype(np.uint8)))
    scores = evaluate(population)

    for entrants, crossovers, mutations in _draws(rng, cfg, n):
        if stop_score is not None and best_score <= stop_score:
            break
        first = population[0]
        if first == population[-1] and population.count(first) == pop:
            # a collapsed population: every tournament winner is first and
            # every crossover crosses it with itself, so only this
            # generation's swaps can make a new order
            if not mutations:
                continue  # the population and its scores stay as they are
            offspring = [first] * pop
        else:
            offspring = tournament_select(population, scores, entrants)
            for i, a, b in crossovers:
                # crossing a parent with itself reproduces it: skip the work
                if offspring[i] != offspring[i + 1]:
                    offspring[i], offspring[i + 1] = _ox(offspring[i], offspring[i + 1], a, b)
        mutant = None
        for row, i, j in mutations:
            if row != mutant:
                if mutant is not None:
                    offspring[mutant] = bytes(out)
                mutant, out = row, bytearray(offspring[row])
            out[i], out[j] = out[j], out[i]
        if mutant is not None:
            offspring[mutant] = bytes(out)
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
