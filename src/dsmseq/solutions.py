"""Archive of explored sequences with sampling for prompts.

The archive takes orders as matrix row indices, as the parser returns them,
and keeps each record's ids for prompts, traces and the returned best.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .model import AdjacencyMatrix, check_int
# score_sequence is unused here but stays importable from this module:
# benchmarks/workloads.py wraps solutions.score_sequence by name
from .scoring import feedback_count, score_sequence  # noqa: F401

# each prompt shows the K_P best archive entries plus K_Q random others
K_P = 5
K_Q = 5


@dataclass(frozen=True)
class SolutionRecord:
    sequence: tuple[str, ...]
    score: int

    def __post_init__(self) -> None:
        if self.score < 0:
            raise ValueError("score must be non-negative")

    @cached_property
    def prompt_line(self) -> str:
        """This record's entry in a prompt's list of previous orders.

        A record never changes once made, so the line is rendered on first
        use and kept with the record.
        """
        return f"{{'solution': {', '.join(self.sequence)!r}, 'score': {float(self.score)!r}}}"


@dataclass(frozen=True)
class TerminationPolicy:
    """The LLM loop's iteration budget; the loop also stops at the case's
    known_optimum."""

    max_iterations: int = 20

    def __post_init__(self) -> None:
        # 2.5 iterations would run 3
        check_int("max_iterations", self.max_iterations, 1)


class SolutionBase:
    """Stores every distinct explored sequence with the score it computed.

    insert is the only way in: it takes an order of matrix row indices,
    scores each new order once on its own matrix and answers a repeat from
    the stored record. Single-writer: the search loop inserts sequentially.
    The archive keeps one ranking, (score, arrival index) pairs sorted as
    records arrive, so a score tie always goes to the record inserted first.
    """

    def __init__(self, matrix: AdjacencyMatrix):
        self._matrix = matrix
        self._rows = set(range(matrix.n))
        # the matrix's id strings themselves, so a record shares them
        self._ids = np.array(matrix.ids, dtype=object)
        self._records: list[SolutionRecord] = []
        self._index: dict[tuple[int, ...], int] = {}  # row order -> arrival index
        self._ranking: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._records)

    def insert(self, rows) -> tuple[SolutionRecord, bool]:
        """File an order of row indices; returns (its record, whether it is new).

        A repeat returns the stored record without scoring it again. A new
        order is checked to be a permutation of range(n) and scored once; a
        record names its nodes by the matrix's ids. An order that is not a
        permutation raises ValueError and stores nothing.
        """
        key = tuple(rows)
        index = self._index.get(key)
        if index is not None:
            return self._records[index], False
        n = self._matrix.n
        # n rows, all in range(n): no room for a duplicate
        if len(key) != n or set(key) != self._rows:
            raise ValueError(f"invalid sequence: not a permutation of rows 0..{n - 1}")
        order = np.fromiter(key, np.int64, n)
        score = feedback_count(self._matrix, order)
        record = SolutionRecord(tuple(self._ids[order].tolist()), score)
        index = len(self._records)
        self._index[key] = index
        bisect.insort(self._ranking, (score, index))
        self._records.append(record)
        return record, True

    def best(self) -> SolutionRecord:
        if not self._records:
            raise ValueError("solution base is empty")
        return self._records[self._ranking[0][1]]

    def sample_for_prompt(self, rng: random.Random) -> list[SolutionRecord]:
        """K_P best records plus K_Q uniform picks from the rest, worst first.

        The K_P best are the head of the ranking (score, then arrival). The
        returned list is ordered by descending score, stable over best then
        picked, so the best precedent sits closest to the end of the prompt.
        """
        if not self._records:
            raise ValueError("solution base is empty")
        top = self._ranking[:K_P]
        rest = range(len(top), len(self._ranking))  # rank positions below the top
        picked = [self._ranking[j] for j in rng.sample(rest, min(K_Q, len(rest)))]
        # sorting is stable under reverse=True too: ties keep best-then-picked
        chosen = sorted(top + picked, key=itemgetter(0), reverse=True)
        return [self._records[i] for _, i in chosen]
