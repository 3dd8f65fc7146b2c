"""Archive of explored sequences with sampling and termination logic."""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from functools import cached_property

from .model import AdjacencyMatrix
from .scoring import score_sequence

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
    max_iterations: int = 20
    optimal_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class SolutionBase:
    """Stores every distinct explored sequence with the score it computed.

    insert is the only way in: the archive scores each new sequence once on
    its own matrix and answers a repeat from the stored record. Single-writer:
    the search loop inserts sequentially. The archive keeps one ranking,
    (score, arrival index) pairs sorted as records arrive, so a score tie
    always goes to the record inserted first.
    """

    def __init__(self, matrix: AdjacencyMatrix):
        self._matrix = matrix
        self._records: list[SolutionRecord] = []
        self._index: dict[tuple[str, ...], int] = {}  # sequence -> arrival index
        self._ranking: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._records)

    def insert(self, sequence) -> tuple[SolutionRecord, bool]:
        """File a sequence; returns (its record, whether it is new).

        A repeat returns the stored record without scoring it again. A new
        sequence is validated and scored once; an invalid one raises
        ValueError and stores nothing.
        """
        seq = tuple(sequence)
        index = self._index.get(seq)
        if index is not None:
            return self._records[index], False
        record = SolutionRecord(seq, score_sequence(self._matrix, seq))
        index = len(self._records)
        self._index[seq] = index
        bisect.insort(self._ranking, (record.score, index))
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
        chosen = [self._records[i] for _, i in top + picked]
        return sorted(chosen, key=lambda r: -r.score)

    def should_terminate(self, policy: TerminationPolicy, iterations_done: int) -> bool:
        if iterations_done >= policy.max_iterations:
            return True
        if policy.optimal_threshold is not None and self._records:
            return self.best().score <= policy.optimal_threshold
        return False
