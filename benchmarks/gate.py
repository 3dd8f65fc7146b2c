"""Correctness gate: checks the program's outputs without trusting its scorer.

Orders are checked against the case files as the benchmark itself reads
them, with a plain double loop over the edges.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Exact optima of the bundled cases that brute_force_optimum refuses
# (n > 10). Source: the package's own subset dynamic program with only its
# n <= 10 guard lifted, which is exact for every n (Marti & Reinelt, The
# Linear Ordering Problem, 2011); test_reference_optima recomputes them.
# demo_gearbox_7 (n = 7) is solved by brute_force_optimum in every run.
REFERENCE_OPTIMA = {
    "elevator_system_14": 3,
    "espresso_machine_13": 9,
    "irrigation_network_17": 8,
    "packaging_line_12": 12,
}
ORACLE_CASES = ("demo_gearbox_7",)
GRID_CASES = tuple(sorted(ORACLE_CASES + tuple(REFERENCE_OPTIMA)))

# Files that two grid runs with one seed must reproduce byte for byte.
REPLAY_FILES = ("results.csv", "results_summary.csv", "manifest.json")


class Case:
    """Node ids and edges of a case file, read without the package."""

    def __init__(self, raw: dict):
        self.ids = [str(node["id"]) for node in raw["nodes"]]
        self.edges = [(str(e["dependent"]), str(e["predecessor"])) for e in raw["edges"]]

    @classmethod
    def load(cls, path: Path) -> "Case":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def rescore(self, order) -> int:
        position = {node_id: place for place, node_id in enumerate(order)}
        return sum(1 for d, p in self.edges if position[d] < position[p])

    def two_cycles(self) -> int:
        """Pairs with edges both ways; each forces one feedback in any order."""
        edges = set(self.edges)
        return sum(1 for d, p in edges if (p, d) in edges) // 2


class Gate:
    """Collects failed checks; the run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def order(self, case: Case, order, reported: int, floor: int, where: str) -> None:
        """order is a permutation of the case ids, re-scores to reported,
        and does not beat the floor (an exact optimum or a lower bound)."""
        order = list(order)
        if not self.check(
            len(order) == len(case.ids) and set(order) == set(case.ids),
            f"{where}: order is not a permutation of the case ids",
        ):
            return
        actual = case.rescore(order)
        self.check(actual == reported, f"{where}: reported score {reported}, re-scored {actual}")
        self.check(actual >= floor, f"{where}: score {actual} is below the floor {floor}")


def file_digests(directory: Path, names) -> dict[str, str]:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in names
        if (directory / name).is_file()
    }
