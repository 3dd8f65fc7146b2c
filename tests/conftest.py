import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dsmseq import DsmCase, Edge, Node, build_adjacency, load_case

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "dsmseq" / "data"
TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def demo_case() -> DsmCase:
    return load_case(DATA_DIR / "demo_gearbox_7.json")


def make_case(n: int, edge_pairs, names=None) -> DsmCase:
    """Small helper: build a case from index pairs (dependent, predecessor)."""
    ids = [f"v{i:02d}" for i in range(n)]
    nodes = tuple(
        Node(id=ids[i], name=(names[i] if names else f"Task {i}")) for i in range(n)
    )
    edges = tuple(Edge(dependent=ids[d], predecessor=ids[p]) for d, p in edge_pairs)
    return DsmCase(nodes=nodes, edges=edges, description="test network")


def write_case(path: Path, case: DsmCase) -> Path:
    """Write a case as a JSON case file, in the layout load_case reads."""
    raw = {
        "description": case.description,
        "nodes": [{"id": n.id, "name": n.name} for n in case.nodes],
        "edges": [{"dependent": e.dependent, "predecessor": e.predecessor} for e in case.edges],
    }
    if case.known_optimum is not None:
        raw["known_optimum"] = case.known_optimum
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def random_case(rng: random.Random, n: int, density: float) -> DsmCase:
    """Random directed graph on n nodes; each ordered pair kept with
    probability density."""
    pairs = [
        (d, p)
        for d in range(n)
        for p in range(n)
        if d != p and rng.random() < density
    ]
    return make_case(n, pairs)


def naive_score(case: DsmCase, order) -> int:
    """Independent double-loop scoring: count edges whose dependent comes
    before its predecessor in the order. Deliberately avoids the package's
    matrix machinery."""
    position = {node_id: i for i, node_id in enumerate(order)}
    total = 0
    for edge in case.edges:
        if position[edge.dependent] < position[edge.predecessor]:
            total += 1
    return total


def adjacency(case: DsmCase):
    return build_adjacency(case)


def dense(matrix) -> np.ndarray:
    """The n x n 0/1 int64 array of an AdjacencyMatrix, a[i][j] = 1 iff
    ids[i] depends on ids[j], filled from its edge lists: the reference
    the tests compare the package's edge-list results against."""
    a = np.zeros((matrix.n, matrix.n), dtype=np.int64)
    a[matrix.dep_idx, matrix.pred_idx] = 1
    return a


def run_with_blas_threads(code: str, threads: int) -> str:
    """Run code in a fresh interpreter with the given number of BLAS
    threads and return what it prints; benchmarks/run.py runs its
    workloads with one. Threaded BLAS can move the time of a product with
    the load on other cores, and the last bits of a result with the thread
    count. The package and this directory are on the path, so code can
    import a test module."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(DATA_DIR.parents[1]), str(TESTS_DIR)]),
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "MKL_NUM_THREADS": str(threads),
    }
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout
