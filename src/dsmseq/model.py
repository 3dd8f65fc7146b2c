"""Dependency-network cases: loading, validation, adjacency matrices, metrics.

A case is a directed dependency network. An edge ``{dependent: d,
predecessor: p}`` means task ``d`` needs the output of task ``p``. The
adjacency matrix follows the convention ``a[i][j] = 1`` iff node ``i``
depends on node ``j`` (a directed edge from ``j`` to ``i``). It is held as
its edge lists, the row and column of each 1-entry; the dense n x n array
is built only when ``a`` is first read, to draw the matrix.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

ALPHANUMERIC = string.ascii_uppercase + string.ascii_lowercase + string.digits
ANON_ID_LENGTH = 5


class CaseError(ValueError):
    """Raised when a case file or case structure is invalid."""


@dataclass(frozen=True)
class Node:
    id: str
    name: str = ""


@dataclass(frozen=True)
class Edge:
    dependent: str
    predecessor: str


@dataclass(frozen=True)
class DsmCase:
    """A named dependency network plus optional context text.

    nodes keep file order; that order defines matrix row/column order.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    description: str = ""
    known_optimum: int | None = None

    def __post_init__(self) -> None:
        validate_case(self)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)

    @property
    def n(self) -> int:
        return len(self.nodes)


def check_node_ids(ids, where: str) -> None:
    """Check that an LLM reply can name every id, raising CaseError with a
    location.

    Replies list ids comma-separated and stripped, so an id must be
    non-empty and hold no ',' and no leading or trailing whitespace; and
    each id must name one node.
    """
    seen: set[str] = set()
    for pos, node_id in enumerate(ids):
        if not node_id:
            raise CaseError(f"{where}[{pos}]: empty id")
        if "," in node_id or node_id != node_id.strip():
            raise CaseError(
                f"{where}[{pos}]: id {node_id!r} contains ',' or leading/trailing whitespace"
            )
        if node_id in seen:
            raise CaseError(f"{where}[{pos}]: duplicate node id {node_id!r}")
        seen.add(node_id)


def validate_case(case: DsmCase) -> None:
    """Check structural invariants, raising CaseError with a location."""
    if len(case.nodes) < 2:
        raise CaseError(f"need at least 2 nodes, got {len(case.nodes)}")
    check_node_ids(case.node_ids, "nodes")
    seen = set(case.node_ids)
    pairs: set[tuple[str, str]] = set()
    two_cycles = 0
    for pos, edge in enumerate(case.edges):
        if edge.dependent == edge.predecessor:
            raise CaseError(f"edges[{pos}]: self-loop on {edge.dependent!r}")
        for endpoint in (edge.dependent, edge.predecessor):
            if endpoint not in seen:
                raise CaseError(
                    f"edges[{pos}]: endpoint {endpoint!r} is not a known node id"
                )
        key = (edge.dependent, edge.predecessor)
        if key in pairs:
            raise CaseError(f"edges[{pos}]: duplicate edge {key!r}")
        pairs.add(key)
        two_cycles += (edge.predecessor, edge.dependent) in pairs
    if case.known_optimum is not None:
        # each pair of opposite edges costs one feedback in every order, and
        # an order and its reverse score len(edges) together
        low, high = two_cycles, len(case.edges) // 2
        if not low <= case.known_optimum <= high:
            raise CaseError(
                f"known_optimum {case.known_optimum} is outside the possible range "
                f"[{low}, {high}]: one feedback per pair of opposite edges at least, "
                f"half the edges at most"
            )


def load_case(path: str | Path) -> DsmCase:
    """Load and validate a case from a JSON file.

    Expected shape::

        {
          "description": "...",
          "known_optimum": 3,            # optional
          "nodes": [{"id": "...", "name": "..."}, ...],
          "edges": [{"dependent": "...", "predecessor": "..."}, ...]
        }
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CaseError(f"{path}: cannot read case file: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CaseError(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CaseError(f"{path}: not valid JSON: {exc}") from exc
    return case_from_dict(raw, where=str(path))


def case_from_dict(raw: dict, where: str = "<dict>") -> DsmCase:
    if not isinstance(raw, dict):
        raise CaseError(f"{where}: top level must be an object")
    try:
        nodes = tuple(
            Node(id=str(item["id"]), name=str(item.get("name", "")))
            for item in raw.get("nodes", [])
        )
        edges = tuple(
            Edge(dependent=str(item["dependent"]), predecessor=str(item["predecessor"]))
            for item in raw.get("edges", [])
        )
    except (KeyError, TypeError) as exc:
        raise CaseError(f"{where}: malformed node or edge entry: {exc}") from exc
    known = raw.get("known_optimum")
    if known is not None and (not isinstance(known, int) or isinstance(known, bool)):
        raise CaseError(f"{where}: known_optimum must be an integer, got {known!r}")
    try:
        return DsmCase(
            nodes=nodes,
            edges=edges,
            description=str(raw.get("description", "")),
            known_optimum=known,
        )
    except CaseError as exc:
        raise CaseError(f"{where}: {exc}") from exc


def bundled_case_names() -> tuple[str, ...]:
    """Names of the case files shipped inside the package, sorted."""
    data = resources.files("dsmseq") / "data"
    return tuple(sorted(p.name[: -len(".json")] for p in data.iterdir() if p.name.endswith(".json")))


def bundled_case(name: str) -> DsmCase:
    """Load a case shipped with the package by name, without the .json suffix."""
    entry = resources.files("dsmseq") / "data" / f"{name}.json"
    if not entry.is_file():
        known = ", ".join(bundled_case_names())
        raise CaseError(f"no bundled case named {name!r}; available: {known}")
    raw = json.loads(entry.read_text(encoding="utf-8"))
    return case_from_dict(raw, where=f"bundled:{name}")


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Binary dependency matrix held as its edge lists, with its id
    bookkeeping.

    Edge k says node ids[dep_idx[k]] depends on node ids[pred_idx[k]], the
    1-entry a[dep_idx[k]][pred_idx[k]]; the edges are in row-major order.
    The dense array a is built from them on first read and kept.
    """

    n: int
    ids: tuple[str, ...]
    index_of: dict[str, int]
    dep_idx: np.ndarray = field(repr=False)
    pred_idx: np.ndarray = field(repr=False)

    @cached_property
    def a(self) -> np.ndarray:
        """The n-by-n 0/1 int64 array, a[i][j] = 1 iff ids[i] depends on ids[j]."""
        a = np.zeros((self.n, self.n), dtype=np.int64)
        a[self.dep_idx, self.pred_idx] = 1
        return a


def _edge_rows(case: DsmCase) -> tuple[np.ndarray, np.ndarray]:
    """The row index of each edge's dependent and of its predecessor, in
    edge order."""
    index_of = {node_id: i for i, node_id in enumerate(case.node_ids)}
    e = len(case.edges)
    deps = np.fromiter((index_of[edge.dependent] for edge in case.edges), np.int64, e)
    preds = np.fromiter((index_of[edge.predecessor] for edge in case.edges), np.int64, e)
    return deps, preds


def _edge_matrix(ids: tuple[str, ...], deps: np.ndarray, preds: np.ndarray) -> AdjacencyMatrix:
    """The matrix over ids whose 1-entries are (deps[k], preds[k]), with
    the edges sorted row-major."""
    order = np.lexsort((preds, deps))
    return AdjacencyMatrix(
        n=len(ids),
        ids=tuple(ids),
        index_of={node_id: i for i, node_id in enumerate(ids)},
        dep_idx=deps[order],
        pred_idx=preds[order],
    )


def build_adjacency(case: DsmCase) -> AdjacencyMatrix:
    """The case's dependency matrix in its node-list order, from the edges
    alone: no n x n array is filled."""
    return _edge_matrix(case.node_ids, *_edge_rows(case))


def matrix_from_array(a: np.ndarray, ids: tuple[str, ...]) -> AdjacencyMatrix:
    """Wrap a raw 0/1 array (diagonal must be zero) as an AdjacencyMatrix;
    every nonzero entry is an edge. The ids follow a case's id rules
    (check_node_ids); a CaseError, which is a ValueError, names the first
    that breaks one."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if np.any(np.diag(a) != 0):
        raise ValueError("diagonal must be all zero (no self-dependencies)")
    if len(ids) != a.shape[0]:
        raise ValueError("ids length must match matrix size")
    check_node_ids(ids, "ids")
    return _edge_matrix(ids, *np.nonzero(a))


def fresh_anon_id(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHANUMERIC) for _ in range(ANON_ID_LENGTH))


def anonymize_ids(case: DsmCase, seed: int) -> tuple[DsmCase, dict[str, str]]:
    """Replace every node id with a fresh 5-char alphanumeric id.

    Deterministic for a given seed. Names, description, known_optimum and
    node/edge order are preserved. Returns the rewritten case and the
    old-to-new mapping.
    """
    rng = random.Random(seed)
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for node in case.nodes:
        new_id = fresh_anon_id(rng)
        while new_id in used:
            new_id = fresh_anon_id(rng)
        used.add(new_id)
        mapping[node.id] = new_id
    new_case = DsmCase(
        nodes=tuple(Node(id=mapping[n.id], name=n.name) for n in case.nodes),
        edges=tuple(
            Edge(dependent=mapping[e.dependent], predecessor=mapping[e.predecessor])
            for e in case.edges
        ),
        description=case.description,
        known_optimum=case.known_optimum,
    )
    return new_case, mapping


@dataclass(frozen=True)
class NetworkMetrics:
    """Size and shape statistics of a case's dependency network.

    density and average_degree use the directed edge count E with the
    undirected normalizations (2E/(n(n-1)) and 2E/n). diameter,
    clustering_coefficient and average_path_length are computed on the
    undirected projection; when that projection is disconnected they refer
    to the largest connected component and ``connected`` is False.
    """

    n: int
    e: int
    diameter: int
    density: float
    average_degree: float
    clustering_coefficient: float
    average_path_length: float
    connected: bool = True


def strong_components(n: int, deps: np.ndarray, preds: np.ndarray) -> tuple[int, np.ndarray]:
    """The strongly connected components of the network on n nodes whose
    edges say node deps[k] depends on node preds[k]: their number and each
    node's label, every component labelled after the ones it depends on.

    Tarjan's algorithm (SIAM J. Comput. 1, 1972) with an explicit path in
    place of recursion, so a long chain needs no deep call stack. It walks
    from each dependent to its predecessors and closes a component only
    after every component it reaches, so labels follow in that order.
    """
    order = np.argsort(deps, kind="stable")
    heads = preds[order].tolist()
    stops = np.cumsum(np.bincount(deps, minlength=n)).tolist()
    cursor = [0, *stops[:-1]]  # the next edge of each node to follow
    index = [-1] * n  # visit order, -1 until visited
    low = [0] * n  # smallest visit index reachable on the open path
    labels = [-1] * n
    stack: list[int] = []
    count = visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            k, stop = cursor[v], stops[v]
            while k < stop:
                w = heads[k]
                k += 1
                if index[w] < 0:
                    cursor[v] = k
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    path.append(w)
                    break
                if labels[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                path.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        labels[w] = count
                        if w == v:
                            break
                    count += 1
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
    return count, np.array(labels, dtype=np.int64)


def _bits(columns: np.ndarray) -> np.ndarray:
    """Column j's bit within word j // 64 of a packed uint64 row."""
    return np.left_shift(np.uint64(1), (columns % 64).astype(np.uint64))


def network_metrics(case: DsmCase) -> NetworkMetrics:
    n = case.n
    e = len(case.edges)
    deps, preds = _edge_rows(case)
    # the undirected projection, each pair (lo, hi) once, then as neighbour
    # lists sorted by node: node ends[m] neighbours node starts[m]
    lo, hi = np.divmod(np.unique(np.minimum(deps, preds) * n + np.maximum(deps, preds)), n)
    ends = np.concatenate([lo, hi])
    starts = np.concatenate([hi, lo])
    by_end = np.argsort(ends, kind="stable")
    ends, starts = ends[by_end], starts[by_end]
    count, labels = strong_components(n, ends, starts)
    # the largest component; among equal sizes, the one holding the lowest
    # node index
    sizes = np.bincount(labels)
    largest = labels[np.argmax(sizes[labels] == sizes.max())]
    k = int(sizes[largest])
    # breadth-first search from every member at once, on packed bit rows:
    # bit s of row i says source s has reached node i. One level ORs each
    # node's neighbours' frontier rows (Akiba, Iwata & Yoshida, SIGMOD 2013)
    inside = labels[ends] == largest
    position = np.cumsum(labels == largest) - 1
    step_ends, step_starts = position[ends[inside]], position[starts[inside]]
    source = np.arange(k)
    first = np.searchsorted(step_ends, source)
    seen = np.zeros((k, (k + 63) // 64), dtype=np.uint64)
    seen[source, source // 64] = _bits(source)
    frontier = seen
    diameter, hop_sum = 0, 0
    while k > 1:
        reached = np.bitwise_or.reduceat(frontier[step_starts], first)
        reached &= ~seen
        width = int(np.bitwise_count(reached).sum())
        if not width:
            break
        diameter += 1
        hop_sum += diameter * width
        seen |= reached
        frontier = reached
    # local clustering 2T/(d(d-1)): an undirected edge (i, j) closes one
    # triangle at both ends per common neighbour, so each node's sum over
    # its edges counts its triangles twice
    rows = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(rows, (ends, starts // 64), _bits(starts))
    common = np.bitwise_count(rows[lo] & rows[hi]).sum(axis=1)
    triangles = np.bincount(lo, common, n) + np.bincount(hi, common, n)
    degree = np.bincount(ends, minlength=n)
    pairs = degree * (degree - 1)
    local = np.divide(triangles, pairs, out=np.zeros(n), where=pairs > 0)
    return NetworkMetrics(
        n=n,
        e=e,
        diameter=diameter,
        density=2.0 * e / (n * (n - 1)),
        average_degree=2.0 * e / n,
        # summed in node order, like a plain Python mean over the nodes
        clustering_coefficient=sum(local.tolist()) / n,
        average_path_length=hop_sum / (k * (k - 1)) if k > 1 else 0.0,
        connected=bool(count == 1),
    )
