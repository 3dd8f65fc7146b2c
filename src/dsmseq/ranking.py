"""Deterministic node orderings from degree and walk-based matrix functions.

a[i][j] = 1 means node i depends on node j, so a column sum counts what
draws on a node and a row sum what it draws on. Every primary key is
oriented so that larger means more of the network depends on the node,
and one descending sort puts supplier scores first. The walk methods break
ties by a secondary key ascending, their row sums, and a seeded random
shuffle settles whatever ties remain. Keys closer than a relative
tolerance of 1e-9 count as tied. Each tie group is put in node (row) order
before its shuffle, so the shuffle depends only on who is in the group, not
on how differences below the tolerance happened to sort them.

Every key is computed from the edge lists, with no BLAS call: a degree is
a bincount, a product with A a scatter-add over the edges, and a
visibility sum a count over the strong components' bool reachability rows.

The walk-exponential keys are the column and row sums of exp(A), summed
as its Taylor series on the ones vector with matrix-vector products only;
the series stops once its terms no longer change the sums in float64, and
a network whose exp(A) overflows float64 raises ValueError.

The walk-resolvent keys are the column and row sums of (I - delta*A)^-1,
summed as the attenuated walk series on the ones vector with the same
matrix-vector products; the series stops once a Collatz-Wielandt bound on
its tail no longer changes the sums in float64. A network whose series
diverges (delta times the spectral radius at least 1) or does not converge
within RESOLVENT_MAX_TERMS terms raises ValueError.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

import numpy as np

from .model import AdjacencyMatrix, check_int, strong_components

KEY_TOLERANCE = 1e-9
POWER_TOL = 1e-10
POWER_MAX_ITER = 10_000
DELTA = 0.025
RESOLVENT_MAX_TERMS = 10_000
# ln of the largest float64, about 709.78
LOG_MAX_FLOAT = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class NodeRanking:
    """An ordering plus the keys and tie groups that produced it."""

    method: str
    order: tuple[str, ...]
    primary_keys: dict[str, float]
    secondary_keys: dict[str, float] | None
    tie_groups: tuple[tuple[str, ...], ...]
    warning: str | None = None

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "order": list(self.order),
            "primary_keys": self.primary_keys,
            "secondary_keys": self.secondary_keys,
            "tie_groups": [list(g) for g in self.tie_groups],
            "warning": self.warning,
        }


def _tie_starts(values: np.ndarray) -> np.ndarray:
    """True where a sorted key vector starts a tie group. A key is tied to
    the one before it when they differ by at most KEY_TOLERANCE times the
    largest of 1 and their magnitudes, so ties chain through neighbours."""
    size = np.abs(values)
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    bound = KEY_TOLERANCE * np.maximum(np.maximum(size[:-1], size[1:]), 1.0)
    np.greater(np.abs(values[1:] - values[:-1]), bound, out=starts[1:])
    return starts


def _rank(
    method: str,
    matrix: AdjacencyMatrix,
    primary: np.ndarray,
    secondary: np.ndarray | None,
    seed: int,
    warning: str | None = None,
) -> NodeRanking:
    # random.Random(-s) shuffles ties as random.Random(s) does
    check_int("seed", seed, 0)
    ids = matrix.ids
    # node[k] sits at position k of a stable sort, which keeps equal keys in node order
    node = (-primary).argsort(kind="stable")
    starts = _tie_starts(primary[node])
    group = starts.cumsum()
    # each group by secondary key, if any, and then in node order
    order = node[np.lexsort((node, group) if secondary is None else (node, secondary[node], group))]
    if secondary is not None:
        starts |= _tie_starts(secondary[order])
        order = order[np.lexsort((order, starts.cumsum()))]

    final = order.tolist()
    bounds = np.append(starts.nonzero()[0], len(final))  # each group's start, then n
    wide = (bounds[1:] - bounds[:-1] > 1).nonzero()[0]
    rng = random.Random(seed)
    residual_groups: list[tuple[str, ...]] = []
    for lo, hi in zip(bounds[wide].tolist(), bounds[wide + 1].tolist()):
        members = final[lo:hi]
        rng.shuffle(members)
        final[lo:hi] = members
        residual_groups.append(tuple(ids[i] for i in members))

    return NodeRanking(
        method=method,
        order=tuple(ids[i] for i in final),
        primary_keys=dict(zip(ids, primary.tolist())),
        secondary_keys=None if secondary is None else dict(zip(ids, secondary.tolist())),
        tie_groups=tuple(residual_groups),
        warning=warning,
    )


def out_in_degree_order(matrix: AdjacencyMatrix, seed: int = 0) -> NodeRanking:
    """Rank by out-degree minus in-degree.

    A node's out-degree counts edges where it is the predecessor (its column
    sum); in-degree counts edges where it is the dependent (its row sum).
    The balance is largest for pure prerequisite suppliers, which come first.
    """
    out_deg = np.bincount(matrix.pred_idx, minlength=matrix.n)
    in_deg = np.bincount(matrix.dep_idx, minlength=matrix.n)
    return _rank("out-in-degree", matrix, (out_deg - in_deg).astype(float), None, seed)


def _walk_product(matrix: AdjacencyMatrix):
    """The map from a stacked (2, n) array (r, c) to (A r, c A), one
    scatter-add over the edge lists: entry i of A r sums r over the
    predecessors of node i, entry j of c A sums c over the dependents of
    node j, each in edge order."""
    n = matrix.n
    gather = np.concatenate((matrix.pred_idx, matrix.dep_idx + n))
    scatter = np.concatenate((matrix.dep_idx, matrix.pred_idx + n))
    return lambda t: np.bincount(scatter, t.take(gather), 2 * n).reshape(2, n)


def _perron_floor(image: np.ndarray, x: np.ndarray) -> float:
    """A floor on the spectral radius of a nonnegative M from a stacked
    nonnegative pair x = (r, c) and its image (M r, c M): on a side with
    mu the smallest ratio image / x over the support of x, M x >= mu x, so
    the radius is at least mu (Collatz-Wielandt; Horn & Johnson, ch. 8).
    The larger side's mu is returned; an all-zero side bounds nothing."""
    ratio = np.divide(image, x, out=np.full_like(x, np.inf), where=x > 0)
    return ratio.min(axis=1, initial=np.inf)[x.any(axis=1)].max(initial=0.0)


def eigenvector_order(matrix: AdjacencyMatrix, seed: int = 0) -> NodeRanking:
    """Rank by the dominant left eigenvector of the dependency matrix.

    The left Perron vector solves v A = rho v: a node weighs the summed
    weight of the nodes that depend on it, so suppliers rank first. Power
    iteration v <- v (A + I) from the uniform vector, each iterate scaled
    to 1-norm 1, until one step moves it by less than 1e-10 in the 1-norm,
    for at most 10,000 steps. A + I has the left eigenvectors of A, and
    the shift moves every eigenvalue but the spectral radius strictly
    inside its circle, so periodic networks converge too. A run that still does not
    converge (a Jordan block at the spectral radius) keeps its last iterate,
    warns and sets warning "power-iteration-no-convergence". An acyclic
    network (every strongly connected component a single node) has only
    zero eigenvalues and no dominant eigenvector: its keys are all zero, an
    all-tie seeded shuffle, with warning "acyclic".
    """
    n = matrix.n
    count, _ = strong_components(n, matrix.dep_idx, matrix.pred_idx)
    if count == n:
        return _rank("eigenvector", matrix, np.zeros(n), None, seed, warning="acyclic")

    v = np.full(n, 1.0 / n)
    for _ in range(POWER_MAX_ITER):
        nxt = v + np.bincount(matrix.pred_idx, v[matrix.dep_idx], n)
        nxt /= nxt.sum()  # every entry stays positive
        if np.abs(nxt - v).sum() < POWER_TOL:
            return _rank("eigenvector", matrix, nxt, None, seed)
        v = nxt
    warnings.warn("power iteration on A + I failed to converge", RuntimeWarning, stacklevel=2)
    return _rank("eigenvector", matrix, v, None, seed, warning="power-iteration-no-convergence")


def walk_exponential_order(matrix: AdjacencyMatrix, seed: int = 0) -> NodeRanking:
    """Rank by column sums of exp(A); ties by row sums, then seeded RNG.

    exp(A) weights walks of length k by 1/k!, so the column sum aggregates
    the dependency chains of every length that leave a node. The sums are the
    Taylor series on the ones vector, exp(A) 1 = sum_k A^k 1 / k! and
    1^T exp(A) = sum_k 1^T A^k / k!, built term by term as r <- A r / k
    and c <- c A / k. A is 0/1, so every term is nonnegative and the sums
    cannot cancel. The series stops when both terms are all zero (an
    acyclic network: the sum is exact), or once k exceeds the largest row
    and column sum of A, where the tail shrinks geometrically, and no
    entry of either term changes its sum in float64. A network whose
    exp(A) overflows float64 (spectral radius above about 709.78, the ln
    of the largest float64) raises ValueError: once a term's
    Collatz-Wielandt floor on the spectral radius passes that, since some
    entry of exp(A) 1 is at least e^rho, or else once a sum passes float64.
    """
    product = _walk_product(matrix)
    sums = terms = np.ones((2, matrix.n))  # row sums, column sums
    # the largest row or column sum of A: past this k each term is at most
    # its predecessor times bound / k, and the spectral radius is at most bound
    bound = product(sums).max(initial=0)
    k = 0
    with np.errstate(over="ignore"):  # an overflow raises below
        while terms.any():
            k += 1
            scaled = terms / k  # before the product, which could overflow first
            terms = product(scaled)
            total = sums + terms
            if k > bound and (total == sums).all():
                break
            sums = total
            if not np.isfinite(sums).all() or (
                bound > LOG_MAX_FLOAT and _perron_floor(terms, scaled) > LOG_MAX_FLOAT
            ):
                raise ValueError(
                    f"exp(A) overflows float64 (a walk sum passes 1.8e308, shown by Taylor "
                    f"term {k}) at n={matrix.n}; rank this network another way"
                )
    return _rank("walk-exponential", matrix, sums[1], sums[0], seed)


def walk_resolvent_order(matrix: AdjacencyMatrix, seed: int = 0) -> NodeRanking:
    """Rank by column sums of (I - delta*A)^-1, Katz's attenuated-walk
    aggregate of the chains that leave a node; ties by row sums, then
    seeded RNG.

    delta = DELTA = 0.025 plays the role of an edge traversal probability.
    The sums are the Neumann series on the ones vector, built term by term
    as r <- delta * A r and c <- delta * c A. A new sum s' = s + t has
    s' - 1 = delta * A s, so on each side the ratios g = (s' - 1) / s
    bound delta times the spectral radius (Collatz-Wielandt):
    min g <= delta * rho <= max g. Once q, the max g of both sides, is
    below 1, the tail after s' is at most eps * q / (1 - q) * s with
    eps = max(t / s), and the series stops when that bound changes no
    entry of s'. A side with min g >= 1, a term t' with t' >= t on the
    support of its predecessor t (delta * rho >= 1 again), or a sum past
    float64 raises ValueError as divergent; a series that has not stopped
    after RESOLVENT_MAX_TERMS terms (delta * rho just below 1) raises it too.
    """
    product = _walk_product(matrix)
    sums = terms = np.ones((2, matrix.n))  # row sums, column sums
    with np.errstate(over="ignore"):  # an overflow raises below
        for _ in range(RESOLVENT_MAX_TERMS):
            previous, terms = terms, DELTA * product(terms)
            total = sums + terms
            ratio = (total - 1) / sums
            q = ratio.max(initial=0)  # initial: an empty network
            if q < 1:
                tail = (terms / sums).max(initial=0) * q / (1 - q) * sums
                if (total + tail == total).all():
                    return _rank("walk-resolvent", matrix, total[1], total[0], seed)
            # both floors are at most delta * rho <= q. On a periodic hub only min g
            # reaches 1; next to an isolated node, which keeps min g at 0, only t'/t
            elif (not np.isfinite(q) or ratio.min(axis=1).max() >= 1
                  or _perron_floor(terms, previous) >= 1):
                raise ValueError(
                    f"the attenuated walk series (delta {DELTA:g}) diverges at n={matrix.n}; "
                    "rank this network another way"
                )
            sums = total
    raise ValueError(
        f"the attenuated walk series (delta {DELTA:g}) does not converge within "
        f"{RESOLVENT_MAX_TERMS:,} terms at n={matrix.n}; rank this network another way"
    )


def _component_reach(matrix: AdjacencyMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Each node's strong component label, and per component a bool row
    marking the nodes from which a dependency path (length >= 0) leads to
    it. A component's row ORs in the rows of the components it depends
    on, which carry smaller labels and so are already complete."""
    n = matrix.n
    count, labels = strong_components(n, matrix.dep_idx, matrix.pred_idx)
    dep, pred = labels[matrix.dep_idx], labels[matrix.pred_idx]
    between = dep != pred
    by_dep = np.argsort(dep[between], kind="stable")
    dep, pred = dep[between][by_dep], pred[between][by_dep]
    bounds = np.searchsorted(dep, np.arange(count + 1)).tolist()
    reach = np.zeros((count, n), dtype=bool)
    reach[labels, np.arange(n)] = True
    for component in range(count):
        upstream = pred[bounds[component]:bounds[component + 1]]
        if len(upstream):
            reach[component] |= reach[upstream].any(axis=0)
    return labels, reach


def reachability_closure(matrix: AdjacencyMatrix) -> np.ndarray:
    """Binary matrix with entry [i][j] = 1 iff some directed dependency
    path (length >= 0) leads from j to i."""
    labels, reach = _component_reach(matrix)
    return reach[labels].astype(np.int64)


def visibility_order(matrix: AdjacencyMatrix, seed: int = 0) -> NodeRanking:
    """Rank by column sums of the reachability closure, the number of
    nodes that depend on a node by some path; ties by row sums (the nodes
    it depends on), then seeded RNG."""
    labels, reach = _component_reach(matrix)
    column = np.count_nonzero(reach[labels], axis=0).astype(float)
    row = np.count_nonzero(reach, axis=1)[labels].astype(float)
    return _rank("visibility", matrix, column, row, seed)


DETERMINISTIC_METHODS = {
    "outin": out_in_degree_order,
    "eig": eigenvector_order,
    "exp": walk_exponential_order,
    "resolvent": walk_resolvent_order,
    "visibility": visibility_order,
}
