"""Sequence scoring: count dependencies placed before their prerequisites.

A sequence is a permutation of the case's node ids read left to right as an
execution order. Each edge (dependent d, predecessor p) contributes one
feedback loop when d is placed before p; equivalently, feedback loops are
the 1-entries above the main diagonal after reordering the matrix rows and
columns into the sequence.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# matrix_from_array is unused here but stays importable from this module:
# benchmarks/workloads.py wraps scoring.matrix_from_array by name
from .model import AdjacencyMatrix, _edge_matrix, matrix_from_array  # noqa: F401

# the subset DP holds a few arrays of 2**n entries: at n = 20 it takes
# about 0.14 s and a 64 MB process peak, and each further node doubles both
EXHAUSTIVE_LIMIT = 20


def is_valid_sequence(case_ids, candidate) -> tuple[bool, str]:
    """Check that candidate is a permutation of the node ids.

    case_ids may be an AdjacencyMatrix or any iterable of ids. Returns
    (ok, diagnostic); the diagnostic names missing, duplicated, and unknown
    ids.
    """
    if isinstance(case_ids, AdjacencyMatrix):
        expected = case_ids.index_of.keys()
    else:
        expected = set(case_ids)
    if not isinstance(candidate, (list, tuple)):
        candidate = list(candidate)
    # as many ids as expected, and the same set: no room for a duplicate
    if len(candidate) == len(expected) and set(candidate) == expected:
        return True, "ok"
    counts = Counter(candidate)
    problems = [
        f"{kind} ids: {ids}"
        for kind, ids in (
            ("duplicated", sorted(item for item, c in counts.items() if c > 1)),
            ("unknown", sorted(counts.keys() - expected)),
            ("missing", sorted(expected - counts.keys())),
        )
        if ids
    ]
    return False, "; ".join(problems)


def _index_order(matrix: AdjacencyMatrix, order) -> np.ndarray:
    """Validate an order of node ids and map it to matrix row indices."""
    if not isinstance(order, (list, tuple)):
        order = list(order)
    ok, diag = is_valid_sequence(matrix, order)
    if not ok:
        raise ValueError(f"invalid sequence: {diag}")
    return np.fromiter(map(matrix.index_of.__getitem__, order), dtype=np.int64, count=len(order))


def feedback_count(matrix: AdjacencyMatrix, order: np.ndarray) -> int | np.ndarray:
    """Feedback count of an order given as matrix row indices, unchecked.

    order must be a permutation of range(matrix.n), or a (k, n) stack of
    them; that is not checked here, so callers validate first
    (score_sequence and run_ga do). One order gives an int, a stack an
    array of k counts.
    """
    if order.ndim == 2:
        # a permutation's argsort is its inverse: each node's position
        pos = order.argsort(axis=1)
        return (pos.take(matrix.dep_idx, axis=1) < pos.take(matrix.pred_idx, axis=1)).sum(axis=1)
    pos = np.empty(matrix.n, dtype=np.int64)
    pos[order] = np.arange(matrix.n)
    return int(np.count_nonzero(pos[matrix.dep_idx] < pos[matrix.pred_idx]))


def score_sequence(matrix: AdjacencyMatrix, order) -> int:
    """Number of edges whose dependent is placed before its predecessor."""
    return feedback_count(matrix, _index_order(matrix, order))


def reorder_matrix(matrix: AdjacencyMatrix, order) -> AdjacencyMatrix:
    """Apply the same permutation to rows and columns.

    Row/column k of the result corresponds to the k-th id in order; only
    the edge lists are permuted.
    """
    order = list(order)
    idx = _index_order(matrix, order)
    pos = np.empty(matrix.n, dtype=np.int64)
    pos[idx] = np.arange(matrix.n)
    return _edge_matrix(tuple(order), pos[matrix.dep_idx], pos[matrix.pred_idx])


def brute_force_optimum(matrix: AdjacencyMatrix) -> tuple[int, list[str]]:
    """Global minimum feedback count and a sequence achieving it.

    A subset dynamic program (Held & Karp, 1962) gives the same minimum as
    literal enumeration of all n! orders. dp[S] is the fewest feedback
    loops among the nodes of mask S over any order of them; it is filled
    in numpy one subset size at a time, each size from the one below.
    Of all optimal sequences, the lexicographically smallest by node id is
    returned. Refuses n > EXHAUSTIVE_LIMIT (20).
    """
    n = matrix.n
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive optimum is limited to n <= {EXHAUSTIVE_LIMIT} "
            f"(got n={n}); use the GA or LLM search instead"
        )
    # preds_mask[v] = bitmask of nodes v depends on
    preds_mask = [0] * n
    for d, p in zip(matrix.dep_idx, matrix.pred_idx):
        preds_mask[int(d)] |= 1 << int(p)

    full = (1 << n) - 1
    mask_t = np.min_scalar_type(full)
    size = np.bitwise_count(np.arange(full + 1, dtype=mask_t))
    by_size = np.argsort(size).astype(mask_t)
    bounds = np.cumsum(np.bincount(size, minlength=n + 1)).tolist()
    bits = (1 << np.arange(n, dtype=mask_t))[:, None]
    preds = np.array(preds_mask, dtype=mask_t)[:, None]
    # An order and its reverse together make at most two feedback loops of
    # each node pair, so no dp value exceeds n(n-1)/2. Every mask starts one
    # above that; when v is not in a size-k mask S, S ^ bit_v has size
    # k + 1, is not filled yet and still holds the sentinel, so v never
    # wins the minimum. A candidate adds at most n to a dp value.
    sentinel = n * (n - 1) // 2 + 1
    dp = np.full(full + 1, sentinel, dtype=np.min_scalar_type(sentinel + n))
    dp[0] = 0
    for k in range(1, n + 1):
        layer = by_size[bounds[k - 1] : bounds[k]]
        rest = layer ^ bits
        cost = dp[rest]
        # placing v first among S: every predecessor of v still in S lands
        # after v and becomes one feedback loop
        rest &= preds
        cost += np.bitwise_count(rest)
        dp[layer] = cost.min(axis=0)
        # the (n, layer) temporaries go before the next layer's are made
        del rest, cost
    dp = dp.tolist()

    # reconstruct front-first, preferring the smallest id among optimal picks
    by_id = sorted(range(n), key=lambda v: matrix.ids[v])
    order: list[str] = []
    mask = full
    while mask:
        for v in by_id:
            v_bit = 1 << v
            if not mask & v_bit:
                continue
            cost = (preds_mask[v] & (mask ^ v_bit)).bit_count() + dp[mask ^ v_bit]
            if cost == dp[mask]:
                order.append(matrix.ids[v])
                mask ^= v_bit
                break
    return dp[full], order
