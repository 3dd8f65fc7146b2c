"""Score a few node orders on the bundled gearbox network.

The score counts feedback marks: dependencies whose provider is placed
after the node that needs it. Lower is better, zero means the order is
a topological sort.
"""

from dsmseq import (
    brute_force_optimum,
    build_adjacency,
    bundled_case,
    reorder_matrix,
    score_sequence,
)


def show_matrix(matrix, sequence):
    """Print the reordered matrix; entries above the diagonal are feedback."""
    reordered = reorder_matrix(matrix, sequence)
    marks = set(zip(reordered.dep_idx.tolist(), reordered.pred_idx.tolist()))
    width = max(len(node_id) for node_id in sequence)
    for i, row_id in enumerate(reordered.ids):
        cells = " ".join("X" if (i, j) in marks else "." for j in range(reordered.n))
        print(f"  {row_id:>{width}} | {cells}")


def main():
    case = bundled_case("demo_gearbox_7")
    matrix = build_adjacency(case)
    print(f"case: {case.description}")
    print(f"nodes: {case.n}, edges: {len(case.edges)}")
    print()

    file_order = case.node_ids
    print(f"file order {file_order}")
    print(f"  feedback marks: {score_sequence(matrix, file_order)}")
    print()

    worst = tuple(reversed(file_order))
    print(f"reversed order scores {score_sequence(matrix, worst)}")
    print("(forward plus reversed always equals the edge count)")
    print()

    best_score, best_order = brute_force_optimum(matrix)
    print(f"exhaustive optimum: {best_score} feedback marks")
    show_matrix(matrix, best_order)


if __name__ == "__main__":
    main()
