"""Run every deterministic ranking on the packaging-line network.

Each method sorts nodes by a matrix-derived key (degree balance, dominant
eigenvector weight, walk counts, reachability), oriented so that suppliers
come first, instead of searching. They are fast and reproducible: on this
network they leave 18 to 20 feedback dependencies, against an optimum of 12.
"""

from dsmseq import DETERMINISTIC_METHODS, build_adjacency, bundled_case, score_sequence


def main():
    case = bundled_case("packaging_line_12")
    matrix = build_adjacency(case)
    print(f"{case.n} nodes, {len(case.edges)} edges")
    print()

    print(f"{'method':<18} {'score':>5}  first four nodes")
    for name, method in DETERMINISTIC_METHODS.items():
        ranking = method(matrix, seed=0)
        score = score_sequence(matrix, ranking.order)
        head = ", ".join(ranking.order[:4])
        print(f"{name:<18} {score:>5}  {head}, ...")
    print()

    ranking = DETERMINISTIC_METHODS["outin"](matrix, seed=0)
    print("out-in-degree keys (providers first, consumers last):")
    for node_id in ranking.order:
        print(f"  {node_id:<22} {ranking.primary_keys[node_id]:+.0f}")
    if ranking.tie_groups:
        print(f"ties broken by the seed: {ranking.tie_groups}")


if __name__ == "__main__":
    main()
