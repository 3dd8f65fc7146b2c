"""Drive the iterative optimization loop with a scripted chat provider.

The loop builds a prompt from an archive of scored orders, asks the
provider for a better one, verifies the reply, and repeats. The model sees
fresh ids drawn from the seed, never the case's; the scripted replies name
the case's ids and are renamed to match, and the trace and the best come
back in the case's ids. Scripting the replies keeps the demo offline; swap
in OpenAIChatProvider.from_env() to run against a live endpoint:

    export OPENAI_API_KEY=...          # required
    export OPENAI_API_BASE=...         # optional, defaults to api.openai.com
    export OPENAI_MODEL=gpt-4o-mini    # optional
"""

import csv
import tempfile
from pathlib import Path

from dsmseq import (
    OptimizerConfig,
    ScriptedProvider,
    TerminationPolicy,
    build_adjacency,
    bundled_case,
    reorder_matrix,
    run_optimization,
    score_sequence,
)

REPLIES = [
    # plausible but mediocre: the file order of the case
    "<order> input_shaft, gear_pair, bearings, housing, lube, seals, output_shaft </order>",
    # close to the optimum
    "<order> lube, bearings, input_shaft, housing, seals, gear_pair, output_shaft </order>",
    # the exhaustive optimum, found in scoring_basics.py
    "<order> lube, bearings, input_shaft, seals, housing, gear_pair, output_shaft </order>",
]


def snapshot_svg(n, edges, iteration, score):
    """Hand-rolled SVG of an n x n matrix whose 1-entries are edges, (row,
    column) pairs: a grey diagonal, red cells above it (feedback) and blue
    cells below it."""
    cell = 16
    margin = 28
    size = n * cell
    full = size + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{full}" height="{full}" viewBox="0 0 {full} {full}">',
        f'<text x="{margin}" y="{margin - 10}" font-family="monospace" font-size="12">'
        f"iteration {iteration}: feedback={score}</text>",
        f'<rect x="{margin}" y="{margin}" width="{size}" height="{size}" fill="white" stroke="black"/>',
    ]
    # no edge lies on the diagonal, so the cells sort row-major by (row, column) alone
    cells = [(i, i, "#dddddd") for i in range(n)]
    cells += [(i, j, "#d62728" if j > i else "#1f77b4") for i, j in edges]
    for i, j, color in sorted(cells):
        parts.append(
            f'<rect x="{margin + j * cell}" y="{margin + i * cell}" '
            f'width="{cell}" height="{cell}" fill="{color}"/>'
        )
    for k in range(1, n):
        parts.append(
            f'<line x1="{margin + k * cell}" y1="{margin}" x2="{margin + k * cell}" '
            f'y2="{margin + size}" stroke="#bbbbbb" stroke-width="0.5"/>'
        )
        parts.append(
            f'<line x1="{margin}" y1="{margin + k * cell}" x2="{margin + size}" '
            f'y2="{margin + k * cell}" stroke="#bbbbbb" stroke-width="0.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_snapshots(case, trace, iterations, out_dir):
    """Write SVG + CSV snapshots of the best-so-far reordered matrix.

    For each requested iteration, rows and columns follow the best sequence
    of that iteration's last trace row, and the SVG's annotation states its
    recomputed feedback count. The CSV's header is the sequence and its rows
    the 0/1 matrix. The files are trajectory_iterNNN.svg and .csv; the paths
    written are returned. The trace's ids must match the case's.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matrix = build_adjacency(case)
    by_iteration = {row["iteration"]: row for row in trace}  # the last row per iteration wins
    written = []
    for iteration in iterations:
        if iteration not in by_iteration:
            raise ValueError(f"iteration {iteration} not present in trace")
        sequence = by_iteration[iteration]["best_sequence"]
        reordered = reorder_matrix(matrix, sequence)
        n = reordered.n
        edges = list(zip(reordered.dep_idx.tolist(), reordered.pred_idx.tolist()))
        svg_path = out / f"trajectory_iter{iteration:03d}.svg"
        svg = snapshot_svg(n, edges, iteration, score_sequence(matrix, sequence))
        svg_path.write_text(svg, encoding="utf-8", newline="")
        rows = [[0] * n for _ in range(n)]
        for i, j in edges:
            rows[i][j] = 1
        csv_path = out / f"trajectory_iter{iteration:03d}.csv"
        with csv_path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(sequence)
            writer.writerows(rows)
        written += [svg_path, csv_path]
    return written


def main():
    case = bundled_case("demo_gearbox_7")
    provider = ScriptedProvider(list(REPLIES))

    with tempfile.TemporaryDirectory() as audit:
        cfg = OptimizerConfig(
            termination=TerminationPolicy(max_iterations=5),
            seed=42,
            audit_dir=audit,
        )
        best, trace = run_optimization(case, cfg, provider)
        rescored = score_sequence(build_adjacency(case), best.sequence)
        if best.score != rescored:
            raise RuntimeError(f"the run reports {best.score} feedback marks, its best order scores {rescored}")

        print("trace (iteration 0 is the random seed order):")
        for row in trace:
            seq = ", ".join(row["sequence"]) if row["sequence"] else "-"
            print(f"  iter {row['iteration']}: score {row['score']}, best so far {row['best_score']}")
            print(f"        {seq}")
        print()
        print(f"best: {best.score} feedback marks via {best.sequence}")
        print()

        print("first prompt sent (truncated):")
        first = provider.prompts[0]
        for line in first.splitlines()[:12]:
            print(f"  | {line}")
        print(f"  | ... ({len(first.splitlines())} lines total)")
        print()

        files = sorted(p.name for p in Path(audit).iterdir() if p.is_file())
        print(f"audit trail wrote {len(files)} files:")
        for name in files:
            print(f"  {name}")
        print()

        # snapshot the best-so-far matrix at the start and end of the run
        written = write_snapshots(case, trace, [0, 3], Path(audit) / "snaps")
        print("matrix snapshots (SVG heatmap plus the sequence as CSV):")
        for path in written:
            print(f"  {path.name}")


if __name__ == "__main__":
    main()
