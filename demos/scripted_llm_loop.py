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

import tempfile
from pathlib import Path

from dsmseq import (
    OptimizerConfig,
    ScriptedProvider,
    TerminationPolicy,
    bundled_case,
    render_trajectory,
    run_optimization,
)

REPLIES = [
    # plausible but mediocre: the file order of the case
    "<order> input_shaft, gear_pair, bearings, housing, lube, seals, output_shaft </order>",
    # close to the optimum
    "<order> lube, bearings, input_shaft, housing, seals, gear_pair, output_shaft </order>",
    # the exhaustive optimum, found in scoring_basics.py
    "<order> lube, bearings, input_shaft, seals, housing, gear_pair, output_shaft </order>",
]


def main():
    case = bundled_case("demo_gearbox_7")
    provider = ScriptedProvider(list(REPLIES))

    with tempfile.TemporaryDirectory() as audit:
        cfg = OptimizerConfig(
            termination=TerminationPolicy(max_iterations=5, optimal_threshold=2),
            seed=42,
            audit_dir=audit,
        )
        best, trace = run_optimization(case, cfg, provider)

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
        written = render_trajectory(case, trace, [0, 3], Path(audit) / "snaps")
        print("matrix snapshots (SVG heatmap plus the sequence as CSV):")
        for path in written:
            print(f"  {path.name}")


if __name__ == "__main__":
    main()
