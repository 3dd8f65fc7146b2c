"""Run a small seeded benchmark grid and inspect the output files.

The grid crosses cases with methods. Deterministic and GA cells need no
network; the two llm-* cells call a zero-argument provider factory once
per run, and the provider it returns needs only a .complete(request)
method. This demo passes a tiny provider class as that factory; each
instance reads the archive shown in its own prompt and replies with the
first listed order reversed.
That is enough to exercise the anonymization round trip and the budget
snapshots without any credentials.
"""

import re
import tempfile
from pathlib import Path

from dsmseq import ChatResult, ExperimentSpec, run_experiment


class ReverseEchoProvider:
    """Replies with the reverse of the first archived order in the prompt."""

    model = "reverse-echo"

    def complete(self, request):
        prompt = request.messages[-1]["content"]
        first = re.search(r"'solution': '([^']+)'", prompt)
        ids = first.group(1).split(", ")
        text = "<order> " + ", ".join(reversed(ids)) + " </order>"
        return ChatResult(text=text, usage={}, retries=0, model=self.model)


def main():
    data = Path(__file__).resolve().parents[1] / "src" / "dsmseq" / "data"
    with tempfile.TemporaryDirectory() as out:
        spec = ExperimentSpec(
            cases=[data / "demo_gearbox_7.json", data / "packaging_line_12.json"],
            methods=["det-outin", "det-visibility", "ga-balanced", "llm-without-knowledge"],
            output_dir=out,
            runs_per_method=3,
            trial_budgets=[1, 3],
            ga_generations=60,
            provider=ReverseEchoProvider,  # the class is the factory: one instance per run
        )
        table = run_experiment(spec)

        print(f"{'case':<20} {'method':<22} {'budget':>6} {'mean':>6} {'best':>4}")
        for row in table.summary:
            budget = row["budget"] if row["budget"] is not None else "-"
            print(
                f"{row['case']:<20} {row['method']:<22} {budget:>6} "
                f"{row['mean']:>6.2f} {row['best']:>4}"
            )
        if table.failures:
            raise RuntimeError(f"{len(table.failures)} grid cells failed: {table.failures}")
        print()

        produced = sorted(p.relative_to(out) for p in Path(out).rglob("*") if p.is_file())
        print(f"{len(produced)} files written:")
        for rel in produced[:12]:
            print(f"  {rel}")
        print(f"  ... and {len(produced) - 12} more")


if __name__ == "__main__":
    main()
