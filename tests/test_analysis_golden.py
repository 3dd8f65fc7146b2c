"""The pinned analysis digests. This module needs only numpy, so the plain
install runs it too, at the numpy version pyproject.toml declares as its
floor: tie order rests on numpy's stable sorts."""

import dataclasses
import hashlib
import json
import random
import warnings

from dsmseq import DETERMINISTIC_METHODS, build_adjacency, network_metrics, reachability_closure
from conftest import random_case, run_with_blas_threads

# (n, density) of the golden analysis draws: sparse draws leave the network
# disconnected, dense ones are cyclic; the n = 400 draw is near the degree
# at which the benchmark's networks connect
ANALYSIS_DRAWS = [(10, 0.05), (10, 0.15), (10, 0.5)] * 3 + [
    (100, 0.006),
    (100, 0.02),
    (100, 0.039),
    (100, 0.3),
    (400, 0.008),
]


def analysis_digests() -> dict[str, str]:
    """For each seeded draw, the sha256 over network_metrics, every
    deterministic ranking at seed 0 and the reachability closure."""
    rng = random.Random(2026)
    digests = {}
    for pos, (n, density) in enumerate(ANALYSIS_DRAWS):
        case = random_case(rng, n, density)
        matrix = build_adjacency(case)
        digest = hashlib.sha256(repr(dataclasses.asdict(network_metrics(case))).encode("utf-8"))
        for name in sorted(DETERMINISTIC_METHODS):
            with warnings.catch_warnings():  # eig warns on defective spectra
                warnings.simplefilter("ignore", RuntimeWarning)
                ranking = DETERMINISTIC_METHODS[name](matrix, seed=0)
            digest.update(repr(ranking.to_dict()).encode("utf-8"))
        digest.update(reachability_closure(matrix).tobytes())
        digests[f"{pos:02d}/n{n}/p{density}"] = digest.hexdigest()
    return digests


def test_analysis_matches_golden_digests(golden_dir):
    """The digests are pinned in golden/analysis_sha256.json, so a faster
    analysis must reproduce every output exactly, with one BLAS thread and
    with two: the keys come from scatter-adds and elementwise sums, with no
    BLAS call, so their bits must not depend on the thread count."""
    expected = json.loads((golden_dir / "analysis_sha256.json").read_text(encoding="utf-8"))
    for threads in (1, 2):
        digests = run_with_blas_threads(
            "import json, test_analysis_golden; print(json.dumps(test_analysis_golden.analysis_digests()))",
            threads,
        )
        assert json.loads(digests) == expected, f"{threads} BLAS threads"
