"""Seeded benchmark inputs: synthetic case files and a scripted chat client.

Every input is a pure function of the workload seed, so two runs with one
seed hand the program identical case files and identical client replies.
Only the standard library is used here; the chat client imports
``dsmseq.llm.ChatResult`` lazily, when it first answers.
"""

from __future__ import annotations

import json
import random
import re
import time
from pathlib import Path

# Edges per node over the five bundled cases: gearbox 10/7 = 1.43 up to
# packaging 47/12 = 3.92.
DEGREE_RANGE = (1.4, 3.9)

# Reply schedule of the scripted client, by reply index k (0-based): every
# tenth reply is malformed and the one after it always valid, so a retry
# recovers and no iteration fails; another tenth repeats the best order.
MALFORMED_SLOT = 9
DUPLICATE_SLOT = 4
SCHEDULE_PERIOD = 10


def seeded_rng(*parts) -> random.Random:
    """A Random seeded from a string, so streams are independent of PYTHONHASHSEED."""
    return random.Random(":".join(str(p) for p in parts))


def spread_degrees(count: int, lo: float, hi: float) -> list[float]:
    """Mean degrees at the midpoints of ``count`` equal slices of [lo, hi].

    Every seed covers the range the same way and draws only the structure.
    Drawing the degree too (one uniform draw per slice, four n = 400
    networks) made a seed's analysis time vary by 11 % between quartiles of
    eight seeds, mostly through the reachability closure, whose cost falls
    steeply with the degree.
    """
    width = (hi - lo) / count
    return [lo + (i + 0.5) * width for i in range(count)]


def random_case_dict(n: int, mean_degree: float, rng: random.Random, label: str) -> dict:
    """A uniform random directed network with round(mean_degree * n) edges.

    Edges are distinct ordered pairs without self-loops, drawn without
    replacement; nothing is filtered, so disconnected or cyclic networks
    are kept as drawn.
    """
    e = round(mean_degree * n)
    ids = [f"{label}_{i:03d}" for i in range(n)]
    edges = []
    for code in rng.sample(range(n * (n - 1)), e):
        dependent, offset = divmod(code, n - 1)
        predecessor = offset if offset < dependent else offset + 1
        edges.append({"dependent": ids[dependent], "predecessor": ids[predecessor]})
    return {
        "description": (
            f"Synthetic dependency network {label}: {n} tasks and {e} "
            "dependencies drawn uniformly at random."
        ),
        "nodes": [{"id": node_id, "name": f"Task {i}"} for i, node_id in enumerate(ids)],
        "edges": edges,
    }


def write_case(directory: Path, name: str, case: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(case, indent=1) + "\n", encoding="utf-8")
    return path


# (n, networks per seed, degree range) of the analyze-synthetic workload.
# At n = 400 a uniform draw is connected about when its expected number of
# isolated nodes, n * exp(-2 * degree), falls below one, near degree 3.0;
# there network_metrics switches between a 0.3 s and a 2 s path. Keeping
# n = 400 in the lower half of the bundled range (at most 0.07 chance of a
# connected draw) keeps every seed on the same, slow path; the n = 10 and
# n = 100 networks span the whole range.
ANALYZE_SIZES = (
    (10, 8, DEGREE_RANGE),
    (100, 8, DEGREE_RANGE),
    (400, 2, (DEGREE_RANGE[0], sum(DEGREE_RANGE) / 2)),
)

LLM_CASE_N = 100


def analyze_cases(seed: int, directory: Path) -> list[Path]:
    """Case files for analyze-synthetic, smallest networks first."""
    rng = seeded_rng("analyze-synthetic", seed)
    paths = []
    for n, count, (lo, hi) in ANALYZE_SIZES:
        for i, degree in enumerate(spread_degrees(count, lo, hi)):
            name = f"n{n}_{i}"
            paths.append(write_case(directory, name, random_case_dict(n, degree, rng, name)))
    return paths


def llm_case(directory: Path) -> Path:
    """The n = 100 case of llm-long: one fixed network at the middle of the
    bundled degree range (265 edges).

    With a fresh network per seed, the network's structure alone moved the
    final best score by 9 % between quartiles of ten seeds; so every seed
    searches this network, and the seed drives the client and the loop.
    """
    rng = seeded_rng("llm-long")
    degree = sum(DEGREE_RANGE) / 2
    name = f"n{LLM_CASE_N}"
    return write_case(directory, name, random_case_dict(LLM_CASE_N, degree, rng, name))


_BEST_RE = re.compile(r"\{'solution': '([^']*)', 'score'")


class LocalSearchClient:
    """Scripted chat client: swaps two positions of the best order in the prompt.

    The prompt lists earlier orders worst to best, so the last one is the
    best. The swap positions come from the seeded RNG. The reply schedule
    above makes a fixed share of replies malformed (alternately without
    tags and with an unknown id) or duplicates of the best order. The
    client stamps each call, so loop time between calls can be measured
    without counting the client's own work.
    """

    model = "local-search"

    def __init__(self, seed):
        self._rng = seeded_rng("client", seed)
        self.calls: list[tuple[float, float]] = []

    def complete(self, request):
        from dsmseq.llm import ChatResult

        start = time.perf_counter()
        k = len(self.calls)
        prompt = request.messages[-1]["content"]
        order = _BEST_RE.findall(prompt)[-1].split(", ")
        slot = k % SCHEDULE_PERIOD
        if slot == MALFORMED_SLOT:
            if (k // SCHEDULE_PERIOD) % 2:
                text = "I would start with " + ", ".join(order)
            else:
                text = "<order> " + ", ".join(order[:-1] + ["unknown-task"]) + " </order>"
        else:
            if slot != DUPLICATE_SLOT:
                i, j = self._rng.sample(range(len(order)), 2)
                order[i], order[j] = order[j], order[i]
            text = "<order> " + ", ".join(order) + " </order>"
        self.calls.append((start, time.perf_counter()))
        return ChatResult(text=text, usage={}, retries=0, model=self.model)


class ClientFactory:
    """Zero-argument factory for the grid: the k-th client gets seed (seed, k)."""

    def __init__(self, seed: int):
        self._seed = seed
        self.clients: list[LocalSearchClient] = []

    def __call__(self) -> LocalSearchClient:
        client = LocalSearchClient((self._seed, len(self.clients)))
        self.clients.append(client)
        return client
