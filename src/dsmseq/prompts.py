"""Prompt construction and response parsing for the LLM search loop.

The prompt has four parts: network topology (edge list, shuffled), optional
contextual knowledge (network description and node names), meta-instructions,
and a worst-to-best list of previously scored orders. Rendering is a pure
function of PromptContext and is pinned byte-for-byte by golden-file tests.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .model import DsmCase, Edge, Node
from .scoring import is_valid_sequence
from .solutions import SolutionRecord

WITH_KNOWLEDGE = "with"
WITHOUT_KNOWLEDGE = "without"

TEMPLATE_WITH_KNOWLEDGE = """You are an expert in the domain of combinational optimization.

Please assist me to find an optimal sequential order that minimizes feedback cycles in the dependency network described below. Your task is to propose a new order that differs from previous attempts and has fewer feedback cycles than any listed.

<Description of the Entire Network> {network_description} </Description of the Entire Network>
<Nodes with Descriptions> {node_list_with_description} </Nodes with Descriptions>
<Edges> {edge_list} </Edges>

Below are some previous sequential orders arranged in descending order of feedback cycles (lower is better): {selected_historical_solutions}

Please suggest a new order that:
- Is different from all prior orders.
- Has fewer feedback cycles than any previous order.
- Covers all nodes exactly once.
- Starts with <order> and ends with </order>.
- You can use the descriptions of nodes and networks to support your suggestion.

Output Format:
<order> ...... </order>

Please provide only the order and nothing else."""

TEMPLATE_WITHOUT_KNOWLEDGE = """You are an expert in the domain of combinational optimization.

Please assist me to find an optimal sequential order that minimizes feedback cycles in the dependency network described below. Your task is to propose a new order that differs from previous attempts and has fewer feedback cycles than any listed.

<Nodes> {node_list} </Nodes>
<Edges> {edge_list} </Edges>

Below are some previous sequential orders arranged in descending order of feedback cycles (lower is better): {selected_historical_solutions}

Please suggest a new order that:
- Is different from all prior orders.
- Has fewer feedback cycles than any previous order.
- Covers all nodes exactly once.
- Starts with <order> and ends with </order>.

Output Format:
<order> ...... </order>

Please provide only the order and nothing else."""


@dataclass(frozen=True)
class PromptContext:
    network_description: str
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    historical: tuple[dict, ...]
    knowledge_mode: str = WITH_KNOWLEDGE

    def __post_init__(self) -> None:
        if self.knowledge_mode not in (WITH_KNOWLEDGE, WITHOUT_KNOWLEDGE):
            raise ValueError(f"unknown knowledge_mode {self.knowledge_mode!r}")

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)


def make_prompt_context(
    case: DsmCase,
    records: list[SolutionRecord],
    knowledge_mode: str,
    rng: random.Random | None,
) -> PromptContext:
    """Assemble a context from a case and archive sample, shuffling the edges
    with rng, or keeping the case's edge order when rng is None."""
    edges = case.edges
    if rng is not None:
        shuffled = list(edges)
        rng.shuffle(shuffled)
        edges = tuple(shuffled)
    historical = tuple(
        {"solution": ", ".join(r.sequence), "score": float(r.score)} for r in records
    )
    return PromptContext(
        network_description=case.description,
        nodes=case.nodes,
        edges=edges,
        historical=historical,
        knowledge_mode=knowledge_mode,
    )


def _render_nodes_with_descriptions(nodes: tuple[Node, ...]) -> str:
    lines = ",\n".join(f"{{'id': {n.id!r}, 'name': {n.name!r}}}" for n in nodes)
    return f"[\n{lines}\n]"


def _render_edge_list(edges: tuple[Edge, ...]) -> str:
    lines = ",\n".join(
        f"{{'dependent': {e.dependent!r}, 'predecessor': {e.predecessor!r}}}" for e in edges
    )
    return f"[\n{lines}\n]"


def _render_historical(historical: tuple[dict, ...]) -> str:
    lines = ",\n".join(
        f"{{'solution': {h['solution']!r}, 'score': {float(h['score'])!r}}}"
        for h in historical
    )
    return f"[\n{lines}\n]"


def _split_template(template: str) -> tuple[str, str]:
    """The template's text before and after the historical solutions field."""
    head, tail = template.split("{selected_historical_solutions}")
    # formatted like the whole template would be: escaped braces come out single
    return head, tail.format()


_TEMPLATE_PARTS = {
    WITH_KNOWLEDGE: _split_template(TEMPLATE_WITH_KNOWLEDGE),
    WITHOUT_KNOWLEDGE: _split_template(TEMPLATE_WITHOUT_KNOWLEDGE),
}

# (key, (head, tail)) of the last frame rendered; one tuple, replaced whole,
# so a reader never pairs one key with another key's frame
_last_frame: tuple = ((), ("", ""))


def _frame(ctx: PromptContext) -> tuple[str, str]:
    """The rendered text before and after the historical solutions.

    It depends only on the topology and the knowledge mode, which stay fixed
    through a run, so the last one is kept. The key is compared with == and
    never hashed: equal tuples that share their elements compare by
    identity, while hashing would walk every node and edge.
    """
    global _last_frame
    key = (ctx.knowledge_mode, ctx.network_description, ctx.nodes, ctx.edges)
    last_key, frame = _last_frame
    if last_key == key:
        return frame
    head, tail = _TEMPLATE_PARTS[ctx.knowledge_mode]
    if ctx.knowledge_mode == WITH_KNOWLEDGE:
        head = head.format(
            network_description=ctx.network_description,
            node_list_with_description=_render_nodes_with_descriptions(ctx.nodes),
            edge_list=_render_edge_list(ctx.edges),
        )
    else:
        head = head.format(
            node_list=repr(list(ctx.node_ids)),
            edge_list=_render_edge_list(ctx.edges),
        )
    frame = (head, tail)
    _last_frame = (key, frame)
    return frame


def build_prompt(ctx: PromptContext) -> str:
    """Render the prompt text. Pure; identical context gives identical bytes."""
    if not ctx.historical:
        raise ValueError(
            "historical solutions must be non-empty: the loop always seeds "
            "the archive with one random order first"
        )
    head, tail = _frame(ctx)
    return head + _render_historical(ctx.historical) + tail


class OrderParseError(ValueError):
    """A model response that cannot be used as a sequence.

    kind is 'missing-tags' when no <order>...</order> span exists and
    'invalid-sequence' when the span is not a permutation of the node ids.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


_ORDER_RE = re.compile(r"<order>(.*?)</order>", re.DOTALL | re.IGNORECASE)


def parse_order_response(raw: str, case) -> list[str]:
    """Extract the first <order>...</order> span as a validated sequence.

    case may be a DsmCase, an AdjacencyMatrix, or an iterable of node ids.
    Surrounding prose is tolerated; the tagged span must contain a
    comma-separated permutation of the node ids.
    """
    match = _ORDER_RE.search(raw)
    if match is None:
        raise OrderParseError("missing-tags", "no <order>...</order> span in response")
    items = [part.strip() for part in match.group(1).split(",")]
    items = [part for part in items if part]
    ok, diag = is_valid_sequence(case, items)
    if not ok:
        raise OrderParseError("invalid-sequence", diag)
    return items
