"""Prompt construction and response parsing for the LLM search loop.

The prompt has four parts: network topology (edge list, shuffled once per
run), optional contextual knowledge (network description and node names),
meta-instructions, and a worst-to-best list of previously scored orders.
Rendering is a pure function of PromptContext and is pinned byte-for-byte by
golden-file tests. Parsing maps a reply's ids to the matrix's row indices
and checks them once; the loop and the archive work on those rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .model import AdjacencyMatrix, DsmCase, Edge, Node, check_node_ids
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
    historical: tuple[SolutionRecord, ...]
    knowledge_mode: str = WITH_KNOWLEDGE

    def __post_init__(self) -> None:
        if self.knowledge_mode not in (WITH_KNOWLEDGE, WITHOUT_KNOWLEDGE):
            raise ValueError(f"unknown knowledge_mode {self.knowledge_mode!r}")

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)


def make_prompt_context(
    case: DsmCase, records: list[SolutionRecord], knowledge_mode: str
) -> PromptContext:
    """Assemble a context from a case, edges in the case's order, and an
    archive sample."""
    return PromptContext(
        network_description=case.description,
        nodes=case.nodes,
        edges=case.edges,
        historical=tuple(records),
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


def _split_template(template: str) -> tuple[str, str]:
    """The template's text before and after the historical solutions field."""
    head, tail = template.split("{selected_historical_solutions}")
    # formatted like the whole template would be: escaped braces come out single
    return head, tail.format()


_TEMPLATE_PARTS = {
    WITH_KNOWLEDGE: _split_template(TEMPLATE_WITH_KNOWLEDGE),
    WITHOUT_KNOWLEDGE: _split_template(TEMPLATE_WITHOUT_KNOWLEDGE),
}

# (key, (head, tail, sha256 state fed the head's bytes)) of the last frame
# rendered; one tuple, replaced whole, so a reader never pairs one key with
# another key's frame
_last_frame: tuple = ((), ("", "", hashlib.sha256()))


def _frame(ctx: PromptContext) -> tuple:
    """The rendered text before and after the historical solutions, and
    the digest state of the text before.

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
    frame = (head, tail, hashlib.sha256(head.encode("utf-8")))
    _last_frame = (key, frame)
    return frame


def build_prompt(ctx: PromptContext) -> str:
    """Render the prompt text. Pure; identical context gives identical bytes."""
    if not ctx.historical:
        raise ValueError(
            "historical solutions must be non-empty: the loop always seeds "
            "the archive with one random order first"
        )
    head, tail, _ = _frame(ctx)
    lines = ",\n".join([record.prompt_line for record in ctx.historical])
    return "".join((head, "[\n", lines, "\n]", tail))


def prompt_sha256(prompt: str) -> str:
    """Hex sha256 of the prompt's UTF-8 bytes.

    A prompt that starts with the head of the last rendered frame, as every
    prompt and retry prompt of a run does, resumes from the head's digest
    state and hashes only the rest.
    """
    _, (head, _, head_state) = _last_frame
    if not prompt.startswith(head):
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    digest = head_state.copy()
    digest.update(prompt[len(head):].encode("utf-8"))
    return digest.hexdigest()


class OrderParseError(ValueError):
    """A model response that cannot be used as a sequence.

    kind is 'missing-tags' when no <order>...</order> span exists and
    'invalid-sequence' when the span is not a permutation of the node ids.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


_OPEN_TAG = "<order>"
_CLOSE_TAG = "</order>"
# lowercases ASCII letters only: one character for one, so positions in the
# folded text are positions in the raw text
_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")


def _order_span(raw: str) -> str | None:
    """The text of the first <order>...</order> span, tags in any case."""
    folded = raw.lower() if raw.isascii() else raw.translate(_ASCII_LOWER)
    start = folded.find(_OPEN_TAG)
    if start < 0:
        return None
    start += len(_OPEN_TAG)
    end = folded.find(_CLOSE_TAG, start)
    if end < 0:
        return None
    return raw[start:end]


def _permutation(rows: list, n: int) -> bool:
    """Whether rows, the index_of lookups of a reply's ids, are n known
    (no None) and distinct rows: a permutation of range(n)."""
    distinct = set(rows)
    return len(rows) == n == len(distinct) and None not in distinct


def parse_order_response(raw: str, case_ids) -> list[int]:
    """Extract the first <order>...</order> span as a checked order of row
    indices.

    case_ids is the case's AdjacencyMatrix, as the search loop passes it,
    or a sequence of its node ids (held to the case id rules). Surrounding
    prose is tolerated; the tagged span must contain a comma-separated
    permutation of the node ids. Row r is the id case_ids.ids[r] (or
    case_ids[r]), so every parsed order of a run names the matrix's own
    strings.

    The span is first split on the canonical ", ". No id holds a comma or
    surrounding whitespace, so when that gives n known, distinct ids they
    are the ids the general split on "," with stripping gives, which is
    tried only when it does not.
    """
    span = _order_span(raw)
    if span is None:
        raise OrderParseError("missing-tags", "no <order>...</order> span in response")
    if isinstance(case_ids, AdjacencyMatrix):
        n, index_of = case_ids.n, case_ids.index_of
    else:
        ids = tuple(case_ids)
        check_node_ids(ids, "ids")
        n, index_of = len(ids), {node_id: i for i, node_id in enumerate(ids)}
    rows = list(map(index_of.get, span.strip().split(", ")))
    if _permutation(rows, n):
        return rows
    items = list(filter(None, map(str.strip, span.split(","))))
    rows = list(map(index_of.get, items))
    if _permutation(rows, n):
        return rows
    _, diag = is_valid_sequence(index_of.keys(), items)
    raise OrderParseError("invalid-sequence", diag)
