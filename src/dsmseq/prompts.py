"""Prompt construction and response parsing for the LLM search loop.

The prompt has four parts: network topology (edge list, shuffled once per
run), optional contextual knowledge (network description and node names),
meta-instructions, and a worst-to-best list of previously scored orders.
Only the last part changes within a run. A run builds one PromptFrame from
its case and knowledge mode, which renders the text around that list once
and hashes the run's prompts; each iteration's PromptContext pairs the
frame with the archive sample. Rendering is pure and pinned byte-for-byte
by golden-file tests. Parsing maps a reply's ids to the matrix's row
indices and checks them once; the loop and the archive work on those rows.

This module alone knows the reply format: one rule finds the <order> span
for the parser and the id renamer, and retry_prompt re-asks after a bad reply.
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


def _render_nodes_with_descriptions(nodes: tuple[Node, ...]) -> str:
    lines = ",\n".join(f"{{'id': {n.id!r}, 'name': {n.name!r}}}" for n in nodes)
    return f"[\n{lines}\n]"


def _render_edge_list(edges: tuple[Edge, ...]) -> str:
    lines = ",\n".join(
        f"{{'dependent': {e.dependent!r}, 'predecessor': {e.predecessor!r}}}" for e in edges
    )
    return f"[\n{lines}\n]"


class PromptFrame:
    """The text of a run's prompts before and after the historical solutions.

    It depends only on the case (description, nodes, edges in the order
    given) and the knowledge mode, which stay fixed through a run, so it is
    rendered once. The digest state of the head is kept too: every prompt
    and retry prompt of the run starts with the head.
    """

    def __init__(self, case: DsmCase, knowledge_mode: str):
        if knowledge_mode not in (WITH_KNOWLEDGE, WITHOUT_KNOWLEDGE):
            raise ValueError(f"unknown knowledge_mode {knowledge_mode!r}")
        self.nodes = case.nodes
        self.knowledge_mode = knowledge_mode
        if knowledge_mode == WITH_KNOWLEDGE:
            template = TEMPLATE_WITH_KNOWLEDGE
            fields = dict(
                network_description=case.description,
                node_list_with_description=_render_nodes_with_descriptions(case.nodes),
            )
        else:
            template = TEMPLATE_WITHOUT_KNOWLEDGE
            fields = dict(node_list=repr(list(case.node_ids)))
        head, tail = template.split("{selected_historical_solutions}")
        self.head = head.format(edge_list=_render_edge_list(case.edges), **fields)
        # formatted like the whole template would be: escaped braces come out single
        self.tail = tail.format()
        self._head_state = hashlib.sha256(self.head.encode("utf-8"))

    def sha256(self, prompt: str) -> str:
        """Hex sha256 of the prompt's UTF-8 bytes.

        A prompt that starts with the head resumes from the head's digest
        state and hashes only the rest.
        """
        if not prompt.startswith(self.head):
            return hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        digest = self._head_state.copy()
        digest.update(prompt[len(self.head):].encode("utf-8"))
        return digest.hexdigest()


@dataclass(frozen=True)
class PromptContext:
    frame: PromptFrame
    historical: tuple[SolutionRecord, ...]

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self.frame.nodes

    @property
    def knowledge_mode(self) -> str:
        return self.frame.knowledge_mode


def build_prompt(ctx: PromptContext) -> str:
    """Render the prompt text. Pure; identical context gives identical bytes."""
    if not ctx.historical:
        raise ValueError(
            "historical solutions must be non-empty: the loop always seeds "
            "the archive with one random order first"
        )
    lines = ",\n".join([record.prompt_line for record in ctx.historical])
    return "".join((ctx.frame.head, "[\n", lines, "\n]", ctx.frame.tail))


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


def _order_span(raw: str) -> tuple[int, int] | None:
    """The (start, end) bounds of the text inside the first
    <order>...</order> span, tags in any case."""
    folded = raw.lower() if raw.isascii() else raw.translate(_ASCII_LOWER)
    start = folded.find(_OPEN_TAG)
    if start < 0:
        return None
    start += len(_OPEN_TAG)
    end = folded.find(_CLOSE_TAG, start)
    if end < 0:
        return None
    return start, end


def rename_order_ids(raw: str, mapping) -> str:
    """raw with each id of its first <order> span renamed through mapping.

    The span is split as the parser splits it, on "," with each item
    stripped; the text around each item stays, and so do ids mapping lacks
    and a reply with no span.
    """
    bounds = _order_span(raw)
    if bounds is None:
        return raw
    start, end = bounds
    items = []
    for item in raw[start:end].split(","):
        node_id = item.strip()
        # only whitespace precedes the stripped item, so it is the first match
        items.append(item.replace(node_id, mapping.get(node_id, node_id), 1))
    return raw[:start] + ",".join(items) + raw[end:]


def retry_prompt(prompt: str, error: OrderParseError) -> str:
    """The prompt re-sent after a reply that failed to parse with error."""
    return (
        f"{prompt}\n\nYour previous response was invalid ({error}). Please answer "
        "again: cover all nodes exactly once, start with <order> and end with </order>."
    )


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
    bounds = _order_span(raw)
    if bounds is None:
        raise OrderParseError("missing-tags", "no <order>...</order> span in response")
    span = raw[bounds[0]:bounds[1]]
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
