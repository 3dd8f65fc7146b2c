"""Prompt rendering (pinned by golden files) and response parsing."""

import dataclasses
import hashlib
import random
import re

import pytest

from dsmseq import prompts
from dsmseq import (
    Edge,
    Node,
    OrderParseError,
    PromptContext,
    SolutionRecord,
    build_prompt,
    is_valid_sequence,
    make_prompt_context,
    parse_order_response,
)

from conftest import adjacency, make_case

FIXTURE_NODES = (
    Node("aK3vQ", "Define Requirements"),
    Node("Zp8Lm", "Draft Layout Geometry"),
    Node("q2RtY", "Size Drive Motor"),
    Node("Wx51b", "Select Belt Material"),
    Node("e9DnU", "Estimate Unit Cost"),
    Node("Hs7fc", "Review Safety Margins"),
)
FIXTURE_EDGES = (
    Edge("q2RtY", "Zp8Lm"),
    Edge("Wx51b", "aK3vQ"),
    Edge("Zp8Lm", "aK3vQ"),
    Edge("e9DnU", "q2RtY"),
    Edge("e9DnU", "Wx51b"),
    Edge("Hs7fc", "e9DnU"),
    Edge("aK3vQ", "Hs7fc"),
)
FIXTURE_HISTORICAL = (
    SolutionRecord(("Hs7fc", "e9DnU", "Wx51b", "q2RtY", "Zp8Lm", "aK3vQ"), 6),
    SolutionRecord(("aK3vQ", "Zp8Lm", "q2RtY", "Wx51b", "e9DnU", "Hs7fc"), 1),
)
FIXTURE_DESCRIPTION = (
    "Design tasks for an automated conveyor line. Nodes are tasks; a directed "
    "edge records that one task needs the output of another before it can start."
)


def fixture_context(mode):
    return PromptContext(
        network_description=FIXTURE_DESCRIPTION,
        nodes=FIXTURE_NODES,
        edges=FIXTURE_EDGES,
        historical=FIXTURE_HISTORICAL,
        knowledge_mode=mode,
    )


class TestGolden:
    def test_with_knowledge_bytes(self, golden_dir):
        rendered = build_prompt(fixture_context("with"))
        golden = (golden_dir / "prompt_with_knowledge.txt").read_text(encoding="utf-8")
        assert rendered == golden

    def test_without_knowledge_bytes(self, golden_dir):
        rendered = build_prompt(fixture_context("without"))
        golden = (golden_dir / "prompt_without_knowledge.txt").read_text(encoding="utf-8")
        assert rendered == golden

    def test_rendering_is_pure(self):
        assert build_prompt(fixture_context("with")) == build_prompt(fixture_context("with"))


def whole_template_render(ctx):
    """The prompt formatted from the whole template in one str.format call,
    each previous order rendered as the repr of a plain dict."""
    rows = [{"solution": ", ".join(r.sequence), "score": float(r.score)} for r in ctx.historical]
    historical = "[\n" + ",\n".join(map(repr, rows)) + "\n]"
    edges = prompts._render_edge_list(ctx.edges)
    if ctx.knowledge_mode == "with":
        return prompts.TEMPLATE_WITH_KNOWLEDGE.format(
            network_description=ctx.network_description,
            node_list_with_description=prompts._render_nodes_with_descriptions(ctx.nodes),
            edge_list=edges,
            selected_historical_solutions=historical,
        )
    return prompts.TEMPLATE_WITHOUT_KNOWLEDGE.format(
        node_list=repr([node.id for node in ctx.nodes]),
        edge_list=edges,
        selected_historical_solutions=historical,
    )


def shuffled(case, rng):
    """The case with its edges in a seeded random order."""
    edges = list(case.edges)
    rng.shuffle(edges)
    return dataclasses.replace(case, edges=tuple(edges))


# each changes one part of the frame: the text around the historical solutions
FRAME_CHANGES = {
    "topology": dict(nodes=FIXTURE_NODES[:4], edges=FIXTURE_EDGES[:3]),
    "node-names": dict(nodes=tuple(Node(n.id, n.name.upper()) for n in FIXTURE_NODES)),
    "edge-order": dict(edges=FIXTURE_EDGES[::-1]),
    "description": dict(network_description="Another line."),
}


class TestFrameCache:
    @pytest.mark.parametrize("change", sorted(FRAME_CHANGES))
    @pytest.mark.parametrize("mode", ["with", "without"])
    def test_interleaved_contexts_render_as_whole_template(self, mode, change):
        first = fixture_context(mode)
        second = dataclasses.replace(first, **FRAME_CHANGES[change])
        for ctx in (first, second, first, second):
            assert build_prompt(ctx) == whole_template_render(ctx)

    def test_interleaved_knowledge_modes_render_as_whole_template(self):
        first, second = fixture_context("with"), fixture_context("without")
        for ctx in (first, second, first, second):
            assert build_prompt(ctx) == whole_template_render(ctx)

    def test_new_historical_on_the_same_frame(self):
        ctx = fixture_context("with")
        build_prompt(ctx)
        again = dataclasses.replace(ctx, historical=FIXTURE_HISTORICAL[::-1])
        assert build_prompt(again) == whole_template_render(again)

    def test_equal_topology_in_new_objects_gives_the_same_bytes(self):
        copied = dataclasses.replace(
            fixture_context("with"),
            nodes=tuple(Node(n.id, n.name) for n in FIXTURE_NODES),
            edges=tuple(Edge(e.dependent, e.predecessor) for e in FIXTURE_EDGES),
        )
        assert build_prompt(copied) == build_prompt(fixture_context("with"))

    def test_seeded_reshuffles_render_as_whole_template(self, demo_case):
        from dsmseq import build_adjacency, score_sequence

        m = build_adjacency(demo_case)
        order = tuple(m.ids)
        rec = SolutionRecord(order, score_sequence(m, order))
        rng = random.Random(3)
        for mode in ("with", "without", "with"):
            for _ in range(3):
                ctx = make_prompt_context(shuffled(demo_case, rng), [rec], mode)
                assert build_prompt(ctx) == whole_template_render(ctx)


class TestPromptContent:
    def test_without_mode_carries_no_knowledge(self):
        rendered = build_prompt(fixture_context("without"))
        for node in FIXTURE_NODES:
            assert node.name not in rendered
        assert FIXTURE_DESCRIPTION[:40] not in rendered
        assert "<Description of the Entire Network>" not in rendered
        assert "<Nodes>" in rendered

    def test_with_mode_has_blocks(self):
        rendered = build_prompt(fixture_context("with"))
        for header in (
            "<Description of the Entire Network>",
            "<Nodes with Descriptions>",
            "<Edges>",
        ):
            assert header in rendered
        assert "Starts with <order> and ends with </order>." in rendered

    def test_historical_rendered_worst_to_best(self):
        rendered = build_prompt(fixture_context("with"))
        assert rendered.index("'score': 6.0") < rendered.index("'score': 1.0")

    def test_empty_historical_rejected(self):
        ctx = PromptContext(
            network_description="x",
            nodes=FIXTURE_NODES,
            edges=FIXTURE_EDGES,
            historical=(),
            knowledge_mode="with",
        )
        with pytest.raises(ValueError, match="historical"):
            build_prompt(ctx)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="knowledge_mode"):
            fixture_context("maybe")


class TestMakeContext:
    def test_without_rng_the_case_edges_pass_through(self, demo_case):
        ctx = make_prompt_context(demo_case, [], "with")
        assert ctx.edges is demo_case.edges

    def test_historical_scores_are_floats(self, demo_case):
        from dsmseq import build_adjacency, score_sequence

        m = build_adjacency(demo_case)
        order = tuple(m.ids)
        rec = SolutionRecord(order, score_sequence(m, order))
        ctx = make_prompt_context(demo_case, [rec], "without")
        assert ctx.historical == (rec,)
        assert f"'score': {float(rec.score)!r}}}" in build_prompt(ctx)


class TestParseOrder:
    def setup_method(self):
        self.matrix = adjacency(make_case(2, [(1, 0)]))

    def test_plain(self):
        assert parse_order_response("<order> v00, v01 </order>", self.matrix) == [0, 1]

    def test_prose_around_tags(self):
        raw = "Sure, here is my suggestion:\n<order>v01,v00</order>\nHope this helps."
        assert parse_order_response(raw, self.matrix) == [1, 0]

    def test_first_span_wins(self):
        raw = "<order> v00, v01 </order> ... <order> v01, v00 </order>"
        assert parse_order_response(raw, self.matrix) == [0, 1]

    def test_missing_tags_kind(self):
        with pytest.raises(OrderParseError) as info:
            parse_order_response("v00, v01", self.matrix)
        assert info.value.kind == "missing-tags"

    def test_duplicate_entry_kind(self):
        with pytest.raises(OrderParseError) as info:
            parse_order_response("<order> v00, v00 </order>", self.matrix)
        assert info.value.kind == "invalid-sequence"

    def test_unknown_id_kind(self):
        with pytest.raises(OrderParseError) as info:
            parse_order_response("<order> v00, nope1 </order>", self.matrix)
        assert info.value.kind == "invalid-sequence"

    def test_whitespace_and_newlines_tolerated(self):
        raw = "<order>\n  v00 ,\n  v01\n</order>"
        assert parse_order_response(raw, self.matrix) == [0, 1]

    def test_ids_are_the_matrix_own_strings(self):
        matrix = adjacency(make_case(7, [(1, 0), (2, 1)]))
        raw = "<order>  " + " ,\n ".join(reversed(matrix.ids)) + "  </order>"
        parsed = parse_order_response(raw, matrix)
        assert parsed == list(reversed(range(matrix.n)))
        # each row names the matrix's own string, not the reply's copy
        named = [matrix.ids[row] for row in parsed]
        assert named == list(reversed(matrix.ids))
        assert all(got is own for got, own in zip(named, reversed(matrix.ids)))

    def test_canonical_split_gives_the_general_split_rows(self):
        # the parser splits on ", " first; every reply must come out as the
        # split on "," with stripping (the only split before) reads it
        matrix = adjacency(make_case(4, [(1, 0), (2, 1)]))
        separators = (", ", ",", " , ", ",\n  ", ", , ", ",,")
        rng = random.Random(3)
        accepted = 0
        for _ in range(3000):
            items = rng.sample(list(matrix.ids), 4)
            if rng.random() < 0.3:
                items[rng.randrange(4)] = rng.choice([*matrix.ids, "v0", "v00 v01", ""])
            span = rng.choice(["", " ", "\n"]) + items[0]
            for item in items[1:]:
                span += rng.choice(separators) + item
            span += rng.choice(["", " ", "\n"])
            general = [item.strip() for item in span.split(",") if item.strip()]
            ok, diag = is_valid_sequence(matrix, general)
            if ok:
                accepted += 1
                assert parse_order_response(f"<order>{span}</order>", matrix) == [
                    matrix.index_of[node_id] for node_id in general
                ]
            else:
                with pytest.raises(OrderParseError) as info:
                    parse_order_response(f"<order>{span}</order>", matrix)
                assert str(info.value) == diag
        assert 2000 < accepted < 3000

    def test_id_list_form_follows_the_id_rules(self):
        assert parse_order_response("<order> b, a </order>", ["a", "b"]) == [1, 0]
        with pytest.raises(ValueError, match="whitespace"):
            parse_order_response("<order> b,  a </order>", ["b", " a"])

    @pytest.mark.parametrize(
        "span",
        [
            pytest.param("v00, v00", id="duplicated"),
            pytest.param("v00, nope1", id="unknown"),
            pytest.param("v01", id="missing"),
            pytest.param("v01, v00, v01", id="too-long"),
            pytest.param(" ", id="empty"),
        ],
    )
    def test_invalid_span_message_is_the_validator_diagnostic(self, span):
        with pytest.raises(OrderParseError) as info:
            parse_order_response(f"<order>{span}</order>", self.matrix)
        items = [item.strip() for item in span.split(",") if item.strip()]
        assert info.value.kind == "invalid-sequence"
        assert str(info.value) == is_valid_sequence(self.matrix, items)[1]


# the tag search that parse_order_response replaced, kept as the reference
REFERENCE_ORDER_RE = re.compile(r"<order>(.*?)</order>", re.DOTALL | re.IGNORECASE)
REPLY_PIECES = (
    "<order>", "<ORDER>", "<Order>", "</order>", "</ORDER>", "</oRdEr>",
    "<order", "order>", "</ord", "< order>", "v00", "v01", ", ", ",", " ",
    "\n", "Sure, here it is:", "é", "İ", "K", "ſ", "",
)


def generated_replies(count, seed=0):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(REPLY_PIECES) for _ in range(rng.randrange(1, 12)))


def span_text(raw):
    bounds = prompts._order_span(raw)
    return None if bounds is None else raw[bounds[0]:bounds[1]]


class TestOrderSpan:
    @pytest.mark.parametrize(
        "raw",
        [
            "<ORDER> v00, v01 </Order>",
            "<order> v00, v01 and no closing tag",
            "<order> v00 </order> then <order> v01 </order>",
            "<order>\nv00,\nv01\n</order>",
            "Here: <order>v01, v00</order> as asked.",
            "<order></order>",
            "</order> <order> v00 </order>",
            "<order> <order> v00 </order>",
            "İ <order> v00, v01 </ORDER> K",
        ],
    )
    def test_matches_reference_regex(self, raw):
        match = REFERENCE_ORDER_RE.search(raw)
        assert span_text(raw) == (match.group(1) if match else None)

    def test_generated_replies_match_reference_regex(self):
        for raw in generated_replies(5000):
            match = REFERENCE_ORDER_RE.search(raw)
            assert span_text(raw) == (match.group(1) if match else None), raw

    def test_empty_span_is_invalid_sequence(self):
        with pytest.raises(OrderParseError) as info:
            parse_order_response("<order> </order>", ["v00", "v01"])
        assert info.value.kind == "invalid-sequence"


def parse_outcome(raw, ids):
    """The rows a reply parses to, or the kind of its OrderParseError."""
    try:
        return parse_order_response(raw, ids)
    except OrderParseError as exc:
        return exc.kind


def tagged_lists(count, seed=1):
    """Order spans of ids, repeats, empty items and an unknown one, each
    padded with whitespace, so that many of them parse."""
    rng = random.Random(seed)
    space = ("", " ", "\t", "\n", "\x1c")
    for _ in range(count):
        items = rng.sample(("v00", "v01", "v01", "", "İ"), rng.randrange(1, 5))
        yield "<order>" + ",".join(rng.choice(space) + item + rng.choice(space) for item in items) + "</order>"


class TestRenameOrderIds:
    EDGE_REPLIES = (
        "<ORDER> v01,v00 </Order>",
        "<order> v00 </order> then <order> v01, v00 </order>",
        "<order> v01, v00 </order> then <order> v00 </order>",
        "<order>\tv01,\nv00\x1c</order>",
        "<order>\x1cv00\x1c,\x1cv01\x1c</order>",
        "<order> v00,, v01, </order>",
        "<order>,v00 ,  ,v01,</order>",
        "<order> , </order>",
        "İ <order> v01, v00 </ORDER> İ",
        "<order> v00, İ </order>",
        "<order> v00 v01 </order>",
        "<order> v01, v00",
        "no tags: v00, v01",
    )

    @pytest.mark.parametrize("mapping", [{"v00": "Id_B", "v01": "Id_A"}, {"v00": "Id_B"}])
    def test_renaming_then_parsing_with_the_mapped_ids_gives_the_original_outcome(self, mapping):
        ids = ["v00", "v01"]
        mapped = [mapping.get(node_id, node_id) for node_id in ids]
        inverse = {new: old for old, new in mapping.items()}
        for raw in (*self.EDGE_REPLIES, *generated_replies(5000), *tagged_lists(2000)):
            renamed = prompts.rename_order_ids(raw, mapping)
            assert parse_outcome(renamed, mapped) == parse_outcome(raw, ids), raw
            # only the ids change: renaming back restores every other character
            assert prompts.rename_order_ids(renamed, inverse) == raw, raw

    def test_edge_replies_rename_inside_the_first_span_only(self):
        mapping = {"v00": "Id_B", "v01": "Id_A"}
        renamed = [prompts.rename_order_ids(raw, mapping) for raw in self.EDGE_REPLIES]
        assert renamed[1] == "<order> Id_B </order> then <order> v01, v00 </order>"
        assert renamed[3] == "<order>\tId_A,\nId_B\x1c</order>"
        assert renamed[6] == "<order>,Id_B ,  ,Id_A,</order>"
        assert renamed[8] == "İ <order> Id_A, Id_B </ORDER> İ"
        assert renamed[11:] == list(self.EDGE_REPLIES[11:])


def sha256_hex(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPromptDigest:
    def test_frame_hit(self):
        ctx = fixture_context("with")
        build_prompt(ctx)
        prompt = build_prompt(dataclasses.replace(ctx, historical=FIXTURE_HISTORICAL[::-1]))
        assert prompts.prompt_sha256(prompt) == sha256_hex(prompt)

    def test_frame_miss(self):
        prompt = build_prompt(fixture_context("with"))
        build_prompt(fixture_context("without"))  # replaces the kept frame
        assert prompts.prompt_sha256(prompt) == sha256_hex(prompt)

    def test_retry_suffix(self):
        prompt = build_prompt(fixture_context("without")) + "\n\nYour previous response was invalid."
        assert prompts.prompt_sha256(prompt) == sha256_hex(prompt)

    def test_reshuffled_edges_each_prompt(self, demo_case):
        from dsmseq import build_adjacency, score_sequence

        m = build_adjacency(demo_case)
        rec = SolutionRecord(tuple(m.ids), score_sequence(m, m.ids))
        rng = random.Random(7)
        for mode in ("with", "without"):
            for _ in range(3):
                prompt = build_prompt(make_prompt_context(shuffled(demo_case, rng), [rec], mode))
                assert prompts.prompt_sha256(prompt) == sha256_hex(prompt)

    @pytest.mark.parametrize("text", ["", "unrelated text", "Ünïcödé ✓"])
    def test_unrelated_string(self, text):
        build_prompt(fixture_context("with"))
        assert prompts.prompt_sha256(text) == sha256_hex(text)


AWKWARD_IDS = ("it's", 'say "hi"', "back\\slash", "Ünïcödé", "节点", "tab\there")


class TestCachedLines:
    def test_record_line_matches_rendered_dict(self):
        for k in range(len(AWKWARD_IDS)):
            sequence = AWKWARD_IDS[k:] + AWKWARD_IDS[:k]
            rec = SolutionRecord(sequence, k)
            assert rec.prompt_line == repr({"solution": ", ".join(sequence), "score": float(k)})

    def test_prompt_from_records_matches_prompt_from_dicts(self):
        from dsmseq import DsmCase

        case = DsmCase(
            nodes=tuple(Node(i, f"Task {i}") for i in AWKWARD_IDS),
            edges=(Edge(AWKWARD_IDS[1], AWKWARD_IDS[0]), Edge(AWKWARD_IDS[3], AWKWARD_IDS[4])),
            description="ids that repr has to escape",
        )
        records = [
            SolutionRecord(AWKWARD_IDS[::-1], 2),
            SolutionRecord(AWKWARD_IDS, 1),
        ]
        for mode in ("with", "without"):
            ctx = make_prompt_context(case, records, mode)
            assert ctx.historical == tuple(records)
            assert build_prompt(ctx) == whole_template_render(ctx)
