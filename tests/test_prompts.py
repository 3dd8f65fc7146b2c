"""Prompt rendering (pinned by golden files) and response parsing."""

import dataclasses
import hashlib
import random
import re

import pytest

from dsmseq import prompts
from dsmseq import (
    DsmCase,
    Edge,
    Node,
    OrderParseError,
    PromptContext,
    PromptFrame,
    SolutionRecord,
    build_prompt,
    is_valid_sequence,
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

FIXTURE_CASE = DsmCase(nodes=FIXTURE_NODES, edges=FIXTURE_EDGES, description=FIXTURE_DESCRIPTION)


def fixture_context(mode):
    return PromptContext(PromptFrame(FIXTURE_CASE, mode), FIXTURE_HISTORICAL)


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


def whole_template_render(case, mode, historical):
    """The prompt formatted from the whole template in one str.format call,
    each previous order rendered as the repr of a plain dict."""
    rows = [{"solution": ", ".join(r.sequence), "score": float(r.score)} for r in historical]
    rendered = "[\n" + ",\n".join(map(repr, rows)) + "\n]"
    edges = prompts._render_edge_list(case.edges)
    if mode == "with":
        return prompts.TEMPLATE_WITH_KNOWLEDGE.format(
            network_description=case.description,
            node_list_with_description=prompts._render_nodes_with_descriptions(case.nodes),
            edge_list=edges,
            selected_historical_solutions=rendered,
        )
    return prompts.TEMPLATE_WITHOUT_KNOWLEDGE.format(
        node_list=repr([node.id for node in case.nodes]),
        edge_list=edges,
        selected_historical_solutions=rendered,
    )


def shuffled(case, rng):
    """The case with its edges in a seeded random order."""
    edges = list(case.edges)
    rng.shuffle(edges)
    return dataclasses.replace(case, edges=tuple(edges))


def first_order_record(case):
    """The case's ids in file order, scored, as the archive would record them."""
    from dsmseq import build_adjacency, score_sequence

    m = build_adjacency(case)
    return SolutionRecord(tuple(m.ids), score_sequence(m, m.ids))


# each changes one part of the frame: the text around the historical solutions
FRAME_CHANGES = {
    "topology": dict(nodes=FIXTURE_NODES[:4], edges=FIXTURE_EDGES[:3]),
    "node-names": dict(nodes=tuple(Node(n.id, n.name.upper()) for n in FIXTURE_NODES)),
    "edge-order": dict(edges=FIXTURE_EDGES[::-1]),
    "description": dict(description="Another line."),
}


class TestPromptFrame:
    @pytest.mark.parametrize("change", sorted(FRAME_CHANGES))
    @pytest.mark.parametrize("mode", ["with", "without"])
    def test_alternating_frames_render_as_whole_template(self, mode, change):
        other = dataclasses.replace(FIXTURE_CASE, **FRAME_CHANGES[change])
        frames = [(case, PromptFrame(case, mode)) for case in (FIXTURE_CASE, other)]
        for case, frame in frames + frames:
            prompt = build_prompt(PromptContext(frame, FIXTURE_HISTORICAL))
            assert prompt == whole_template_render(case, mode, FIXTURE_HISTORICAL)

    def test_alternating_knowledge_modes_render_as_whole_template(self):
        frames = [(mode, PromptFrame(FIXTURE_CASE, mode)) for mode in ("with", "without")]
        for mode, frame in frames + frames:
            prompt = build_prompt(PromptContext(frame, FIXTURE_HISTORICAL))
            assert prompt == whole_template_render(FIXTURE_CASE, mode, FIXTURE_HISTORICAL)

    def test_new_historical_on_the_same_frame(self):
        frame = PromptFrame(FIXTURE_CASE, "with")
        for historical in (FIXTURE_HISTORICAL, FIXTURE_HISTORICAL[::-1], FIXTURE_HISTORICAL[:1]):
            prompt = build_prompt(PromptContext(frame, historical))
            assert prompt == whole_template_render(FIXTURE_CASE, "with", historical)

    def test_equal_topology_in_new_objects_gives_the_same_bytes(self):
        copied = dataclasses.replace(
            FIXTURE_CASE,
            nodes=tuple(Node(n.id, n.name) for n in FIXTURE_NODES),
            edges=tuple(Edge(e.dependent, e.predecessor) for e in FIXTURE_EDGES),
        )
        ctx = PromptContext(PromptFrame(copied, "with"), FIXTURE_HISTORICAL)
        assert build_prompt(ctx) == build_prompt(fixture_context("with"))

    def test_seeded_reshuffles_render_as_whole_template(self, demo_case):
        rec = first_order_record(demo_case)
        rng = random.Random(3)
        for mode in ("with", "without", "with"):
            for _ in range(3):
                case = shuffled(demo_case, rng)
                prompt = build_prompt(PromptContext(PromptFrame(case, mode), (rec,)))
                assert prompt == whole_template_render(case, mode, (rec,))

    def test_context_reads_nodes_and_mode_from_its_frame(self):
        ctx = fixture_context("without")
        assert ctx.nodes is FIXTURE_NODES
        assert ctx.knowledge_mode == "without"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="knowledge_mode"):
            PromptFrame(FIXTURE_CASE, "maybe")


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
        ctx = PromptContext(PromptFrame(FIXTURE_CASE, "with"), ())
        with pytest.raises(ValueError, match="historical"):
            build_prompt(ctx)

    def test_historical_scores_are_floats(self, demo_case):
        rec = first_order_record(demo_case)
        ctx = PromptContext(PromptFrame(demo_case, "without"), (rec,))
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
    @pytest.mark.parametrize("mode", ["with", "without"])
    def test_prompts_and_retry_prompts(self, mode):
        frame = PromptFrame(FIXTURE_CASE, mode)
        error = OrderParseError("missing-tags", "no <order>...</order> span in response")
        for historical in (FIXTURE_HISTORICAL, FIXTURE_HISTORICAL[::-1]):
            prompt = build_prompt(PromptContext(frame, historical))
            for text in (prompt, prompts.retry_prompt(prompt, error)):
                assert frame.sha256(text) == sha256_hex(text)

    def test_another_frames_prompts(self, demo_case):
        frame = PromptFrame(FIXTURE_CASE, "with")
        rec = first_order_record(demo_case)
        rng = random.Random(7)
        for mode in ("with", "without"):
            for _ in range(3):
                prompt = build_prompt(PromptContext(PromptFrame(shuffled(demo_case, rng), mode), (rec,)))
                assert frame.sha256(prompt) == sha256_hex(prompt)

    @pytest.mark.parametrize("text", ["", "unrelated text", "Ünïcödé ✓"])
    def test_unrelated_string(self, text):
        assert PromptFrame(FIXTURE_CASE, "with").sha256(text) == sha256_hex(text)


AWKWARD_IDS = ("it's", 'say "hi"', "back\\slash", "Ünïcödé", "节点", "tab\there")


class TestCachedLines:
    def test_record_line_matches_rendered_dict(self):
        for k in range(len(AWKWARD_IDS)):
            sequence = AWKWARD_IDS[k:] + AWKWARD_IDS[:k]
            rec = SolutionRecord(sequence, k)
            assert rec.prompt_line == repr({"solution": ", ".join(sequence), "score": float(k)})

    def test_prompt_from_records_matches_prompt_from_dicts(self):
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
            ctx = PromptContext(PromptFrame(case, mode), tuple(records))
            assert build_prompt(ctx) == whole_template_render(case, mode, records)
