"""Search loop: termination, retries, duplicates, auditing, abort semantics."""

import hashlib
import json
import random
import re
from dataclasses import replace

import pytest

from dsmseq import (
    ExperimentSpec,
    OpenAIChatProvider,
    OptimizationAborted,
    OptimizerConfig,
    ScriptedProvider,
    TerminationPolicy,
    anonymize_ids,
    brute_force_optimum,
    build_adjacency,
    run_experiment,
    run_optimization,
    score_sequence,
)
from dsmseq import optimizer
from dsmseq.cli import main
from dsmseq.prompts import rename_order_ids
from conftest import DATA_DIR, make_case, naive_score

# v00 -> v01 -> ... -> v05; each task needs the previous one's output
CHAIN_EDGES = [(i + 1, i) for i in range(5)]
TOPO_ORDER = "v00, v01, v02, v03, v04, v05"
REVERSED_ORDER = "v05, v04, v03, v02, v01, v00"


def chain_case(n=6, known_optimum=None):
    return replace(make_case(n, [(i + 1, i) for i in range(n - 1)]), known_optimum=known_optimum)


def config(**overrides):
    defaults = dict(
        termination=TerminationPolicy(max_iterations=20),
        seed=11,
    )
    defaults.update(overrides)
    return OptimizerConfig(**defaults)


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def as_received(reply, case, seed):
    """A scripted reply as the loop receives it: in the ids the run draws from its seed."""
    return rename_order_ids(reply, anonymize_ids(case, seed)[1])


class TestConfig:
    def test_unknown_knowledge_mode(self):
        with pytest.raises(ValueError, match="knowledge_mode"):
            OptimizerConfig(knowledge_mode="telepathy")

    @pytest.mark.parametrize("audit_dir", [5, b"audit", ["audit"]])
    def test_audit_dir_must_be_a_path(self, audit_dir):
        # refused at construction, not after the first model call
        message = f"audit_dir must be None or a path, got {audit_dir!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            OptimizerConfig(audit_dir=audit_dir)


class TestHappyPath:
    def test_stops_at_the_declared_optimum(self):
        case = chain_case(known_optimum=0)
        stub = ScriptedProvider([f"<order> {TOPO_ORDER} </order>"] * 5)
        best, trace = run_optimization(case, config(), stub)
        assert trace[0]["score"] > 0  # seeded start is not already optimal
        assert best.score == 0
        assert best.sequence == tuple(TOPO_ORDER.split(", "))
        assert len(trace) == 2  # iteration 0 plus one model call
        assert len(stub.prompts) == 1

    @pytest.mark.parametrize("known_optimum, calls", [(1, 1), (0, 2), (None, 20)])
    def test_stops_at_the_first_iteration_whose_best_reaches_the_optimum(self, known_optimum, calls):
        # the first reply scores 1 and the rest 0; with no optimum the default budget runs out
        replies = ["<order> v01, v00, v02, v03, v04, v05 </order>"] + [f"<order> {TOPO_ORDER} </order>"] * 19
        stub = ScriptedProvider(replies)
        _, trace = run_optimization(chain_case(known_optimum=known_optimum), OptimizerConfig(), stub)
        assert trace[0]["score"] > 1
        assert len(stub.prompts) == calls == len(trace) - 1

    def test_seed_order_at_the_optimum_sends_nothing(self):
        # every order of a lone 2-cycle scores 1
        case = replace(make_case(2, [(0, 1), (1, 0)]), known_optimum=1)
        stub = ScriptedProvider(["<order> v00, v01 </order>"])
        best, trace = run_optimization(case, config(), stub)
        assert len(trace) == 1 and stub.prompts == []
        assert best.score == trace[0]["score"] == 1

    def test_runs_to_iteration_budget(self):
        case = chain_case()
        responses = [
            f"<order> {REVERSED_ORDER} </order>",
            "<order> v01, v00, v02, v03, v04, v05 </order>",
            "<order> v00, v02, v01, v03, v04, v05 </order>",
        ]
        cfg = config(termination=TerminationPolicy(max_iterations=3))
        best, trace = run_optimization(case, cfg, ScriptedProvider(responses))
        assert [row["iteration"] for row in trace] == [0, 1, 2, 3]
        assert best.score <= trace[0]["score"]

    def test_trace_scores_match_independent_count(self):
        case = chain_case()
        responses = [
            f"<order> {REVERSED_ORDER} </order>",
            "<order> v03, v01, v04, v00, v02, v05 </order>",
        ]
        cfg = config(termination=TerminationPolicy(max_iterations=2))
        _, trace = run_optimization(case, cfg, ScriptedProvider(responses))
        for row in trace:
            assert row["score"] == naive_score(case, row["sequence"])

    def test_best_so_far_never_worsens(self):
        case = chain_case()
        responses = [
            "<order> v02, v04, v00, v05, v01, v03 </order>",
            f"<order> {TOPO_ORDER} </order>",
            f"<order> {REVERSED_ORDER} </order>",
            "<order> v01, v02, v03, v04, v05, v00 </order>",
        ]
        cfg = config(termination=TerminationPolicy(max_iterations=4))
        _, trace = run_optimization(case, cfg, ScriptedProvider(responses))
        best_scores = [row["best_score"] for row in trace]
        assert all(b <= a for a, b in zip(best_scores, best_scores[1:]))
        # the reversed order arrives after the optimum: best stays put
        assert best_scores[-1] == 0

    def test_trace_schema(self):
        case = chain_case()
        cfg = config(termination=TerminationPolicy(max_iterations=1))
        stub = ScriptedProvider([f"<order> {REVERSED_ORDER} </order>"])
        _, trace = run_optimization(case, cfg, stub)
        expected_keys = {
            "iteration",
            "prompt_sha256",
            "response_sha256",
            "sequence",
            "score",
            "failure",
            "duplicate",
            "attempts",
            "unique_count",
            "best_score",
            "best_sequence",
        }
        for row in trace:
            assert set(row) == expected_keys
        seed_row, llm_row = trace
        assert seed_row["prompt_sha256"] is None
        assert llm_row["prompt_sha256"] == sha(stub.prompts[0])
        # the digest is of the reply the loop received, in the run's ids
        assert llm_row["response_sha256"] == sha(as_received(f"<order> {REVERSED_ORDER} </order>", case, cfg.seed))
        assert llm_row["attempts"] == 1
        assert llm_row["failure"] is None


class TestDuplicates:
    def test_repeats_do_not_grow_the_archive(self):
        case = chain_case()
        cfg = config(termination=TerminationPolicy(max_iterations=4))
        stub = ScriptedProvider([f"<order> {TOPO_ORDER} </order>"] * 4)
        _, trace = run_optimization(case, cfg, stub)
        assert trace[1]["duplicate"] is False
        assert all(row["duplicate"] for row in trace[2:])
        assert trace[-1]["unique_count"] == 2  # the seed order plus one


class TestInvalidResponses:
    def test_retry_budget_consumed_then_iteration_fails(self, monkeypatch):
        monkeypatch.setattr(optimizer, "INVALID_RETRY_BUDGET", 1)
        case = chain_case()
        cfg = config(termination=TerminationPolicy(max_iterations=1))
        stub = ScriptedProvider(["no tags here", "still no tags"])
        best, trace = run_optimization(case, cfg, stub)
        row = trace[1]
        assert row["failure"] == "missing-tags"
        assert row["attempts"] == 2
        assert row["sequence"] is None and row["score"] is None
        assert row["unique_count"] == 1
        assert best.sequence == tuple(trace[0]["sequence"])  # the random seed order
        assert len(stub.prompts) == 2
        assert "previous response was invalid" not in stub.prompts[0]
        assert "previous response was invalid" in stub.prompts[1]

    def test_recovers_within_budget(self):
        assert optimizer.INVALID_RETRY_BUDGET == 2
        case = chain_case()
        cfg = config(termination=TerminationPolicy(max_iterations=1))
        stub = ScriptedProvider(
            [
                "nonsense",
                "<order> v00, v00, v01, v02, v03, v04 </order>",
                f"<order> {TOPO_ORDER} </order>",
            ]
        )
        best, trace = run_optimization(case, cfg, stub)
        row = trace[1]
        assert row["failure"] is None
        assert row["attempts"] == 3
        assert row["score"] == 0
        assert best.score == 0

    def test_zero_budget_means_single_attempt(self, monkeypatch):
        monkeypatch.setattr(optimizer, "INVALID_RETRY_BUDGET", 0)
        case = chain_case()
        cfg = config(termination=TerminationPolicy(max_iterations=1))
        stub = ScriptedProvider(["garbage", "never consulted"])
        _, trace = run_optimization(case, cfg, stub)
        assert trace[1]["attempts"] == 1
        assert len(stub.prompts) == 1


class TestAbort:
    def test_script_exhaustion_aborts_with_partial_trace(self):
        case = chain_case()
        cfg = config(termination=TerminationPolicy(max_iterations=3))
        stub = ScriptedProvider([f"<order> {REVERSED_ORDER} </order>"])
        with pytest.raises(OptimizationAborted) as info:
            run_optimization(case, cfg, stub)
        exc = info.value
        assert [row["iteration"] for row in exc.trace] == [0, 1, 2]
        last = exc.trace[-1]
        assert last["failure"] == "provider-error"
        # the trace is the one record of the run: its last row holds the best
        assert sorted(last["best_sequence"]) == sorted(case.node_ids)
        assert naive_score(case, last["best_sequence"]) == last["best_score"]
        assert last["best_score"] == min(row["best_score"] for row in exc.trace)

    def test_reply_with_no_text_aborts_with_the_rows_run_so_far(self):
        case = chain_case()
        cfg = config(termination=TerminationPolicy(max_iterations=3))
        first = as_received(f"<order> {TOPO_ORDER} </order>", case, cfg.seed)
        replies = [
            {"choices": [{"message": {"content": first}}]},
            {"choices": [{"message": {"content": None}}]},  # a refusal or a tool call
        ]
        provider = OpenAIChatProvider("sk-test", "m", transport=lambda *_: (200, replies.pop(0)))
        with pytest.raises(OptimizationAborted, match="iteration 2: response body has no text") as info:
            run_optimization(case, cfg, provider)
        trace = info.value.trace
        assert [row["iteration"] for row in trace] == [0, 1, 2]
        assert trace[1]["sequence"] == list(case.node_ids) and trace[1]["score"] == 0
        assert trace[2]["failure"] == "provider-error"
        assert (trace[2]["best_score"], trace[2]["best_sequence"]) == (0, tuple(case.node_ids))


class TestAudit:
    def test_prompt_and_response_files(self, tmp_path):
        case = chain_case()
        audit = tmp_path / "audit"
        cfg = config(
            termination=TerminationPolicy(max_iterations=1),
            audit_dir=audit,
        )
        stub = ScriptedProvider([f"<order> {TOPO_ORDER} </order>"])
        run_optimization(case, cfg, stub)
        prompt_file = audit / "iter001_attempt1_prompt.txt"
        response_file = audit / "iter001_attempt1_response.txt"
        assert prompt_file.read_text(encoding="utf-8") == stub.prompts[0]
        received = as_received(f"<order> {TOPO_ORDER} </order>", case, cfg.seed)
        assert response_file.read_text(encoding="utf-8") == received

    def test_each_retry_audited(self, monkeypatch, tmp_path):
        monkeypatch.setattr(optimizer, "INVALID_RETRY_BUDGET", 1)
        case = chain_case()
        cfg = config(termination=TerminationPolicy(max_iterations=1), audit_dir=tmp_path)
        run_optimization(case, cfg, ScriptedProvider(["bad", "also bad"]))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "iter001_attempt1_prompt.txt",
            "iter001_attempt1_response.txt",
            "iter001_attempt2_prompt.txt",
            "iter001_attempt2_response.txt",
        ]


class TestKnowledgeModes:
    def test_without_knowledge_hides_names_and_description(self):
        case = make_case(6, CHAIN_EDGES, names=[f"Secret Step {i}" for i in range(6)])
        cfg = config(
            knowledge_mode="without",
            termination=TerminationPolicy(max_iterations=1),
        )
        stub = ScriptedProvider([f"<order> {TOPO_ORDER} </order>"])
        run_optimization(case, cfg, stub)
        prompt = stub.prompts[0]
        assert "test network" not in prompt
        assert "Secret Step" not in prompt
        assert "<Nodes>" in prompt

    def test_with_knowledge_includes_them(self):
        case = make_case(6, CHAIN_EDGES, names=[f"Visible Step {i}" for i in range(6)])
        cfg = config(termination=TerminationPolicy(max_iterations=1))
        stub = ScriptedProvider([f"<order> {TOPO_ORDER} </order>"])
        run_optimization(case, cfg, stub)
        prompt = stub.prompts[0]
        assert "test network" in prompt
        assert "Visible Step 3" in prompt


class TestDeterminism:
    def test_same_seed_same_trace(self):
        case = chain_case()
        responses = [
            f"<order> {REVERSED_ORDER} </order>",
            "<order> v01, v00, v02, v03, v04, v05 </order>",
        ]
        cfg = config(termination=TerminationPolicy(max_iterations=2))
        _, first = run_optimization(case, cfg, ScriptedProvider(responses))
        _, second = run_optimization(case, cfg, ScriptedProvider(responses))
        assert first == second

    def test_seed_changes_initial_order(self):
        case = chain_case()
        cfg_a = config(seed=1, termination=TerminationPolicy(max_iterations=1))
        cfg_b = config(seed=2, termination=TerminationPolicy(max_iterations=1))
        _, trace_a = run_optimization(case, cfg_a, ScriptedProvider([f"<order> {TOPO_ORDER} </order>"]))
        _, trace_b = run_optimization(case, cfg_b, ScriptedProvider([f"<order> {TOPO_ORDER} </order>"]))
        assert trace_a[0]["sequence"] != trace_b[0]["sequence"]


class TestAnonymization:
    """Every entry point hides the case's ids from the model and gives one trace."""

    @pytest.mark.parametrize("mode", ["with", "without"])
    def test_direct_grid_and_cli_runs_hide_ids_and_give_one_trace(self, demo_case, mode, tmp_path, capsys):
        seed, budget = 4, 12
        rng = random.Random(seed)
        shuffles = [rng.sample(demo_case.node_ids, demo_case.n) for _ in range(budget - 1)]
        _, optimal = brute_force_optimum(build_adjacency(demo_case))
        # an optimal order halfway through the script ends every run there
        orders = [*shuffles[:5], optimal, *shuffles[5:]]
        script = [f"<order> {', '.join(order)} </order>" for order in orders]
        stub = ScriptedProvider(script)
        cfg = OptimizerConfig(TerminationPolicy(max_iterations=budget), mode, seed)
        best, trace = run_optimization(demo_case, cfg, stub)
        assert trace[-1]["iteration"] <= 6
        assert best.score == demo_case.known_optimum

        # the case's own text may share a word with an id ("housing"); the
        # rest of the prompt must not name any node by its case id
        knowledge = [demo_case.description, *(node.name for node in demo_case.nodes)]
        assert stub.prompts
        for prompt in stub.prompts:
            for text in knowledge:
                prompt = prompt.replace(text, "")
            for node_id in demo_case.node_ids:
                assert not re.search(rf"\b{re.escape(node_id)}\b", prompt), node_id

        matrix = build_adjacency(demo_case)
        ids = sorted(demo_case.node_ids)
        for row in trace:
            if row["sequence"] is not None:
                assert sorted(row["sequence"]) == ids
                assert score_sequence(matrix, row["sequence"]) == row["score"]
            assert sorted(row["best_sequence"]) == ids
            assert score_sequence(matrix, row["best_sequence"]) == row["best_score"]
        assert best.sequence == trace[-1]["best_sequence"]
        assert score_sequence(matrix, best.sequence) == best.score

        # the grid cell and the command line each build their own config
        path = DATA_DIR / "demo_gearbox_7.json"
        spec = ExperimentSpec(
            cases=[path], methods=[f"llm-{mode}-knowledge"], output_dir=tmp_path / "grid",
            runs_per_method=1, trial_budgets=[budget], base_seed=seed,
            provider=lambda: ScriptedProvider(script),
        )
        run_experiment(spec)
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        main(["llm", "--knowledge", "on" if mode == "with" else "off", "--trials", str(budget),
              "--case", str(path), "--seed", str(seed), "--script", str(script_path),
              "--trace-out", str(tmp_path / "cli.jsonl")])
        capsys.readouterr()

        def read(jsonl):
            return [json.loads(line) for line in jsonl.read_text(encoding="utf-8").splitlines()]

        expected = json.loads(json.dumps(trace))
        assert read(tmp_path / "grid" / "traces" / f"demo_gearbox_7__llm-{mode}-knowledge__run0.jsonl") == expected
        assert read(tmp_path / "cli.jsonl") == expected


class TestEdgeShuffling:
    @staticmethod
    def edges_block(prompt):
        return prompt.split("<Edges>")[1].split("</Edges>")[0]

    def test_fixed_by_default(self):
        case = make_case(8, [(i + 1, i) for i in range(7)] + [(0, 7), (2, 5)])
        cfg = config(termination=TerminationPolicy(max_iterations=2))
        stub = ScriptedProvider(
            ["<order> " + ", ".join(f"v{i:02d}" for i in range(8)) + " </order>"] * 2
        )
        run_optimization(case, cfg, stub)
        assert self.edges_block(stub.prompts[0]) == self.edges_block(stub.prompts[1])


SCORE_ONCE_REPLIES = [
    f"<order> {REVERSED_ORDER} </order>",
    "no tags here",  # retried within the budget
    "<order> v01, v00, v02, v03, v04, v05 </order>",
    f"<order> {REVERSED_ORDER} </order>",  # a duplicate is answered from the archive
    "<order> v00, v00, v01, v02, v03, v04 </order>",
    "still no tags",
    "nor here",  # the iteration fails: nothing parsed, nothing scored
    f"<order> {TOPO_ORDER} </order>",
]


class TestScoreOnce:
    def counted(self, monkeypatch, module, name, calls):
        original = getattr(module, name)

        def counting(*args):
            calls.append(module.__name__)
            return original(*args)

        monkeypatch.setattr(module, name, counting)

    def test_one_call_per_parsed_reply_plus_initial_and_final(self, monkeypatch):
        from dsmseq import solutions

        calls = []
        self.counted(monkeypatch, solutions, "feedback_count", calls)
        self.counted(monkeypatch, optimizer, "score_sequence", calls)
        cfg = config(termination=TerminationPolicy(max_iterations=5))
        best, trace = run_optimization(chain_case(), cfg, ScriptedProvider(SCORE_ONCE_REPLIES))
        parsed = [row for row in trace[1:] if row["sequence"] is not None]
        assert len(parsed) == 4 and sum(row["duplicate"] for row in parsed) == 1
        # the archive scores the initial order and each distinct parsed reply
        # once; the optimizer re-scores the final best
        distinct = len({tuple(row["sequence"]) for row in parsed})
        assert distinct == 3
        assert calls == ["dsmseq.solutions"] * (1 + distinct) + ["dsmseq.optimizer"]
        assert best.score == 0

    def test_ids_are_checked_only_for_the_final_rescore(self, monkeypatch):
        # the parser checks each reply's rows, and the archive scores them:
        # no reply is mapped from ids or checked at the id level again
        from dsmseq import scoring

        calls = []
        self.counted(monkeypatch, scoring, "_index_order", calls)
        self.counted(monkeypatch, scoring, "is_valid_sequence", calls)
        replies = [f"<order> {TOPO_ORDER} </order>", "<order> v01, v00, v02, v03, v04, v05 </order>"]
        cfg = config(termination=TerminationPolicy(max_iterations=4))
        best, trace = run_optimization(chain_case(), cfg, ScriptedProvider(replies * 2))
        assert [row["duplicate"] for row in trace[1:]] == [False, False, True, True]
        assert calls == ["dsmseq.scoring", "dsmseq.scoring"]  # _index_order, then its check
        assert best.score == 0

    def test_seed_order_draws_as_sampling_the_ids(self):
        for n in range(2, 131):
            ids = [f"v{i:03d}" for i in range(n)]
            for seed in range(20):
                by_row, by_id = random.Random(seed), random.Random(seed)
                rows = by_row.sample(range(n), n)
                assert [ids[r] for r in rows] == by_id.sample(list(ids), n)
                assert by_row.getstate() == by_id.getstate()

    def test_trace_prompt_digests_are_sha256_of_the_last_attempt(self):
        # the first iteration's three replies fail with three different
        # messages, so each of its three prompts differs from the others
        distinct_failures = [
            "<order> v00 </order>",
            "<order> v00, v00, v01, v02, v03, v04 </order>",
            "no tags at all",
            f"<order> {TOPO_ORDER} </order>",
        ]
        for replies, iterations in ((SCORE_ONCE_REPLIES, 5), (distinct_failures, 2)):
            stub = ScriptedProvider(replies)
            cfg = config(termination=TerminationPolicy(max_iterations=iterations))
            _, trace = run_optimization(chain_case(), cfg, stub)
            attempts = [row["attempts"] for row in trace[1:]]
            assert len(stub.prompts) == sum(attempts) == len(replies)
            last = [sum(attempts[: k + 1]) - 1 for k in range(len(attempts))]
            assert [row["prompt_sha256"] for row in trace[1:]] == [
                sha(stub.prompts[k]) for k in last
            ]
            assert [row["response_sha256"] for row in trace[1:]] == [
                sha(as_received(replies[k], chain_case(), cfg.seed)) for k in last
            ]
        assert trace[1]["failure"] == "missing-tags" and len(set(stub.prompts[:3])) == 3

    def test_corrupted_best_raises(self, monkeypatch):
        from dsmseq import solutions

        original = solutions.feedback_count
        # the archive agrees with itself, but not with an independent count
        monkeypatch.setattr(solutions, "feedback_count", lambda m, order: original(m, order) + 1)
        cfg = config(termination=TerminationPolicy(max_iterations=2))
        stub = ScriptedProvider([f"<order> {REVERSED_ORDER} </order>"] * 2)
        with pytest.raises(RuntimeError, match="re-scores to"):
            run_optimization(chain_case(), cfg, stub)


class TestIdObjects:
    @pytest.mark.parametrize("n, iterations", [(7, 30), (100, 1000)])
    def test_trace_holds_one_string_per_node(self, n, iterations):
        case = chain_case(n)
        rng = random.Random(5)
        ids = list(case.node_ids)
        # freshly built id strings with extra whitespace, repeats included
        replies = [
            "<order>  " + " ,\n  ".join("v" + node_id[1:] for node_id in rng.sample(ids, n)) + " </order>"
            for _ in range(iterations // 2)
        ] * 2
        cfg = config(termination=TerminationPolicy(max_iterations=iterations))
        _, trace = run_optimization(case, cfg, ScriptedProvider(replies))
        assert len(trace) == iterations + 1
        assert all(row["sequence"] is not None for row in trace)
        lists = [row["sequence"] for row in trace] + [row["best_sequence"] for row in trace]
        assert len({id(node_id) for order in lists for node_id in order}) <= n
