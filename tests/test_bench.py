"""Experiment harness: stats, curves and the grid runner."""

import csv
import hashlib
import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dsmseq import (
    ChatResult,
    ExperimentSpec,
    ScriptedProvider,
    aggregate_stats,
    build_adjacency,
    load_case,
    load_experiment_spec,
    matrix_from_array,
    merge_curves,
    run_experiment,
)
from dsmseq import bench
from dsmseq.bench import (
    ALL_METHODS,
    DET_METHODS,
    GA_METHODS,
    LLM_METHODS,
    _ga_cell,
    step_value,
)
from dsmseq.ga import GENERATIONS_DEFAULT, preset_config, run_ga
from dsmseq.scoring import feedback_count
from conftest import make_case, naive_score, write_case


class EchoProvider:
    """Reads the first archived order out of the prompt and returns it
    reversed, so runs make progress without a network."""

    model = "echo"

    def complete(self, req):
        prompt = req.messages[-1]["content"]
        match = re.search(r"'solution': '([^']+)'", prompt)
        ids = match.group(1).split(", ")
        text = "<order> " + ", ".join(reversed(ids)) + " </order>"
        return ChatResult(text=text, usage={}, retries=0, model=self.model)


def scores_for(table, case, method, budget=None):
    """The scores of one grid cell, at one trial budget or at all of them."""
    return [
        row["score"]
        for row in table.rows
        if row["case"] == case
        and row["method"] == method
        and (budget is None or row["budget"] == budget)
    ]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestAggregateStats:
    def test_constant_scores(self):
        stats = aggregate_stats([6, 6, 6])
        assert stats == {"mean": 6.0, "std": 0.0, "best": 6.0}

    def test_population_std(self):
        stats = aggregate_stats([3, 5])
        assert stats["mean"] == 4.0
        assert stats["std"] == 1.0  # population formula, not sample
        assert stats["best"] == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no scores"):
            aggregate_stats([])


class TestStepFunctions:
    CURVE = [(1, 5.0), (3, 2.0), (7, 0.0)]

    @pytest.mark.parametrize(
        "x, expected",
        [(0, 5.0), (1, 5.0), (2, 5.0), (3, 2.0), (6, 2.0), (7, 0.0), (100, 0.0)],
    )
    def test_step_value(self, x, expected):
        assert step_value(self.CURVE, x) == expected

    def test_merge_on_union_grid(self):
        c1 = [(1, 4.0), (3, 2.0)]
        c2 = [(2, 6.0), (4, 0.0)]
        assert merge_curves([c1, c2]) == [(1, 5.0), (2, 5.0), (3, 4.0), (4, 1.0)]

    def test_merge_single_curve_is_identity(self):
        curve = [(1, 3.0), (5, 1.0)]
        assert merge_curves([curve]) == curve

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError, match="no curves"):
            merge_curves([])


class TestSpec:
    def test_method_registry_contents(self):
        assert set(GA_METHODS) == {"ga-exploration", "ga-exploitation", "ga-balanced"}
        assert set(DET_METHODS) == {
            "det-outin",
            "det-eig",
            "det-exp",
            "det-resolvent",
            "det-visibility",
        }
        assert set(LLM_METHODS) == {"llm-with-knowledge", "llm-without-knowledge"}
        assert set(ALL_METHODS) == set(GA_METHODS) | set(DET_METHODS) | set(LLM_METHODS)

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentSpec(cases=["x.json"], methods=["det-magic"], output_dir=tmp_path)

    def test_runs_floor(self, tmp_path):
        with pytest.raises(ValueError, match="runs_per_method"):
            ExperimentSpec(
                cases=["x.json"], methods=["det-outin"], output_dir=tmp_path, runs_per_method=0
            )

    def test_budget_floor(self, tmp_path):
        # each budget is an int of at least 1, and a bool is not an int here
        for budgets, message in (([0], r"trial_budgets\[0\] must be >= 1, got 0"),
                                 ([1, False], r"trial_budgets\[1\] must be an int, got False")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                ExperimentSpec(
                    cases=["x.json"],
                    methods=["det-outin"],
                    output_dir=tmp_path,
                    trial_budgets=budgets,
                )

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("runs_per_method", "3", "an int"),
            ("runs_per_method", True, "an int"),
            ("base_seed", 1.5, "an int"),
            ("ga_generations", None, "an int"),
            ("trial_budgets", 5, "a list of ints"),
            ("trial_budgets", [1, "5"], "a list of ints"),
            ("trial_budgets", [1, 2.5], "a list of ints"),
            ("methods", "det-outin", "a list of strs"),
            ("methods", [1], "a list of strs"),
            ("cases", "x.json", "a list of paths"),
            ("cases", [3], "a list of paths"),
            ("output_dir", 3, "a path"),
        ],
    )
    def test_field_types_checked(self, tmp_path, field, value, expected):
        fields = dict(cases=["x.json"], methods=["det-outin"], output_dir=tmp_path)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be {expected}, got "):
            ExperimentSpec(**fields)

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("base_seed", -1, "base_seed must be >= 0"),
            ("ga_generations", 0, "ga_generations must be >= 1"),
            ("trial_budgets", [], "trial_budgets must not be empty"),
            ("cases", [], "cases must not be empty"),
            ("methods", [], "methods must not be empty"),
        ],
    )
    def test_field_ranges_checked(self, tmp_path, field, value, expected):
        fields = dict(cases=["x.json"], methods=["det-outin"], output_dir=tmp_path)
        fields[field] = value
        with pytest.raises(ValueError, match=expected):
            ExperimentSpec(**fields)

    def test_method_listed_twice_rejected(self, tmp_path):
        # its cells would run twice, and write the same files twice
        with pytest.raises(ValueError, match=r"^methods\[2\] 'det-outin' is listed twice$"):
            ExperimentSpec(cases=["x.json"], methods=["det-outin", "det-eig", "det-outin"], output_dir=tmp_path)

    def test_a_provider_instance_is_refused(self, tmp_path):
        # a factory is called once per LLM run; an instance would be called as one
        with pytest.raises(ValueError, match=r"^provider must be a zero-argument factory, got <"):
            ExperimentSpec(cases=["x.json"], output_dir=tmp_path, provider=EchoProvider())

    def test_cases_sharing_a_file_stem_rejected(self, tmp_path):
        first, second = tmp_path / "a" / "case.json", tmp_path / "b" / "case.json"
        with pytest.raises(ValueError, match="share the name 'case'") as info:
            ExperimentSpec(cases=[first, second], methods=["det-outin"], output_dir=tmp_path)
        assert str(first) in str(info.value) and str(second) in str(info.value)

    def test_load_from_json(self, data_dir, tmp_path):
        (tmp_path / "a.json").write_text(
            (data_dir / "demo_gearbox_7.json").read_text(encoding="utf-8"), encoding="utf-8"
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "cases": ["a.json"],
                    "methods": ["det-outin", "ga-balanced"],
                    "output_dir": str(tmp_path / "out"),
                    "runs_per_method": 4,
                    "base_seed": 9,
                }
            ),
            encoding="utf-8",
        )
        spec = load_experiment_spec(spec_path)
        assert spec.cases == [tmp_path / "a.json"]  # relative to the spec file
        assert spec.methods == ["det-outin", "ga-balanced"]
        assert spec.runs_per_method == 4
        assert spec.base_seed == 9
        assert spec.trial_budgets == [1, 5, 20]  # default
        assert spec.provider is None  # a JSON file cannot hold a factory
        assert replace(spec, provider=EchoProvider).provider is EchoProvider

    @pytest.mark.parametrize(
        "extra, unknown",
        [
            ({"runs_per_methods": 2, "method": ["det-outin"]}, ["method", "runs_per_methods"]),
            ({"provider": "scripted"}, ["provider"]),
            # the rankings all sort one way, so the direction is no longer a field
            ({"ascending": True}, ["ascending"]),
        ],
    )
    def test_unknown_keys_name_spec_and_keys(self, data_dir, tmp_path, extra, unknown):
        raw = {"cases": [str(data_dir / "demo_gearbox_7.json")], "output_dir": "out", **extra}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"spec {spec_path}: unknown keys {unknown}")):
            load_experiment_spec(spec_path)

    @pytest.mark.parametrize("key", ["cases", "output_dir"])
    def test_missing_required_key_names_spec_and_key(self, data_dir, tmp_path, key):
        raw = {"cases": [str(data_dir / "demo_gearbox_7.json")], "output_dir": "out"}
        del raw[key]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_experiment_spec(spec_path)
        assert not isinstance(info.value, KeyError)
        assert str(spec_path) in str(info.value) and repr(key) in str(info.value)

    def test_missing_case_file_rejected_at_load(self, data_dir, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "cases": [str(data_dir / "demo_gearbox_7.json"), "nowhere.json"],
                    "output_dir": str(tmp_path / "out"),
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="does not exist") as info:
            load_experiment_spec(spec_path)
        assert str(spec_path) in str(info.value)
        assert str(tmp_path / "nowhere.json") in str(info.value)
        assert not (tmp_path / "out").exists()

    def test_missing_spec_file_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read spec"):
            load_experiment_spec(tmp_path / "absent.json")

    def test_spec_must_be_an_object(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[]", encoding="utf-8")
        with pytest.raises(ValueError, match="top level must be an object"):
            load_experiment_spec(spec_path)

    def test_relative_paths_resolve_against_the_spec_file(
        self, data_dir, tmp_path, monkeypatch
    ):
        spec_dir = tmp_path / "specs"
        (spec_dir / "cases").mkdir(parents=True)
        case_text = (data_dir / "demo_gearbox_7.json").read_text(encoding="utf-8")
        (spec_dir / "cases" / "gearbox.json").write_text(case_text, encoding="utf-8")
        absolute = data_dir / "demo_gearbox_7.json"
        spec_path = spec_dir / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "cases": ["cases/gearbox.json", str(absolute)],
                    "methods": ["det-outin"],
                    "output_dir": "out",
                    "runs_per_method": 1,
                }
            ),
            encoding="utf-8",
        )
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        spec = load_experiment_spec(spec_path)
        assert spec.cases == [spec_dir / "cases" / "gearbox.json", absolute]
        table = run_experiment(spec)
        assert table.failures == []
        assert len(scores_for(table, "gearbox", "det-outin")) == 1
        assert len(scores_for(table, "demo_gearbox_7", "det-outin")) == 1
        # output_dir stays relative to the working directory
        assert (elsewhere / "out" / "results.csv").is_file()
        assert not (spec_dir / "out").exists()


class TestRunExperiment:
    def make_spec(self, data_dir, out, **overrides):
        defaults = dict(
            cases=[data_dir / "demo_gearbox_7.json"],
            methods=["det-outin", "ga-balanced"],
            output_dir=out,
            runs_per_method=3,
            ga_generations=40,
        )
        defaults.update(overrides)
        return ExperimentSpec(**defaults)

    def test_grid_outputs(self, data_dir, tmp_path):
        out = tmp_path / "out"
        table = run_experiment(self.make_spec(data_dir, out))
        assert (out / "results.csv").is_file()
        assert (out / "results_summary.csv").is_file()
        assert (out / "manifest.json").is_file()
        for run in range(3):
            assert (out / "convergence" / f"demo_gearbox_7__ga-balanced__run{run}.csv").is_file()
        assert (out / "convergence" / "demo_gearbox_7__ga-balanced__mean.csv").is_file()

        assert len(scores_for(table, "demo_gearbox_7", "det-outin")) == 3
        assert len(scores_for(table, "demo_gearbox_7", "ga-balanced")) == 3
        assert table.failures == []
        for entry in table.summary:
            assert entry["runs"] == 3
            assert entry["failed"] == 0
            assert entry["best"] <= entry["mean"]

    def test_results_csv_layout(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_experiment(self.make_spec(data_dir, out, methods=["det-outin"]))
        rows = read_csv(out / "results.csv")
        assert rows[0] == ["case", "method", "budget", "run", "seed", "score"]
        assert len(rows) == 4
        for i, row in enumerate(rows[1:]):
            assert row[0] == "demo_gearbox_7"
            assert row[1] == "det-outin"
            assert row[2] == ""  # no trial budget for deterministic methods
            assert int(row[3]) == i
            assert int(row[4]) == i  # base_seed 0 + run index
        raw = (out / "results.csv").read_bytes()
        assert b"\r" not in raw

    def test_manifest_is_replay_grade(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_experiment(self.make_spec(data_dir, out))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest) == {
            "cases",
            "methods",
            "runs_per_method",
            "trial_budgets",
            "base_seed",
            "ga_generations",
            "seed_derivation",
            "seeds",
            "failures",
        }
        assert manifest["cases"] == ["demo_gearbox_7.json"]  # basename only
        assert manifest["seed_derivation"] == "base_seed + run_index"
        assert manifest["seeds"]["demo_gearbox_7"]["ga-balanced"] == [0, 1, 2]
        text = (out / "manifest.json").read_text(encoding="utf-8")
        assert str(out) not in text

    def test_identical_reruns(self, data_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(self.make_spec(data_dir, out_a))
        run_experiment(self.make_spec(data_dir, out_b))
        for name in ["results.csv", "results_summary.csv", "manifest.json"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        conv_a = sorted(p.name for p in (out_a / "convergence").iterdir())
        conv_b = sorted(p.name for p in (out_b / "convergence").iterdir())
        assert conv_a == conv_b
        for name in conv_a:
            assert (out_a / "convergence" / name).read_bytes() == (
                out_b / "convergence" / name
            ).read_bytes()

    def test_base_seed_shifts_every_run_seed(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_experiment(self.make_spec(data_dir, out, methods=["det-outin"], base_seed=100))
        rows = read_csv(out / "results.csv")
        assert [int(r[4]) for r in rows[1:]] == [100, 101, 102]

    @pytest.mark.parametrize("case, seed", [("espresso_machine_13", 4), ("irrigation_network_17", 2)])
    def test_ga_curves_end_at_the_run_result(self, data_dir, tmp_path, monkeypatch, case, seed):
        """Runs that improve past 10,000 distinct orders (10,873 and 17,271
        here): the curve's last row is the run's count of distinct orders,
        counted at the scoring kernel, and its results.csv score."""
        scored = []

        def counting(matrix, stack):
            scored.append(len(stack))
            return feedback_count(matrix, stack)

        monkeypatch.setattr("dsmseq.ga.feedback_count", counting)
        out = tmp_path / "out"
        spec = self.make_spec(
            data_dir,
            out,
            cases=[data_dir / f"{case}.json"],
            methods=["ga-exploration"],
            runs_per_method=1,
            base_seed=seed,
            ga_generations=GENERATIONS_DEFAULT,
        )
        run_experiment(spec)
        rows = read_csv(out / "convergence" / f"{case}__ga-exploration__run0.csv")
        score = read_csv(out / "results.csv")[1][5]
        assert rows[-1] == [str(sum(scored)), score]
        assert sum(scored) > 10_000

    def test_llm_cells_write_traces_in_original_ids(self, data_dir, tmp_path):
        out = tmp_path / "out"
        case = load_case(data_dir / "demo_gearbox_7.json")
        spec = self.make_spec(
            data_dir,
            out,
            methods=["llm-with-knowledge"],
            runs_per_method=2,
            trial_budgets=[1, 3],
            provider=EchoProvider,
        )
        table = run_experiment(spec)
        assert table.failures == []
        # one row per (run, budget)
        assert len(scores_for(table, "demo_gearbox_7", "llm-with-knowledge", 1)) == 2
        assert len(scores_for(table, "demo_gearbox_7", "llm-with-knowledge", 3)) == 2
        # larger budgets can only match or improve on smaller ones
        for run in range(2):
            at_1 = scores_for(table, "demo_gearbox_7", "llm-with-knowledge", 1)[run]
            at_3 = scores_for(table, "demo_gearbox_7", "llm-with-knowledge", 3)[run]
            assert at_3 <= at_1
        for run in range(2):
            path = out / "traces" / f"demo_gearbox_7__llm-with-knowledge__run{run}.jsonl"
            rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            assert rows[0]["iteration"] == 0
            for row in rows:
                if row["best_sequence"] is not None:
                    assert sorted(row["best_sequence"]) == sorted(case.node_ids)
                if row["sequence"] is not None:
                    assert sorted(row["sequence"]) == sorted(case.node_ids)

    def test_provider_factory_gets_a_fresh_instance_per_run(self, data_dir, tmp_path):
        built = []

        def factory():
            built.append(EchoProvider())
            return built[-1]

        out = tmp_path / "out"
        spec = self.make_spec(
            data_dir,
            out,
            methods=["llm-with-knowledge"],
            runs_per_method=3,
            trial_budgets=[2],
            provider=factory,
        )
        run_experiment(spec)
        assert len(built) == 3

    def test_a_provider_class_is_a_factory(self, data_dir, tmp_path):
        class Counted(EchoProvider):
            built = 0

            def __init__(self):
                type(self).built += 1

        spec = self.make_spec(
            data_dir, tmp_path / "out", methods=list(LLM_METHODS), runs_per_method=2,
            trial_budgets=[2], provider=Counted,
        )
        table = run_experiment(spec)
        assert table.failures == []
        assert len(table.rows) == len(LLM_METHODS) * 2
        assert Counted.built == len(LLM_METHODS) * 2  # one provider per run

    def test_a_bad_second_case_fails_before_any_cell(self, data_dir, tmp_path, monkeypatch):
        good = data_dir / "demo_gearbox_7.json"
        raw = json.loads(good.read_text(encoding="utf-8"))
        raw["edges"][-1]["predecessor"] = "nowhere"  # a dangling edge
        bad = tmp_path / "zbad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        called = []
        for method in bench.METHODS:
            monkeypatch.setitem(bench.METHODS, method, lambda *args: called.append(args))
        out = tmp_path / "out"
        spec = self.make_spec(data_dir, out, cases=[good, bad], methods=list(ALL_METHODS))
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            run_experiment(spec)
        assert called == []
        assert not out.exists()

    def test_provider_failure_marks_cell_and_grid_continues(self, data_dir, tmp_path):
        out = tmp_path / "out"
        spec = self.make_spec(
            data_dir,
            out,
            methods=["llm-with-knowledge", "det-outin"],
            runs_per_method=2,
            provider=lambda: ScriptedProvider([]),  # exhausts immediately
        )
        table = run_experiment(spec)
        assert len(table.failures) == 2
        assert all(f["method"] == "llm-with-knowledge" for f in table.failures)
        assert len(scores_for(table, "demo_gearbox_7", "det-outin")) == 2
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert len(manifest["failures"]) == 2
        # failed cells produced no rows, so no summary entry either
        assert all(s["method"] == "det-outin" for s in table.summary)

    def test_failed_llm_cell_keeps_its_partial_trace(self, data_dir, demo_case, tmp_path):
        # one valid reply in the case's ids, then the script runs dry at iteration 2
        reply = "<order> " + ", ".join(demo_case.node_ids) + " </order>"
        out = tmp_path / "out"
        spec = self.make_spec(
            data_dir,
            out,
            methods=["llm-with-knowledge"],
            runs_per_method=1,
            trial_budgets=[1, 3],
            provider=lambda: ScriptedProvider([reply]),
        )
        table = run_experiment(spec)
        assert [(f["method"], f["run"]) for f in table.failures] == [("llm-with-knowledge", 0)]
        assert table.failures[0]["error"].startswith("OptimizationAborted: provider failed at iteration 2")
        trace_path = out / "traces" / "demo_gearbox_7__llm-with-knowledge__run0.jsonl"
        rows = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
        assert [r["iteration"] for r in rows] == [0, 1, 2]
        assert rows[1]["sequence"] == list(demo_case.node_ids)
        for row in rows:
            assert sorted(row["best_sequence"]) == sorted(demo_case.node_ids)
        last = rows[-1]
        assert last["failure"] == "provider-error"
        assert sorted(last["best_sequence"]) == sorted(demo_case.node_ids)
        assert naive_score(demo_case, last["best_sequence"]) == last["best_score"]
        assert last["best_score"] == min(r["best_score"] for r in rows)
        assert read_csv(out / "results.csv")[1:] == []

    def test_missing_provider_is_a_failure_not_a_crash(self, data_dir, tmp_path):
        out = tmp_path / "out"
        spec = self.make_spec(
            data_dir, out, methods=["llm-with-knowledge"], runs_per_method=1
        )
        table = run_experiment(spec)
        assert len(table.failures) == 1
        assert "provider" in table.failures[0]["error"]

    def test_a_cell_that_raises_is_a_failure_not_a_crash(self, tmp_path):
        # complete digraph on 41 nodes: delta * spectral radius = 0.025 * 40 = 1,
        # so the resolvent refuses its divergent walk series
        n = 41
        case = make_case(n, [(d, p) for d in range(n) for p in range(n) if d != p])
        path = write_case(tmp_path / "complete_41.json", case)
        out = tmp_path / "out"
        spec = ExperimentSpec(
            cases=[path], methods=["det-outin", "det-resolvent"], output_dir=out, runs_per_method=1
        )
        table = run_experiment(spec)
        assert len(scores_for(table, "complete_41", "det-outin")) == 1
        assert [r[1] for r in read_csv(out / "results.csv")[1:]] == ["det-outin"]
        assert [(f["method"], f["run"]) for f in table.failures] == [("det-resolvent", 0)]
        assert table.failures[0]["error"].startswith("ValueError: the attenuated walk series (delta 0.025) diverges")
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["failures"] == table.failures

    def test_an_overflowing_exponential_cell_fails_alone(self, tmp_path, monkeypatch):
        # the complete digraph on 720 nodes, whose exp(A) overflows float64;
        # its 517,680 edges go in as a matrix, not through a case file
        n = 720
        path = write_case(tmp_path / "complete_720.json", make_case(n, []))
        def complete(case):
            return matrix_from_array(1 - np.eye(n, dtype=np.int64), case.node_ids)

        monkeypatch.setattr(bench, "build_adjacency", complete)
        spec = ExperimentSpec(
            cases=[path], methods=["det-exp", "det-outin"], output_dir=tmp_path / "out", runs_per_method=1
        )
        table = run_experiment(spec)
        assert len(scores_for(table, "complete_720", "det-outin")) == 1
        assert [(f["method"], f["run"]) for f in table.failures] == [("det-exp", 0)]
        assert table.failures[0]["error"].startswith("ValueError: exp(A) overflows float64")
        assert table.failures[0]["error"].endswith("at n=720; rank this network another way")

    def test_ga_cells_past_the_node_limit_fail_alone(self, tmp_path):
        # the GA holds one byte per node; the deterministic cells still run
        path = write_case(tmp_path / "wide_257.json", make_case(257, []))
        spec = ExperimentSpec(
            cases=[path], methods=["det-outin", "ga-balanced"], output_dir=tmp_path / "out",
            runs_per_method=1, ga_generations=1,
        )
        table = run_experiment(spec)
        assert len(scores_for(table, "wide_257", "det-outin")) == 1
        assert [(f["method"], f["run"]) for f in table.failures] == [("ga-balanced", 0)]
        assert "at most 256 nodes, got 257" in table.failures[0]["error"]

    def test_grid_outputs_match_golden_digests(self, data_dir, golden_dir, tmp_path):
        """Every bundled case x every method: each output file's sha256 is
        pinned in golden/grid_sha256.json, so the grid stays byte-identical
        across versions. A change that alters outputs on purpose rewrites
        that file and says so in CHANGES.md."""
        out = tmp_path / "out"
        spec = ExperimentSpec(
            cases=sorted(data_dir.glob("*.json")),
            methods=list(ALL_METHODS),
            output_dir=out,
            runs_per_method=2,
            trial_budgets=[1, 3],
            ga_generations=60,
            provider=EchoProvider,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            table = run_experiment(spec)
        assert table.failures == []
        digests = {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
        expected = json.loads((golden_dir / "grid_sha256.json").read_text(encoding="utf-8"))
        assert digests == expected


class TestGaCell:
    def test_stops_at_the_known_optimum_and_runs_the_budget_without_one(self, data_dir, tmp_path):
        case = load_case(data_dir / "demo_gearbox_7.json")
        matrix = build_adjacency(case)
        spec = ExperimentSpec(cases=[data_dir / "demo_gearbox_7.json"], output_dir=tmp_path)
        best, full = run_ga(matrix, preset_config("exploration", seed=0))
        assert best.score == case.known_optimum

        stopped = _ga_cell(case, matrix, 0, spec, "exploration")
        assert stopped.scores == {None: case.known_optimum}
        assert stopped.curve[-1][1] == case.known_optimum
        assert stopped.curve[-1][0] * 5 < full[-1][0]

        unbounded = _ga_cell(replace(case, known_optimum=None), matrix, 0, spec, "exploration")
        assert unbounded.scores == {None: best.score}
        assert unbounded.curve == full
