"""Command-line entry points, driven through main() with captured stdout."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from dsmseq import brute_force_optimum, bundled_case, bundled_case_names, cli, llm
from dsmseq.cli import main
from conftest import DATA_DIR, adjacency, make_case, naive_score, write_case


# the replies the CI scripts: two distinct orders of the case's ids, scoring 4
GEARBOX_REPLIES = [
    "<order> input_shaft, gear_pair, bearings, housing, lube, seals, output_shaft </order>",
    "<order> housing, input_shaft, gear_pair, bearings, lube, seals, output_shaft </order>",
    "<order> input_shaft, gear_pair, bearings, housing, lube, seals, output_shaft </order>",
]


def write_script(tmp_path, responses):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(responses), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_with_peak_rss(tmp_path, *argv) -> tuple[subprocess.CompletedProcess, int]:
    """Run the command line on a 3,000-node chain in a fresh interpreter
    and return the run and its peak RSS in MB. The peak is the
    process's own VmHWM: getrusage's ru_maxrss would also count the
    forking test process."""
    path = write_case(tmp_path / "chain_3000.json", make_case(3000, [(i + 1, i) for i in range(2999)]))
    code = (
        "import sys\n"
        "from dsmseq.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "finally:\n"
        "    with open('/proc/self/status') as status:\n"
        "        print(next(int(line.split()[1]) // 1024 for line in status if line.startswith('VmHWM:')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv, "--case", str(path)],
        env={**os.environ, "PYTHONPATH": str(DATA_DIR.parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    *_, peak = done.stdout.splitlines()
    return done, int(peak)


@pytest.fixture()
def demo_path(data_dir):
    return str(data_dir / "demo_gearbox_7.json")


class TestScore:
    def test_scores_a_comma_order(self, capsys, demo_path, demo_case):
        order = list(demo_case.node_ids)
        code, payload = run_cli(capsys, "score", "--case", demo_path, "--order", ",".join(order))
        assert code == 0
        assert payload["order"] == order
        assert payload["score"] == naive_score(demo_case, order)

    def test_whitespace_tolerated(self, capsys, demo_path, demo_case):
        order = list(demo_case.node_ids)
        spaced = " , ".join(order)
        code, payload = run_cli(capsys, "score", "--case", demo_path, "--order", spaced)
        assert code == 0
        assert payload["order"] == order


class TestBaseline:
    def test_outin_payload(self, capsys, demo_path, demo_case):
        code, payload = run_cli(capsys, "baseline", "outin", "--case", demo_path, "--seed", "4")
        assert code == 0
        assert payload["method"] == "out-in-degree"
        assert sorted(payload["order"]) == sorted(demo_case.node_ids)
        assert payload["score"] == naive_score(demo_case, payload["order"])

    def test_det_prefix_accepted(self, capsys, demo_path):
        _, bare = run_cli(capsys, "baseline", "outin", "--case", demo_path, "--seed", "4")
        _, prefixed = run_cli(capsys, "baseline", "det-outin", "--case", demo_path, "--seed", "4")
        assert bare == prefixed

    def test_unknown_method_exits(self, capsys, demo_path):
        with pytest.raises(SystemExit, match="unknown baseline"):
            main(["baseline", "det-sorcery", "--case", demo_path])

    def test_library_error_is_one_line(self, capsys, tmp_path):
        # complete digraph on 41 nodes: delta * spectral radius = 0.025 * 40 = 1,
        # so the resolvent's walk series diverges
        n = 41
        case = make_case(n, [(d, p) for d in range(n) for p in range(n) if d != p])
        path = write_case(tmp_path / "complete_41.json", case)
        with pytest.raises(SystemExit) as info:
            main(["baseline", "resolvent", "--case", str(path)])
        message = info.value.code
        assert message == (
            "dsm-seq: error: the attenuated walk series (delta 0.025) diverges at n=41; "
            "rank this network another way"
        )
        assert "\n" not in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "raw, reason",
        [
            pytest.param(b"{not json", "Expecting property name", id="not-json"),
            pytest.param(b"\xff{}", "'utf-8' codec can't decode byte 0xff", id="not-utf8"),
            pytest.param(b"[" * 100_000, "maximum recursion depth exceeded", id="nested-too-deep"),
        ],
    )
    def test_bad_case_file_is_one_line(self, capsys, tmp_path, raw, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(SystemExit) as info:
            main(["metrics", "--case", str(path)])
        message = info.value.code
        assert message.startswith(f"dsm-seq: error: case file {path}: not valid JSON: {reason}")
        assert "\n" not in message
        assert capsys.readouterr().out == ""

    def test_missing_case_file_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as info:
            main(["metrics", "--case", str(path)])
        message = info.value.code
        assert message.startswith("dsm-seq: error: ")
        assert str(path) in message and "\n" not in message
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
    def test_visibility_on_a_long_chain_builds_no_integer_closure(self, tmp_path):
        """Visibility on a 3,000-node chain counts on its 9 MB of bool
        reachability rows; an int64 closure would take 72 MB, and its float
        copy 72 MB more. The chain's visibility order is its dependency order."""
        done, peak = run_with_peak_rss(tmp_path, "baseline", "visibility")
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout[:done.stdout.rstrip().rindex("\n")])
        assert (payload["score"], payload["tie_groups"]) == (0, [])
        assert peak < 100, f"peak RSS {peak} MB"


class TestGa:
    def test_ga_payload_and_convergence_file(self, capsys, demo_path, demo_case, tmp_path):
        out_csv = tmp_path / "curve.csv"
        code, payload = run_cli(
            capsys,
            "ga",
            "--case",
            demo_path,
            "--preset",
            "balanced",
            "--seed",
            "3",
            "--generations",
            "60",
            "--convergence-out",
            str(out_csv),
        )
        assert code == 0
        assert payload["preset"] == "balanced"
        assert payload["config"]["population_size"] == 20
        assert payload["best_score"] == naive_score(demo_case, payload["best_order"])
        assert payload["unique_solutions"] >= 1
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "unique_count,best_score"
        assert len(lines) >= 2

    def test_stops_at_the_known_optimum(self, capsys, demo_path, demo_case, tmp_path):
        _, stopped = run_cli(capsys, "ga", "--case", demo_path, "--preset", "exploration")
        assert (stopped["best_score"], stopped["unique_solutions"]) == (demo_case.known_optimum, 76)
        # the same network without a declared optimum runs all 2,000 generations
        path = write_case(tmp_path / "gearbox.json", replace(demo_case, known_optimum=None))
        _, full = run_cli(capsys, "ga", "--case", str(path), "--preset", "exploration")
        assert (full["best_score"], full["unique_solutions"]) == (demo_case.known_optimum, 858)

    def test_bad_preset_rejected(self, demo_path):
        with pytest.raises(SystemExit):
            main(["ga", "--case", demo_path, "--preset", "wild"])

    def test_negative_seed_is_one_line(self, capsys, demo_path):
        with pytest.raises(SystemExit) as info:
            main(["ga", "--case", demo_path, "--seed", "-1"])
        assert info.value.code == "dsm-seq: error: seed must be >= 0, got -1"
        assert capsys.readouterr().out == ""

    def test_too_many_nodes_is_one_line(self, capsys, tmp_path):
        path = write_case(tmp_path / "wide_257.json", make_case(257, []))
        with pytest.raises(SystemExit) as info:
            main(["ga", "--case", str(path), "--generations", "1"])
        message = info.value.code
        assert message.startswith("dsm-seq: error: the GA ")
        assert "at most 256 nodes, got 257" in message and "\n" not in message
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
    def test_a_long_chain_is_refused_without_a_dense_matrix(self, tmp_path):
        """A 3,000-node chain is refused by the node limit in one line. The
        dense int64 matrix of this network alone would take 72 MB, and none
        is built on the way, so the refusing process stays small."""
        done, peak = run_with_peak_rss(tmp_path, "ga")
        assert done.returncode == 1
        assert done.stderr.startswith("dsm-seq: error: the GA ") and done.stderr.count("\n") == 1
        assert "at most 256 nodes, got 3000" in done.stderr
        assert peak < 100, f"peak RSS {peak} MB"


class TestLlm:
    def test_scripted_run_with_trace(self, capsys, demo_path, demo_case, tmp_path):
        # neither reply reaches the optimum, so the run uses its whole budget
        orders = [list(demo_case.node_ids), ["lube", "bearings", "input_shaft", "housing",
                                             "seals", "gear_pair", "output_shaft"]]
        script = write_script(tmp_path, ["<order> " + ", ".join(o) + " </order>" for o in orders])
        trace_out = tmp_path / "trace.jsonl"
        code, payload = run_cli(
            capsys,
            "llm",
            "--knowledge",
            "off",
            "--case",
            demo_path,
            "--trials",
            "2",
            "--seed",
            "1",
            "--script",
            script,
            "--trace-out",
            str(trace_out),
        )
        assert code == 0
        assert payload["knowledge"] == "off"
        assert payload["iterations_run"] == 2
        rows = [json.loads(line) for line in trace_out.read_text(encoding="utf-8").splitlines()]
        assert [r["iteration"] for r in rows] == [0, 1, 2]
        assert [r["sequence"] for r in rows[1:]] == orders  # in the case's ids
        assert payload["best_score"] == min(r["score"] for r in rows) > demo_case.known_optimum
        assert payload["best_order"] == rows[-1]["best_sequence"]
        assert naive_score(demo_case, payload["best_order"]) == payload["best_score"]

    def test_stop_at_optimum(self, capsys, demo_path, demo_case, tmp_path):
        optimal_score, optimal_order = brute_force_optimum(adjacency(demo_case))
        script = write_script(tmp_path, ["<order> " + ", ".join(optimal_order) + " </order>"] * 20)
        code, payload = run_cli(
            capsys,
            "llm",
            "--knowledge",
            "on",
            "--case",
            demo_path,
            "--seed",
            "1",
            "--script",
            script,
        )
        assert code == 0
        assert payload["best_score"] == optimal_score == 2
        assert payload["iterations_run"] == 1  # stopped as soon as it hit the floor

    def test_knowledge_off_prompts_name_no_case_id(self, capsys, demo_path, demo_case, tmp_path):
        audit = tmp_path / "audit"
        code, payload = run_cli(
            capsys, "llm", "--knowledge", "off", "--case", demo_path, "--trials", "3",
            "--script", write_script(tmp_path, GEARBOX_REPLIES), "--audit-dir", str(audit),
        )
        assert code == 0
        assert payload["best_score"] == 4  # the replies parsed in the run's own ids
        prompts = sorted(audit.glob("*_prompt.txt"))
        assert len(prompts) == 3
        for path in prompts:
            text = path.read_text(encoding="utf-8")
            leaked = [i for i in demo_case.node_ids if re.search(rf"\b{re.escape(i)}\b", text)]
            assert leaked == [], path.name

    def test_endpoint_without_scheme_is_one_line(self, capsys, demo_path, monkeypatch):
        def no_request(*args):
            pytest.fail("a request went out with a bad endpoint")

        monkeypatch.setattr(llm, "_urllib_transport", no_request)
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        monkeypatch.setenv("OPENAI_API_BASE", "api.example.com/v1")
        with pytest.raises(SystemExit) as info:
            main(["llm", "--knowledge", "on", "--case", demo_path])
        assert info.value.code == (
            "dsm-seq: error: endpoint must start with http:// or https://, "
            "got 'api.example.com/v1'"
        )
        assert capsys.readouterr().out == ""

    def test_missing_api_key_is_one_line(self, capsys, demo_path, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        monkeypatch.delenv("OPENAI_API_BASE", raising=False)
        with pytest.raises(SystemExit) as info:
            main(["llm", "--knowledge", "off", "--case", demo_path])
        assert info.value.code == "dsm-seq: error: no API key configured"
        assert capsys.readouterr().out == ""

    def test_aborted_run_writes_its_trace_and_one_line(self, capsys, demo_path, demo_case, tmp_path):
        script = write_script(tmp_path, ["<order> " + ", ".join(demo_case.node_ids) + " </order>"])
        trace_out = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as info:
            main(["llm", "--knowledge", "off", "--case", demo_path, "--trials", "3",
                  "--script", script, "--trace-out", str(trace_out)])
        assert info.value.code == (
            "dsm-seq: error: provider failed at iteration 2: script exhausted after 1 responses"
        )
        assert capsys.readouterr().out == ""
        rows = [json.loads(line) for line in trace_out.read_text(encoding="utf-8").splitlines()]
        assert [r["iteration"] for r in rows] == [0, 1, 2]
        assert rows[-1]["failure"] == "provider-error"

    def test_knowledge_flag_required(self, demo_path):
        with pytest.raises(SystemExit):
            main(["llm", "--case", demo_path])


class TestOracle:
    def test_exact_optimum(self, capsys, demo_path, demo_case):
        code, payload = run_cli(capsys, "oracle", "--case", demo_path)
        assert code == 0
        assert payload["optimal_score"] == 2
        assert naive_score(demo_case, payload["optimal_order"]) == 2
        assert sorted(payload["optimal_order"]) == sorted(demo_case.node_ids)

    @pytest.mark.parametrize("name", bundled_case_names())
    def test_every_bundled_case_gets_its_declared_optimum(self, capsys, data_dir, name):
        case = bundled_case(name)
        code, payload = run_cli(capsys, "oracle", "--case", str(data_dir / f"{name}.json"))
        assert code == 0
        assert payload["optimal_score"] == case.known_optimum
        assert naive_score(case, payload["optimal_order"]) == case.known_optimum


class TestMetrics:
    def test_demo_statistics(self, capsys, demo_path):
        code, payload = run_cli(capsys, "metrics", "--case", demo_path)
        assert code == 0
        assert payload["n"] == 7
        assert payload["e"] == 10
        assert payload["density"] == pytest.approx(2 * 10 / (7 * 6))
        assert payload["average_degree"] == pytest.approx(2 * 10 / 7)
        assert payload["connected"] is True


class TestRun:
    def test_grid_from_spec_file(self, capsys, data_dir, tmp_path):
        out_dir = tmp_path / "results"
        spec = {
            "cases": [str(data_dir / "demo_gearbox_7.json")],
            "methods": ["det-outin", "ga-balanced"],
            "output_dir": str(out_dir),
            "runs_per_method": 2,
            "ga_generations": 30,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code, payload = run_cli(capsys, "run", "--spec", str(spec_path))
        assert code == 0
        assert payload["failures"] == []
        assert len(payload["summary"]) == 2
        assert (out_dir / "results.csv").is_file()
        assert (out_dir / "manifest.json").is_file()

    def test_llm_methods_without_credentials_fail_loudly(
        self, capsys, data_dir, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        monkeypatch.delenv("OPENAI_API_BASE", raising=False)
        spec = {
            "cases": [str(data_dir / "demo_gearbox_7.json")],
            "methods": ["llm-with-knowledge"],
            "output_dir": str(tmp_path / "results"),
            "runs_per_method": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            main(["run", "--spec", str(spec_path)])
        assert info.value.code == "dsm-seq: error: no API key configured"
        assert capsys.readouterr().out == ""

    def test_scripted_grid(self, capsys, data_dir, demo_case, tmp_path):
        # the replies name the case's ids; each run renames them into its own
        out_dir = tmp_path / "results"
        spec = {
            "cases": [str(data_dir / "demo_gearbox_7.json")],
            "methods": ["llm-without-knowledge"],
            "output_dir": str(out_dir),
            "runs_per_method": 1,
            "trial_budgets": [1, 2],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        orders = [["lube", "bearings", "input_shaft", "housing", "seals", "gear_pair", "output_shaft"],
                  ["lube", "bearings", "input_shaft", "seals", "housing", "gear_pair", "output_shaft"]]
        script = write_script(tmp_path, ["<order> " + ", ".join(o) + " </order>" for o in orders])
        code, payload = run_cli(capsys, "run", "--spec", str(spec_path), "--script", script)
        assert code == 0
        assert payload["failures"] == []
        trace_path = out_dir / "traces" / "demo_gearbox_7__llm-without-knowledge__run0.jsonl"
        rows = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
        assert [(r["sequence"], r["failure"]) for r in rows[1:]] == [(o, None) for o in orders]
        scores = {s["budget"]: s["best"] for s in payload["summary"]}
        assert scores == {1: min(rows[0]["score"], 3), 2: demo_case.known_optimum}

    def test_run_and_llm_agree_on_a_script(self, capsys, demo_path, tmp_path):
        script = write_script(tmp_path, GEARBOX_REPLIES)
        _, single = run_cli(capsys, "llm", "--knowledge", "on", "--case", demo_path,
                            "--trials", "3", "--seed", "0", "--script", script)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "cases": [demo_path],
            "methods": ["llm-with-knowledge"],
            "output_dir": str(tmp_path / "results"),
            "runs_per_method": 1,
            "trial_budgets": [3],
            "base_seed": 0,
        }), encoding="utf-8")
        _, grid = run_cli(capsys, "run", "--spec", str(spec_path), "--script", script)
        assert [(s["budget"], s["failed"], s["best"]) for s in grid["summary"]] == [
            (3, 0, single["best_score"])
        ]
        assert single["best_score"] == 4  # the value the CI asserts on both paths

    def test_a_bad_second_case_is_one_line_before_any_cell(self, capsys, monkeypatch, demo_path, tmp_path):
        raw = json.loads(Path(demo_path).read_text(encoding="utf-8"))
        raw["edges"][-1]["predecessor"] = "nowhere"  # a dangling edge
        bad = tmp_path / "zbad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        called = []
        for method in cli.bench.METHODS:
            monkeypatch.setitem(cli.bench.METHODS, method, lambda *args: called.append(args))
        out_dir = tmp_path / "results"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "cases": [demo_path, str(bad)], "output_dir": str(out_dir), "runs_per_method": 1,
        }), encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            main(["run", "--spec", str(spec_path), "--script", write_script(tmp_path, GEARBOX_REPLIES)])
        message = info.value.code
        assert message.startswith(f"dsm-seq: error: {bad}: edges[") and "\n" not in message
        assert called == []
        assert not out_dir.exists()
        assert capsys.readouterr().out == ""


    @pytest.mark.parametrize(
        "raw, expected",
        [
            ({"output_dir": "out"}, "missing required key 'cases'"),
            ({"cases": ["demo.json"]}, "missing required key 'output_dir'"),
            (
                {"cases": ["nowhere.json"], "output_dir": "out"},
                r"case file .*nowhere\.json does not exist",
            ),
            (
                {"cases": ["demo.json"], "output_dir": "out", "runs_per_method": "3"},
                "runs_per_method must be an int, got '3'",
            ),
            (
                {"cases": "demo.json", "output_dir": "out"},
                r"cases must be a list of paths, got 'demo\.json'",
            ),
            (
                {"cases": ["demo.json"], "output_dir": "out", "runs_per_methods": 2, "method": []},
                r"unknown keys \['method', 'runs_per_methods'\]; known keys are \[.*\]",
            ),
            ({"cases": [], "output_dir": "out"}, "cases must not be empty"),
            ({"cases": ["demo.json"], "output_dir": "out", "methods": []}, "methods must not be empty"),
            (
                {"cases": ["demo.json"], "output_dir": "out", "methods": ["det-outin", "det-outin"]},
                r"methods\[1\] 'det-outin' is listed twice",
            ),
            pytest.param(
                b'{"cases": [nope]}',
                r"not valid JSON: Expecting value: line 1 column 12 \(char 11\)",
                id="not-json",
            ),
            pytest.param(
                b"\xff{}",
                "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
                id="not-utf8",
            ),
        ],
    )
    def test_bad_spec_is_one_line(self, capsys, data_dir, tmp_path, raw, expected):
        (tmp_path / "demo.json").write_text(
            (data_dir / "demo_gearbox_7.json").read_text(encoding="utf-8"), encoding="utf-8"
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(raw if isinstance(raw, bytes) else json.dumps(raw).encode("utf-8"))
        with pytest.raises(SystemExit) as info:
            main(["run", "--spec", str(spec_path)])
        message = info.value.code
        prefix = re.escape(f"dsm-seq: error: spec {spec_path}: ")
        assert re.fullmatch(prefix + expected, message)
        assert capsys.readouterr().out == ""


class NoRequestProvider:
    """Stands in for the live provider; a request to it fails the test."""

    model = "no-request"

    @classmethod
    def from_env(cls, model=None):
        return cls()

    def complete(self, req):
        pytest.fail("a request went out before the run's output paths were made")


class TestUnwritableOutput:
    """An output path that cannot be written ends in one error line naming
    it, before the live provider is sent any request."""

    @pytest.mark.parametrize("target", ["run", "ga --convergence-out", "llm --trace-out", "llm --audit-dir"])
    def test_is_one_line(self, capsys, monkeypatch, demo_path, tmp_path, target):
        monkeypatch.setattr(cli, "OpenAIChatProvider", NoRequestProvider)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory is needed\n", encoding="utf-8")
        under = str(blocker / "out")
        if target == "run":
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps({
                "cases": [demo_path], "methods": ["llm-with-knowledge", "det-outin"],
                "output_dir": str(blocker), "runs_per_method": 1,
            }), encoding="utf-8")
            argv = ["run", "--spec", str(spec_path)]
        else:
            argv = self.argv(demo_path, target, under)
        with pytest.raises(SystemExit) as info:
            main(argv)
        message = info.value.code
        # a str code exits with status 1
        assert isinstance(message, str) and message.startswith("dsm-seq: error: ")
        assert str(blocker) in message and "\n" not in message
        assert capsys.readouterr().out == ""

    @staticmethod
    def argv(demo_path, target, out):
        command, option = target.split()
        if command == "ga":
            return ["ga", "--case", demo_path, "--generations", "3", option, out]
        return ["llm", "--knowledge", "on", "--case", demo_path, "--trials", "2", option, out]

    @pytest.mark.parametrize("target", ["ga --convergence-out", "llm --trace-out"])
    def test_directory_is_one_line_naming_it(self, capsys, monkeypatch, demo_path, tmp_path, target):
        monkeypatch.setattr(cli, "OpenAIChatProvider", NoRequestProvider)
        with pytest.raises(SystemExit) as info:
            main(self.argv(demo_path, target, str(tmp_path)))
        option = target.split()[1]
        assert info.value.code == f"dsm-seq: error: {option} {tmp_path}: is a directory"
        assert capsys.readouterr().out == ""


class TestScriptFile:
    """`run --script` and `llm --script` share one loader with one-line errors."""

    @pytest.fixture(params=["run", "llm"])
    def argv(self, request, data_dir, tmp_path):
        case = str(data_dir / "demo_gearbox_7.json")
        if request.param == "llm":
            return ["llm", "--knowledge", "off", "--case", case]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "cases": [case],
            "methods": ["llm-without-knowledge"],
            "output_dir": str(tmp_path / "results"),
            "runs_per_method": 1,
        }), encoding="utf-8")
        return ["run", "--spec", str(spec_path)]

    def fails_with(self, capsys, argv, script):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--script", str(script)])
        assert capsys.readouterr().out == ""
        assert "\n" not in info.value.code
        return info.value.code

    def test_missing_file(self, capsys, argv, tmp_path):
        script = tmp_path / "nowhere.json"
        message = self.fails_with(capsys, argv, script)
        assert message == f"dsm-seq: error: cannot read --script {script}: No such file or directory"

    @pytest.mark.parametrize("content", ["[1, 2]", '{"reply": "x"}', '"<order> a </order>"',
                                         '["ok", null]'])
    def test_not_a_list_of_strings(self, capsys, argv, tmp_path, content):
        script = tmp_path / "script.json"
        script.write_text(content, encoding="utf-8")
        message = self.fails_with(capsys, argv, script)
        assert message == f"dsm-seq: error: --script {script}: expected a JSON list of strings"

    def test_not_json(self, capsys, argv, tmp_path):
        script = tmp_path / "script.json"
        script.write_text("[unquoted]", encoding="utf-8")
        message = self.fails_with(capsys, argv, script)
        assert message.startswith(f"dsm-seq: error: --script {script}: not valid JSON: Expecting value")


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "dsm-seq" in capsys.readouterr().out
