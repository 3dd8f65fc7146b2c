"""The package on numpy alone: each check runs `python -m dsmseq.cli` (or a
short script) in a fresh interpreter whose startup makes every import of
scipy and networkx fail, as on a plain install without the test extra."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dsmseq
from conftest import DATA_DIR

GEARBOX = str(DATA_DIR / "demo_gearbox_7.json")
SRC = str(Path(dsmseq.__file__).resolve().parents[1])
# a None entry in sys.modules makes the import of that name, or of any of
# its modules, raise ImportError
BLOCK = "import sys\nsys.modules['scipy'] = sys.modules['networkx'] = None\n"
CLI = BLOCK + "import runpy\nrunpy.run_module('dsmseq.cli', run_name='__main__', alter_sys=True)\n"

# two distinct orders of the gearbox's ids, scoring 4, and the first again
REPLIES = [
    "<order> input_shaft, gear_pair, bearings, housing, lube, seals, output_shaft </order>",
    "<order> housing, input_shaft, gear_pair, bearings, lube, seals, output_shaft </order>",
    "<order> input_shaft, gear_pair, bearings, housing, lube, seals, output_shaft </order>",
]


def python(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )


def dsm_seq(*argv: str) -> subprocess.CompletedProcess:
    return python(CLI, *argv)


def payload(*argv: str) -> dict:
    done = dsm_seq(*argv)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def write_json(path: Path, value) -> str:
    path.write_text(json.dumps(value), encoding="utf-8")
    return str(path)


def complete_digraph(size: int, extra=()) -> dict:
    ids = [f"v{i}" for i in range(size)]
    return {
        "nodes": [{"id": i, "name": i} for i in ids + list(extra)],
        "edges": [{"dependent": d, "predecessor": p} for d in ids for p in ids if d != p],
    }


@pytest.mark.parametrize("startup", [BLOCK, "import sys\n"], ids=["blocked", "where-installed"])
def test_the_library_loads_neither_scipy_nor_networkx(startup):
    # on every bundled case, the rankings, the closure and the metrics read
    # the edge lists and never build the dense matrix, and the GA and the
    # LLM loop run; where scipy or networkx is installed, no code path
    # imports it either
    code = startup + (
        "import dsmseq\n"
        "names = dsmseq.bundled_case_names()\n"
        "dense = []\n"
        "for name in names:\n"
        "    case = dsmseq.bundled_case(name)\n"
        "    matrix = dsmseq.build_adjacency(case)\n"
        "    for rank in dsmseq.DETERMINISTIC_METHODS.values():\n"
        "        rank(matrix)\n"
        "    dsmseq.reachability_closure(matrix)\n"
        "    dsmseq.network_metrics(case)\n"
        "    dense += [name] * ('a' in vars(matrix))\n"
        "    dsmseq.run_ga(matrix, dsmseq.preset_config('balanced', seed=0, generations=5))\n"
        "    reply = '<order> ' + ', '.join(reversed(case.node_ids)) + ' </order>'\n"
        "    cfg = dsmseq.OptimizerConfig(termination=dsmseq.TerminationPolicy(max_iterations=2))\n"
        "    dsmseq.run_optimization(case, cfg, dsmseq.ScriptedProvider([reply, reply]))\n"
        "print(sorted(m for m, module in sys.modules.items()\n"
        "             if m.split('.')[0] in ('scipy', 'networkx') and module is not None))\n"
        "print(len(names), dense)\n"
    )
    done = python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["[]", f"{len(list(DATA_DIR.glob('*.json')))} []", ""]


def test_gearbox_metrics_by_breadth_first_search():
    r = payload("metrics", "--case", GEARBOX)
    assert (r["diameter"], r["average_path_length"], r["connected"]) == (3, 1.6666666666666667, True)


@pytest.mark.parametrize(
    "method, score, order",
    [
        # the gearbox is periodic (three eigenvalues of modulus 1.5511); power
        # iteration v <- v (A + I) converges to its left Perron vector
        ("eig", 4, ["housing", "lube", "bearings", "seals", "gear_pair", "input_shaft", "output_shaft"]),
        # the column sums of exp(A), a Taylor series on the ones vector
        ("exp", 5, ["housing", "bearings", "lube", "gear_pair", "seals", "input_shaft", "output_shaft"]),
        # the column sums of (I - 0.025 A)^-1, the attenuated walk series
        ("resolvent", 5, ["housing", "bearings", "lube", "gear_pair", "seals", "input_shaft", "output_shaft"]),
    ],
)
def test_gearbox_walk_rankings(method, score, order):
    r = payload("baseline", method, "--case", GEARBOX)
    assert (r["warning"], r["score"], r["order"]) == (None, score, order)


def test_gearbox_visibility_puts_the_final_consumer_last():
    # visibility counts the nodes that depend on each node
    r = payload("baseline", "visibility", "--case", GEARBOX)
    assert (r["score"], r["order"][-1]) == (4, "output_shaft")


def test_gearbox_oracle_on_numpy_alone():
    # the subset DP is filled with numpy's bitwise_count and fancy indexing
    r = payload("oracle", "--case", GEARBOX)
    assert r == {
        "optimal_score": 2,
        "optimal_order": ["lube", "bearings", "input_shaft", "seals", "housing", "gear_pair", "output_shaft"],
    }


@pytest.mark.parametrize(
    "extra",
    [
        # delta * spectral radius = 0.025 * 40 = 1
        (),
        # the isolated node's sums never grow, but the second term is at
        # least the first wherever the first is nonzero
        ("alone",),
    ],
)
def test_a_divergent_resolvent_is_one_error_line(tmp_path, extra):
    case = write_json(tmp_path / "complete_41.json", complete_digraph(41, extra))
    done = dsm_seq("baseline", "resolvent", "--case", case)
    assert done.returncode == 1
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert re.match(r"dsm-seq: error: .*diverges", done.stderr)


@pytest.mark.parametrize(
    "argv, best, unique",
    [
        # seed 0, 10 generations: above the optimum of 2, after 39 distinct orders
        (("--generations", "10"), 3, 39),
        # the full 2,000 generations stop at the known optimum after 76 distinct
        # orders (858 without the stop)
        (("--preset", "exploration"), 2, 76),
        # exploitation never reaches the optimum here, so it runs the whole
        # budget; its population collapses, and most generations are skipped
        (("--preset", "exploitation"), 3, 163),
    ],
)
def test_gearbox_ga_runs(argv, best, unique):
    r = payload("ga", "--case", GEARBOX, *argv)
    assert (r["best_score"], r["unique_solutions"]) == (best, unique)


def test_scripted_llm_run(tmp_path):
    # the seed order and the two distinct replies make three archive entries
    script = write_json(tmp_path / "replies.json", REPLIES)
    r = payload("llm", "--knowledge", "on", "--trials", "3", "--case", GEARBOX, "--script", script)
    assert (r["best_score"], r["unique_solutions"]) == (4, 3)


def test_scripted_grid_renames_the_script_into_each_runs_ids(tmp_path):
    spec = {
        "cases": [GEARBOX],
        "methods": ["det-outin", "ga-balanced", "llm-with-knowledge"],
        "output_dir": str(tmp_path / "grid"),
        "runs_per_method": 1,
        "trial_budgets": [3],
        "ga_generations": 10,
    }
    script = write_json(tmp_path / "replies.json", REPLIES)
    done = dsm_seq("run", "--spec", write_json(tmp_path / "spec.json", spec), "--script", script)
    assert done.returncode == 0, done.stderr
    summary = (tmp_path / "grid" / "results_summary.csv").read_text(encoding="utf-8")
    assert "demo_gearbox_7,llm-with-knowledge,3,1,0,4.000000,0.000000,4.0" in summary.splitlines()


def test_prompts_without_knowledge_name_no_case_id(tmp_path):
    script = write_json(tmp_path / "replies.json", REPLIES)
    audit = tmp_path / "audit"
    done = dsm_seq(
        "llm", "--knowledge", "off", "--trials", "3", "--case", GEARBOX, "--script", script,
        "--audit-dir", str(audit),
    )
    assert done.returncode == 0, done.stderr
    prompts = sorted(audit.glob("*_prompt.txt"))
    assert len(prompts) == 3
    assert not [p for p in prompts if "input_shaft" in p.read_text(encoding="utf-8")]


def test_a_script_that_runs_dry_aborts_and_keeps_the_trace(tmp_path):
    script = write_json(tmp_path / "one.json", REPLIES[:1])
    trace = tmp_path / "t.jsonl"
    done = dsm_seq(
        "llm", "--knowledge", "off", "--trials", "3", "--case", GEARBOX, "--script", script,
        "--trace-out", str(trace),
    )
    assert done.returncode == 1
    assert trace.is_file()


def test_refused_replies_are_re_asked(tmp_path):
    # a duplicated id and an unknown id are each refused once by the parser;
    # the third, valid reply is filed and scores 4
    replies = [
        "<order> input_shaft, gear_pair, bearings, housing, lube, seals, input_shaft </order>",
        "<order> input_shaft, gear_pair, bearings, housing, lube, seals, drive_belt </order>",
        REPLIES[0],
    ]
    script = write_json(tmp_path / "retry.json", replies)
    trace = tmp_path / "retry.jsonl"
    r = payload(
        "llm", "--knowledge", "on", "--trials", "1", "--case", GEARBOX, "--script", script,
        "--trace-out", str(trace),
    )
    assert (r["best_score"], r["unique_solutions"]) == (4, 2)
    rows = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    last = rows[-1]
    assert len(rows) == 2
    assert (last["iteration"], last["attempts"], last["failure"], last["duplicate"], last["score"],
            last["best_score"]) == (1, 3, None, False, 4, 4)
