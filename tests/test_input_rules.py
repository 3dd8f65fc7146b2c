"""The input rules at the edges: every numeric config field is checked when
the config is made, and every mutant of a case, spec or --script file
either runs or ends in one error line that names the file."""

import copy
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dsmseq
from dsmseq import ExperimentSpec, GaConfig, OptimizerConfig, TerminationPolicy
from dsmseq.cli import main
from dsmseq.ranking import DETERMINISTIC_METHODS

from conftest import DATA_DIR

PROBES = {
    "None": None, "True": True, "'3'": "3", "2.5": 2.5, "-1": -1, "0": 0,
    "nan": math.nan, "inf": math.inf,
}


def spec(**value):
    return ExperimentSpec(cases=["x.json"], methods=["det-outin"], output_dir="out", **value)


def ga_config(**value):
    fields = dict(population_size=10, generations=5, indpb=0.1, tournament_size=3,
                  cxpb=0.5, mutpb=0.5)
    return GaConfig(**{**fields, **value})


# each numeric field with the probes it accepts; it must refuse the others
FIELDS = [
    (spec, "runs_per_method", ()),
    (spec, "base_seed", ("0",)),
    (spec, "ga_generations", ()),
    (ga_config, "population_size", ()),
    (ga_config, "generations", ()),
    (ga_config, "tournament_size", ()),
    (ga_config, "seed", ("0",)),
    (ga_config, "indpb", ("0",)),
    (ga_config, "cxpb", ("0",)),
    (ga_config, "mutpb", ("0",)),
    (TerminationPolicy, "max_iterations", ()),
    (TerminationPolicy, "optimal_threshold", ("None", "0")),
    (OptimizerConfig, "seed", ("0",)),
]


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize(
    "make, name, accepted", FIELDS, ids=[f"{make.__name__}.{name}" for make, name, _ in FIELDS]
)
def test_each_numeric_field_is_checked_when_the_config_is_made(make, name, accepted, probe):
    value = PROBES[probe]
    if probe in accepted:
        assert getattr(make(**{name: value}), name) is value
    else:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make(**{name: value})


# --- seeded mutants of the three user files, through the command line ---

SEED = 2901
CASE_MUTANTS, SPEC_MUTANTS, SCRIPT_MUTANTS = 150, 80, 80
CASE_COMMANDS = ("score", "oracle", "metrics", "baseline", "llm")
CHILDREN = 3
GEARBOX = json.loads((DATA_DIR / "demo_gearbox_7.json").read_text(encoding="utf-8"))
GEARBOX_IDS = [node["id"] for node in GEARBOX["nodes"]]
# an llm run of 2 iterations asks at most 6 times (2 re-asks each), so a
# script of 8 replies does not run dry when a mutant drops one
SCRIPT = [
    "<order> " + ", ".join(random.Random(k).sample(GEARBOX_IDS, len(GEARBOX_IDS))) + " </order>"
    for k in range(8)
]
# no single bit flip of "grid" is a path outside the working directory
SPEC = {
    "cases": ["case.json"],
    "methods": ["det-outin", "ga-balanced", "llm-with-knowledge"],
    "output_dir": "grid",
    "runs_per_method": 1,
    "trial_budgets": [2],
    "base_seed": 3,
    "ga_generations": 5,
}
SWAPS = (None, True, 0, -1, 2.5, "zz", [], {})


class Obj(list):
    """A JSON object as its list of [key, value] pairs, so that a key can
    appear twice."""


def parse(text: bytes):
    return json.loads(text, object_pairs_hook=lambda pairs: Obj(map(list, pairs)))


def dump(value) -> bytes:
    def text(v):
        if isinstance(v, Obj):
            return "{" + ", ".join(f"{json.dumps(k)}: {text(x)}" for k, x in v) + "}"
        if isinstance(v, list):
            return "[" + ", ".join(map(text, v)) + "]"
        return json.dumps(v)

    return text(value).encode("utf-8")


def slots(tree):
    """Every (container, index) below tree; an object's index is a pair's."""
    found = []
    for i, item in enumerate(tree):
        found.append((tree, i))
        value = item[1] if isinstance(tree, Obj) else item
        if isinstance(value, list):  # Obj included
            found += slots(value)
    return found


def get(container, i):
    return container[i][1] if isinstance(container, Obj) else container[i]


def put(container, i, value):
    if isinstance(container, Obj):
        container[i][1] = value
    else:
        container[i] = value


def duplicate_id(tree, kind: str, rng: random.Random):
    if kind == "script":  # a reply that names one id twice
        k = rng.randrange(len(tree))
        ids = tree[k].removeprefix("<order> ").removesuffix(" </order>").split(", ")
        i, j = rng.sample(range(len(ids)), 2)
        ids[i] = ids[j]
        tree[k] = "<order> " + ", ".join(ids) + " </order>"
    elif kind == "spec":  # one case file listed twice
        cases = get(tree, [key for key, _ in tree].index("cases"))
        cases.append(cases[0])
    else:  # two nodes with one id, or an edge end renamed to another node's id
        keyed = [(c, i, c[i][0]) for c, i in slots(tree) if isinstance(c, Obj)]
        ids = [(c, i) for c, i, key in keyed if key == "id"]
        ends = [(c, i) for c, i, key in keyed if key in ("dependent", "predecessor")]
        target, source = rng.sample(ids, 2) if rng.random() < 0.5 else (rng.choice(ends), rng.choice(ids))
        put(*target, get(*source))


def mutate(seed_bytes: bytes, kind: str, rng: random.Random) -> bytes:
    """One mutant: a bit flip, a truncation, a value of another JSON type,
    a dropped or a duplicated key or item, or a duplicate id."""
    op = rng.randrange(6)
    if op == 0:
        data = bytearray(seed_bytes)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    if op == 1:
        return seed_bytes[: rng.randrange(len(seed_bytes))]
    tree = parse(seed_bytes)
    if op == 5:
        duplicate_id(tree, kind, rng)
        return dump(tree)
    container, i = rng.choice(slots(tree))
    if op == 2:
        old = get(container, i)
        put(container, i, copy.deepcopy(rng.choice([s for s in SWAPS if type(s) is not type(old)])))
    elif op == 3:
        del container[i]
    elif isinstance(container, Obj):  # the key again, holding a value found elsewhere in the file
        other, j = rng.choice(slots(tree))
        container.insert(i + 1, [container[i][0], copy.deepcopy(get(other, j))])
    else:
        container.insert(i + 1, copy.deepcopy(container[i]))
    return dump(tree)


# Runs the command line in-process on each job listed in its file and prints
# one JSON line per job as it ends, so a parent that times out knows which
# job hung: exit code 0 with the JSON it printed, or the SystemExit message,
# or the traceback of anything else.
DRIVER = """
import contextlib, io, json, pathlib, sys, traceback
from dsmseq.cli import main
for argv in json.loads(pathlib.Path(sys.argv[1]).read_text(encoding="utf-8")):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = main(argv)
        result = {"exit": status, "stdout": out.getvalue()}
    except SystemExit as exc:
        result = {"exit": exc.code}
    except Exception:
        result = {"traceback": traceback.format_exc()}
    print(json.dumps(result), flush=True)
"""


def check(argv, path, result):
    """A mutant runs, or ends with one error line that names its file."""
    where = f"{' '.join(argv)}: {path.read_bytes()!r}"
    assert "traceback" not in result, f"{where}\n{result['traceback']}"
    if result["exit"] == 0:
        json.loads(result["stdout"])
    else:
        message = result["exit"]
        assert isinstance(message, str), where  # printed on stderr with exit status 1
        assert message.startswith("dsm-seq: error: ") and "\n" not in message, where
        assert str(path) in message, f"{where}\n{message}"


def command_lines(kind: str, path: Path, k: int, case: str, spec_file: str, script: str):
    """The command lines that read the k-th mutant of kind at path; the
    other files they name are the valid seeds."""
    if kind == "spec":
        return [["run", "--spec", str(path), "--script", script]]
    if kind == "script":
        return [["llm", "--knowledge", "off", "--trials", "2", "--case", case, "--script", str(path)],
                ["run", "--spec", spec_file, "--script", str(path)]]
    try:  # score an order of the mutant's own ids, so that a failure is the file's
        order = ",".join(reversed(dsmseq.load_case(path).node_ids))
    except ValueError:
        order = ",".join(GEARBOX_IDS)
    methods = sorted(DETERMINISTIC_METHODS)
    argvs = {
        "score": ["score", f"--order={order}"],
        "oracle": ["oracle"],
        "metrics": ["metrics"],
        "baseline": ["baseline", methods[k % len(methods)]],
        "llm": ["llm", "--knowledge", "on", "--trials", "1", "--script", script],
    }
    return [argvs[command] + ["--case", str(path)] for command in CASE_COMMANDS]


def test_mutated_input_files_run_or_fail_with_one_line(tmp_path):
    seeds = {
        "case": (DATA_DIR / "demo_gearbox_7.json").read_bytes(),
        "spec": json.dumps(SPEC, indent=1).encode("utf-8"),
        "script": json.dumps(SCRIPT, indent=1).encode("utf-8"),
    }
    for kind, data in seeds.items():
        (tmp_path / f"{kind}.json").write_bytes(data)
    files = [str(tmp_path / f"{kind}.json") for kind in seeds]
    rng = random.Random(SEED)
    jobs = []  # (argv, the mutated file it reads)
    for kind, count in (("case", CASE_MUTANTS), ("spec", SPEC_MUTANTS), ("script", SCRIPT_MUTANTS)):
        for k in range(count):
            path = tmp_path / f"{kind}_{k:03d}.json"
            path.write_bytes(mutate(seeds[kind], kind, rng))
            jobs += [(argv, path) for argv in command_lines(kind, path, k, *files)]
    env = {**os.environ, "PYTHONPATH": str(Path(dsmseq.__file__).resolve().parents[1])}
    shares = [jobs[c::CHILDREN] for c in range(CHILDREN)]
    children = []
    for c, share in enumerate(shares):
        listing = tmp_path / f"jobs_{c}.json"
        listing.write_text(json.dumps([argv for argv, _ in share]), encoding="utf-8")
        children.append(subprocess.Popen(
            [sys.executable, "-c", DRIVER, str(listing)], cwd=tmp_path, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ))
    outputs = []
    for child in children:
        try:
            outputs.append(child.communicate(timeout=60))
        except subprocess.TimeoutExpired:
            child.kill()
            outputs.append(child.communicate())
    for share, (out, err) in zip(shares, outputs):
        results = [json.loads(line) for line in out.splitlines()]
        if len(results) < len(share):
            argv, path = share[len(results)]
            pytest.fail(f"hung or died: {' '.join(argv)}: {path.read_bytes()!r}\n{err}")
        for (argv, path), result in zip(share, results):
            check(argv, path, result)


# --- a negative seed, which random.Random reads as its absolute value ---

@pytest.mark.parametrize("command", ["baseline", "llm"])
def test_a_negative_seed_is_one_line(command, tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(SCRIPT), encoding="utf-8")
    argv = {
        "baseline": ["baseline", "visibility", "--case", str(DATA_DIR / "packaging_line_12.json")],
        "llm": ["llm", "--knowledge", "on", "--trials", "1", "--case", str(DATA_DIR / "demo_gearbox_7.json"),
                "--script", str(script)],
    }[command]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", "-1"])
    assert info.value.code == "dsm-seq: error: seed must be >= 0, got -1"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("seeded", ["anonymize_ids", *sorted(DETERMINISTIC_METHODS)])
def test_every_seeded_shuffle_refuses_a_negative_seed(seeded):
    case = dsmseq.bundled_case("demo_gearbox_7")
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        if seeded == "anonymize_ids":
            dsmseq.anonymize_ids(case, -1)
        else:
            DETERMINISTIC_METHODS[seeded](dsmseq.build_adjacency(case), seed=-1)


# --- an empty output path, which would name the working directory ---

@pytest.mark.parametrize("command", ["run", "llm"])
def test_an_empty_output_path_is_one_line_and_writes_nothing(command, tmp_path, monkeypatch, capsys):
    inputs, cwd = tmp_path / "inputs", tmp_path / "cwd"
    inputs.mkdir()
    cwd.mkdir()
    script = inputs / "script.json"
    script.write_text(json.dumps(SCRIPT), encoding="utf-8")
    if command == "run":
        spec_path = inputs / "spec.json"
        spec_path.write_text(json.dumps({**SPEC, "cases": [str(DATA_DIR / "demo_gearbox_7.json")],
                                         "output_dir": ""}), encoding="utf-8")
        argv = ["run", "--spec", str(spec_path), "--script", str(script)]
        expected = f"spec {spec_path}: output_dir must not be empty"
    else:
        argv = ["llm", "--knowledge", "on", "--trials", "2", "--case", str(DATA_DIR / "demo_gearbox_7.json"),
                "--script", str(script), "--audit-dir", ""]
        expected = "audit_dir must be None or a path, got ''"
    monkeypatch.chdir(cwd)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == f"dsm-seq: error: {expected}"
    assert list(cwd.iterdir()) == []
    assert capsys.readouterr().out == ""
