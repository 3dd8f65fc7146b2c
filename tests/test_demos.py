"""Every demo script runs to completion in-process, and the matrix snapshots
drawn by the scripted LLM loop demo keep their bytes."""

import csv
import hashlib
import importlib.util
from pathlib import Path

import pytest

from dsmseq import OptimizerConfig, ScriptedProvider, TerminationPolicy, bundled_case, run_optimization
from conftest import naive_score

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def load_demo(path: Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_completes(path, capsys):
    load_demo(path).main()
    assert capsys.readouterr().out.strip()


@pytest.fixture(scope="module")
def llm_loop():
    return load_demo(DEMO_DIR / "scripted_llm_loop.py")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestWriteSnapshots:
    def fake_trace(self, case):
        ids = list(case.node_ids)
        start = list(reversed(ids))
        better = ids[:]
        return [
            {"iteration": 0, "best_sequence": start},
            {"iteration": 1, "best_sequence": better},
        ]

    def test_snapshot_files_and_annotation(self, llm_loop, tmp_path, demo_case):
        trace = self.fake_trace(demo_case)
        written = llm_loop.write_snapshots(demo_case, trace, [0, 1], tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "trajectory_iter000.csv",
            "trajectory_iter000.svg",
            "trajectory_iter001.csv",
            "trajectory_iter001.svg",
        ]
        svg = (tmp_path / "trajectory_iter001.svg").read_text(encoding="utf-8")
        expected = naive_score(demo_case, trace[1]["best_sequence"])
        assert f"iteration 1: feedback={expected}" in svg

    def test_csv_header_is_the_sequence(self, llm_loop, tmp_path, demo_case):
        trace = self.fake_trace(demo_case)
        llm_loop.write_snapshots(demo_case, trace, [0], tmp_path)
        rows = read_csv(tmp_path / "trajectory_iter000.csv")
        assert rows[0] == trace[0]["best_sequence"]
        assert len(rows) == len(demo_case.node_ids) + 1

    def test_last_entry_per_iteration_wins(self, llm_loop, tmp_path, demo_case):
        ids = list(demo_case.node_ids)
        trace = [
            {"iteration": 0, "best_sequence": list(reversed(ids))},
            {"iteration": 0, "best_sequence": ids[:]},
        ]
        llm_loop.write_snapshots(demo_case, trace, [0], tmp_path)
        svg = (tmp_path / "trajectory_iter000.svg").read_text(encoding="utf-8")
        expected = naive_score(demo_case, ids)
        assert f"iteration 0: feedback={expected}" in svg

    def test_unknown_iteration_rejected(self, llm_loop, tmp_path, demo_case):
        trace = self.fake_trace(demo_case)
        with pytest.raises(ValueError, match="iteration 7 not present"):
            llm_loop.write_snapshots(demo_case, trace, [7], tmp_path)

    def test_the_demo_trace_snapshots_keep_their_bytes(self, llm_loop, tmp_path):
        case = bundled_case("demo_gearbox_7")
        cfg = OptimizerConfig(termination=TerminationPolicy(max_iterations=5), seed=42)
        _, trace = run_optimization(case, cfg, ScriptedProvider(list(llm_loop.REPLIES)))
        written = llm_loop.write_snapshots(case, trace, [0, 3], tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
        assert digests == {
            "trajectory_iter000.svg": "7a7a27062381dc765d419b441b95becf3a1fc5f18d677bdd5619a53d928831ca",
            "trajectory_iter000.csv": "d3ab68a8b130ac99d57dd1df6be743f909fa82cfb5666f8407f8f0c9849092ab",
            "trajectory_iter003.svg": "ed6f5de0b52d84ce998a0ce6307b1319fa658f9f3f5c0e6e3c1901ecc7bc4f87",
            "trajectory_iter003.csv": "dfbe4fc9dcc74ca5c21a90eb6961b167513621b003e2260e2ebd2536b2cdcfbf",
        }
