"""tools/compare_outputs.py: which files of two output directories differ."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from agenda import cli, dataio, trainer

REPO = Path(__file__).resolve().parents[1]

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", REPO / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def _write_round(root, wall_time_s, seed=7, report=b"# seed=7\nmetric,value\n"):
    root.mkdir()
    (root / "r.csv").write_bytes(report)
    (root / "r.csv.manifest.json").write_text(json.dumps(dict(
        subcommand="eval", seed=seed, wall_time_s=wall_time_s,
        stage_seconds={"1": wall_time_s})))


@pytest.mark.parametrize("change, found", [
    (dict(), []),
    (dict(seed=8), ["r.csv.manifest.json"]),
    (dict(report=b"# seed=7\nmetric,valuE\n"), ["r.csv"]),
], ids=["equal", "manifest key", "report byte"])
def test_differing_ignores_only_timings(tmp_path, change, found):
    _write_round(tmp_path / "a", 1.5)
    _write_round(tmp_path / "b", 2.25, **change)
    assert compare_outputs.differing(tmp_path / "a", tmp_path / "b") == found


def test_a_file_on_one_side_only_differs(tmp_path):
    _write_round(tmp_path / "a", 1.0)
    _write_round(tmp_path / "b", 1.0)
    (tmp_path / "b" / "extra.fds").write_bytes(b"FDS1")
    assert compare_outputs.differing(tmp_path / "a", tmp_path / "b") == ["extra.fds"]


def test_units_round_argv_parses(tmp_path):
    # Parsing only: no step runs. A CLI change that refused an option the
    # round passes, or a config key the trainer dropped, fails here.
    workloads = _workloads()
    rounds = compare_outputs.rounds(workloads)
    assert set(rounds) == set(workloads.WORKLOADS) | {"units"}
    units = rounds["units"]
    workloads.write_inputs(units, tmp_path)
    config = dataio.read_config(tmp_path / "train.cfg", trainer.TrainConfig)
    assert config.n_ep == compare_outputs.UNITS_CONFIG["n_ep"]
    argvs = [argv for _, argv in units.steps(5)]
    assert [cli.parse_args(argv).subcommand for argv in argvs] == ["tpe"] + ["sweep"] * 3
    assert cli.parse_args(workloads.synth_argv(units, 5)).spec is None  # the desk corpus


def _workloads():
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return workloads


def test_a_round_reads_each_steps_own_peak(tmp_path):
    workloads = _workloads()
    tiny = workloads.Workload(
        "tiny", "", dict(n_identities=20, samples_per_identity=4, dim=8),
        lambda seed: [("eval", ["eval", "--data", "corpus.fds", "--fprs", "1e-2",
                                "--report", "r.csv", "--seed", str(seed)])], checks=None)
    peaks = compare_outputs.run_round(REPO, tmp_path / "w", tiny, 3)
    assert list(peaks) == ["synth", "eval"]
    # VmHWM of a small step that imported numpy: tens of MiB, below this
    # runner's own peak late in a suite (about 170 MiB), which the step's
    # ru_maxrss would include
    assert all(10 < peak < 100 for peak in peaks.values()), peaks
    assert (tmp_path / "w" / "r.csv").is_file()


def test_peaks_printed_beside_the_diff(tmp_path, monkeypatch, capsys):
    def fake_round(tree, work, workload, seed):
        _write_round(work, 1.0, seed=seed if tree == "a" else seed + 1)
        return {"synth": 45.0, "train": 137.0 if tree == "a" else 118.4}

    monkeypatch.setattr(compare_outputs, "run_round", fake_round)
    code = compare_outputs.main(["a", "b", "--workload", "units", "--seed", "7",
                                 "--work", str(tmp_path)])
    assert code == 1  # the manifests' seeds differ
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["step", "parent", "MiB", "change", "MiB", "diff"]
    assert lines[1].split() == ["synth", "45.0", "45.0", "+0.0"]
    assert lines[2].split() == ["train", "137.0", "118.4", "-18.6"]
    assert lines[3:] == ["differs: r.csv.manifest.json", "units at seed 7: 1 file(s) differ"]
