"""tools/compare_outputs.py: which files of two output directories differ."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
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
