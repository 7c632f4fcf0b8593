"""The benchmark's tracer and self-test still run against the package.

The tracer looks up every function it times by name, so a refactor that
renames or drops one of them fails here instead of only in traced
benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from agenda import dataio
from conftest import tiny_corpus

REPO = Path(__file__).resolve().parents[1]


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_tracer_times_a_tiny_train(tmp_path):
    dataio.write_dataset(tiny_corpus()[0], tmp_path / "c.fds")
    (tmp_path / "t.cfg").write_text(
        "k=2\nt_fc=20\nt_gtrain=5\nt_deb=5\nt_plat=5\nn_ep=2\nbatch_size=16\ng_thresh=1.0\n")
    proc = _run([str(REPO / "perfbench" / "tracer.py"), "table.json", "train",
                 "--data", "c.fds", "--config", "t.cfg", "--out", "m.agnd"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((tmp_path / "table.json").read_text())["spans"]
    for stage in (1, 2, 3, 4):
        assert spans["trainer.stage%d" % stage][0] >= 1, sorted(spans)
    assert spans["nets.save_checkpoint"][0] == 1


def test_perfbench_selftest_passes():
    proc = _run([str(REPO / "perfbench" / "selftest.py")], REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr
