"""Shared fixtures: small corpora and the session-wide default pipeline run.

The default pipeline run (synth -> train -> transform -> probe -> eval via
the CLI) takes a few minutes and is shared by several acceptance criteria;
it runs at most once per session.
"""

import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from agenda import linalg, synthgen, trainer


def tiny_corpus(seed=3, n_identities=12, samples=8, dim=10, **kw):
    spec = synthgen.SynthSpec(
        n_identities=n_identities, samples_per_identity=samples, dim=dim,
        sigma_id=0.5, sigma_noise=0.1, attribute_strength=0.3,
        entanglement=0.0, seed=seed, **kw,
    )
    dataset, meta = synthgen.generate(spec)
    return dataset, meta


def tiny_config(**kw):
    base = dict(
        lam=1.0, k=2, t_fc=40, t_gtrain=15, t_deb=10, t_plat=10, n_ep=2,
        g_thresh=1.0, alpha1=1e-3, alpha2=1e-3, alpha3=1e-3,
        batch_size=16, seed=9, validation_fraction=0.15,
    )
    base.update(kw)
    return trainer.TrainConfig(**base)


def require_two_blas_threads():
    """Skip the calling test unless numpy's BLAS thread count can be set
    and a second core makes two BLAS threads split the work."""
    if linalg.openblas_handle() is None:
        pytest.skip("numpy has no bundled OpenBLAS with a thread-count call")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one core: two BLAS threads split nothing")


def stage_sequence(log):
    """(episode, stage, member_k) per logged iteration, for replay checks."""
    return [(r.episode, r.stage, r.member_k) for r in log.records]


def peak_rss_mib(*argv):
    """Peak RSS in MiB of one ``agenda`` subcommand run in a child process.

    A child's ru_maxrss also counts the pages of the process that started
    it (this test runner, 170 MiB late in a full run), so the child reports
    its own high-water mark, VmHWM (Linux, kilobytes).
    """
    script = ("import sys; from agenda.cli import main; code = main(sys.argv[1:]); "
              "print(next(line.split()[1] for line in open('/proc/self/status') "
              "if line.startswith('VmHWM:'))); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script, *[str(a) for a in argv]],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024


@pytest.fixture(scope="session")
def corpus_512d(tmp_path_factory):
    """The default corpus at the paper's 512-d: 10,000 records, 41 MiB as float64."""
    root = tmp_path_factory.mktemp("c512")
    spec = root / "spec.txt"
    spec.write_text("dim=512\n")
    corpus = root / "c512.fds"
    code, _, err = run_cli("synth", "--spec", spec, "--out", corpus, "--seed", 3)
    assert code == 0, err
    return corpus


@pytest.fixture(scope="session")
def small_corpus():
    dataset, _ = tiny_corpus()
    return dataset


def run_cli(*argv):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "agenda.cli", *[str(a) for a in argv]],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@dataclass
class PipelineRun:
    root: object
    corpus: str
    ckpt: str
    log: str
    transformed: str
    probe_raw: str
    probe_agenda: str
    eval_raw: str
    eval_agenda: str


def run_default_pipeline(root, seed=2024):
    """Full CLI pipeline on the default corpus at the default train config."""
    corpus = str(root / "corpus.fds")
    ckpt = str(root / "model.agnd")
    log = str(root / "train.log.csv")
    transformed = str(root / "suppressed.fds")
    probe_raw = str(root / "probe_raw.csv")
    probe_agenda = str(root / "probe_agenda.csv")
    eval_raw = str(root / "eval_raw.csv")
    eval_agenda = str(root / "eval_agenda.csv")
    steps = [
        ("synth", "--out", corpus, "--seed", seed),
        ("train", "--data", corpus, "--out", ckpt, "--log", log, "--seed", seed),
        ("transform", "--ckpt", ckpt, "--data", corpus, "--out", transformed),
        ("probe", "--data", corpus, "--report", probe_raw, "--seed", seed),
        ("probe", "--data", transformed, "--report", probe_agenda, "--seed", seed),
        ("eval", "--data", corpus, "--fprs", "1e-3", "--report", eval_raw, "--seed", seed),
        ("eval", "--data", transformed, "--fprs", "1e-3", "--report", eval_agenda, "--seed", seed),
    ]
    for step in steps:
        code, out, err = run_cli(*step)
        assert code == 0, "pipeline step %s failed: %s" % (step[0], err)
    return PipelineRun(root, corpus, ckpt, log, transformed,
                       probe_raw, probe_agenda, eval_raw, eval_agenda)


@pytest.fixture(scope="session")
def default_pipeline(tmp_path_factory):
    return run_default_pipeline(tmp_path_factory.mktemp("pipeline_a"))


def read_probe_accuracy(path):
    with open(path) as lines:
        for line in lines:
            if line.startswith("overall_accuracy_pct"):
                return float(line.strip().split(",")[1])
    raise AssertionError("no accuracy row in %s" % path)


def read_eval_rows(path):
    """[(fpr, tpr_m, tpr_f, bias)] from an eval report CSV."""
    rows = []
    with open(path) as lines:
        for line in lines:
            if line.startswith("#") or line.startswith("fpr,"):
                continue
            fpr, tm, tf, b = line.strip().split(",")
            rows.append((float(fpr), float(tm), float(tf), float(b)))
    return rows
