"""The benchmark's workloads: inputs made from the seed, CLI steps, checks.

Every workload synthesizes its corpus with ``agenda synth`` at set-up, then
runs a fixed sequence of ``agenda`` subcommands one after another (a closed
loop with one client), then checks every output against the oracles. Paths
in the steps are relative to the run's working directory.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks as c

FPRS = (1e-3, 1e-2)
DELTA = 0.1

# The trainer's documented defaults (``agenda train --help``); the desk
# workload passes no config, so its log must replay this schedule.
DEFAULT_SCHEDULE = dict(lam=10.0, k=5, t_fc=2000, t_gtrain=600, t_deb=200, t_plat=300,
                        n_ep=20, g_thresh=0.9)

# Full-scale shapes (512-d corpus, batch 400, k 5, lam 10, alpha1 1e-5) on
# a short schedule: 1/165 of the reference t_fc, 1/200 of t_gtrain, 1/30 of
# t_deb, 1/33 of t_plat, five episodes.
FULLSCALE_SCHEDULE = dict(lam=10.0, k=5, t_fc=400, t_gtrain=150, t_deb=40, t_plat=60,
                          n_ep=5, g_thresh=0.9, batch_size=400, alpha1=1e-5)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict  # SynthSpec fields other than the seed
    steps: Callable  # seed -> [(label, argv)]
    checks: Callable  # (workload, work dir, seed, set-up digests) -> [(name, thunk)]
    config: dict = None  # TrainConfig fields written to train.cfg
    pairs: bool = False  # write a pair protocol CSV at set-up
    expected_failures: frozenset = field(default_factory=frozenset)

    @property
    def n_records(self):
        return self.spec["n_identities"] * self.spec["samples_per_identity"]


def synth_argv(workload, seed):
    argv = ["synth", "--out", "corpus.fds", "--seed", str(seed)]
    if workload.spec != DESK_SPEC:  # the desk corpus is synth's default
        argv[1:1] = ["--spec", "spec.txt"]
    return argv


def write_inputs(workload, work):
    """Spec and config files; they do not depend on the seed."""
    (work / "spec.txt").write_text("".join("%s=%s\n" % kv for kv in workload.spec.items()))
    if workload.config is not None:
        (work / "train.cfg").write_text(
            "".join("%s=%s\n" % kv for kv in workload.config.items()))


def write_pairs(path, spec, seed, per_identity=100, impostor_ratio=3):
    """A pair protocol CSV built from the corpus layout alone: identity i
    owns records i*s .. i*s+s-1 and has attribute 1 - i mod 2. Genuine
    pairs are two distinct records of one identity; impostor pairs join two
    identities of the same attribute."""
    n, s = spec["n_identities"], spec["samples_per_identity"]
    rng = np.random.default_rng([seed, 1])
    ident = np.repeat(np.arange(n), per_identity)
    first = rng.integers(0, s, ident.size)
    second = rng.integers(0, s - 1, ident.size)
    second += second >= first
    imp = rng.integers(0, n, impostor_ratio * ident.size)
    other = (imp + 2 * rng.integers(1, n // 2, imp.size)) % n  # same parity, other identity
    table = np.column_stack([
        np.concatenate([ident * s + first, imp * s + rng.integers(0, s, imp.size)]),
        np.concatenate([ident * s + second, other * s + rng.integers(0, s, imp.size)]),
        np.concatenate([np.ones(ident.size, np.int64), np.zeros(imp.size, np.int64)]),
    ])
    np.savetxt(path, table, fmt="%d", delimiter=",", header="index_a,index_b,genuine",
               comments="")


def _probe(label, data, seed):
    return (label, ["probe", "--data", data, "--report", label + ".csv", "--seed", str(seed)])


def _eval(label, data, seed, *extra):
    return (label, ["eval", "--data", data, "--fprs", ",".join("%g" % f for f in FPRS),
                    "--report", label + ".csv", "--seed", str(seed), *extra])


def _train(seed, config):
    argv = ["train", "--data", "corpus.fds", "--out", "model.agnd", "--log", "train.csv",
            "--seed", str(seed)]
    return ("train", argv + (["--config", "train.cfg"] if config else []))


TRANSFORM = ("transform", ["transform", "--ckpt", "model.agnd", "--data", "corpus.fds",
                           "--out", "suppressed.fds"])
CORRPCA_FIT = ("corrpca_fit", ["corrpca", "--fit", "corpus.fds", "--delta", str(DELTA),
                               "--out", "subspace.cpca", "--spectrum", "spectrum.csv"])
CORRPCA_APPLY = ("corrpca_apply", ["corrpca", "--apply", "corpus.fds", "--subspace",
                                   "subspace.cpca", "--out", "projected.fds"])


def _desk_steps(seed):
    return [
        _train(seed, None), TRANSFORM,
        _probe("probe_raw", "corpus.fds", seed),
        _probe("probe_suppressed", "suppressed.fds", seed),
        _eval("eval_raw", "corpus.fds", seed),
        _eval("eval_suppressed", "suppressed.fds", seed),
        CORRPCA_FIT, CORRPCA_APPLY,
    ]


def _fullscale_steps(seed):
    return [
        _train(seed, FULLSCALE_SCHEDULE), TRANSFORM,
        _probe("probe_raw", "corpus.fds", seed),
        _probe("probe_suppressed", "suppressed.fds", seed),
    ]


TPE_REPEATS = 2
TPE_ITERATIONS = 2000


def _baseline_steps(seed):
    return [
        CORRPCA_FIT, CORRPCA_APPLY,
        ("tpe_train", ["tpe", "--train", "corpus.fds", "--out", "embed.tpe", "--repeats",
                       str(TPE_REPEATS), "--iterations", str(TPE_ITERATIONS),
                       "--seed", str(seed)]),
        ("tpe_apply", ["tpe", "--apply", "corpus.fds", "--matrix", "embed.tpe",
                       "--out", "embedded.fds"]),
        _probe("probe_projected", "projected.fds", seed),
        _eval("eval_generated", "embedded.fds", seed),
        _eval("eval_pairs", "embedded.fds", seed, "--pairs", "pairs.csv"),
    ]


def _synth_check(w, work, digests):
    return ("synth", lambda: c.check_synth(
        work / "corpus.fds", w.spec["n_identities"], w.spec["samples_per_identity"],
        w.spec["dim"], digests))


def _train_checks(w, work):
    schedule = dict(DEFAULT_SCHEDULE, **(w.config or {}))
    return [
        ("train", lambda: c.check_train(work / "model.agnd", work / "train.csv", schedule,
                                        w.spec["dim"])),
        ("transform", lambda: c.check_transform(work / "corpus.fds", work / "model.agnd",
                                                work / "suppressed.fds")),
        ("probe_raw", lambda: c.check_probe(work / "probe_raw.csv", w.n_records, 85.0)),
        ("probe_suppressed", lambda: c.check_probe(work / "probe_suppressed.csv",
                                                   w.n_records)),
    ]


def _generated_eval(name, work, data, seed):
    def run():
        return c.check_eval(work / (name + ".csv"), work / data,
                            c.program_pairs(c.read_fds(work / data), seed), FPRS)
    return (name, run)


def _corrpca_check(work):
    return ("corrpca", lambda: c.check_corrpca(
        work / "corpus.fds", work / "subspace.cpca", work / "spectrum.csv",
        work / "projected.fds", DELTA))


def _desk_checks(w, work, seed, digests):
    return [_synth_check(w, work, digests)] + _train_checks(w, work) + [
        _generated_eval("eval_raw", work, "corpus.fds", seed),
        _generated_eval("eval_suppressed", work, "suppressed.fds", seed),
        _corrpca_check(work),
        ("leakage_drop", lambda: c.check_leakage_drop(work / "probe_raw.csv",
                                                      work / "probe_suppressed.csv")),
    ]


def _fullscale_checks(w, work, seed, digests):
    return [_synth_check(w, work, digests)] + _train_checks(w, work)


def _baseline_checks(w, work, seed, digests):
    return [
        _synth_check(w, work, digests),
        _corrpca_check(work),
        ("tpe", lambda: c.check_tpe(work / "corpus.fds", work / "embed.tpe",
                                    work / "embedded.fds")),
        ("probe_projected", lambda: c.check_probe(work / "probe_projected.csv", w.n_records)),
        _generated_eval("eval_generated", work, "embedded.fds", seed),
        ("eval_pairs", lambda: c.check_eval(work / "eval_pairs.csv", work / "embedded.fds",
                                            c.read_pairs(work / "pairs.csv"), FPRS)),
    ]


DESK_SPEC = dict(n_identities=200, samples_per_identity=50, dim=64)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "desk_pipeline",
            "README quick start at defaults; per-call overhead in nets and Adam, 256-d eval RSS",
            DESK_SPEC, _desk_steps, _desk_checks,
            # Fails on every seed: the default schedule does not suppress the
            # attribute (probe accuracy moves by well under a point).
            expected_failures=frozenset({"leakage_drop"}),
        ),
        Workload(
            "fullscale_train",
            "paper shapes (512-d, batch 400, k 5) on a short schedule; BLAS-bound training",
            dict(DESK_SPEC, dim=512), _fullscale_steps, _fullscale_checks,
            config=FULLSCALE_SCHEDULE,
        ),
        Workload(
            "baselines_eval",
            "corrpca and TPE without training; eigh-bound fits and both eval protocol paths",
            dict(DESK_SPEC, dim=160), _baseline_steps, _baseline_checks, pairs=True,
        ),
    )
}
