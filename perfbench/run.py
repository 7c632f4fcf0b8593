"""Benchmark the ``agenda`` CLI end to end, or layer by layer when traced.

Run from the repository root:

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 1 --trace 0

The run builds its inputs from ``--seed`` in a scratch directory under
``.bench_work/``, repeats set-up (corpus synthesis, plus the pair CSV where
the workload has one) and reports its median, then runs whole rounds of the
workload's CLI steps until at least ``--seconds`` have passed, checking
every output of every round. Each step is its own process with the BLAS
thread count set to BLAS_THREADS (1); its wall time and peak RSS
come from ``os.wait4``.

The shared machine this was built on changes speed by up to 1.6x within
seconds. So each step of an untraced run goes through ``sampler.py``,
which samples the CPU speed the step gets while it runs, and its time is
also reported at reference speed: wall time x SAMPLE_REF_S / the step's
median speed sample. ``pipeline_s`` and ``setup_s`` are reference-speed
seconds; the wall times are in the line before the result.

With ``--trace 0`` the metrics are the end-to-end ones (tracing off). With
``--trace 1`` each step runs through ``tracer.py`` instead, which calls
``agenda.cli.main`` in-process with every layer's public functions timed,
and the metrics are the per-layer ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it holds the
machine facts, per-step figures, check results and quality figures. An
operation is one CLI step or one output check.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
import workloads
from checks import CheckFailed
from oracles import OracleError, digest

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0  # every step is killed past this point of the run
# One BLAS thread per step: with two threads on two shared cores, a thread
# waiting for a busy core stalls the other. On the reference machine two
# threads gave run-to-run spreads of about +-15 %, one thread about +-5 %.
BLAS_THREADS = 1
# The median ``sampler`` sample time on the reference machine (README), so
# a reference-speed second is about a wall second there.
SAMPLE_REF_S = 0.0008


def reference_seconds(wall_s, speed_s):
    """Wall seconds at the reference speed, given the median speed sample."""
    return wall_s * SAMPLE_REF_S / speed_s


@dataclass
class Step:
    label: str
    subcommand: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    speed_s: float = None  # median speed sample, untraced runs only
    table: dict = None  # tracer table, traced runs only

    @property
    def ref_s(self):
        return None if self.speed_s is None else reference_seconds(self.wall_s, self.speed_s)


class StepFailed(RuntimeError):
    pass


class Runner:
    """Runs CLI steps one at a time in child processes."""

    def __init__(self, src, work, threads, trace, deadline):
        self.work = work
        self.trace = trace
        self.deadline = deadline
        self.env = dict(os.environ)
        paths = [str(src), os.environ.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)

    def run(self, label, argv):
        out = self.work / ("%s.%s.json" % (label, "trace" if self.trace else "speed"))
        script = "tracer.py" if self.trace else "sampler.py"
        command = [sys.executable, str(HERE / script), str(out)] + argv
        with open(self.work / ("%s.stderr" % label), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        code = proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if code != 0:
            message = (self.work / ("%s.stderr" % label)).read_text(errors="replace").strip()
            raise StepFailed("%s exited %d: %s" % (label, code, message[-500:]))
        step = Step(label, argv[0], wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)
        if self.trace:
            step.table = json.loads(out.read_text())
        else:
            step.speed_s = statistics.median(json.loads(out.read_text()))
        return step


def machine_facts(threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads_per_step": threads,
    }


def set_up(workload, work, seed, runner):
    """Write the seed-independent inputs once, then time SETUP_REPEATS
    rounds of corpus synthesis (and the pair CSV). Returns the median
    wall and reference-speed times, the digests of every synthesized corpus
    and the first synth step."""
    workloads.write_inputs(workload, work)
    walls, refs, digests, steps = [], [], [], []
    for _ in range(SETUP_REPEATS):
        step = runner.run("synth", workloads.synth_argv(workload, seed))
        wall = step.wall_s
        if workload.pairs:
            start = time.perf_counter()
            workloads.write_pairs(work / "pairs.csv", workload.spec, seed)
            wall += time.perf_counter() - start
        walls.append(wall)
        # the pair CSV is written in this process right after synth, so
        # synth's speed samples stand for it too
        refs.append(None if runner.trace else reference_seconds(wall, step.speed_s))
        steps.append(step)
        digests.append(digest(work / "corpus.fds"))
    setup_s = None if runner.trace else statistics.median(refs)
    return statistics.median(walls), setup_s, digests, steps[:1]


def run_round(workload, work, seed, runner, digests):
    """One pass over the workload's steps, then every check. Returns the
    steps and a list of (check name, figures or None, failure message)."""
    steps = [runner.run(label, argv) for label, argv in workload.steps(seed)]
    results = []
    for name, check in workload.checks(workload, work, seed, digests):
        try:
            results.append((name, check(), None))
        except (CheckFailed, OracleError) as exc:
            results.append((name, None, str(exc)))
    return steps, results


def run(args, root):
    workload = workloads.WORKLOADS[args.workload]
    started = time.monotonic()
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    work = root / ".bench_work" / ("%s-%d" % (workload.name, os.getpid()))
    work.mkdir(parents=True)
    runner = Runner(root / "src", work, threads, args.trace, started + RUN_BUDGET_S)
    rounds, attempted, failed, unexpected = [], 0, 0, []
    setup_wall_s = setup_s = None
    setup_steps = []
    try:
        setup_wall_s, setup_s, digests, setup_steps = set_up(workload, work, args.seed, runner)
        while not rounds or time.monotonic() - started < args.seconds:
            steps, results = run_round(workload, work, args.seed, runner, digests)
            rounds.append((steps, results))
            attempted += len(steps) + len(results)
            for name, _, message in results:
                if message is not None:
                    failed += 1
                    if name not in workload.expected_failures:
                        unexpected.append("%s: %s" % (name, message))
    except StepFailed as exc:
        attempted, failed = attempted + 1, failed + 1
        unexpected.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    info = {"workload": workload.name, "seed": args.seed, "rounds": len(rounds),
            "machine": machine_facts(threads), "setup_s": setup_s,
            "setup_wall_s": setup_wall_s}
    if rounds:
        steps, results = rounds[-1]
        info["pipeline_wall_s"] = statistics.median(
            sum(s.wall_s for s in steps) for steps, _ in rounds)
        info["steps"] = {s.label: {"s": s.wall_s, "cpu_s": s.cpu_s, "speed_s": s.speed_s,
                                   "peak_rss_mb": s.peak_rss_mb}
                         for s in steps}
        info["checks"] = {name: (figures if message is None else "FAILED: " + message)
                          for name, figures, message in results}
    for message in unexpected:
        print("perfbench: %s" % message, file=sys.stderr)
    print(json.dumps(info, sort_keys=True))

    if args.trace and rounds:
        metrics = layers.layer_metrics(setup_steps, rounds[0][0])
    elif rounds:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pipeline_s": {"value": statistics.median(
                sum(s.ref_s for s in steps) for steps, _ in rounds), "unit": "s"},
            "peak_rss_mb": {"value": max(
                s.peak_rss_mb for steps, _ in rounds for s in steps), "unit": "MiB"},
        }
    else:
        metrics = {}
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "agenda" / "cli.py").is_file():
        print("perfbench: no program at src/agenda; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the checks read pair protocols the program makes
    print(json.dumps(run(args, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
