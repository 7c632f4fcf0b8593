"""Run one round of a benchmark workload through two source trees and
list every output file that differs.

Run from the repository root:

    python3 tools/compare_outputs.py PARENT CHANGE --workload W --seed N

PARENT and CHANGE are repository roots; each round runs ``agenda`` from
that root's ``src/``. A round writes the workload's spec and train config
(and its pair CSV, after synthesis), then runs the synth argv and the
workload's ``steps(seed)``, all taken from this repository's
``perfbench/workloads.py``. The ``units`` round, defined here and not in
the benchmark, runs every caller of ``linalg.in_processes`` on the desk
corpus under a short train schedule: ``tpe --train`` with an odd repeat
count, ``sweep`` over three lambdas and two ks, and ``sweep --compare``.
The rounds run in ``WORK/parent`` and
``WORK/change`` (``--work``, default ``.compare_work``), which are kept for
inspection and replaced by the next run. Manifests are compared as JSON
without their timings (``wall_time_s``, ``stage_seconds``); every other file
byte for byte. Beside the diff, a table gives each step's peak RSS in both
trees: the VmHWM that the step's own process reads at its end (Linux), not
``ru_maxrss``, which also counts the pages of the process that started it.
The children of a step that forks units are not counted. A second table
gives the ``stage_seconds`` of the ``train`` manifest in both trees, one
row per stage, where the round trains. The exit status
is 1 if any file differs or exists on one side only, 2 if a step fails, and
0 otherwise.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMINGS = ("wall_time_s", "stage_seconds")
UNITS_CONFIG = dict(n_ep=2, t_fc=200, t_gtrain=60, t_deb=20, t_plat=30)
# Runs ``agenda`` on its argv, then prints this process's VmHWM (kB) last.
STEP = ("import sys; from agenda.cli import main; code = main(sys.argv[1:]); "
        "print(next(line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('VmHWM:'))); sys.exit(code)")


def _units_steps(seed):
    sweep = ["sweep", "--data", "corpus.fds", "--config", "train.cfg", "--seed", str(seed)]
    return [
        ("tpe_train", ["tpe", "--train", "corpus.fds", "--out", "embed.tpe", "--repeats", "3",
                       "--iterations", "200", "--seed", str(seed)]),
        ("sweep_lambdas", sweep + ["--lambdas", "0.1,1,10", "--report", "lambdas.csv"]),
        ("sweep_ks", sweep + ["--ks", "1,2", "--report", "ks.csv"]),
        ("sweep_compare", sweep + ["--compare", "--report", "compare.csv"]),
    ]


def rounds(workloads):
    """Every round by name: the benchmark's workloads and ``units``."""
    units = workloads.Workload("units", "every linalg.in_processes caller",
                               workloads.DESK_SPEC, _units_steps, checks=None,
                               config=UNITS_CONFIG)
    return dict(workloads.WORKLOADS, units=units)


def _manifest(path):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for key in TIMINGS:
        manifest.pop(key, None)
    return manifest


def differing(a, b):
    """Paths, relative to the two directories, of the files that differ
    between ``a`` and ``b`` or exist under one of them only."""
    names = {path.relative_to(root) for root in (a, b) for path in root.rglob("*")
             if path.is_file()}
    found = []
    for name in sorted(names):
        left, right = a / name, b / name
        if not (left.is_file() and right.is_file()):
            same = False
        elif name.name.endswith(".manifest.json"):
            same = _manifest(left) == _manifest(right)
        else:
            same = filecmp.cmp(left, right, shallow=False)
        if not same:
            found.append(str(name))
    return found


def run_round(tree, work, workload, seed):
    """One round of ``workload`` at ``seed`` through ``tree``'s CLI in ``work``;
    returns ``{step: peak RSS in MiB}`` in step order."""
    import workloads

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workloads.write_inputs(workload, work)
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    peaks = {}
    for label, argv in [("synth", workloads.synth_argv(workload, seed))] + workload.steps(seed):
        proc = subprocess.run([sys.executable, "-c", STEP, *argv], cwd=work, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError("%s: %s exited %d: %s"
                               % (tree, label, proc.returncode, proc.stderr.strip()))
        peaks[label] = int(proc.stdout.split()[-1]) / 1024
        if label == "synth" and workload.pairs:
            workloads.write_pairs(work / "pairs.csv", workload.spec, seed)
    return peaks


def peak_table(parent, change):
    """Lines of a table of each step's peak RSS in the two trees."""
    lines = ["%-18s %10s %10s %8s" % ("step", "parent MiB", "change MiB", "diff")]
    for label in parent:
        lines.append("%-18s %10.1f %10.1f %+8.1f" % (label, parent[label], change[label],
                                                    change[label] - parent[label]))
    return lines


def train_stage_seconds(work):
    """``{stage: seconds}`` of the ``train`` manifest under ``work``, or
    None when the round has no ``train`` step."""
    for path in sorted(work.rglob("*.manifest.json")):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if manifest.get("subcommand") == "train":
            return manifest.get("stage_seconds", {})
    return None


def stage_table(parent, change):
    """Lines of a table of each training stage's seconds in the two trees."""
    lines = ["%-18s %10s %10s %8s" % ("stage", "parent s", "change s", "diff")]
    for stage in parent:
        lines.append("%-18s %10.3f %10.3f %+8.3f" % (stage, parent[stage], change[stage],
                                                    change[stage] - parent[stage]))
    return lines


def main(argv=None):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="repository root of the first tree")
    parser.add_argument("change", help="repository root of the second tree")
    workload_rounds = rounds(workloads)
    parser.add_argument("--workload", required=True, choices=sorted(workload_rounds))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, default=Path(".compare_work"),
                        help="directory of the two kept rounds (default %(default)s)")
    args = parser.parse_args(argv)
    workload = workload_rounds[args.workload]
    try:
        peaks = [run_round(getattr(args, side), args.work / side, workload, args.seed)
                 for side in ("parent", "change")]
    except RuntimeError as exc:
        print("compare_outputs: %s" % exc, file=sys.stderr)
        return 2
    for line in peak_table(*peaks):
        print(line)
    seconds = [train_stage_seconds(args.work / side) for side in ("parent", "change")]
    if None not in seconds:
        for line in stage_table(*seconds):
            print(line)
    found = differing(args.work / "parent", args.work / "change")
    for name in found:
        print("differs: %s" % name)
    print("%s at seed %d: %d file(s) differ" % (args.workload, args.seed, len(found)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
