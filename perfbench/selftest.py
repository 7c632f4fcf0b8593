"""Show that every output check accepts the program's output and rejects a
wrong one.

Run from the repository root: python3 perfbench/selftest.py

Runs a miniature pipeline (20 identities x 10 samples, 16-d, a few dozen
training iterations), requires every check to pass on its outputs, then
corrupts one output at a time (a flipped sign, a nudged TPR, a swapped
eigenvalue, ...) and requires the matching check to fail. It also requires
BENCHMARK.json to name exactly the metrics the benchmark prints. Prints one
line per case and exits non-zero if any case goes the wrong way.
"""

import json
import math
import shutil
import struct
import sys
import time
from pathlib import Path

import checks as c
import layers
import workloads as wl
from oracles import OracleError
from run import Runner

SPEC = dict(n_identities=20, samples_per_identity=10, dim=16, attribute_strength=0.6)
CONFIG = dict(k=2, t_fc=60, t_gtrain=10, t_deb=10, t_plat=5, n_ep=3, batch_size=32,
              g_thresh=0.9, lam=10.0)
SEED = 3
N = SPEC["n_identities"] * SPEC["samples_per_identity"]
FDS_HEAD = 20


def pipeline(work):
    (work / "spec.txt").write_text("".join("%s=%s\n" % kv for kv in SPEC.items()))
    (work / "train.cfg").write_text("".join("%s=%s\n" % kv for kv in CONFIG.items()))
    wl.write_pairs(work / "pairs.csv", SPEC, SEED, per_identity=20)
    runner = Runner(Path.cwd() / "src", work, 1, False, time.monotonic() + 300)
    steps = [
        ("synth", ["synth", "--spec", "spec.txt", "--out", "corpus.fds", "--seed", str(SEED)]),
        ("train", ["train", "--data", "corpus.fds", "--config", "train.cfg",
                   "--out", "model.agnd", "--log", "train.csv", "--seed", str(SEED)]),
        wl.TRANSFORM,
        ("probe_raw", ["probe", "--data", "corpus.fds", "--report", "probe_raw.csv"]),
        ("probe_suppressed", ["probe", "--data", "suppressed.fds",
                              "--report", "probe_suppressed.csv"]),
        ("eval_raw", ["eval", "--data", "corpus.fds", "--fprs", "0.01,0.1",
                      "--report", "eval_raw.csv", "--seed", str(SEED)]),
        ("eval_pairs", ["eval", "--data", "corpus.fds", "--fprs", "0.01,0.1",
                        "--pairs", "pairs.csv", "--report", "eval_pairs.csv"]),
        wl.CORRPCA_FIT, wl.CORRPCA_APPLY,
        ("tpe_train", ["tpe", "--train", "corpus.fds", "--out", "embed.tpe",
                       "--repeats", "2", "--iterations", "50"]),
        ("tpe_apply", ["tpe", "--apply", "corpus.fds", "--matrix", "embed.tpe",
                       "--out", "embedded.fds"]),
    ]
    for label, argv in steps:
        runner.run(label, argv)


def check_table(work):
    """check name -> thunk, over the miniature pipeline's files."""
    fprs = (0.01, 0.1)
    schedule = dict(wl.DEFAULT_SCHEDULE, **CONFIG)
    f = lambda name: work / name  # noqa: E731
    return {
        "synth": lambda: c.check_synth(f("corpus.fds"), SPEC["n_identities"],
                                       SPEC["samples_per_identity"], SPEC["dim"]),
        "train": lambda: c.check_train(f("model.agnd"), f("train.csv"), schedule, SPEC["dim"]),
        "transform": lambda: c.check_transform(f("corpus.fds"), f("model.agnd"),
                                               f("suppressed.fds")),
        "probe_raw": lambda: c.check_probe(f("probe_raw.csv"), N, 85.0),
        "probe_suppressed": lambda: c.check_probe(f("probe_suppressed.csv"), N),
        "eval_generated": lambda: c.check_eval(
            f("eval_raw.csv"), f("corpus.fds"),
            c.program_pairs(c.read_fds(f("corpus.fds")), SEED), fprs),
        "eval_pairs": lambda: c.check_eval(f("eval_pairs.csv"), f("corpus.fds"),
                                           c.read_pairs(f("pairs.csv")), fprs),
        "corrpca": lambda: c.check_corrpca(f("corpus.fds"), f("subspace.cpca"),
                                           f("spectrum.csv"), f("projected.fds"), wl.DELTA),
        "tpe": lambda: c.check_tpe(f("corpus.fds"), f("embed.tpe"), f("embedded.fds")),
    }


# ------------------------------------------------------------ corruptions


def _patch_f32(offset, fn):
    def mutate(data):
        (value,) = struct.unpack_from("<f", data, offset)
        return data[:offset] + struct.pack("<f", fn(value)) + data[offset + 4:]
    return mutate


def _patch_f64(offset, fn):
    def mutate(data):
        (value,) = struct.unpack_from("<d", data, offset)
        return data[:offset] + struct.pack("<d", fn(value)) + data[offset + 8:]
    return mutate


def _set_byte(offset, fn):
    def mutate(data):
        return data[:offset] + bytes([fn(data[offset])]) + data[offset + 1:]
    return mutate


def _lines(fn):
    def mutate(data):
        return "".join(fn(data.decode().splitlines(keepends=True))).encode()
    return mutate


def _edit_rows(predicate, edit):
    """Apply ``edit`` (list of cells -> list) to the first CSV row matching."""
    def fn(lines):
        for i, line in enumerate(lines):
            if not line.startswith("#") and predicate(line.rstrip("\n").split(",")):
                lines[i] = ",".join(edit(line.rstrip("\n").split(","))) + "\n"
                return lines
        raise AssertionError("no row to edit")
    return _lines(fn)


def _set_metric(name, value):
    return _edit_rows(lambda row: row[0] == name, lambda row: [row[0], value])


def _swap_first_last_eigenvalue(lines):
    body = [i for i, line in enumerate(lines) if line[0].isdigit()]
    first, last = lines[body[0]].split(","), lines[body[-1]].split(",")
    first[1], last[1] = last[1], first[1]
    lines[body[0]], lines[body[-1]] = ",".join(first), ",".join(last)
    return lines


def _swap_flags(data):
    dim = SPEC["dim"]
    flags = bytearray(data[12 + 8 * dim:12 + 9 * dim])
    kept, dropped = flags.index(1), flags.index(0)
    flags[kept], flags[dropped] = 0, 1
    return data[:12 + 8 * dim] + bytes(flags) + data[12 + 9 * dim:]


def _reverse_stage1_l_class(lines):
    rows = [i for i, line in enumerate(lines) if line.split(",")[1:2] == ["1"]]
    values = [lines[i].split(",")[3] for i in rows]
    for i, value in zip(rows, reversed(values)):
        cells = lines[i].split(",")
        cells[3] = value
        lines[i] = ",".join(cells)
    return lines


def _drop_stage3_row(lines):
    idx = next(i for i, line in enumerate(lines) if line.split(",")[1:2] == ["3"])
    return lines[:idx] + lines[idx + 1:]


def _move_stage4_stop(lines):
    """Make episode 0's stage 4 stop one row off from where g_thresh says."""
    rows = [i for i, line in enumerate(lines) if line.split(",")[:2] == ["0", "4"]]
    last = lines[rows[-1]].rstrip("\n").split(",")
    if float(last[7]) > CONFIG["g_thresh"]:  # stopped past g_thresh: claim it did not
        last[7] = "0.5"
        lines[rows[-1]] = ",".join(last) + "\n"
    else:  # ran to t_plat: claim the first check passed
        first = lines[rows[0]].rstrip("\n").split(",")
        first[7] = "0.95"
        lines[rows[0]] = ",".join(first) + "\n"
    return lines


def _move_threshold(lines):
    for i, line in enumerate(lines):
        if line.startswith("# group=male"):
            head, rest = line.split("threshold=", 1)
            value, tail = rest.split(" ", 1)
            lines[i] = "%sthreshold=%r %s" % (head, float(value) + 1e-6, tail)
            return lines
    raise AssertionError("no threshold line")


def _nudge(delta):
    return lambda cell: repr(float(cell) + delta)


CORRUPTIONS = [
    # (check, file, what, mutation)
    ("synth", "corpus.fds", "attribute byte of record 0 flipped",
     _set_byte(FDS_HEAD + 8, lambda b: 1 - b)),
    ("train", "model.agnd", "checkpoint cut by one f64", lambda d: d[:-8]),
    ("train", "train.csv", "one stage-3 row dropped", _lines(_drop_stage3_row)),
    ("train", "train.csv", "a stage-3 l_deb below ln 2",
     _edit_rows(lambda r: r[1] == "3", lambda r: r[:4] + ["0.5"] + r[5:])),
    ("train", "train.csv", "stage-1 l_class rising", _lines(_reverse_stage1_l_class)),
    ("train", "train.csv", "stage 4 stopping off the g_thresh rule", _lines(_move_stage4_stop)),
    ("transform", "suppressed.fds", "one output value with its sign flipped",
     _patch_f32(FDS_HEAD + 9, lambda v: -v if v else 1.0)),
    ("transform", "suppressed.fds", "identity of record 0 changed",
     _set_byte(FDS_HEAD, lambda b: b ^ 1)),
    ("probe_raw", "probe_raw.csv", "raw accuracy 80%", _set_metric("overall_accuracy_pct", "80.0")),
    ("probe_suppressed", "probe_suppressed.csv", "test size off by one",
     _edit_rows(lambda r: r[0] == "test_size", lambda r: [r[0], str(int(r[1]) + 1)])),
    ("eval_generated", "eval_raw.csv", "TPR_m nudged by 0.01",
     _edit_rows(lambda r: r[0] == "0.01", lambda r: [r[0], _nudge(0.01)(r[1]), r[2],
                                                     repr(abs(float(r[1]) + 0.01 - float(r[2])))])),
    ("eval_generated", "eval_raw.csv", "bias not |TPR_m - TPR_f|",
     _edit_rows(lambda r: r[0] == "0.1", lambda r: r[:3] + [_nudge(1e-3)(r[3])])),
    ("eval_pairs", "eval_pairs.csv", "male threshold moved by 1e-6", _lines(_move_threshold)),
    ("corrpca", "spectrum.csv", "first and last eigenvalue swapped",
     _lines(_swap_first_last_eigenvalue)),
    ("corrpca", "subspace.cpca", "first retained row scaled by 1.001",
     _patch_f64(12 + 9 * SPEC["dim"], lambda v: v * 1.001)),
    ("corrpca", "subspace.cpca", "a retained and a removed flag swapped", _swap_flags),
    ("corrpca", "projected.fds", "one projected value with its sign flipped",
     _patch_f32(FDS_HEAD + 9, lambda v: -v if v else 1.0)),
    ("tpe", "embed.tpe", "a NaN in the matrix", _patch_f64(12, lambda v: math.nan)),
    ("tpe", "embedded.fds", "one applied value nudged by 1e-3",
     _patch_f32(FDS_HEAD + 9, lambda v: v + 1e-3)),
]


def rejects(check, path, mutate):
    original = path.read_bytes()
    path.write_bytes(mutate(original))
    try:
        check()
    except (c.CheckFailed, OracleError):
        return True
    finally:
        path.write_bytes(original)
    return False


def leakage_cases(work):
    raw = float(c.read_kv_report(work / "probe_raw.csv")["overall_accuracy_pct"])
    target = work / "probe_suppressed.csv"
    cases = []
    for drop, should_pass in ((15.0, True), (5.0, False)):
        rewritten = _set_metric("overall_accuracy_pct", repr(raw - drop))
        original = target.read_bytes()
        target.write_bytes(rewritten(original))
        try:
            c.check_leakage_drop(work / "probe_raw.csv", target)
            passed = True
        except c.CheckFailed:
            passed = False
        finally:
            target.write_bytes(original)
        cases.append(("leakage_drop with a %g-point drop %s" % (
            drop, "passes" if should_pass else "fails"), passed == should_pass))
    return cases


def declared_metrics():
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    return [
        ("BENCHMARK.json end-to-end metrics match run.py",
         e2e == {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MiB"}),
        ("BENCHMARK.json per-layer metrics match layers.PER_LAYER",
         per_layer == layers.PER_LAYER),
        ("BENCHMARK.json workloads match workloads.WORKLOADS", workloads == set(wl.WORKLOADS)),
    ]


def main():
    if not (Path.cwd() / "src" / "agenda" / "cli.py").is_file():
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path.cwd() / "src"))
    work = Path.cwd() / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pipeline(work)
        table = check_table(work)
        cases = []
        for name, check in table.items():
            try:
                check()
                cases.append(("%s accepts the program's output" % name, True))
            except (c.CheckFailed, OracleError) as exc:
                cases.append(("%s accepts the program's output (%s)" % (name, exc), False))
        for name, filename, what, mutate in CORRUPTIONS:
            cases.append(("%s rejects: %s" % (name, what),
                          rejects(table[name], work / filename, mutate)))
        cases += leakage_cases(work)
        cases += declared_metrics()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for label, ok in cases:
        print("%s %s" % ("PASS" if ok else "FAIL", label))
    bad = sum(1 for _, ok in cases if not ok)
    print("%d of %d cases pass" % (len(cases) - bad, len(cases)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
