"""Run one ``agenda`` subcommand in-process with its layers timed.

Usage: python3 perfbench/tracer.py OUT.json SUBCOMMAND [ARGS...]

The program must be importable (``src`` on PYTHONPATH). Public functions
of every layer are wrapped where their callers look them up: a module that
imported a function by name (``from .linalg import eigh``) gets the wrapper
under that name too. Trainer stages are timed through the public
``stage_hook`` of ``trainer.train``. Spans are folded into per-name totals
(calls, inclusive seconds, self seconds) in memory and written to OUT.json
when the command returns; self time is a span's duration minus the time
covered by its child spans. The exit code is the command's.
"""

import importlib
import json
import os
import sys
import time
from collections import defaultdict

# Public functions timed per layer module of the ``agenda`` package.
TARGETS = {
    "synthgen": ("generate",),
    "dataio": ("read_dataset", "write_dataset"),
    "nets": (
        "generator_forward", "generator_backward", "classifier_forward",
        "classifier_backward", "discriminator_forward", "discriminator_backward",
        "adam_step", "save_checkpoint", "load_checkpoint",
    ),
    "losses": (
        "l_class", "l_class_grad", "l_g_member", "l_g_member_grad", "l_g",
        "l_a", "l_a_grad", "l_deb", "l_br",
    ),
    "trainer": ("train", "transform"),
    "linalg": ("covariance", "eigh", "spearman"),
    "corrpca": ("fit", "project", "correlation_spectrum", "save_subspace", "load_subspace"),
    "probe": ("probe_train", "probe_eval"),
    "verification": ("make_pairs", "read_pairs_csv", "score_pairs", "tpr_at_fpr", "evaluate"),
    "tpe": ("tpe_train", "tpe_train_single", "init_matrix", "tpe_apply", "save_tpe", "load_tpe"),
}

FROZEN_STAGES = (2, 4)  # stages that run the generator without updating it


class Tracer:
    """Span stack plus per-name totals and free-form counters."""

    def __init__(self):
        self.stack = [["", 0.0, 0.0]]  # name, start, time covered by children
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive, self
        self.counts = defaultdict(int)
        self.stage = None

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        name, start, covered = self.stack.pop()
        duration = end - start
        self.stack[-1][2] += duration
        row = self.spans[name]
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered

    def wrap(self, name, func, after=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def stage_hook(self, event, episode, stage, gen, cls, ensemble):
        if event == "start":
            self.enter("trainer.stage%d" % stage)
            self.stage = stage
        else:
            self.stage = None
            self.exit()

    def table(self):
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts)}


def _rebind(original, replacement):
    """Point every ``agenda`` module attribute bound to ``original`` at
    ``replacement``, so name imports are covered as well as module lookups."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "agenda" or mod_name.startswith("agenda."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer):
    counts = tracer.counts

    def count_read(args, kwargs, result):
        counts["dataio.bytes_read"] += os.path.getsize(args[0])

    def count_written(args, kwargs, result):
        counts["dataio.bytes_written"] += os.path.getsize(args[1])

    def count_frozen_rows(args, kwargs, result):
        if tracer.stage in FROZEN_STAGES:
            counts["nets.generator_forward_frozen_rows"] += len(result[0])

    def count_pairs(args, kwargs, result):
        counts["verification.pairs"] += len(result[0])

    def count_stage4(args, kwargs, result):
        log = result[3]
        counts["trainer.stage4_iterations"] += sum(1 for r in log.records if r.stage == 4)

    after = {
        "dataio.read_dataset": count_read,
        "dataio.write_dataset": count_written,
        "nets.generator_forward": count_frozen_rows,
        "verification.score_pairs": count_pairs,
        "trainer.train": count_stage4,
    }
    for layer, names in TARGETS.items():
        module = importlib.import_module("agenda." + layer)
        for fname in names:
            key = "%s.%s" % (layer, fname)
            original = getattr(module, fname)
            _rebind(original, tracer.wrap(key, original, after.get(key)))

    trainer = sys.modules["agenda.trainer"]
    traced_train = trainer.train

    def train_with_hook(dataset, config, stage_hook=None):
        return traced_train(dataset, config, stage_hook=tracer.stage_hook)

    _rebind(traced_train, train_with_hook)

    # The trainer's own identity split gives the training-split size that
    # the frozen-generator row count is read against.
    split = trainer.split_by_identity

    def split_counted(*args, **kwargs):
        main, heldout = split(*args, **kwargs)
        counts["trainer.train_split_records"] += len(main)
        return main, heldout

    trainer.split_by_identity = split_counted


def main(argv):
    if len(argv) < 2:
        print("usage: tracer.py OUT.json SUBCOMMAND [ARGS...]", file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[1:]
    from agenda import cli

    tracer = Tracer()
    install(tracer)
    tracer.enter("cli.main")
    try:
        code = cli.main(command)
    finally:
        tracer.exit()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.table(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
