"""Per-layer metrics from the traced run.

``PER_LAYER`` fixes every metric's name and unit; BENCHMARK.json lists the
same names. ``layer_metrics`` folds the tables written by ``tracer.py``
(one per traced step) and the step timings into those metrics. A layer a
workload never calls reads 0.

Function metrics (``<layer>.<function>_s``) are inclusive times: what a
caller pays, children included. ``<layer>.self_s`` is the layer's self
time, its spans minus the time their child spans cover, so the self times
of all layers add up to the traced in-process time without overlap.
"""

from collections import defaultdict

SUBCOMMANDS = ("synth", "train", "transform", "probe", "eval", "corrpca", "tpe")
NET_CALLS = ("generator_forward", "generator_backward", "classifier_forward",
             "classifier_backward", "discriminator_forward", "discriminator_backward",
             "adam_step")
SELF_LAYERS = ("dataio", "nets", "trainer", "linalg", "corrpca", "probe", "verification",
               "tpe", "cli")

# metric name -> (unit, kind, key). Kinds: "total" (inclusive seconds of a
# span), "calls" and "self" of a span, "count" (a tracer counter), and
# "layer_self" / "layer_calls" summed over every span of a layer.
_SOURCES = {}
for _i in range(1, 5):
    _SOURCES["trainer.stage%d_s" % _i] = ("s", "total", "trainer.stage%d" % _i)
_SOURCES.update({
    "trainer.stage4_iterations": ("count", "count", "trainer.stage4_iterations"),
    "trainer.train_split_records": ("records", "count", "trainer.train_split_records"),
    "trainer.transform_s": ("s", "total", "trainer.transform"),
})
for _name in NET_CALLS:
    _SOURCES["nets.%s_s" % _name] = ("s", "total", "nets." + _name)
    _SOURCES["nets.%s_calls" % _name] = ("count", "calls", "nets." + _name)
_SOURCES.update({
    "nets.generator_forward_frozen_rows": ("rows", "count", "nets.generator_forward_frozen_rows"),
    "nets.save_checkpoint_s": ("s", "total", "nets.save_checkpoint"),
    "nets.load_checkpoint_s": ("s", "total", "nets.load_checkpoint"),
    "losses.total_s": ("s", "layer_self", "losses"),
    "losses.calls": ("count", "layer_calls", "losses"),
    "dataio.read_dataset_s": ("s", "total", "dataio.read_dataset"),
    "dataio.write_dataset_s": ("s", "total", "dataio.write_dataset"),
    "dataio.bytes_read": ("bytes", "count", "dataio.bytes_read"),
    "dataio.bytes_written": ("bytes", "count", "dataio.bytes_written"),
    "linalg.eigh_s": ("s", "total", "linalg.eigh"),
    "linalg.eigh_calls": ("count", "calls", "linalg.eigh"),
    "linalg.spearman_s": ("s", "total", "linalg.spearman"),
    "linalg.spearman_calls": ("count", "calls", "linalg.spearman"),
    "linalg.covariance_s": ("s", "total", "linalg.covariance"),
    "corrpca.fit_s": ("s", "total", "corrpca.fit"),
    "corrpca.correlation_spectrum_s": ("s", "total", "corrpca.correlation_spectrum"),
    "corrpca.project_s": ("s", "total", "corrpca.project"),
    "tpe.init_matrix_s": ("s", "total", "tpe.init_matrix"),
    "tpe.init_matrix_calls": ("count", "calls", "tpe.init_matrix"),
    "tpe.train_single_calls": ("count", "calls", "tpe.tpe_train_single"),
    "tpe.sgd_s": ("s", "self", "tpe.tpe_train_single"),
    "verification.make_pairs_s": ("s", "total", "verification.make_pairs"),
    "verification.read_pairs_csv_s": ("s", "total", "verification.read_pairs_csv"),
    "verification.score_pairs_s": ("s", "total", "verification.score_pairs"),
    "verification.tpr_at_fpr_s": ("s", "total", "verification.tpr_at_fpr"),
    "verification.pairs": ("pairs", "count", "verification.pairs"),
    "probe.probe_train_s": ("s", "total", "probe.probe_train"),
    "probe.probe_eval_s": ("s", "total", "probe.probe_eval"),
    "synthgen.generate_s": ("s", "total", "synthgen.generate"),
})
for _layer in SELF_LAYERS:
    _SOURCES["%s.self_s" % _layer] = ("s", "layer_self", _layer)

PER_LAYER = {name: unit for name, (unit, _, _) in _SOURCES.items()}
for _sub in SUBCOMMANDS:
    PER_LAYER["cli.%s_s" % _sub] = "s"
    PER_LAYER["cli.%s.peak_rss_mb" % _sub] = "MiB"
PER_LAYER.update({
    "cli.eval.pairs_per_s": "pairs/s",
    "trace.pipeline_s": "s",
    "trace.in_process_share": "ratio",
})


def merge(tables):
    """Sum the span rows and counters of several tracer tables."""
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(int)
    for table in tables:
        for name, row in table["spans"].items():
            acc = spans[name]
            for i, value in enumerate(row):
                acc[i] += value
        for name, value in table["counts"].items():
            counts[name] += value
    return spans, counts


def _read(spans, counts, kind, key):
    if kind == "count":
        return counts.get(key, 0)
    if kind in ("total", "calls", "self"):
        row = spans.get(key, (0, 0.0, 0.0))
        return row[("calls", "total", "self").index(kind)]
    prefix = key + "."
    column = 0 if kind == "layer_calls" else 2
    return sum(row[column] for name, row in spans.items() if name.startswith(prefix))


def layer_metrics(setup_steps, pipeline_steps):
    """Per-layer metrics from traced steps (each with ``subcommand``,
    ``wall_s``, ``peak_rss_mb`` and ``table``). Set-up steps count toward
    the layers but not toward ``trace.pipeline_s``."""
    steps = list(setup_steps) + list(pipeline_steps)
    spans, counts = merge(s.table for s in steps)
    out = {name: _read(spans, counts, kind, key) for name, (_, kind, key) in _SOURCES.items()}
    for sub in SUBCOMMANDS:
        mine = [s for s in steps if s.subcommand == sub]
        out["cli.%s_s" % sub] = sum(s.wall_s for s in mine)
        out["cli.%s.peak_rss_mb" % sub] = max((s.peak_rss_mb for s in mine), default=0.0)
    eval_s = sum(s.wall_s for s in pipeline_steps if s.subcommand == "eval")
    out["cli.eval.pairs_per_s"] = counts.get("verification.pairs", 0) / eval_s if eval_s else 0.0
    pipeline_s = sum(s.wall_s for s in pipeline_steps)
    in_process = sum(s.table["spans"]["cli.main"][1] for s in pipeline_steps)
    out["trace.pipeline_s"] = pipeline_s
    out["trace.in_process_share"] = in_process / pipeline_s
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}
