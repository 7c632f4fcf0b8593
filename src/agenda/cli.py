"""One executable, eight subcommands, composable through the dataset format.

Each subcommand writes its outputs and returns ``(options, inputs,
outputs, seed[, extra])``; ``main`` times the run and writes its JSON
manifest from that tuple, next to the primary output (override with
--manifest): the resolved options, inputs/outputs, seed, tool version and
wall time — enough to replay the run exactly. Reports are CSV with '#'
comment lines carrying the same provenance; they contain no timestamps, so
identical manifests produce byte-identical reports.

Exit codes: 0 success, 2 usage error, 3 unreadable/invalid file, 4
violated invariant, numeric failure or a request for more memory than
the machine can give. argparse reports usage errors, a missing mode, an
option without its partner (``--apply`` without ``--subspace``) and an
option the chosen mode ignores (``--spectrum`` without ``--fit``, ``--seed``
where nothing is drawn) among them; every other failure prints a single
machine-parseable line to stderr. A mode option left out takes its default
in the mode that reads it and stays None in the other (``parse_args``).

``sweep`` draws its split, its pairs and every grid point from its base
config's seed. It fits each variant on the identities outside its held-out
``--probe-fraction`` and reads the probe and TPR on the held-out ones.

Every subcommand runs numpy's BLAS on one thread whatever
OPENBLAS_NUM_THREADS says, so its outputs are the same bytes at any BLAS
thread count (a multi-threaded ``eigh`` moves low-order bits); every
manifest records that count as ``blas_threads``. ``train`` (and every
training run of ``sweep``) runs stage 2's member groups, stage 3's
classifier and discriminator lanes and the two row parts of stage 1's
large products on one worker thread per usable core, at most ``max(k, 2)``;
its outputs are the same bytes at any core count. The train manifest
records the worker count and each stage's wall seconds (``stage_seconds``).

``tpe --train`` runs each repeat, and ``sweep`` each grid point or compared
method, as a forked child: at most one per usable core at a time, each
pinned to ``cores // children`` cores, so a training child runs on one
worker thread on a two-core machine (``linalg.in_processes``). The parent
combines the results in unit order, so the outputs are the bytes of one
process running the units in turn, and a child's error exits as it would
in process. Peak RSS is per process; the summed peak of the children is
the figure that meets the machine's memory.
"""

import argparse
import dataclasses
import functools
import math
import sys
import time

from . import __version__, corrpca, linalg, probe, synthgen, tpe, trainer, verification
from .dataio import (
    format_float,
    read_config,
    read_dataset,
    split_by_identity,
    write_csv_report,
    write_dataset,
    write_json,
)
from .errors import AgendaError, DataFormatError, ValidationError
from .nets import load_checkpoint, save_checkpoint

TPE_LOSS_NOTE = "tpe_loss=triplet_probability(-log sigmoid(s_ap - s_an)), dot-product scores"
SWEEP_NOTE = "protocol=fit on one identity side, probe and TPR read on the held-out probe_fraction"
TEST_FRACTION = 0.3  # probe --data


def _add_common(sub, *partners, seeded=True):
    """--manifest, and --seed if ``seeded``. Each of ``partners`` is
    ``(option, partner[, default])``: the option is a usage error without
    its partner, and ``parse_args`` gives it ``default`` with the partner."""
    if seeded:
        sub.add_argument("--seed", type=_seed, help="override the seed of every random draw")
    sub.add_argument("--manifest", help="manifest path (default: <primary output>.manifest.json)")
    sub.set_defaults(partners=partners, usage_error=sub.error)


def _finite_float(text):
    """``float`` for option values, refusing nan and inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("%r is not a finite number" % text)
    return value


def _seed(text):
    """``int`` for --seed, refusing negative values (argparse reports a malformed one)."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError("%r is not a non-negative integer" % text)
    return int(text)


def _parse_list(text, flag, convert=_finite_float):
    try:
        values = [convert(part) for part in text.split(",") if part.strip()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValidationError("%s: %s" % (flag, exc))
    if not values:
        raise ValidationError("%s needs at least one value" % flag)
    return values


def _comment_block(args, seed, options):
    lines = ["tool_version=%s" % __version__, "subcommand=%s" % args.subcommand]
    if seed is not None:
        lines.append("seed=%d" % seed)
    lines += ["%s=%s" % (key, value) for key, value in options]
    return lines


def _write_manifest(args, started, blas_threads, options, inputs, outputs, seed, *extra):
    """The manifest of a run, from what its subcommand returned; ``extra``
    is at most one dict of further top-level keys."""
    write_json(args.manifest or (outputs[0] + ".manifest.json"), dict(
        *extra, tool_version=__version__, subcommand=args.subcommand, options=dict(options),
        inputs=inputs, outputs=outputs, seed=seed, blas_threads=blas_threads,
        wall_time_s=round(time.monotonic() - started, 3)))


def _settings(args, path, cls):
    """The ``cls`` of the key=value file ``path`` (defaults without it)
    under --seed, and the inputs the file adds."""
    settings = read_config(path, cls) if path else cls()
    if args.seed is not None:
        settings.seed = args.seed
    return settings, [path] if path else []


def _cmd_synth(args):
    spec, spec_input = _settings(args, args.spec, synthgen.SynthSpec)
    dataset, metadata = synthgen.generate(spec)
    write_dataset(dataset, args.out)
    meta_path = args.meta or (args.out + ".meta.json")
    write_json(meta_path, metadata)
    return sorted(metadata["spec"].items()), spec_input, [args.out, meta_path], spec.seed


def _cmd_train(args):
    config, config_input = _settings(args, args.config, trainer.TrainConfig)
    dataset = read_dataset(args.data)
    gen, cls, ensemble, log = trainer.train(dataset, config)
    save_checkpoint(args.out, gen, cls, ensemble)
    log_path = args.log or (args.out + ".log.csv")
    log.write_csv(log_path, _comment_block(args, config.seed, config.to_kv()))
    return (config.to_kv(), [args.data] + config_input, [args.out, log_path], config.seed,
            dict(workers=log.workers, stage_seconds={
                stage: round(seconds, 3) for stage, seconds in log.stage_seconds.items()}))


def _cmd_transform(args):
    gen, _, _ = load_checkpoint(args.ckpt)
    write_dataset(trainer.transform(gen, read_dataset(args.data)), args.out)
    return [], [args.ckpt, args.data], [args.out], None


def _cmd_corrpca(args):
    if args.fit is not None:
        subspace = corrpca.fit(read_dataset(args.fit), args.delta)
        corrpca.save_subspace(subspace, args.out)
        outputs = [args.out]
        if args.spectrum:
            rows = [(idx, format_float(ev), format_float(corr))
                    for idx, ev, corr in corrpca.correlation_spectrum(subspace)]
            comments = _comment_block(args, None, [
                ("delta", args.delta), ("retained", subspace.retained_count),
                ("input_dim", subspace.input_dim)])
            write_csv_report(args.spectrum, comments,
                             ("index", "eigenvalue", "abs_spearman"), rows)
            outputs.append(args.spectrum)
        return [("mode", "fit"), ("delta", args.delta)], [args.fit], outputs, None
    subspace = corrpca.load_subspace(args.subspace)
    write_dataset(corrpca.project(subspace, read_dataset(args.apply)), args.out)
    return [("mode", "apply")], [args.apply, args.subspace], [args.out], None


def _cmd_probe(args):
    options = [("epochs", args.epochs), ("rate", args.rate), ("l2", args.l2),
               ("standardized", "per-dimension z-score from the training split")]
    if args.data is not None:
        dataset = read_dataset(args.data)
        train_set, test_set = map(dataset.subset,
                                  split_by_identity(dataset, args.test_fraction, args.seed))
        del dataset  # the splits are all the probe reads
        inputs = [args.data]
        options.append(("test_fraction", args.test_fraction))
    else:
        train_set = read_dataset(args.train)
        test_set = read_dataset(args.test)
        inputs = [args.train, args.test]
    model = probe.probe_train(train_set, args.epochs, args.rate, args.l2)
    report = probe.probe_eval(model, test_set)
    rows = [
        ("overall_accuracy_pct", format_float(report.overall_accuracy)),
        ("females_misclassified_pct", format_float(report.females_misclassified)),
        ("males_misclassified_pct", format_float(report.males_misclassified)),
        ("train_size", train_set.n),
        ("test_size", report.test_size),
    ]
    write_csv_report(args.report, _comment_block(args, args.seed, options),
                     ("metric", "value"), rows)
    return options, inputs, [args.report], args.seed


def _cmd_eval(args):
    fprs = _parse_list(args.fprs, "--fprs")
    verification.check_fpr_targets(fprs)
    dataset = read_dataset(args.data)
    if args.pairs is not None:
        protocol = verification.read_pairs_csv(args.pairs, dataset)
        pair_source = [("pairs", args.pairs)]
        inputs = [args.data, args.pairs]
    else:
        protocol = verification.make_pairs(dataset, args.impostor_ratio, args.seed)
        pair_source = [("pairs", "generated"), ("impostor_ratio", args.impostor_ratio)]
        inputs = [args.data]
    report = verification.evaluate(dataset, protocol, fprs)
    for warning in report.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    verification.write_report_csv(report, args.report, _comment_block(args, args.seed, pair_source))
    return pair_source + [("fprs", args.fprs)], inputs, [args.report], args.seed


def _cmd_tpe(args):
    if args.train is not None:
        options = [(name, getattr(args, name))
                   for name in ("repeats", "iterations", "rate", "batch")]
        w = tpe.tpe_train(read_dataset(args.train), seed=args.seed, **dict(options))
        tpe.save_tpe(w, args.out)
        return options + [("note", TPE_LOSS_NOTE)], [args.train], [args.out], args.seed
    w = tpe.load_tpe(args.matrix)
    write_dataset(tpe.tpe_apply(w, read_dataset(args.apply)), args.out)
    return ([("mode", "apply"), ("note", TPE_LOSS_NOTE)], [args.apply, args.matrix],
            [args.out], None)


def _agenda_fit(config):
    """A sweep ``fit``: train on the fitting side, re-embed through the generator."""
    return lambda fit_set: functools.partial(trainer.transform, trainer.train(fit_set, config)[0])


def _cmd_sweep(args):
    base, config_input = _settings(args, args.config, trainer.TrainConfig)
    dataset = read_dataset(args.data)
    options = [("fpr", args.fpr), ("impostor_ratio", args.impostor_ratio),
               ("probe_fraction", args.probe_fraction), ("note", SWEEP_NOTE)]
    if args.compare:
        fits = [("original", lambda fit_set: lambda data: data),
                ("corrpca", lambda fit_set: functools.partial(
                    corrpca.project, corrpca.fit(fit_set, args.delta))),
                ("agenda", _agenda_fit(base))]
        options += [("mode", "compare"), ("delta", args.delta)]
    else:
        if args.lambdas is not None:
            values = _parse_list(args.lambdas, "--lambdas")
            configs = [("lam=%s" % v, dataclasses.replace(base, lam=v)) for v in values]
            options.append(("lambdas", args.lambdas))
        else:
            values = _parse_list(args.ks, "--ks", int)
            configs = [("k=%d" % v, dataclasses.replace(base, k=v, t_ep=None)) for v in values]
            options.append(("ks", args.ks))
        for _, config in configs:  # fail before the first grid point trains
            config.validate()
        fits = [(label, _agenda_fit(config)) for label, config in configs]
    table = verification.ablation_sweep(dataset, fits, args.fpr, args.impostor_ratio,
                                        base.seed, args.probe_fraction)
    options += base.to_kv()
    write_csv_report(args.report, _comment_block(args, base.seed, options),
                     ("param", "tpr_m", "tpr_f", "bias", "probe_accuracy_pct"),
                     [(label, *map(format_float, values)) for label, *values in table])
    return options, [args.data] + config_input, [args.report], base.seed


def build_parser():
    parser = argparse.ArgumentParser(
        prog="agenda",
        description="Suppress a binary attribute in identity embeddings and "
                    "measure leakage and verification bias.",
        epilog="Full-scale reference hyperparameters (512-d descriptors): "
               "t_fc=66000 alpha1=1e-5, t_gtrain=30000 alpha2=1e-3, "
               "t_deb=1200 alpha3=1e-4, t_plat=2000, batch 400, "
               "g_thresh 0.9 or 0.8, lam 10 or 1, k 1 or 5. Defaults here "
               "are the desk-scale equivalents for 64-d corpora.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("synth", help="generate a synthetic descriptor corpus")
    p.add_argument("--spec", help="key=value file with SynthSpec fields (defaults used if omitted)")
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--meta", help="metadata sidecar path (default <out>.meta.json)")
    _add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("train", help="run the four-stage adversarial training")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="key=value file with TrainConfig fields")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="training log CSV (default <out>.log.csv)")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("transform", help="re-embed a dataset through a trained generator")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_transform)

    p = subs.add_parser("corrpca", help="fit or apply the eigenspace-removal baseline")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fit", help="dataset to fit the subspace on")
    mode.add_argument("--apply", help="dataset to project with --subspace")
    p.add_argument("--delta", type=_finite_float,
                   help="remove eigenvectors with |spearman| >= delta (fit mode, default %s)"
                        % corrpca.DEFAULT_DELTA)
    p.add_argument("--subspace", help="subspace file produced by --fit")
    p.add_argument("--out", required=True, help="subspace file (fit) or dataset (apply)")
    p.add_argument("--spectrum", help="also write the per-eigenvector correlation CSV (fit mode)")
    _add_common(p, ("apply", "subspace"), ("subspace", "apply"), ("spectrum", "fit"),
                ("delta", "fit", corrpca.DEFAULT_DELTA), seeded=False)
    p.set_defaults(func=_cmd_corrpca)

    p = subs.add_parser("probe", help="attribute leakage probe (logistic regression)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--data", help="single dataset; split identity-disjoint internally")
    mode.add_argument("--train", help="training dataset (identity-disjoint from --test)")
    p.add_argument("--test", help="evaluation dataset")
    p.add_argument("--test-fraction", type=_finite_float,
                   help="heldout fraction for --data mode (default %s)" % TEST_FRACTION)
    p.add_argument("--epochs", type=int, default=probe.DEFAULT_EPOCHS)
    p.add_argument("--rate", type=_finite_float, default=probe.DEFAULT_RATE)
    p.add_argument("--l2", type=_finite_float, default=probe.DEFAULT_L2)
    p.add_argument("--report", required=True)
    _add_common(p, ("train", "test"), ("test", "train"),
                ("test_fraction", "data", TEST_FRACTION), ("seed", "data", 0))
    p.set_defaults(func=_cmd_probe)

    p = subs.add_parser("eval", help="group-wise verification TPR@FPR and bias")
    p.add_argument("--data", required=True)
    pairs = p.add_mutually_exclusive_group()
    pairs.add_argument("--pairs", help="protocol CSV (index_a,index_b,genuine); else generated")
    pairs.add_argument("--impostor-ratio", type=_finite_float,
                       default=verification.DEFAULT_IMPOSTOR_RATIO,
                       help="impostor pairs per genuine pair when generating (default %(default)s)")
    p.add_argument("--fprs", default="1e-6,1e-5,1e-4,1e-3",
                   help="comma-separated FPR targets (default %(default)s)")
    p.add_argument("--report", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_eval, seed=0)

    p = subs.add_parser("tpe", help="train or apply the triplet-probability embedding")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--train", help="dataset to train the matrix on")
    mode.add_argument("--apply", help="dataset to project with --matrix")
    p.add_argument("--matrix", help="matrix file for --apply")
    p.add_argument("--out", required=True, help="matrix file (train) or dataset (apply)")
    p.add_argument("--repeats", type=int, help="train mode, default %s" % tpe.DEFAULT_REPEATS)
    p.add_argument("--iterations", type=int, help="train mode, default %s" % tpe.DEFAULT_ITERATIONS)
    p.add_argument("--rate", type=_finite_float, help="train mode, default %s" % tpe.DEFAULT_RATE)
    p.add_argument("--batch", type=int, help="train mode, default %s" % tpe.DEFAULT_BATCH)
    _add_common(p, ("apply", "matrix"), ("matrix", "apply"),
                ("repeats", "train", tpe.DEFAULT_REPEATS),
                ("iterations", "train", tpe.DEFAULT_ITERATIONS),
                ("rate", "train", tpe.DEFAULT_RATE), ("batch", "train", tpe.DEFAULT_BATCH),
                ("seed", "train", 0))
    p.set_defaults(func=_cmd_tpe)

    p = subs.add_parser("sweep", help="ablation grids over lam/k, or a three-way method comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="base TrainConfig key=value file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--lambdas", help="comma-separated debias weights to sweep")
    mode.add_argument("--ks", help="comma-separated ensemble sizes to sweep")
    # absent is None, not False: --compare is --delta's partner
    mode.add_argument("--compare", action="store_true", default=None,
                      help="compare original vs corrpca vs agenda instead of a grid")
    p.add_argument("--delta", type=_finite_float,
                   help="corrpca threshold in compare mode (default %s)" % corrpca.DEFAULT_DELTA)
    p.add_argument("--fpr", type=_finite_float, default=1e-3,
                   help="operating FPR for the table (default %(default)s)")
    p.add_argument("--impostor-ratio", type=_finite_float,
                   default=verification.DEFAULT_IMPOSTOR_RATIO)
    p.add_argument("--probe-fraction", type=_finite_float, default=0.3,
                   help="held-out share of the records, fit on the rest (default %(default)s)")
    p.add_argument("--report", required=True)
    _add_common(p, ("delta", "compare", corrpca.DEFAULT_DELTA))
    p.set_defaults(func=_cmd_sweep)

    return parser


def parse_args(argv=None):
    """The parsed arguments, each mode option at its value or default; a
    usage error exits 2 through argparse."""
    args = build_parser().parse_args(argv)
    for option, partner, *default in args.partners:
        if getattr(args, partner) is None:
            if getattr(args, option) is not None:
                args.usage_error("--%s needs --%s" % (option.replace("_", "-"), partner))
        elif default and getattr(args, option) is None:
            setattr(args, option, default[0])
    return args


def main(argv=None):
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.monotonic()
    try:
        with linalg.blas_threads(1) as blas_threads:
            ran = args.func(args)
        _write_manifest(args, started, blas_threads, *ran)
    except (AgendaError, OSError, MemoryError) as exc:
        code, kind = ((3, exc.code) if isinstance(exc, DataFormatError) else
                      (3, "io") if isinstance(exc, OSError) else
                      (4, "MemoryError") if isinstance(exc, MemoryError) else
                      (4, type(exc).__name__))
        print("agenda: error exit=%d kind=%s message=%s"
              % (code, kind, str(exc).replace("\n", " ")), file=sys.stderr)
        return code
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
