import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from agenda import cli, dataio, linalg, nets, probe, tpe, trainer, verification
from conftest import run_cli, tiny_corpus


def write_tiny_spec(path, **overrides):
    spec = dict(
        n_identities=14, samples_per_identity=6, dim=10, sigma_id=0.5,
        sigma_noise=0.1, attribute_strength=0.4, entanglement=0.0, seed=5,
    )
    spec.update(overrides)
    path.write_text("".join("%s=%s\n" % kv for kv in spec.items()))
    return path


def write_tiny_train_cfg(path, **overrides):
    cfg = dict(
        lam=1.0, k=2, t_fc=30, t_gtrain=10, t_deb=8, t_plat=8, n_ep=2,
        g_thresh=1.0, alpha1=1e-3, alpha2=1e-3, alpha3=1e-3,
        batch_size=16, seed=3, validation_fraction=0.15,
    )
    cfg.update(overrides)
    path.write_text("".join("%s=%s\n" % kv for kv in cfg.items()))
    return path


class TestExitCodes:
    def test_no_arguments_usage(self):
        code, _, err = run_cli()
        assert code == 2

    def test_unknown_flag(self, tmp_path):
        code, _, _ = run_cli("synth", "--out", tmp_path / "x.fds", "--bogus")
        assert code == 2

    def test_missing_file_is_3(self, tmp_path):
        code, _, err = run_cli(
            "probe", "--train", tmp_path / "none.fds", "--test", tmp_path / "none.fds",
            "--report", tmp_path / "r.csv",
        )
        assert code == 3
        assert "agenda: error" in err and "\n" not in err.strip().split("\n")[-1][:-1]

    def test_invalid_config_is_4(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg", dim=2)  # dim too small
        code, _, err = run_cli("synth", "--spec", spec, "--out", tmp_path / "x.fds")
        assert code == 4
        assert "exit=4" in err

    def test_negative_seed_in_train_config_is_4(self, tmp_path):
        data = tmp_path / "c.fds"
        dataio.write_dataset(tiny_corpus()[0], data)
        cfg = write_tiny_train_cfg(tmp_path / "t.cfg", seed=-1)
        code, _, err = run_cli("train", "--data", data, "--config", cfg,
                               "--out", tmp_path / "m.agnd")
        assert code == 4 and "seed must be >= 0" in err, err

    def test_bad_dataset_magic_is_3(self, tmp_path):
        bad = tmp_path / "bad.fds"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        code, _, err = run_cli("eval", "--data", bad, "--report", tmp_path / "r.csv")
        assert code == 3
        assert "bad_magic" in err

    def test_huge_dataset_dim_is_3(self, tmp_path):
        # dim 2^31 cannot be a numpy record dtype; the header must fail as a format error
        bad = tmp_path / "dim.fds"
        bad.write_bytes(struct.pack("<4sIQI", b"FDS1", 1, 0, 0x80000000))
        code, _, err = run_cli("eval", "--data", bad, "--report", tmp_path / "r.csv")
        assert code == 3, err
        assert "kind=too_large" in err and "Traceback" not in err


# A missing or second mode, an option without its partner, and an option of
# the other mode. None of the paths exists, so a subcommand that got as far
# as reading would exit 3.
USAGE_CASES = [
    ("corrpca", "--out", "{out}"),
    ("corrpca", "--fit", "{a}", "--apply", "{b}", "--out", "{out}"),
    ("corrpca", "--apply", "{a}", "--out", "{out}"),
    ("tpe", "--out", "{out}"),
    ("tpe", "--train", "{a}", "--apply", "{b}", "--out", "{out}"),
    ("tpe", "--apply", "{a}", "--out", "{out}"),
    ("sweep", "--data", "{a}", "--report", "{out}"),
    ("sweep", "--data", "{a}", "--ks", "1", "--compare", "--report", "{out}"),
    ("sweep", "--data", "{a}", "--lambdas", "1", "--ks", "1", "--report", "{out}"),
    ("probe", "--report", "{out}"),
    ("probe", "--data", "{a}", "--train", "{b}", "--report", "{out}"),
    ("probe", "--data", "{a}", "--test", "{b}", "--report", "{out}"),
    ("probe", "--train", "{a}", "--report", "{out}"),
    ("probe", "--train", "{a}", "--test", "{b}", "--test-fraction", "0.9", "--report", "{out}"),
    ("corrpca", "--apply", "{a}", "--subspace", "{b}", "--out", "{out}", "--spectrum", "{out}"),
]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", USAGE_CASES, ids=" ".join)
    def test_exit_2_from_argparse_before_any_file(self, tmp_path, monkeypatch, capsys, argv):
        def no_read(*args, **kwargs):
            raise AssertionError("a file was read")

        for module, name in ((cli, "read_dataset"), (cli.corrpca, "load_subspace"),
                             (tpe, "load_tpe")):
            monkeypatch.setattr(module, name, no_read)
        paths = dict(a=tmp_path / "a.fds", b=tmp_path / "b.fds", out=tmp_path / "out")
        assert cli.main([arg.format(**paths) for arg in argv]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: agenda %s " % argv[0])
        assert [line for line in lines if "error:" in line] == [lines[-1]]
        assert lines[-1].startswith("agenda %s: error: " % argv[0])
        assert list(tmp_path.iterdir()) == []


# Each float option, under every subcommand that has it, and the list options
# that are parsed after the dataset is read. Arguments other than the one
# under test are valid, so the value under test is what must fail.
FLOAT_FLAGS = [
    (("eval", "--data", "{data}", "--report", "{out}"), "--impostor-ratio", 2),
    (("eval", "--data", "{data}", "--report", "{out}"), "--fprs", 4),
    (("probe", "--data", "{data}", "--report", "{out}"), "--test-fraction", 2),
    (("probe", "--data", "{data}", "--report", "{out}"), "--rate", 2),
    (("probe", "--data", "{data}", "--report", "{out}"), "--l2", 2),
    (("tpe", "--train", "{data}", "--out", "{out}"), "--rate", 2),
    (("corrpca", "--fit", "{data}", "--out", "{out}"), "--delta", 2),
    (("sweep", "--data", "{data}", "--compare", "--report", "{out}"), "--delta", 2),
    (("sweep", "--data", "{data}", "--compare", "--report", "{out}"), "--fpr", 2),
    (("sweep", "--data", "{data}", "--compare", "--report", "{out}"), "--impostor-ratio", 2),
    (("sweep", "--data", "{data}", "--compare", "--report", "{out}"), "--probe-fraction", 2),
    (("sweep", "--data", "{data}", "--report", "{out}"), "--lambdas", 4),
    (("sweep", "--data", "{data}", "--report", "{out}"), "--ks", 4),
]
CONTRACT_CASES = [
    # flag=value, so that "-inf" is not read as an option
    pytest.param(base + ("%s=%s" % (flag, value),), {}, code,
                 id="%s %s=%s" % (base[0], flag, value))
    for base, flag, code in FLOAT_FLAGS for value in ("nan", "inf", "-inf")
] + [
    pytest.param(("sweep", "--data", "{data}", "--report", "{out}", "--ks", "2.7"), {}, 4,
                 id="sweep --ks 2.7"),
    pytest.param(("sweep", "--data", "{data}", "--report", "{out}", "--ks", "2,0"), {}, 4,
                 id="sweep --ks 2,0"),
    pytest.param(("train", "--data", "{data}", "--config", "{cfg}", "--out", "{out}"), {}, 4,
                 id="train lam=nan"),
    pytest.param(("eval", "--data", "{empty}", "--report", "{out}"), {}, 4,
                 id="eval empty corpus"),
] + [
    pytest.param(base + ("--seed=-1",), {}, 2, id="%s --seed=-1" % base[0])
    for base in (
        ("synth", "--out", "{out}"),
        ("train", "--data", "{data}", "--out", "{out}"),
        ("probe", "--data", "{data}", "--report", "{out}"),
        ("eval", "--data", "{data}", "--report", "{out}"),
        ("tpe", "--train", "{data}", "--out", "{out}"),
        ("sweep", "--data", "{data}", "--compare", "--report", "{out}"),
    )
] + [
    pytest.param(("synth", "--spec", "{negspec}", "--out", "{out}"), {}, 4,
                 id="synth spec seed=-1"),
    pytest.param(("sweep", "--data", "{data}", "--config", "{negcfg}", "--lambdas", "0,1",
                  "--report", "{out}"), {}, 4, id="sweep config seed=-1"),
    # a dataset is binary, not UTF-8 text
    pytest.param(("synth", "--spec", "{data}", "--out", "{out}"), {}, 3,
                 id="synth spec not UTF-8"),
    pytest.param(("train", "--data", "{data}", "--config", "{data}", "--out", "{out}"), {}, 3,
                 id="train config not UTF-8"),
] + [
    pytest.param(("sweep", "--data", "{data}", "--lambdas", "0,1", "--fpr", fpr,
                  "--report", "{out}"), {}, 4, id="sweep --lambdas --fpr %s" % fpr)
    for fpr in ("0", "1.5")
]


class TestNoTraceback:
    """Bad numbers or files from outside fail with a usage error (2) or one
    error line (3 or 4) before any training, probe fit or SGD step runs."""

    @pytest.mark.parametrize("argv, env, code", CONTRACT_CASES)
    def test_rejected_before_any_training(self, tmp_path, monkeypatch, capsys, argv, env, code):
        def no_training(*args, **kwargs):
            raise AssertionError("a training step ran")

        for module, name in ((trainer, "train"), (tpe, "tpe_train"),
                             (probe, "probe_train"), (verification, "probe_train")):
            monkeypatch.setattr(module, name, no_training)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        data, empty = tmp_path / "c.fds", tmp_path / "empty.fds"
        corpus = tiny_corpus()[0]
        dataio.write_dataset(corpus, data)
        dataio.write_dataset(corpus.subset([]), empty)
        paths = dict(data=data, empty=empty, out=tmp_path / "out",
                     cfg=write_tiny_train_cfg(tmp_path / "t.cfg", lam="nan"),
                     negcfg=write_tiny_train_cfg(tmp_path / "neg.cfg", seed=-1),
                     negspec=write_tiny_spec(tmp_path / "neg.spec", seed=-1))
        assert cli.main([a.format(**paths) for a in argv]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code != 2:
            assert err.count("\n") == 1 and err.startswith("agenda: error exit=%d" % code)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--data", "{data}", "--report", "{out}", "--impostor-ratio", "1e12"],
        ["synth", "--spec", "{spec}", "--out", "{out}"],
        ["tpe", "--train", "{data}", "--out", "{out}", "--batch", "100000000000000"],
    ], ids=["eval impostors", "synth corpus", "tpe batch"])
    def test_request_beyond_the_address_space_is_4(self, tmp_path, capsys, argv):
        # Each asks numpy for one array larger than the 128 TiB user address
        # space (about 1.7e14 impostor indices, 186 TiB of corpus vectors,
        # 1e14 triplet indices), so the allocation fails before any page is
        # touched.
        data = tmp_path / "c.fds"
        dataio.write_dataset(tiny_corpus()[0], data)
        spec = write_tiny_spec(tmp_path / "s.cfg", n_identities=1000000000, dim=512,
                               samples_per_identity=50)
        out = tmp_path / "out"
        assert cli.main([a.format(data=data, spec=spec, out=out) for a in argv]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("agenda: error exit=4 kind=MemoryError ")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_tpe_is_4_and_writes_no_matrix(self, tmp_path, capsys):
        data = tmp_path / "c.fds"
        dataio.write_dataset(tiny_corpus()[0], data)
        matrix = tmp_path / "w.tpe"
        code = cli.main(["tpe", "--train", str(data), "--out", str(matrix), "--rate", "1e12",
                         "--repeats", "1", "--iterations", "50"])
        assert code == 4
        assert "kind=NumericError" in capsys.readouterr().err
        assert not matrix.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flag, value, kind", [
        ("--epochs", "0", "ValidationError"),
        ("--rate", "-1", "ValidationError"),
        ("--l2", "-1", "ValidationError"),
        ("--rate", "1e6", "NumericError"),  # diverges to NaN weights
    ])
    def test_probe_it_cannot_fit_is_4_and_writes_no_report(self, tmp_path, capsys,
                                                            flag, value, kind):
        data = tmp_path / "c.fds"
        dataio.write_dataset(tiny_corpus()[0], data)
        report = tmp_path / "r.csv"
        code = cli.main(["probe", "--data", str(data), "--report", str(report),
                         "%s=%s" % (flag, value)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.count("\n") == 1 and err.startswith("agenda: error exit=4 kind=" + kind)
        assert not report.exists()

    def test_pairs_genuine_cell_other_than_0_or_1_is_3(self, tmp_path, capsys):
        data = tmp_path / "c.fds"
        dataio.write_dataset(tiny_corpus()[0], data)  # records 0 and 1 share an identity
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("index_a,index_b,genuine\n0,1,7\n")
        code = cli.main(["eval", "--data", str(data), "--pairs", str(pairs),
                         "--report", str(tmp_path / "r.csv")])
        assert code == 3
        assert "kind=bad_value" in capsys.readouterr().err

    @pytest.mark.parametrize("text, kind", [
        ("", "truncated"),
        ("index_a,index_b,genuine\n", "truncated"),
        ("index_a,index_b,genuine\n0,1\n2,3\n", "bad_value"),
    ], ids=["empty file", "header only", "two columns"])
    def test_pairs_file_without_three_cell_rows_is_3(self, tmp_path, capsys, text, kind):
        data = tmp_path / "c.fds"
        dataio.write_dataset(tiny_corpus()[0], data)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(text)
        report = tmp_path / "r.csv"
        code = cli.main(["eval", "--data", str(data), "--pairs", str(pairs),
                         "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("agenda: error exit=3 kind=%s " % kind)
        assert not report.exists()

    @pytest.mark.parametrize("row", ["0,{n},1", "{male},{female},0"],
                             ids=["index out of range", "cross-group pair"])
    def test_pairs_the_dataset_cannot_hold_is_4(self, tmp_path, capsys, row):
        corpus = tiny_corpus()[0]
        data = tmp_path / "c.fds"
        dataio.write_dataset(corpus, data)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("index_a,index_b,genuine\n%s\n" % row.format(
            n=corpus.n, male=np.flatnonzero(corpus.attributes == 1)[0],
            female=np.flatnonzero(corpus.attributes == 0)[0]))
        report = tmp_path / "r.csv"
        code = cli.main(["eval", "--data", str(data), "--pairs", str(pairs),
                         "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.count("\n") == 1 and err.startswith("agenda: error exit=4 kind=ValidationError")
        assert not report.exists()

    @pytest.mark.parametrize("fpr", ["0", "1.5"])
    def test_eval_fpr_target_rejected_before_any_pair(self, tmp_path, monkeypatch, capsys, fpr):
        def no_pairs(*args, **kwargs):
            raise AssertionError("pairs were built or scored")

        for name in ("make_pairs", "score_pairs"):
            monkeypatch.setattr(verification, name, no_pairs)
        data = tmp_path / "c.fds"
        dataio.write_dataset(tiny_corpus()[0], data)
        report = tmp_path / "r.csv"
        code = cli.main(["eval", "--data", str(data), "--report", str(report), "--fprs", fpr])
        err = capsys.readouterr().err
        assert code == 4
        assert err.count("\n") == 1 and err.startswith("agenda: error exit=4 kind=ValidationError")
        assert not report.exists()


def _zero_size_files(dim):
    gen, cls = nets.init_generator(dim, 0), nets.init_classifier(2, 0)
    k, hidden = 0, nets.DISCRIMINATOR_HIDDEN
    agnd = struct.pack("<4sIIIIII", b"AGND", 1, dim, *cls.weight.shape, k, hidden)
    return {
        "no retained rows": struct.pack("<4sII", b"CPCA", dim, 0) + bytes(9 * dim),
        "dim 0 subspace": struct.pack("<4sII", b"CPCA", 0, 0),
        "out_dim 0 matrix": struct.pack("<4sII", b"TPE1", dim, 0),
        "k 0 checkpoint": agnd + gen.flat.tobytes() + cls.flat.tobytes(),
    }


class TestZeroSizeHeaders:
    """A header that declares a zero size is a truncated file (exit 3), as
    a dataset of dim 0 is, not an empty map that writes an unreadable
    dataset."""

    @pytest.mark.parametrize("case, argv", [
        pytest.param(case, argv, id=case) for case, argv in (
            ("no retained rows", ["corrpca", "--apply", "{data}", "--subspace", "{map}"]),
            ("dim 0 subspace", ["corrpca", "--apply", "{data}", "--subspace", "{map}"]),
            ("out_dim 0 matrix", ["tpe", "--apply", "{data}", "--matrix", "{map}"]),
            ("k 0 checkpoint", ["transform", "--data", "{data}", "--ckpt", "{map}"]),
        )
    ])
    def test_refused_as_truncated(self, tmp_path, capsys, case, argv):
        corpus = tiny_corpus()[0]
        data, fitted, out = tmp_path / "c.fds", tmp_path / "map", tmp_path / "out.fds"
        dataio.write_dataset(corpus, data)
        fitted.write_bytes(_zero_size_files(corpus.dim)[case])
        code = cli.main([a.format(data=data, map=fitted) for a in argv] + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.count("\n") == 1 and "kind=truncated" in err
        assert not out.exists()


class TestSynth:
    def test_writes_dataset_metadata_manifest(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg")
        out = tmp_path / "corpus.fds"
        code, _, err = run_cli("synth", "--spec", spec, "--out", out)
        assert code == 0, err
        ds = dataio.read_dataset(out)
        assert ds.n == 14 * 6 and ds.dim == 10
        meta = json.loads((tmp_path / "corpus.fds.meta.json").read_text())
        assert meta["spec"]["seed"] == 5
        manifest = json.loads((tmp_path / "corpus.fds.manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 5

    def test_seed_override(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg")
        a, b, c = tmp_path / "a.fds", tmp_path / "b.fds", tmp_path / "c.fds"
        assert run_cli("synth", "--spec", spec, "--out", a, "--seed", 9)[0] == 0
        assert run_cli("synth", "--spec", spec, "--out", b, "--seed", 9)[0] == 0
        assert run_cli("synth", "--spec", spec, "--out", c)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestManifests:
    def test_every_subcommand_manifest(self, tmp_path):
        """Path, key set and values of the manifest of every subcommand."""
        p = {name: str(tmp_path / name) for name in (
            "s.cfg", "t.cfg", "c.fds", "m.agnd", "log.csv", "z.fds", "sub.cpca", "spec.csv",
            "proj.fds", "probe.csv", "eval.csv", "w.tpe", "e.fds", "lam.csv", "ks.csv",
            "cmp.csv", "z.json")}
        write_tiny_spec(tmp_path / "s.cfg", n_identities=24, samples_per_identity=8)
        write_tiny_train_cfg(tmp_path / "t.cfg", n_ep=1)
        train_options = dict(
            lam=1.0, k=2, t_fc=30, t_gtrain=10, t_deb=8, t_plat=8, t_ep=2, n_ep=1,
            g_thresh=1.0, alpha1=1e-3, alpha2=1e-3, alpha3=1e-3,
            batch_size=16, seed=3, validation_fraction=0.15,
        )
        tpe_note = ("tpe_loss=triplet_probability(-log sigmoid(s_ap - s_an)), "
                    "dot-product scores")
        sweep_options = dict(fpr=0.05, impostor_ratio=2.0, probe_fraction=0.3, note=(
            "protocol=fit on one identity side, probe and TPR read on the held-out "
            "probe_fraction"))
        runs = [
            (["synth", "--spec", p["s.cfg"], "--out", p["c.fds"]],
             p["c.fds"] + ".manifest.json",
             dict(n_identities=24, samples_per_identity=8, dim=10, sigma_id=0.5,
                  sigma_noise=0.1, attribute_strength=0.4, entanglement=0.0,
                  female_noise_scale=1.0, seed=5),
             [p["s.cfg"]], [p["c.fds"], p["c.fds"] + ".meta.json"], 5),
            (["train", "--data", p["c.fds"], "--config", p["t.cfg"], "--out", p["m.agnd"],
              "--log", p["log.csv"]],
             p["m.agnd"] + ".manifest.json", train_options,
             [p["c.fds"], p["t.cfg"]], [p["m.agnd"], p["log.csv"]], 3),
            (["transform", "--ckpt", p["m.agnd"], "--data", p["c.fds"], "--out", p["z.fds"],
              "--manifest", p["z.json"]],
             p["z.json"], {}, [p["m.agnd"], p["c.fds"]], [p["z.fds"]], None),
            (["corrpca", "--fit", p["c.fds"], "--delta", "0.2", "--out", p["sub.cpca"],
              "--spectrum", p["spec.csv"]],
             p["sub.cpca"] + ".manifest.json", dict(mode="fit", delta=0.2),
             [p["c.fds"]], [p["sub.cpca"], p["spec.csv"]], None),
            (["corrpca", "--apply", p["c.fds"], "--subspace", p["sub.cpca"],
              "--out", p["proj.fds"], "--seed", "4"],
             p["proj.fds"] + ".manifest.json", dict(mode="apply"),
             [p["c.fds"], p["sub.cpca"]], [p["proj.fds"]], 4),
            (["probe", "--data", p["c.fds"], "--report", p["probe.csv"]],
             p["probe.csv"] + ".manifest.json",
             dict(epochs=500, rate=0.1, l2=1e-4,
                  standardized="per-dimension z-score from the training split",
                  test_fraction=0.3),
             [p["c.fds"]], [p["probe.csv"]], 0),
            (["eval", "--data", p["c.fds"], "--fprs", "0.01,0.1", "--report", p["eval.csv"],
              "--seed", "1"],
             p["eval.csv"] + ".manifest.json",
             dict(pairs="generated", impostor_ratio=2.0, fprs="0.01,0.1"),
             [p["c.fds"]], [p["eval.csv"]], 1),
            (["tpe", "--train", p["c.fds"], "--out", p["w.tpe"], "--repeats", "2",
              "--iterations", "5"],
             p["w.tpe"] + ".manifest.json",
             dict(repeats=2, iterations=5, rate=2.5e-3, batch=32, note=tpe_note),
             [p["c.fds"]], [p["w.tpe"]], 0),
            (["tpe", "--apply", p["c.fds"], "--matrix", p["w.tpe"], "--out", p["e.fds"]],
             p["e.fds"] + ".manifest.json", dict(mode="apply", note=tpe_note),
             [p["c.fds"], p["w.tpe"]], [p["e.fds"]], 0),
            (["sweep", "--data", p["c.fds"], "--config", p["t.cfg"], "--lambdas", "0,1",
              "--fpr", "0.05", "--report", p["lam.csv"]],
             p["lam.csv"] + ".manifest.json",
             dict(sweep_options, lambdas="0,1", **train_options),
             [p["c.fds"], p["t.cfg"]], [p["lam.csv"]], 0),
            (["sweep", "--data", p["c.fds"], "--config", p["t.cfg"], "--ks", "1,2",
              "--fpr", "0.05", "--report", p["ks.csv"], "--seed", "2"],
             p["ks.csv"] + ".manifest.json",
             dict(sweep_options, ks="1,2", **dict(train_options, seed=2)),
             [p["c.fds"], p["t.cfg"]], [p["ks.csv"]], 2),
            (["sweep", "--data", p["c.fds"], "--config", p["t.cfg"], "--compare",
              "--delta", "0.5", "--fpr", "0.05", "--report", p["cmp.csv"]],
             p["cmp.csv"] + ".manifest.json",
             dict(sweep_options, mode="compare", delta=0.5, **train_options),
             [p["c.fds"], p["t.cfg"]], [p["cmp.csv"]], 0),
        ]
        keys = {"tool_version", "subcommand", "options", "inputs", "outputs", "seed",
                "blas_threads", "wall_time_s"}
        workers = trainer.thread_plan(2)
        blas_threads = 1 if linalg.openblas_handle() else None
        for argv, path, options, inputs, outputs, seed in runs:
            assert cli.main(argv) == 0, argv
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            extra = {"workers"} if argv[0] == "train" else set()
            assert set(manifest) == keys | extra, argv
            wall_time_s = manifest.pop("wall_time_s")
            assert isinstance(wall_time_s, float) and wall_time_s >= 0.0
            assert manifest.pop("blas_threads") == blas_threads, argv
            if extra:
                assert manifest.pop("workers") == workers
            assert manifest == dict(tool_version="0.1.0", subcommand=argv[0], options=options,
                                    inputs=inputs, outputs=outputs, seed=seed), argv

    def test_probe_data_records_test_fraction(self, tmp_path):
        data, report = tmp_path / "c.fds", tmp_path / "r.csv"
        dataio.write_dataset(tiny_corpus()[0], data)
        assert cli.main(["probe", "--data", str(data), "--test-fraction", "0.5",
                         "--report", str(report)]) == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["options"]["test_fraction"] == 0.5
        assert "# test_fraction=0.5" in report.read_text().splitlines()

    def test_sweep_records_base_config_and_its_file(self, tmp_path):
        data, report = tmp_path / "c.fds", tmp_path / "r.csv"
        dataio.write_dataset(tiny_corpus()[0], data)
        cfg = write_tiny_train_cfg(tmp_path / "t.cfg", n_ep=1, lam=2.5)
        assert cli.main(["sweep", "--data", str(data), "--config", str(cfg), "--lambdas", "0",
                         "--fpr", "0.05", "--report", str(report)]) == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["inputs"] == [str(data), str(cfg)]
        base = trainer.TrainConfig.from_file(str(cfg)).to_kv()
        assert {key: manifest["options"][key] for key, _ in base} == dict(base)
        header = report.read_text().splitlines()
        assert all("# %s=%s" % kv in header for kv in base)


class TestPipeline:
    def test_train_transform_probe_eval(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg")
        cfg = write_tiny_train_cfg(tmp_path / "t.cfg")
        corpus = tmp_path / "corpus.fds"
        ckpt = tmp_path / "model.agnd"
        log = tmp_path / "log.csv"
        out = tmp_path / "suppressed.fds"
        probe_csv = tmp_path / "probe.csv"
        eval_csv = tmp_path / "eval.csv"

        assert run_cli("synth", "--spec", spec, "--out", corpus)[0] == 0
        code, _, err = run_cli(
            "train", "--data", corpus, "--config", cfg, "--out", ckpt, "--log", log
        )
        assert code == 0, err
        header = log.read_text().splitlines()
        assert any(line.startswith("episode,stage,iteration") for line in header)
        code, _, err = run_cli("transform", "--ckpt", ckpt, "--data", corpus, "--out", out)
        assert code == 0, err
        assert dataio.read_dataset(out).dim == 256

        code, _, err = run_cli(
            "probe", "--data", out, "--test-fraction", "0.3", "--report", probe_csv, "--seed", 1
        )
        assert code == 0, err
        text = probe_csv.read_text()
        assert "overall_accuracy_pct" in text and "# seed=1" in text

        code, _, err = run_cli(
            "eval", "--data", out, "--fprs", "0.01,0.1", "--report", eval_csv, "--seed", 1
        )
        assert code == 0, err
        lines = eval_csv.read_text().splitlines()
        assert "fpr,tpr_m,tpr_f,bias" in lines
        data_rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("fpr,")]
        assert len(data_rows) == 2

    def test_eval_coverage_warning_still_succeeds(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg")
        corpus = tmp_path / "c.fds"
        run_cli("synth", "--spec", spec, "--out", corpus)
        code, _, err = run_cli(
            "eval", "--data", corpus, "--fprs", "1e-3",
            "--report", tmp_path / "r.csv", "--seed", 0,
        )
        assert code == 0
        assert "warning" in err
        assert "warning" in (tmp_path / "r.csv").read_text()

    def test_eval_with_explicit_pairs_csv(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg")
        corpus = tmp_path / "c.fds"
        run_cli("synth", "--spec", spec, "--out", corpus)
        ds = dataio.read_dataset(corpus)
        pairs = tmp_path / "pairs.csv"
        lines = ["index_a,index_b,genuine"]
        for i in range(0, 30, 2):
            same = ds.attributes[i] == ds.attributes[i + 1]
            if same:
                genuine = int(ds.identities[i] == ds.identities[i + 1])
                lines.append("%d,%d,%d" % (i, i + 1, genuine))
        pairs.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            "eval", "--data", corpus, "--pairs", pairs, "--fprs", "0.5",
            "--report", tmp_path / "r.csv",
        )
        # tiny hand protocol may miss a group; accept a clean validation error
        assert code in (0, 4)


    def test_eval_pairs_with_non_integer_cell_is_3(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg")
        corpus = tmp_path / "c.fds"
        run_cli("synth", "--spec", spec, "--out", corpus)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("index_a,index_b,genuine\n0,1,1\n2,x,0\n")
        code, _, err = run_cli(
            "eval", "--data", corpus, "--pairs", pairs, "--report", tmp_path / "r.csv",
        )
        assert code == 3
        assert err.strip().count("\n") == 0
        assert "kind=bad_value" in err and "Traceback" not in err


class TestCorrPcaCli:
    def test_fit_apply_round_trip(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg", attribute_strength=0.6)
        corpus = tmp_path / "c.fds"
        run_cli("synth", "--spec", spec, "--out", corpus)
        sub = tmp_path / "sub.cpca"
        spectrum = tmp_path / "spec.csv"
        code, _, err = run_cli(
            "corrpca", "--fit", corpus, "--delta", "0.2", "--out", sub,
            "--spectrum", spectrum,
        )
        assert code == 0, err
        assert spectrum.read_text().count("\n") >= 10
        projected = tmp_path / "proj.fds"
        code, _, err = run_cli(
            "corrpca", "--apply", corpus, "--subspace", sub, "--out", projected
        )
        assert code == 0, err
        assert dataio.read_dataset(projected).dim <= 10

    def test_fit_and_apply_together_rejected(self, tmp_path):
        code, _, _ = run_cli(
            "corrpca", "--fit", "a", "--apply", "b", "--out", "c"
        )
        assert code == 2


class TestTpeCli:
    def test_train_then_apply(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg")
        corpus = tmp_path / "c.fds"
        run_cli("synth", "--spec", spec, "--out", corpus)
        matrix = tmp_path / "w.tpe"
        code, _, err = run_cli(
            "tpe", "--train", corpus, "--out", matrix,
            "--repeats", 2, "--iterations", 5,
        )
        assert code == 0, err
        embedded = tmp_path / "e.fds"
        code, _, err = run_cli(
            "tpe", "--apply", corpus, "--matrix", matrix, "--out", embedded
        )
        assert code == 0, err
        assert dataio.read_dataset(embedded).dim == 128

    def test_large_margins_are_quiet_and_divergence_is_one_line(self, tmp_path):
        # exp(-d) overflowing for a large margin is the sigmoid's limit, not
        # an error: stderr stays empty; a diverged run prints one line
        spec = write_tiny_spec(tmp_path / "s.cfg")
        corpus = tmp_path / "c.fds"
        run_cli("synth", "--spec", spec, "--out", corpus)
        argv = ("tpe", "--train", corpus, "--out", tmp_path / "w.tpe",
                "--repeats", 1, "--iterations", 50, "--rate")
        code, _, err = run_cli(*argv, "1e3")
        assert (code, err) == (0, "")
        code, _, err = run_cli(*argv, "1e12")
        assert code == 4
        assert err.count("\n") == 1 and err.startswith("agenda: error exit=4")


class TestSweepCli:
    def test_compare_mode(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg", n_identities=24, samples_per_identity=8)
        cfg = write_tiny_train_cfg(tmp_path / "t.cfg")
        corpus = tmp_path / "c.fds"
        run_cli("synth", "--spec", spec, "--out", corpus)
        report = tmp_path / "cmp.csv"
        code, _, err = run_cli(
            "sweep", "--data", corpus, "--config", cfg, "--compare",
            "--fpr", "0.05", "--delta", "0.5", "--report", report, "--seed", 2,
        )
        assert code == 0, err
        rows = [l for l in report.read_text().splitlines() if l and not l.startswith("#")]
        assert rows[0] == "param,tpr_m,tpr_f,bias,probe_accuracy_pct"
        labels = [r.split(",")[0] for r in rows[1:]]
        assert labels == ["original", "corrpca", "agenda"]

    def test_lambda_grid(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg", n_identities=24, samples_per_identity=8)
        cfg = write_tiny_train_cfg(tmp_path / "t.cfg", n_ep=1)
        corpus = tmp_path / "c.fds"
        run_cli("synth", "--spec", spec, "--out", corpus)
        report = tmp_path / "grid.csv"
        code, _, err = run_cli(
            "sweep", "--data", corpus, "--config", cfg, "--lambdas", "0,1",
            "--fpr", "0.05", "--report", report,
        )
        assert code == 0, err
        labels = [
            l.split(",")[0] for l in report.read_text().splitlines()
            if l.startswith("lam=")
        ]
        assert labels == ["lam=0.0", "lam=1.0"]

    def test_k_grid(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg", n_identities=24, samples_per_identity=8)
        cfg = write_tiny_train_cfg(tmp_path / "t.cfg", n_ep=2)
        corpus = tmp_path / "c.fds"
        run_cli("synth", "--spec", spec, "--out", corpus)
        report = tmp_path / "grid.csv"
        code, _, err = run_cli(
            "sweep", "--data", corpus, "--config", cfg, "--ks", "1,2",
            "--fpr", "0.05", "--report", report,
        )
        assert code == 0, err
        labels = [
            l.split(",")[0] for l in report.read_text().splitlines()
            if l.startswith("k=")
        ]
        assert labels == ["k=1", "k=2"]

    def test_compare_agenda_row_equals_lambda_row(self, tmp_path):
        # Both modes share one pair protocol, probe split and row code.
        spec = write_tiny_spec(tmp_path / "s.cfg", n_identities=24, samples_per_identity=8)
        cfg = write_tiny_train_cfg(tmp_path / "t.cfg")  # lam=1.0
        corpus = tmp_path / "c.fds"
        run_cli("synth", "--spec", spec, "--out", corpus)
        rows = {}
        for name, mode in (("compare", ("--compare", "--delta", "0.5")),
                           ("grid", ("--lambdas", "1.0"))):
            report = tmp_path / (name + ".csv")
            code, _, err = run_cli(
                "sweep", "--data", corpus, "--config", cfg, *mode,
                "--fpr", "0.05", "--report", report, "--seed", 2,
            )
            assert code == 0, err
            for line in report.read_text().splitlines():
                if line and not line.startswith("#"):
                    label, *values = line.split(",")
                    rows[label] = values
        assert rows["agenda"] == rows["lam=1.0"]

    def test_held_out_side_without_two_identities_per_group_is_4(self, tmp_path, monkeypatch,
                                                                  capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("a variant was fit")

        for module, name in ((trainer, "train"), (cli.corrpca, "fit")):
            monkeypatch.setattr(module, name, no_fit)
        data, report = tmp_path / "c.fds", tmp_path / "r.csv"
        # 8 identities of 8 records: the 0.3 held out are 3 identities
        dataio.write_dataset(tiny_corpus(n_identities=8)[0], data)
        code = cli.main(["sweep", "--data", str(data), "--compare", "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.count("\n") == 1 and err.startswith("agenda: error exit=4 kind=ValidationError")
        assert not report.exists()


class TestDeterminism:
    def test_identical_manifests_byte_identical_outputs(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg")
        cfg = write_tiny_train_cfg(tmp_path / "t.cfg")
        outputs = {}
        for run in ("x", "y"):
            root = tmp_path / run
            root.mkdir()
            corpus = root / "c.fds"
            ckpt = root / "m.agnd"
            log = root / "l.csv"
            run_cli("synth", "--spec", spec, "--out", corpus)
            run_cli("train", "--data", corpus, "--config", cfg, "--out", ckpt, "--log", log)
            outputs[run] = (corpus.read_bytes(), ckpt.read_bytes(), log.read_bytes())
        assert outputs["x"] == outputs["y"]

    def test_train_bytes_independent_of_blas_threads(self, tmp_path):
        # 800 records at batch 400, where a two-thread BLAS splits the
        # products; train runs BLAS on one thread whatever the environment says
        spec = write_tiny_spec(tmp_path / "s.cfg", n_identities=40,
                               samples_per_identity=20, dim=64)
        cfg = write_tiny_train_cfg(tmp_path / "t.cfg", k=3, batch_size=400, t_fc=20,
                                   t_gtrain=10, t_deb=10, t_plat=5)
        corpus = tmp_path / "c.fds"
        run_cli("synth", "--spec", spec, "--out", corpus)
        outputs = []
        for threads in ("1", "2"):
            ckpt = tmp_path / ("m%s.agnd" % threads)
            proc = subprocess.run(
                [sys.executable, "-m", "agenda.cli", "train", "--data", str(corpus),
                 "--config", str(cfg), "--out", str(ckpt)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            manifest = json.loads((tmp_path / ("m%s.agnd.manifest.json" % threads)).read_text())
            assert manifest["blas_threads"] == 1 and manifest["workers"] >= 1
            assert "threads" not in manifest
            log = tmp_path / ("m%s.agnd.log.csv" % threads)
            outputs.append((ckpt.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv, written", [
        (["corrpca", "--fit", "{}/c.fds", "--out", "{}/o.cpca", "--spectrum", "{}/o.csv"],
         ["o.cpca", "o.csv"]),
        (["tpe", "--train", "{}/c.fds", "--out", "{}/o.tpe", "--repeats", "1",
          "--iterations", "5"],
         ["o.tpe"]),
    ], ids=["corrpca", "tpe"])
    def test_fit_bytes_independent_of_blas_threads(self, tmp_path, argv, written):
        # eigh of a 256 x 256 covariance moves low-order bits at two BLAS
        # threads; every subcommand runs BLAS on one
        spec = write_tiny_spec(tmp_path / "s.cfg", n_identities=40,
                               samples_per_identity=10, dim=256)
        run_cli("synth", "--spec", spec, "--out", tmp_path / "c.fds")
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "agenda.cli",
                                   *[a.format(tmp_path) for a in argv]],
                                  env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            manifest = json.loads((tmp_path / (written[0] + ".manifest.json")).read_text())
            assert manifest["blas_threads"] == (1 if linalg.openblas_handle() else None)
            outputs.append([(tmp_path / name).read_bytes() for name in written])
        assert outputs[0] == outputs[1]
