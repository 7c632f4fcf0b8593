import json
import struct

import numpy as np
import pytest

from agenda import dataio
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
        assert code == 4


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


class TestSweepCli:
    def test_compare_mode(self, tmp_path):
        spec = write_tiny_spec(tmp_path / "s.cfg", n_identities=16, samples_per_identity=8)
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
        spec = write_tiny_spec(tmp_path / "s.cfg", n_identities=16, samples_per_identity=8)
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
        spec = write_tiny_spec(tmp_path / "s.cfg", n_identities=16, samples_per_identity=8)
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
        spec = write_tiny_spec(tmp_path / "s.cfg", n_identities=16, samples_per_identity=8)
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
