"""Output checks: each compares one step's files against the oracles.

A check returns a dict of figures worth reporting (accuracies, TPRs, pair
counts) and raises :class:`CheckFailed` when an output is wrong. A file
that breaks its documented layout raises :class:`oracles.OracleError`,
which the runner counts as a failed check too.
"""

import math

import numpy as np

from oracles import (
    covariance,
    cosine_scores,
    digest,
    f32_close,
    operating_threshold,
    read_agnd,
    read_cpca,
    read_fds,
    read_kv_report,
    read_report,
    read_tpe,
    spearman_columns,
)

SCORE_TOL = 1e-9  # float64 cosine scores from two implementations


class CheckFailed(AssertionError):
    """An output differs from what the oracle computes."""


def require(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args if args else message)


def _same_labels(out, ref, what):
    require(np.array_equal(out.identities, ref.identities), "%s: identities changed", what)
    require(np.array_equal(out.attributes, ref.attributes), "%s: attributes changed", what)


def check_synth(corpus, n_identities, samples, dim, repeat_digests=()):
    """Count and dimension follow the spec, attribute = 1 - identity mod 2,
    and repeated syntheses with the same seed are byte-identical."""
    recs = read_fds(corpus)
    require(recs.n == n_identities * samples, "corpus has %d records, spec gives %d",
            recs.n, n_identities * samples)
    require(recs.dim == dim, "corpus dim %d, spec gives %d", recs.dim, dim)
    require(np.array_equal(np.bincount(recs.identities.astype(np.int64)),
                           np.full(n_identities, samples)),
            "identities are not 0..%d with %d records each", n_identities - 1, samples)
    require(np.array_equal(recs.attributes, 1 - recs.identities % 2),
            "attribute differs from 1 - identity mod 2")
    require(all(d == digest(corpus) for d in repeat_digests),
            "repeated syntheses from one seed are not byte-identical")
    return {"records": recs.n}


def replay_schedule(rows, cfg):
    """Walk the log rows against the schedule the config implies; stage 4
    may stop only past g_thresh or after t_plat iterations."""
    k, t_ep = cfg["k"], cfg.get("t_ep", cfg["k"])
    pos = 0

    def expect(episode, stage, iteration):
        nonlocal pos
        require(pos < len(rows), "log ends early at episode %d stage %d", episode, stage)
        row = rows[pos]
        got = (int(row[0]), int(row[1]), int(row[2]))
        require(got == (episode, stage, iteration),
                "log row %d is %s, schedule gives %s", pos, got, (episode, stage, iteration))
        pos += 1
        return row

    for episode in range(cfg["n_ep"]):
        if episode == 0:
            for n in range(cfg["t_fc"]):
                expect(episode, 1, n)
        if episode % t_ep == 0:
            for n in range(cfg["t_gtrain"]):
                expect(episode, 2, n)
        for n in range(cfg["t_deb"]):
            row = expect(episode, 3, n)
            require(0 <= int(row[6]) < k, "stage-3 member %s outside 0..%d", row[6], k - 1)
        for n in range(cfg["t_plat"]):
            row = expect(episode, 4, n)
            require(int(row[6]) == episode % k, "stage-4 member %s, round robin gives %d",
                    row[6], episode % k)
            if float(row[7]) > cfg["g_thresh"]:
                break
    require(pos == len(rows), "log has %d rows past the schedule", len(rows) - pos)


def check_train(ckpt, log, cfg, in_dim):
    """Checkpoint size matches its header's layout; the log replays the
    schedule; every l_deb >= ln 2; stage-1 l_class falls."""
    header, _ = read_agnd(ckpt)
    require(header["in_dim"] == in_dim, "checkpoint in_dim %d, corpus dim %d",
            header["in_dim"], in_dim)
    require(header["k"] == cfg["k"], "checkpoint holds %d members, config k=%d",
            header["k"], cfg["k"])
    _, columns, rows = read_report(log)
    require(columns[:8] == ["episode", "stage", "iteration", "l_class", "l_deb", "l_br",
                            "member_k", "val_acc"], "log columns %s", columns)
    replay_schedule(rows, cfg)
    l_deb = [float(r[4]) for r in rows if r[1] == "3"]
    require(min(l_deb) >= math.log(2.0) - 1e-9, "stage-3 l_deb %r below ln 2", min(l_deb))
    l_class = [float(r[3]) for r in rows if r[1] == "1"]
    quarter = len(l_class) // 4
    first, last = np.mean(l_class[:quarter]), np.mean(l_class[-quarter:])
    require(last < first, "stage-1 l_class did not fall: first quarter %r, last %r", first, last)
    stage4 = sum(1 for r in rows if r[1] == "4")
    return {"stage4_iterations": stage4, "l_class_first_quarter": float(first),
            "l_class_last_quarter": float(last)}


def check_transform(corpus, ckpt, out):
    """Output is PReLU(x W + b) from the checkpoint bytes, labels unchanged."""
    _, blocks = read_agnd(ckpt)
    src, got = read_fds(corpus), read_fds(out)
    z = src.vectors.astype(np.float64) @ blocks["generator.weight"] + blocks["generator.bias"]
    ref = np.where(z < 0.0, z * blocks["generator.prelu_slope"], z)
    require(f32_close(got.vectors, ref), "transform output differs from PReLU(xW + b)")
    _same_labels(got, src, "transform")
    return {}


def check_probe(report, n_records, min_accuracy=None):
    """Train and test sizes cover the records; a raw probe finds the attribute."""
    kv = read_kv_report(report)
    accuracy = float(kv["overall_accuracy_pct"])
    train, test = int(kv["train_size"]), int(kv["test_size"])
    require(train + test == n_records, "probe sizes %d + %d != %d records",
            train, test, n_records)
    if min_accuracy is not None:
        require(accuracy >= min_accuracy, "raw probe accuracy %.2f%% below %.0f%%",
                accuracy, min_accuracy)
    return {"accuracy_pct": accuracy}


def check_leakage_drop(raw_report, suppressed_report, points=10.0):
    """Suppressed probe accuracy is at least ``points`` below raw."""
    raw = float(read_kv_report(raw_report)["overall_accuracy_pct"])
    sup = float(read_kv_report(suppressed_report)["overall_accuracy_pct"])
    require(sup <= raw - points, "probe accuracy %.2f%% -> %.2f%%, a drop under %g points",
            raw, sup, points)
    return {"drop_points": raw - sup}


def program_pairs(recs, seed):
    """The pair protocol ``agenda eval`` generates for ``seed``. The check
    takes the protocol as given and recomputes everything scored on it."""
    from agenda.verification import DEFAULT_IMPOSTOR_RATIO, make_pairs

    protocol = make_pairs(recs, DEFAULT_IMPOSTOR_RATIO, seed)
    return protocol.index_a, protocol.index_b, protocol.genuine


def read_pairs(path):
    table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    return table[:, 0], table[:, 1], table[:, 2].astype(bool)


def _parse_points(comments):
    points = {}
    for line in comments:
        if line.startswith("group="):
            fields = dict(part.split("=", 1) for part in line.split())
            points[(fields["group"], float(fields["fpr_target"]))] = (
                float(fields["threshold"]), float(fields["achieved_fpr"]))
    return points


def _rate_band(scores, threshold):
    """Fractions of ``scores`` above ``threshold`` that are certain and
    possible, given score rounding between two implementations."""
    return (float(np.mean(scores > threshold + SCORE_TOL)),
            float(np.mean(scores > threshold - SCORE_TOL)))


def check_eval(report, data, pairs, fprs):
    """Thresholds, TPRs and achieved FPRs equal a brute-force recomputation
    from numpy cosine scores; bias = |TPR_m - TPR_f|."""
    recs = read_fds(data)
    index_a, index_b, genuine = pairs
    scores = cosine_scores(recs.vectors, index_a, index_b)
    group = recs.attributes[index_a]
    comments, columns, rows = read_report(report)
    require(columns == ["fpr", "tpr_m", "tpr_f", "bias"], "eval columns %s", columns)
    require([float(r[0]) for r in rows] == list(fprs), "eval rows %s, requested %s",
            [r[0] for r in rows], fprs)
    points = _parse_points(comments)
    figures = {"pairs": len(scores)}
    for row, fpr in zip(rows, fprs):
        tprs = {"male": float(row[1]), "female": float(row[2])}
        for code, name in ((1, "male"), (0, "female")):
            mask = group == code
            gen, imp = scores[mask & genuine], scores[mask & ~genuine]
            threshold = operating_threshold(imp, scores[mask], fpr)
            got_threshold, got_fpr = points[(name, fpr)]
            require(abs(got_threshold - threshold) <= SCORE_TOL,
                    "%s threshold at FPR %g: %r, brute force %r", name, fpr,
                    got_threshold, threshold)
            low, high = _rate_band(gen, got_threshold)
            require(low <= tprs[name] <= high, "%s TPR at FPR %g: %r, recomputed %r",
                    name, fpr, tprs[name], low)
            low, high = _rate_band(imp, got_threshold)
            require(low <= got_fpr <= high, "%s achieved FPR at %g: %r, recomputed %r",
                    name, fpr, got_fpr, low)
        require(float(row[3]) == abs(tprs["male"] - tprs["female"]),
                "bias %s != |%r - %r|", row[3], tprs["male"], tprs["female"])
        figures["tpr_m@%g" % fpr] = tprs["male"]
        figures["tpr_f@%g" % fpr] = tprs["female"]
    return figures


def check_corrpca(corpus, subspace, spectrum, projected, delta):
    """Spectrum = eigvalsh of the sample covariance; retained rows are
    orthonormal eigenvectors; retained/removed indices agree with an
    independent Spearman test against delta; projection = (x - mean) R^T."""
    recs = read_fds(corpus)
    x = recs.vectors.astype(np.float64)
    cov, mean = covariance(x)
    ref_values, ref_vectors = np.linalg.eigh(cov)
    ref_values, ref_vectors = ref_values[::-1], ref_vectors[:, ::-1]
    scale = float(np.max(np.abs(ref_values)))

    _, columns, rows = read_report(spectrum)
    require(columns == ["index", "eigenvalue", "abs_spearman"], "spectrum columns %s", columns)
    require([int(r[0]) for r in rows] == list(range(recs.dim)), "spectrum indices not 0..dim-1")
    values = np.array([float(r[1]) for r in rows])
    reported_rho = np.array([float(r[2]) for r in rows])
    require(np.max(np.abs(values - ref_values)) <= 1e-8 * scale,
            "spectrum eigenvalues differ from eigvalsh by %.3e",
            float(np.max(np.abs(values - ref_values))))

    fit_mean, flags, retained = read_cpca(subspace)
    require(np.max(np.abs(fit_mean - mean)) <= 1e-12 * max(1.0, float(np.max(np.abs(mean)))),
            "subspace mean differs from the column mean")
    require(retained.shape[0] == int(flags.sum()), "retained rows %d, flags %d",
            retained.shape[0], int(flags.sum()))
    gram = retained @ retained.T
    require(np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-10, "retained rows not orthonormal")
    rayleigh = retained @ cov @ retained.T
    require(np.max(np.abs(rayleigh - np.diag(ref_values[flags.astype(bool)]))) <= 1e-8 * scale,
            "retained rows are not eigenvectors of their flagged eigenvalues")

    rho = np.abs(spearman_columns((x - mean) @ ref_vectors, recs.attributes))
    require(np.max(np.abs(rho - reported_rho)) <= 1e-6, "abs_spearman differs by %.3e",
            float(np.max(np.abs(rho - reported_rho))))
    clear = np.abs(rho - delta) > 1e-6
    require(np.array_equal(flags.astype(bool)[clear], (rho < delta)[clear]),
            "retained flags disagree with |spearman| < %g", delta)

    out = read_fds(projected)
    require(f32_close(out.vectors, (x - fit_mean) @ retained.T),
            "projection differs from (x - mean) R^T")
    _same_labels(out, recs, "corrpca apply")
    return {"retained": int(flags.sum()), "removed": int(recs.dim - flags.sum())}


def check_tpe(corpus, matrix, applied, embed_dim=128):
    """Matrix is finite with shape (in_dim, 128); applied output = x W."""
    recs = read_fds(corpus)
    w = read_tpe(matrix)
    require(w.shape == (recs.dim, embed_dim), "matrix shape %s, expected %s",
            w.shape, (recs.dim, embed_dim))
    require(bool(np.all(np.isfinite(w))), "matrix has non-finite entries")
    out = read_fds(applied)
    require(f32_close(out.vectors, recs.vectors.astype(np.float64) @ w),
            "applied output differs from x W")
    _same_labels(out, recs, "tpe apply")
    return {}

