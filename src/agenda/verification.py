"""Group-wise 1:1 verification: cosine scores, TPR at fixed FPR, and bias.

Pairs never cross attribute groups; every pair carries the group of both
endpoints. Scores are cosine similarities of L2-normalized descriptors.
The operating threshold for a target FPR is the smallest score at which
the fraction of impostor scores strictly above it does not exceed the
target — no ROC interpolation, so results are bit-reproducible and agree
exactly with exhaustive threshold enumeration. The bias at an FPR is the
absolute TPR gap between the male-male and female-female protocols.
"""

import bisect
from dataclasses import dataclass, field

import numpy as np

from .dataio import format_float, refuse_oversized, rng, split_by_identity, write_csv_report
from .errors import DataFormatError, DimensionError, ValidationError
from .linalg import blas_threads, in_processes
from .probe import probe_eval, probe_train

GROUP_NAMES = {0: "female", 1: "male"}
DEFAULT_IMPOSTOR_RATIO = 2.0
# Pairs scored per step. The two gathered row blocks are
# 2 x SCORE_CHUNK x dim float64s whatever the protocol size: 0.5 MiB at
# 256-d, so einsum reads them from a 2 MiB L2 instead of from memory.
# Eval of 735,000 256-d pairs (2-core x86, one BLAS thread) took 1.4-1.8 s
# and peaked at 168 MiB with blocks of 16,384 (64 MiB at 256-d); with
# blocks of 256 it takes 0.45-0.6 s and 105 MiB. Each score is its own
# row's dot product, so the bytes do not depend on the block size.
SCORE_CHUNK = 256
THRESHOLD_RULE = (
    "threshold = smallest score with impostor-fraction-strictly-above <= target; "
    "no interpolation"
)


@dataclass
class PairProtocol:
    index_a: np.ndarray  # (p,) int64 record indices
    index_b: np.ndarray
    genuine: np.ndarray  # (p,) bool
    group: np.ndarray  # (p,) uint8 attribute code of both endpoints

    def __post_init__(self):
        self.index_a = np.ascontiguousarray(self.index_a, dtype=np.int64)
        self.index_b = np.ascontiguousarray(self.index_b, dtype=np.int64)
        self.genuine = np.ascontiguousarray(self.genuine, dtype=bool)
        self.group = np.ascontiguousarray(self.group, dtype=np.uint8)
        n = len(self.index_a)
        if not (len(self.index_b) == len(self.genuine) == len(self.group) == n):
            raise DimensionError("protocol columns must have equal length")

    @property
    def n(self):
        return len(self.index_a)

    def validate_against(self, dataset):
        for idx in (self.index_a, self.index_b):
            if idx.min(initial=0) < 0 or idx.max(initial=-1) >= dataset.n:
                raise ValidationError("pair index out of range for dataset of %d records" % dataset.n)
        attrs_a = dataset.attributes[self.index_a]
        attrs_b = dataset.attributes[self.index_b]
        if np.any(attrs_a != attrs_b):
            raise ValidationError("protocol contains cross-group pairs")
        if np.any(attrs_a != self.group):
            raise ValidationError("pair group labels disagree with dataset attributes")


def make_pairs(dataset, impostor_ratio=DEFAULT_IMPOSTOR_RATIO, seed=0):
    """All same-identity pairs per group plus a seeded impostor sample.

    Impostor pairs are same-group, different-identity; per group their
    count is ``impostor_ratio`` times the genuine count (at least one).
    """
    if impostor_ratio <= 0:
        raise ValidationError("impostor_ratio must be positive")
    draws = rng(seed)
    cols_a, cols_b, cols_genuine, cols_group = [], [], [], []
    for group in (1, 0):
        group_idx = np.flatnonzero(dataset.attributes == group)
        if len(group_idx) == 0:
            raise ValidationError("group %s has no records" % GROUP_NAMES[group])
        ids = dataset.identities[group_idx]
        gen_a, gen_b = [], []
        for ident in np.unique(ids):
            members = group_idx[ids == ident]
            if len(members) < 2:
                continue
            ia, ib = np.triu_indices(len(members), k=1)
            gen_a.append(members[ia])
            gen_b.append(members[ib])
        if not gen_a:
            raise ValidationError(
                "no identity in group %s has two records" % GROUP_NAMES[group]
            )
        gen_a = np.concatenate(gen_a)
        gen_b = np.concatenate(gen_b)
        if len(np.unique(ids)) < 2:
            raise ValidationError(
                "group %s needs at least 2 identities for impostor pairs"
                % GROUP_NAMES[group]
            )
        n_imp = max(1, int(round(impostor_ratio * len(gen_a))))
        refuse_oversized("impostor pairs", n_imp)
        imp_a = draws.choice(group_idx, size=n_imp, replace=True)
        imp_b = draws.choice(group_idx, size=n_imp, replace=True)
        # resample collisions until every impostor pair crosses identities
        while True:
            same = dataset.identities[imp_a] == dataset.identities[imp_b]
            if not same.any():
                break
            imp_b[same] = draws.choice(group_idx, size=int(same.sum()), replace=True)
        cols_a += [gen_a, imp_a]
        cols_b += [gen_b, imp_b]
        cols_genuine += [np.ones(len(gen_a), bool), np.zeros(n_imp, bool)]
        cols_group += [np.full(len(gen_a) + n_imp, group, np.uint8)]
    return PairProtocol(
        np.concatenate(cols_a), np.concatenate(cols_b),
        np.concatenate(cols_genuine), np.concatenate(cols_group),
    )


def read_pairs_csv(path, dataset):
    """Load ``index_a,index_b,genuine`` rows; groups come from the dataset.
    A file with no row (``truncated``) or with rows of other than 3 cells
    (``bad_value``) is a format error, as a cell that is not an integer is."""
    try:
        with open(path) as lines:  # np.loadtxt warns on a file without rows
            next(lines, None)  # the header
            if not any(line.split("#")[0].strip() for line in lines):
                raise DataFormatError("truncated", "pair protocol file %s is empty" % path)
        raw = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise DataFormatError("bad_value", "pair protocol %s: %s" % (path, exc))
    if raw.shape[1] != 3:
        raise DataFormatError("bad_value", "pair protocol %s needs exactly 3 columns, got %d"
                              % (path, raw.shape[1]))
    index_a, index_b, genuine = raw[:, 0], raw[:, 1], raw[:, 2]
    if index_a.min() < 0 or index_a.max() >= dataset.n or index_b.min() < 0 or index_b.max() >= dataset.n:
        raise ValidationError("pair index out of range for dataset of %d records" % dataset.n)
    if not np.isin(genuine, (0, 1)).all():
        raise DataFormatError("bad_value", "pair protocol %s: genuine cells must be 0 or 1" % path)
    return PairProtocol(
        index_a, index_b, genuine.astype(bool), dataset.attributes[index_a]
    )


def score_pairs(dataset, protocol):
    """Cosine similarity per pair; returns (scores, zero_norm_pair_count).

    A pair touching a zero-norm descriptor gets the sentinel score -1 and
    counts toward the warning total.
    """
    protocol.validate_against(dataset)
    norms = np.linalg.norm(dataset.vectors, axis=1)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    unit = dataset.vectors / safe[:, None]
    scores = np.empty(protocol.n)
    for start in range(0, protocol.n, SCORE_CHUNK):
        chunk = slice(start, start + SCORE_CHUNK)
        scores[chunk] = np.einsum(
            "ij,ij->i", unit[protocol.index_a[chunk]], unit[protocol.index_b[chunk]]
        )
    bad = zero[protocol.index_a] | zero[protocol.index_b]
    scores[bad] = -1.0
    return scores, int(bad.sum())


@dataclass
class OperatingPoint:
    fpr_target: float
    threshold: float
    tpr: float
    achieved_fpr: float


@dataclass
class EvalReport:
    fpr_targets: tuple
    per_group: dict  # group code -> list[OperatingPoint]
    bias: list  # |TPR_m - TPR_f| per target
    warnings: list = field(default_factory=list)


def _group_operating_points(genuine_scores, impostor_scores, fpr_targets, group, warnings):
    imp_desc = np.sort(impostor_scores)[::-1]
    m = len(imp_desc)
    points = []
    for target in fpr_targets:
        if target < 1.0 / m:
            warnings.append(
                "group %s: target FPR %g below 1/%d impostors; achieved FPR is 0"
                % (GROUP_NAMES[group], target, m)
            )
        # The largest k < m with k / m <= target, by the rule's own comparison.
        k = bisect.bisect_right(range(m), target, key=lambda j: j / m) - 1
        threshold = float(imp_desc[k])
        tpr = float(np.mean(genuine_scores > threshold))
        achieved = float(np.mean(impostor_scores > threshold))
        points.append(OperatingPoint(target, threshold, tpr, achieved))
    return points


def check_fpr_targets(fpr_targets):
    """Refuse any target FPR outside (0, 1)."""
    if not all(0.0 < target < 1.0 for target in fpr_targets):
        raise ValidationError("FPR targets must be in (0, 1)")


def tpr_at_fpr(scores, protocol, fpr_targets):
    """Per-group operating points at each target; groups evaluated separately."""
    check_fpr_targets(fpr_targets)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (protocol.n,):
        raise DimensionError("one score per protocol pair required")
    report_warnings = []
    per_group = {}
    for group in (1, 0):
        mask = protocol.group == group
        gen = scores[mask & protocol.genuine]
        imp = scores[mask & ~protocol.genuine]
        if len(gen) == 0 or len(imp) == 0:
            raise ValidationError(
                "group %s needs at least one genuine and one impostor pair"
                % GROUP_NAMES[group]
            )
        per_group[group] = _group_operating_points(
            gen, imp, fpr_targets, group, report_warnings
        )
    return per_group, report_warnings


def bias(tpr_m, tpr_f):
    """Absolute TPR gap between the two group protocols at one FPR."""
    for value in (tpr_m, tpr_f):
        if not 0.0 <= value <= 1.0:
            raise ValidationError("TPR values must be in [0, 1]")
    return abs(tpr_m - tpr_f)


def evaluate(dataset, protocol, fpr_targets):
    """Score + sweep + bias in one call."""
    scores, zero_pairs = score_pairs(dataset, protocol)
    per_group, warns = tpr_at_fpr(scores, protocol, fpr_targets)
    if zero_pairs:
        warns.append("%d pairs touched zero-norm descriptors (scored -1)" % zero_pairs)
    biases = [
        bias(pm.tpr, pf.tpr) for pm, pf in zip(per_group[1], per_group[0])
    ]
    return EvalReport(tuple(fpr_targets), per_group, biases, warns)


def write_report_csv(report, path, comments=()):
    lines = list(comments)
    lines.append(THRESHOLD_RULE)
    for group in (1, 0):
        for pt in report.per_group[group]:
            lines.append(
                "group=%s fpr_target=%s threshold=%s achieved_fpr=%s"
                % (
                    GROUP_NAMES[group], format_float(pt.fpr_target),
                    format_float(pt.threshold), format_float(pt.achieved_fpr),
                )
            )
    for warning in report.warnings:
        lines.append("warning: %s" % warning)
    rows = [(format_float(target), format_float(report.per_group[1][i].tpr),
             format_float(report.per_group[0][i].tpr), format_float(report.bias[i]))
            for i, target in enumerate(report.fpr_targets)]
    write_csv_report(path, lines, ("fpr", "tpr_m", "tpr_f", "bias"), rows)


@blas_threads(1)
def ablation_sweep(dataset, fits, fpr, impostor_ratio=DEFAULT_IMPOSTOR_RATIO,
                   seed=0, probe_fraction=0.3):
    """Fit each variant on one side of an identity split, read it on the other.

    ``fits`` is a list of ``(label, fit)``; ``fit(fit_set)`` returns the
    variant's re-embedding map, a function from a dataset to the dataset
    re-embedded. ``split_by_identity`` holds out ``probe_fraction`` of the
    records by ``seed``, whole identities at a time. Each map is fit on the
    other side. The leakage probe trains on that side re-embedded and is
    read on the held-out side re-embedded, and TPR is read on one pair
    protocol drawn from the held-out side, so each group there needs two
    identities, one of them with two records.
    Each row (fit, re-embedding, evaluation and probe) runs in a forked
    child, at most one per usable core at a time, each pinned to its share
    of the cores, so a training row runs ``trainer.thread_plan``'s workers
    on that share; a row left alone on one core runs last in this process,
    on every core (``linalg.in_processes``). BLAS runs on one thread, as in
    ``sweep``, so the rows do not depend on the caller's thread count, and a
    child pinned to one core never runs two BLAS threads on it.
    Returns rows of (label, tpr_m, tpr_f, bias, probe_accuracy_pct).
    """
    check_fpr_targets((fpr,))  # before the first variant is fit
    fit_idx, held_idx = split_by_identity(dataset, probe_fraction, seed)
    fit_set, held_out = dataset.subset(fit_idx), dataset.subset(held_idx)
    protocol = make_pairs(held_out, impostor_ratio, seed)

    def row(variant):
        label, fit = variant
        remap = fit(fit_set)
        embedded = remap(held_out)
        report = evaluate(embedded, protocol, (fpr,))
        probe_report = probe_eval(probe_train(remap(fit_set)), embedded)
        return (label, report.per_group[1][0].tpr, report.per_group[0][0].tpr,
                report.bias[0], probe_report.overall_accuracy)

    return in_processes(row, fits)
