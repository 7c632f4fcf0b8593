"""The five scalar training objectives and their input-side gradients.

Each loss reduces to a batch mean (per-member losses are summed across the
ensemble), so the debiasing weight keeps the same meaning at any batch
size. Each objective is a plain float. Probabilities are clamped at 1e-12
before the log, and gradients keep the -1/p form at the clamp so a
saturated prediction still pushes back instead of dying.

Gradients here are with respect to the loss *inputs* (probability rows);
composing them with the network backward passes yields the gradients the
trainer applies.
"""

import numpy as np

from .errors import DimensionError, ValidationError

LOG_CLAMP = 1e-12


def _clamped_log(p):
    return np.log(np.maximum(p, LOG_CLAMP))


def _true_class_probs(probs, labels, n_classes_name, stacked):
    """``probs`` as float64, and the probability each row gives its label."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 and not (stacked and probs.ndim == 3):
        raise DimensionError("probability input must be 2-d")
    if labels.shape != (probs.shape[-2],):
        raise DimensionError("one label per probability row required")
    if labels.min() < 0 or labels.max() >= probs.shape[-1]:
        raise ValidationError("label out of range for %d %s" % (probs.shape[-1], n_classes_name))
    return probs, probs[..., np.arange(probs.shape[-2]), labels]


def _cross_entropy(probs, labels, n_classes_name, stacked=False):
    """Mean of -log p(label) over the rows, summed over a stacked leading axis."""
    _, p_true = _true_class_probs(probs, labels, n_classes_name, stacked)
    return float(-_clamped_log(p_true).mean(axis=-1).sum())


def _cross_entropy_grad(probs, labels, n_classes_name, stacked=False):
    probs, p_true = _true_class_probs(probs, labels, n_classes_name, stacked)
    d = np.zeros_like(probs)
    d[..., np.arange(probs.shape[-2]), labels] = -1.0 / (probs.shape[-2]
                                                         * np.maximum(p_true, LOG_CLAMP))
    return d


def l_class(probs, y_id):
    """Mean cross-entropy of the classifier rows against identity labels."""
    return _cross_entropy(probs, y_id, "identity classes")


def l_class_grad(probs, y_id):
    return _cross_entropy_grad(probs, y_id, "identity classes")


def l_g_member(out, y_g):
    """Binary cross-entropy of one ensemble member against attribute labels.

    ``out`` columns are indexed by attribute code, so the probability of
    the true attribute is a plain row gather. A stacked ``(k, n, 2)``
    input holds k members; the value is then the sum of their losses, the
    ensemble objective ``l_g`` sums from a list of members.
    """
    return _cross_entropy(out, y_g, "attribute classes", stacked=True)


def l_g_member_grad(out, y_g):
    return _cross_entropy_grad(out, y_g, "attribute classes", stacked=True)


def l_g(member_outputs, y_g):
    """Sum of per-member attribute cross-entropies over the whole ensemble."""
    if len(member_outputs) < 1:
        raise ValidationError("l_g needs at least one ensemble member")
    return sum(l_g_member(out, y_g) for out in member_outputs)


def l_a(out):
    """Distance of a member's output pair from maximal confusion.

    Mean over the batch of -(0.5 log o_f + 0.5 log o_m); minimized (at
    log 2) exactly when both probabilities are 0.5.
    """
    out = np.asarray(out, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != 2:
        raise DimensionError("l_a expects (n, 2) probability rows")
    return float(-(0.5 * _clamped_log(out)).sum(axis=1).mean())


def l_a_grad(out):
    out = np.asarray(out, dtype=np.float64)
    return -0.5 / (out.shape[0] * np.maximum(out, LOG_CLAMP))


def l_deb(member_values):
    """Pick the strongest remaining attribute predictor.

    Takes per-member confusion losses (batch means) and returns the max
    plus the index of the member that attains it; ties go to the lowest
    index so reruns are deterministic. Gradients flow only through the
    selected member.
    """
    if len(member_values) < 1:
        raise ValidationError("l_deb needs at least one member value")
    k = int(np.argmax(member_values))
    return float(member_values[k]), k


def l_br(class_value, deb_value, lam):
    """Combined objective: identity term plus ``lam`` times the debias term."""
    if lam < 0:
        raise ValidationError("debiasing weight must be >= 0")
    return class_value + lam * deb_value
