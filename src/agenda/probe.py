"""Attribute leakage probe: logistic regression on descriptor vectors.

The probe is the measuring stick for every pipeline claim: train it on one
identity-disjoint split, evaluate on the other, and read the attribute off
the descriptors. Features are standardized per dimension from the training
split (so probe accuracy is scale-invariant) and the standardization is
folded back into the returned weights; the model applies to raw features.

Optimization is full-batch gradient descent on the L2-regularized binary
cross-entropy. The loss is convex, so the optimizer settings only affect
how close we land to the unique optimum; the defaults (500 epochs, rate
0.1, L2 1e-4) are recorded in every report. Training is deterministic
(zero initialization) and draws no random numbers; a seed only chooses
the identity-disjoint split that the caller makes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ValidationError

DEFAULT_EPOCHS = 500
DEFAULT_RATE = 0.1
DEFAULT_L2 = 1e-4


@dataclass
class ProbeModel:
    weight: np.ndarray  # (dim,)
    bias: float


@dataclass
class ProbeReport:
    overall_accuracy: float  # percent
    females_misclassified: float  # percent of attribute-0 records predicted 1
    males_misclassified: float  # percent of attribute-1 records predicted 0
    test_size: int


def probe_train(dataset, epochs=DEFAULT_EPOCHS, rate=DEFAULT_RATE, l2=DEFAULT_L2):
    """Fit the probe on ``dataset``; caller is responsible for keeping the
    evaluation split identity-disjoint from this one. The standardized
    features are one float64 copy of ``dataset.vectors``, centred and scaled
    in place. Raises :class:`NumericError` if the descent diverges."""
    if epochs < 1 or not rate > 0 or not l2 >= 0:
        raise ValidationError("probe needs epochs >= 1, rate > 0 and l2 >= 0")
    y = dataset.attributes.astype(np.float64)
    if len(np.unique(dataset.attributes)) < 2:
        raise ValidationError("probe training needs both attribute classes")
    mean = dataset.vectors.mean(axis=0, dtype=np.float64)
    std = dataset.vectors.std(axis=0, dtype=np.float64)
    std = np.where(std == 0.0, 1.0, std)
    xs = dataset.vectors - mean  # the one working copy, standardized in place
    xs /= std

    n = dataset.n
    w = np.zeros(dataset.dim)
    b = 0.0
    # A diverging descent is reported once, below, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            p = 1.0 / (1.0 + np.exp(-(xs @ w + b)))
            err = p - y
            w -= rate * (xs.T @ err / n + l2 * w)
            b -= rate * float(err.mean())
    if not (np.all(np.isfinite(w)) and np.isfinite(b)):
        raise NumericError("probe descent diverged to non-finite weights at rate %r" % rate)
    # Fold the standardization into the weights: the model then scores raw
    # descriptor vectors directly.
    folded_w = w / std
    folded_b = b - float((w * mean / std).sum())
    return ProbeModel(weight=folded_w, bias=folded_b)


def probe_eval(model, dataset):
    """Accuracy at threshold 0.5 plus per-group misclassification rates."""
    if dataset.n == 0:
        raise ValidationError("probe evaluation needs a non-empty test set")
    if dataset.dim != model.weight.shape[0]:
        raise DimensionError("probe expects dim %d, got %d" % (model.weight.shape[0], dataset.dim))
    correct = (dataset.vectors @ model.weight + model.bias > 0.0) == dataset.attributes
    females = dataset.attributes == 0
    males = ~females

    def _pct_wrong(mask):
        if not mask.any():
            return 0.0
        return 100.0 * float(np.mean(~correct[mask]))

    return ProbeReport(
        overall_accuracy=100.0 * float(correct.mean()),
        females_misclassified=_pct_wrong(females),
        males_misclassified=_pct_wrong(males),
        test_size=int(dataset.n),
    )
