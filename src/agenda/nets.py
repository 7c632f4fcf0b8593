"""The three learnable components and their hand-derived gradients.

* generator: one linear layer into 256 units with a per-channel PReLU,
  mapping input descriptors to the suppressed embedding.
* classifier: linear + softmax over identity classes.
* discriminator: linear(256->128) + SELU, linear(128->2), then a softmax
  over the two attribute logits. No sigmoid sits before the softmax: it
  would cap a member's top probability at e/(1+e) and, once saturated,
  pass almost no confusion gradient back to the generator.

Every parameter container keeps its blocks as named views into one
contiguous float64 buffer (``flat``) laid out in checkpoint payload order,
so Adam and checkpoint I/O each work on a single array. An ensemble of k
discriminators is one buffer, member after member; its ``w1``..``b2`` are
stacked ``(k, ...)`` views and ``members`` holds per-member views, so the
discriminator passes run either one member or all k at once.

Forward passes return ``(output, cache)``; the matching backward consumes
the cache plus an upstream gradient and produces exact analytic gradients.
The generator's backward gives its parameter gradients only (nothing
upstream of it learns); the classifier's also gives the gradient of its
input, and the discriminator's gives either or both, as asked. All math is
float64. Shapes are taken from the parameter arrays, so tests can build
small toy nets from arrays while the factories produce the production sizes.

The generator and classifier passes take an optional ``pool`` (anything
with ``submit``). Given one, each large product is cut in two by output
rows and the second part runs on the pool; every output element is still
one gemm dot product over the whole summed axis, so the bytes are those of
a single call.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .dataio import read_binary, refuse_zero_sizes, rng, write_binary
from .errors import DimensionError, NumericError, StateError

GENERATOR_UNITS = 256
DISCRIMINATOR_HIDDEN = 128
PRELU_INIT_SLOPE = 0.25

# Self-normalizing activation constants from the standard reference.
SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


class _Params:
    """Named blocks (``FIELDS``) viewing one contiguous float64 buffer.

    Built from one array per block, each passed by its name, the blocks are
    copied into a fresh buffer; ``_view`` binds the blocks onto an existing
    buffer.
    """

    FIELDS = ()
    STACKED = False  # blocks carry a leading member axis

    def __init__(self, **blocks):
        arrays = [np.asarray(blocks[name], dtype=np.float64) for name in self.FIELDS]
        self._bind(np.concatenate([a.ravel() for a in arrays]), tuple(a.shape for a in arrays))

    @classmethod
    def _view(cls, flat, shapes):
        obj = cls.__new__(cls)
        obj._bind(flat, shapes)
        return obj

    def _bind(self, flat, shapes):
        self.flat, self.shapes = flat, shapes
        rows = flat.reshape(-1, sum(math.prod(s) for s in shapes))  # one row per member
        lead = (len(rows),) if self.STACKED else ()
        pos = 0
        for name, shape in zip(self.FIELDS, shapes):
            size = math.prod(shape)
            setattr(self, name, rows[:, pos : pos + size].reshape(lead + shape))
            pos += size
        if self.STACKED:
            self.members = [DiscriminatorParams._view(row, shapes) for row in rows]

    def empty_like(self):
        """Same layout over a new, uninitialized buffer (for gradients)."""
        return self._view(np.empty_like(self.flat), self.shapes)


class GeneratorParams(_Params):
    FIELDS = ("weight", "bias", "prelu_slope")  # (in_dim, units), (units,), (units,)


class ClassifierParams(_Params):
    FIELDS = ("weight", "bias")  # (units, n_identities), (n_identities,)


class DiscriminatorParams(_Params):
    FIELDS = ("w1", "b1", "w2", "b2")  # (units, hidden), (hidden,), (hidden, 2), (2,)


class EnsembleParams(_Params):
    """k discriminators in one member-major buffer.

    ``w1``..``b2`` are stacked ``(k, ...)`` views; ``members`` lists one
    ``DiscriminatorParams`` view per member. ``shapes`` are per member.
    """

    FIELDS = DiscriminatorParams.FIELDS
    STACKED = True

    def __init__(self, members):
        self._bind(np.concatenate([m.flat for m in members]), members[0].shapes)

    def member_slice(self, start, stop):
        """Members ``start``..``stop - 1`` as an ensemble viewing this buffer."""
        size = self.flat.size // len(self.members)
        return self._view(self.flat[start * size : stop * size], self.shapes)


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_generator(in_dim, seed):
    return GeneratorParams(
        weight=_glorot(rng(seed), in_dim, GENERATOR_UNITS),
        bias=np.zeros(GENERATOR_UNITS),
        prelu_slope=np.full(GENERATOR_UNITS, PRELU_INIT_SLOPE),
    )


def init_classifier(n_identities, seed):
    return ClassifierParams(
        weight=_glorot(rng(seed), GENERATOR_UNITS, n_identities),
        bias=np.zeros(n_identities),
    )


def init_ensemble(k, seed):
    return EnsembleParams([
        DiscriminatorParams(w1=_glorot(stream, GENERATOR_UNITS, DISCRIMINATOR_HIDDEN),
                            b1=np.zeros(DISCRIMINATOR_HIDDEN),
                            w2=_glorot(stream, DISCRIMINATOR_HIDDEN, 2), b2=np.zeros(2))
        for stream in map(rng, seed.spawn(k))])


def _check_batch(x, expected_cols, who):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError("%s expects a 2-d batch" % who)
    if x.shape[1] != expected_cols:
        raise DimensionError(
            "%s expects %d columns, got %d" % (who, expected_cols, x.shape[1])
        )
    return x


def _check_upstream(cache, output_slot, d_out, who):
    if cache is None:
        raise StateError("%s called without a cached forward pass" % who)
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != cache[output_slot].shape:
        raise DimensionError("upstream gradient shape %s != forward output %s"
                             % (d_out.shape, cache[output_slot].shape))
    return d_out


def _t(a):
    """Transpose of the last two axes (a matrix or a stack of matrices)."""
    return np.swapaxes(a, -1, -2)


def _softmax_rows(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def _softmax_backward(probs, d_probs):
    # dL/dz_j = p_j * (g_j - sum_i g_i p_i) for row-wise softmax.
    inner = (d_probs * probs).sum(axis=-1, keepdims=True)
    return probs * (d_probs - inner)


def _select(mask, other):
    """1.0 where ``mask`` holds, ``other`` (finite) elsewhere.

    Exact, and branch-free: ``np.where`` on a random mask costs several
    times more than these four passes.
    """
    on = mask.astype(np.float64)
    return on + (1.0 - on) * other


SPLIT_WORK = 1 << 23  # multiply-adds; a smaller product is always one call
SPLIT_ROWS = 64  # the fewest rows of a part: thinner ones can take BLAS's small-matrix path


def _split_at(rows, work):
    """The output row where a product of ``rows`` rows and ``work``
    multiply-adds is cut in two, or None for one call. It depends on the
    shape only: a multiple of 8 near the middle, with ``SPLIT_ROWS`` or
    more rows on each side."""
    if work < SPLIT_WORK or rows < 2 * SPLIT_ROWS:
        return None
    return rows // 16 * 8


def _product(a, b, out=None, pool=None):
    """``a @ b`` into ``out`` (a new array when None). With a ``pool`` and
    a large enough product, the rows from the cut on are computed there
    while this thread computes the rest; each part writes only its own
    rows of ``out``. An error of either part is raised once both are done."""
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]))
    cut = None if pool is None else _split_at(len(a), a.size * b.shape[1])
    if cut is None:
        return np.matmul(a, b, out=out)
    second = pool.submit(np.matmul, a[cut:], b, out[cut:])
    try:
        np.matmul(a[:cut], b, out=out[:cut])
    except BaseException:
        second.exception()  # waits for the other part
        raise
    second.result()
    return out


def generator_forward(params, x, pool=None):
    """PReLU(x @ W + b); returns (batch x units, cache)."""
    x = _check_batch(x, params.weight.shape[0], "generator_forward")
    z = _product(x, params.weight, pool=pool)
    z += params.bias
    z_neg = np.minimum(z, 0.0)
    # max(z, 0) + slope min(z, 0) is exactly z where z >= 0, slope z below.
    out = np.maximum(z, 0.0) + z_neg * params.prelu_slope
    return out, (x, z_neg)


def generator_backward(params, cache, d_out, pool=None):
    """The parameter gradients; the generator's input gets none."""
    d_out = _check_upstream(cache, 1, d_out, "generator_backward")
    x, z_neg = cache
    d_z = d_out * _select(z_neg == 0.0, params.prelu_slope)
    grads = params.empty_like()
    _product(x.T, d_z, grads.weight, pool)
    d_z.sum(axis=0, out=grads.bias)
    (d_out * z_neg).sum(axis=0, out=grads.prelu_slope)
    return grads


def classifier_forward(params, f_out, pool=None):
    """softmax(f @ W + b) with max-subtraction; rows sum to 1."""
    f_out = _check_batch(f_out, params.weight.shape[0], "classifier_forward")
    logits = _product(f_out, params.weight, pool=pool)
    logits += params.bias
    probs = _softmax_rows(logits)
    return probs, (f_out, probs)


def classifier_backward(params, cache, d_probs, pool=None):
    d_probs = _check_upstream(cache, 1, d_probs, "classifier_backward")
    f_out, probs = cache
    d_logits = _softmax_backward(probs, d_probs)
    grads = params.empty_like()
    _product(f_out.T, d_logits, grads.weight, pool)
    d_logits.sum(axis=0, out=grads.bias)
    return grads, _product(d_logits, params.weight.T, pool=pool)


def discriminator_forward(params, f_out):
    """SELU hidden layer, two attribute logits, softmax across the pair.

    Column ``a`` of the result is the predicted probability of attribute
    code ``a`` (0 = female, 1 = male); rows sum to 1. With an
    ``EnsembleParams`` the result is stacked, ``(k, batch, 2)``.
    """
    f_out = _check_batch(f_out, params.w1.shape[-2], "discriminator_forward")
    z1 = f_out @ params.w1 + params.b1[..., None, :]
    ez1 = np.exp(np.minimum(z1, 0.0))  # the backward pass reuses it
    # max(z, 0) + alpha (exp(min(z, 0)) - 1) is exactly z where z > 0.
    h = SELU_LAMBDA * (np.maximum(z1, 0.0) + SELU_ALPHA * (ez1 - 1.0))
    z2 = h @ params.w2 + params.b2[..., None, :]
    out = _softmax_rows(z2)
    return out, (f_out, z1, ez1, h, out)


def member_cache(cache, i):
    """Member ``i``'s slice of a stacked discriminator forward cache."""
    return cache[:1] + tuple(part[i] for part in cache[1:])


def discriminator_backward(params, cache, d_out, input_grad=True, param_grad=True):
    """Gradients for the parameters and the input, each only when asked
    (the other slot of the returned pair is then None)."""
    d_out = _check_upstream(cache, 4, d_out, "discriminator_backward")
    f_out, z1, ez1, h, out = cache
    d_z2 = _softmax_backward(out, d_out)
    d_h = d_z2 @ _t(params.w2)
    d_z1 = d_h * SELU_LAMBDA * _select(z1 > 0.0, SELU_ALPHA * ez1)
    grads = None
    if param_grad:
        grads = params.empty_like()
        np.matmul(f_out.T, d_z1, out=grads.w1)
        d_z1.sum(axis=-2, out=grads.b1)
        np.matmul(_t(h), d_z2, out=grads.w2)
        d_z2.sum(axis=-2, out=grads.b2)
    return grads, (d_z1 @ _t(params.w1) if input_grad else None)


def param_items(params):
    """(name, array) pairs for one parameter block, in declaration order."""
    return [(name, getattr(params, name)) for name in params.FIELDS]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam accumulators for one parameter container.

    The update is ``p -= lr * m_hat / sqrt(v_hat + eps)`` — epsilon sits
    inside the square root. ``buffers`` holds m, v and two scratch rows,
    each the size of the container's flat buffer, from the first step on.
    """

    lr: float
    step: int = 0
    buffers: np.ndarray = None


def adam_step(state, params, grads):
    """One Adam update, mutating ``params`` and ``state`` in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for (name, p), (_, g) in zip(param_items(params), param_items(grads)):
        if p.shape != g.shape:
            raise DimensionError("gradient shape mismatch for block %r" % name)
    p, g = params.flat, grads.flat
    if not np.isfinite(g).all():
        name = next(n for n, a in param_items(grads) if not np.isfinite(a).all())
        error = NumericError("non-finite gradient in parameter block %r" % name)
        error.block = name
        raise error
    if state.buffers is None:
        state.buffers = np.zeros((4, p.size))
    m, v, s, r = state.buffers
    # In place, with the operations and their order of the textbook form
    # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g;
    # p -= lr (m / bc1) / sqrt(v / bc2 + eps).
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=s), g, out=s)
    np.multiply(np.divide(m, bc1, out=s), state.lr, out=s)
    np.sqrt(np.add(np.divide(v, bc2, out=r), ADAM_EPS, out=r), out=r)
    p -= np.divide(s, r, out=s)


CKPT_MAGIC = b"AGND"
CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIIIIII")


def save_checkpoint(path, generator, classifier, ensemble):
    """Write all trained parameter blocks; float64 little-endian payload."""
    in_dim, units = generator.weight.shape
    write_binary(
        path, _CKPT_HEADER, CKPT_MAGIC,
        (in_dim, units, classifier.weight.shape[1], len(ensemble.members), ensemble.shapes[0][1]),
        [generator.flat, classifier.flat, ensemble.flat], CKPT_VERSION,
    )


def load_checkpoint(path):
    """Read a checkpoint back into (generator, classifier, ensemble).

    The header's sizes are checked against the file size before anything
    is allocated; the three containers view one buffer.
    """
    shapes = []

    def layout(in_dim, units, n_identities, k, hidden):
        refuse_zero_sizes("checkpoint", in_dim, units, n_identities, k, hidden)
        shapes.extend((((in_dim, units), (units,), (units,)),
                       ((units, n_identities), (n_identities,)),
                       ((units, hidden), (hidden,), (hidden, 2), (2,))))
        g_size, c_size, m_size = (sum(math.prod(s) for s in group) for group in shapes)
        return [("<f8", (g_size,)), ("<f8", (c_size,)), ("<f8", (k * m_size,))]

    _, blocks = read_binary(path, _CKPT_HEADER, CKPT_MAGIC, layout, CKPT_VERSION)
    flat = np.concatenate(blocks)
    g_end = blocks[0].size
    c_end = g_end + blocks[1].size
    return (
        GeneratorParams._view(flat[:g_end], shapes[0]),
        ClassifierParams._view(flat[g_end:c_end], shapes[1]),
        EnsembleParams._view(flat[c_end:], shapes[2]),
    )
