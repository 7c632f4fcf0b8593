"""Four-stage adversarial training loop over generator, classifier, ensemble.

Stage schedule per episode i (0-based):

1. (episode 0 only) initialize generator + classifier, train ``t_fc`` steps
   on the identity loss at rate ``alpha1``.
2. (whenever ``i % t_ep == 0``) re-initialize the whole ensemble and train
   every member for ``t_gtrain`` steps on the attribute loss at ``alpha2``;
   generator and classifier frozen.
3. train generator + classifier for ``t_deb`` steps on the combined loss at
   ``alpha3``; ensemble frozen, and only the strongest member's confusion
   term steers the generator.
4. train member ``i % k`` on its attribute loss at ``alpha2`` for up to
   ``t_plat`` steps, checking validation accuracy before each update and
   stopping once it exceeds ``g_thresh``; generator and classifier frozen.

Determinism: every random draw comes from a Philox stream derived from the
run seed with a fixed spawn key, namespaced below. Batch streams are keyed
by (episode, stage) so ablations with the same seed consume identical
batches in matching stages. Adam state is fresh at each stage entry.

Parallelism: work that reads nothing the other part writes runs on two or
more threads, with the same arithmetic in the same order as on one, so the
results do not depend on the thread count. Stage 2 splits the members into
``min(k, workers)`` contiguous groups, each trained for all ``t_gtrain``
steps on its own thread, Adam state and copy of the stage's batch stream.
In stages 1 and 3 the pool computes the second row part of each large
generator product (``nets._product``), and the classifier's Adam step runs
on it beside the generator's backward pass and Adam step. In stage 3 the
classifier lane (forward, loss, backward) runs there beside the
discriminator lane (stacked forward, the strongest member's input
gradient); stage 1 has one lane and cuts its classifier's products too.
In stage 4 the pool computes the next batch's gradient beside each
validation check after the first, and Adam applies it only if the check
says go on. A cut depends on the product's shape only, never on the
worker count. Only this thread submits work, and only lanes that never
wait on the pool run on it.
``thread_plan`` gives one worker per usable core, at most ``max(k, 2)``.
``train`` hands the one pool to every stage method, and BLAS runs on one
thread while it lives (``linalg.blas_threads``).

Memory: ``TrainState`` holds what the stages share. The splits are index
arrays into the caller's corpus (float32 as read from a file), gathered and
widened to float64 per batch or per chunk, never copied whole. A stage's
own buffers (Adam state, batches, stage 4's validation pass) are locals of
its method; only ``f_train``, the pass over the training split that stage
4 and the next stage 2 share, outlives one.
Batches are drawn as they are used: stage 2 keeps no list of its
``t_gtrain`` batches (96 MiB at the paper's 30,000 steps of 400).
A 512-d train at batch 400 and k 5 peaks at about 118 MiB.
"""

import contextlib
import dataclasses
import functools
import itertools
import math
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg, losses, nets
from .dataio import (ROW_CHUNK, format_float, refuse_oversized, rng, split_by_identity,
                     write_csv_report)
from .errors import NumericError, ValidationError

# Spawn-key namespaces under the run seed.
NS_INIT_MC = 0  # generator + classifier initialization
NS_INIT_E = 1  # (NS_INIT_E, episode // t_ep) per ensemble re-initialization
NS_BATCHES = 2  # (NS_BATCHES, episode, stage) per batch stream
NS_SPLIT = 3  # validation split


@dataclass
class TrainConfig:
    """All hyperparameters of the training loop.

    Defaults are the desk-scale configuration (descriptor dim 64, ~10k
    records): full-scale runs in the source protocol used t_fc=66000,
    t_gtrain=30000, t_deb=1200, t_plat=2000, batch 400 with alpha1=1e-5;
    the iteration counts here are t_fc 1/33, t_gtrain 1/50, t_deb 1/6 and
    t_plat 1/6.7 of those.
    ``t_ep`` defaults to ``k`` (one full round-robin over members between
    ensemble re-initializations) when left unset.
    """

    lam: float = 10.0
    k: int = 5
    t_fc: int = 2000
    t_gtrain: int = 600
    t_deb: int = 200
    t_plat: int = 300
    t_ep: int = None
    n_ep: int = 20
    g_thresh: float = 0.9
    alpha1: float = 1e-3
    alpha2: float = 1e-3
    alpha3: float = 1e-4
    batch_size: int = 128
    seed: int = 0
    validation_fraction: float = 0.1

    def __post_init__(self):
        if self.t_ep is None:
            self.t_ep = self.k

    def validate(self):
        for name in ("k", "t_fc", "t_gtrain", "t_deb", "t_plat", "t_ep", "n_ep"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValidationError("%s must be an integer >= 1, got %r" % (name, value))
        for name in ("alpha1", "alpha2", "alpha3"):
            if not getattr(self, name) > 0:
                raise ValidationError("%s must be > 0" % name)
        for name in ("lam", "seed"):
            if not getattr(self, name) >= 0:
                raise ValidationError("%s must be >= 0" % name)
        if not 0.5 < self.g_thresh <= 1.0:
            raise ValidationError("g_thresh must be in (0.5, 1]")
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ValidationError("batch_size must be even and >= 2 (attribute balancing)")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValidationError("validation_fraction must be in (0, 1)")

    def to_kv(self):
        return [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self)]


@dataclass
class LogRecord:
    """One row of the training log; the fields are its CSV columns."""

    episode: int
    stage: int
    iteration: int
    l_class: float = None
    l_deb: float = None
    l_br: float = None
    member_k: int = None
    val_acc: float = None


@dataclass
class TrainLog:
    """The log rows, plus what the manifest records: the worker count and
    each stage's wall seconds, summed over the episodes (never in a row)."""

    records: list = field(default_factory=list)
    workers: int = 1  # threads training ran on
    stage_seconds: dict = field(default_factory=dict)  # stage number -> seconds

    def append(self, **kw):
        self.records.append(LogRecord(**kw))

    def rows(self):
        """CSV cells per record: floats in round-trip form, unset cells empty."""
        fields = dataclasses.fields(LogRecord)
        for r in self.records:
            values = [getattr(r, f.name) for f in fields]
            yield tuple(format_float(v) if f.type is float else "" if v is None else v
                        for f, v in zip(fields, values))

    def write_csv(self, path, comments=()):
        columns = [f.name for f in dataclasses.fields(LogRecord)]
        write_csv_report(path, comments, columns, self.rows())


def balanced_batches(attributes, batch_size, seed):
    """Endless stream of index batches into ``attributes`` with equal
    counts per attribute value.

    Each epoch reshuffles both attribute pools from a stream spawned off
    the ``SeedSequence`` ``seed``; an epoch covers the larger pool once,
    and a pool exhausted mid-epoch is refilled by sampling that attribute's
    records with replacement.
    """
    if batch_size < 2 or batch_size % 2 != 0:
        raise ValidationError("batch_size must be even and >= 2")
    refuse_oversized("batch", batch_size)
    pool1 = np.flatnonzero(attributes == 1)
    pool0 = np.flatnonzero(attributes == 0)
    if len(pool0) == 0 or len(pool1) == 0:
        raise ValidationError("both attribute values must be present for balanced batches")
    half = batch_size // 2
    per_epoch = math.ceil(max(len(pool0), len(pool1)) / half)
    while True:
        draws = rng(seed.spawn(1)[0])
        shuffled1 = draws.permutation(pool1)
        shuffled0 = draws.permutation(pool0)
        for b in range(per_epoch):
            batch = []
            for pool, shuffled in ((pool1, shuffled1), (pool0, shuffled0)):
                take = shuffled[b * half : (b + 1) * half]
                if len(take) < half:
                    take = np.concatenate(
                        [take, draws.choice(pool, size=half - len(take), replace=True)]
                    )
                batch.append(take)
            yield np.concatenate(batch)


def _check_finite(value, stage, episode, iteration):
    if not np.isfinite(value):
        raise NumericError(
            "non-finite loss (%r) at stage %d, episode %d, iteration %d"
            % (value, stage, episode, iteration)
        )


GENERATOR_CHUNK = ROW_CHUNK  # rows per generator call in whole-split passes


def _generate(gen, vectors, rows=None):
    """Generator output for ``vectors[rows]`` (every row when ``rows`` is
    None), computed ``GENERATOR_CHUNK`` rows at a time so the temporaries
    stay small and a split is never copied whole; rows do not depend on the
    chunking."""
    n = len(vectors) if rows is None else len(rows)
    out = np.empty((n, gen.weight.shape[1]))
    for start in range(0, n, GENERATOR_CHUNK):
        part = slice(start, start + GENERATOR_CHUNK)
        x = vectors[part] if rows is None else vectors[rows[part]]
        out[part], _ = nets.generator_forward(gen, x)
    return out


def _classifier_lane(cls, f_out, y_id, split=None):
    probs, ccache = nets.classifier_forward(cls, f_out, pool=split)
    lc = losses.l_class(probs, y_id)
    cgrads, d_f = nets.classifier_backward(cls, ccache, losses.l_class_grad(probs, y_id),
                                           pool=split)
    return lc, cgrads, d_f


def _class_step(pool, gen, cls, adam_gen, adam_cls, x, y_id, where, ensemble=None, lam=0.0):
    """One generator + classifier update (stage 1, or stage 3 with the
    frozen ``ensemble``); returns the fields of the iteration's log row.

    Both stages split the large products of the generator's passes by rows
    across ``pool``. Stage 1 has one lane, on this thread, and splits its
    classifier's products too. In stage 3 the classifier lane runs on
    ``pool`` beside the discriminator lane and splits nothing, since a lane
    on the pool must never wait on it. In both, the classifier's Adam step
    runs on ``pool`` beside the generator's backward pass. The loss check
    comes before any parameter moves.
    """
    lanes, class_split = (_INLINE, pool) if ensemble is None else (pool, None)
    f_out, gcache = nets.generator_forward(gen, x, pool=pool)
    classified = lanes.submit(_classifier_lane, cls, f_out, y_id, class_split)
    if ensemble is not None:
        outs, dcache = nets.discriminator_forward(ensemble, f_out)  # all k at once
        ld, kstar = losses.l_deb([losses.l_a(out) for out in outs])
        # Ensemble weights stay frozen; only the input gradient of the
        # strongest member's confusion term reaches the generator.
        _, d_f_deb = nets.discriminator_backward(
            ensemble.members[kstar], nets.member_cache(dcache, kstar),
            lam * losses.l_a_grad(outs[kstar]), param_grad=False,
        )
    lc, cgrads, d_f = classified.result()
    row = dict(l_class=lc)
    if ensemble is None:
        _check_finite(lc, *where)
    else:
        lbr = losses.l_br(lc, ld, lam)
        _check_finite(lbr, *where)
        row.update(l_deb=ld, l_br=lbr, member_k=kstar)
        d_f = d_f + d_f_deb
    moved = pool.submit(nets.adam_step, adam_cls, cls, cgrads)
    ggrads = nets.generator_backward(gen, gcache, d_f, pool=pool)
    nets.adam_step(adam_gen, gen, ggrads)  # its error, if any, is raised first
    moved.result()
    return row


def _discriminator_grads(disc, f_out, y_g, where):
    """The attribute-loss gradients of one member (stage 4) or of a stack of
    members (stage 2), after the loss check; ``nets.adam_step`` applies
    them. Generator and classifier stay frozen."""
    out, dcache = nets.discriminator_forward(disc, f_out)
    _check_finite(losses.l_g_member(out, y_g), *where)
    grads, _ = nets.discriminator_backward(
        disc, dcache, losses.l_g_member_grad(out, y_g), input_grad=False
    )
    return grads


def _member_group_steps(group, batches, lr, f_train, y_g_all, episode, stop):
    """Stage 2 for one contiguous group of members, on its own Adam state,
    over the iterable ``batches``.

    Returns None, or (iteration, error) for the group's first failed step.
    Returns early once the ``stop`` event is set.
    """
    adam = nets.AdamState(lr=lr)
    for n, idx in enumerate(batches):
        if stop.is_set():
            return None
        try:
            grads = _discriminator_grads(group, f_train[idx], y_g_all[idx], (2, episode, n))
            nets.adam_step(adam, group, grads)
        except NumericError as exc:
            return n, exc
    return None


def _stack_failure(failures):
    """The error a step over the whole stack raises, given each group's
    first failure: the earliest iteration's; there the loss check, which
    runs first, before the gradient check, which names blocks in field order."""
    def order(failure):
        n, exc = failure
        block = getattr(exc, "block", None)
        return n, -1 if block is None else nets.EnsembleParams.FIELDS.index(block)

    return min(failures, key=order)[1]


def thread_plan(k):
    """Worker count for one training run: one per usable core, at most
    ``max(k, 2)``, so k = 1 still gives stages 1, 3 and 4 a second thread.
    Without a handle on numpy's BLAS thread count, BLAS keeps the
    environment's count and training runs on one thread.
    """
    if linalg.openblas_handle() is None:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, max(k, 2))


class _Inline:
    """The pool of a one-worker run: a submitted call runs at once."""

    def submit(self, fn, *args):
        # Imported here: concurrent.futures loads logging, which would add
        # about 7 ms to the start of every command; only training uses it.
        from concurrent.futures import Future

        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


_INLINE = _Inline()


@contextlib.contextmanager
def _worker_pool(workers):
    """``workers - 1`` threads beside the caller, with BLAS on one thread
    until the pool closes."""
    with linalg.blas_threads(1):
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(workers - 1) as pool:
                yield pool
        else:
            yield _INLINE


class TrainState:
    """What a run carries between stages: the split and its labels, the three
    parameter objects (each updated in place), the member groups, the log and
    ``f_train``. A stage's other buffers are locals of its method."""

    def __init__(self, dataset, config):
        self.dataset, self.config = dataset, config
        self.train_idx, self.val_idx = split_by_identity(
            dataset, config.validation_fraction, self.seed(NS_SPLIT))
        class_ids, self.y_id = np.unique(dataset.identities[self.train_idx], return_inverse=True)
        self.y_g = dataset.attributes[self.train_idx]
        if len(class_ids) < 2 or len(np.unique(self.y_g)) < 2:
            raise ValidationError("training needs 2 or more identities and both attribute "
                                  "values outside the validation split")
        self.val_attrs = dataset.attributes[self.val_idx]
        ss_gen, ss_cls = self.seed(NS_INIT_MC).spawn(2)
        self.gen = nets.init_generator(dataset.dim, ss_gen)
        self.cls = nets.init_classifier(len(class_ids), ss_cls)
        self.ensemble = nets.init_ensemble(config.k, self.seed(NS_INIT_E, 0))
        self.log = TrainLog(workers=thread_plan(config.k))
        self.groups = [self.ensemble.member_slice(part[0], part[-1] + 1)  # larger first
                       for part in np.array_split(np.arange(config.k),
                                                  min(config.k, self.log.workers))]
        self.f_train = None

    def seed(self, *key):  # the run seed under spawn key ``key``
        return np.random.SeedSequence(self.config.seed, spawn_key=key)

    def batches(self, episode, stage):
        """The stage's batch stream; every call starts the same stream over.
        A stage method gets it bound to its episode and stage, as
        ``batch_stream``, and draws from ``batch_stream()``."""
        return balanced_batches(self.y_g, self.config.batch_size,
                                self.seed(NS_BATCHES, episode, stage))

    def schedule(self):
        """(episode, stage, stage method) in the order they run."""
        for episode in range(self.config.n_ep):
            if episode == 0:
                yield episode, 1, self.warm_up
            if episode % self.config.t_ep == 0:
                yield episode, 2, self.train_members
            yield episode, 3, self.debias
            yield episode, 4, self.retrain_member

    def frozen(self):
        # One pass per generator state; stage 4 and the next stage 2 share it.
        if self.f_train is None:
            self.f_train = _generate(self.gen, self.dataset.vectors, self.train_idx)
        return self.f_train

    def _class_stage(self, pool, episode, stage, batch_stream, steps, lr, **deb):
        self.f_train = None  # the generator is about to move
        adam_gen, adam_cls = nets.AdamState(lr=lr), nets.AdamState(lr=lr)
        for n, idx in zip(range(steps), batch_stream()):
            row = _class_step(pool, self.gen, self.cls, adam_gen, adam_cls,
                              self.dataset.vectors[self.train_idx[idx]], self.y_id[idx],
                              (stage, episode, n), **deb)
            self.log.append(episode=episode, stage=stage, iteration=n, **row)

    def warm_up(self, pool, episode, batch_stream):
        self._class_stage(pool, episode, 1, batch_stream, self.config.t_fc, self.config.alpha1)

    def debias(self, pool, episode, batch_stream):
        self._class_stage(pool, episode, 3, batch_stream, self.config.t_deb, self.config.alpha3,
                          ensemble=self.ensemble, lam=self.config.lam)

    def train_members(self, pool, episode, batch_stream):
        # Refilled in place, so a hook that keeps the object sees every update.
        self.ensemble.flat[:] = nets.init_ensemble(
            self.config.k, self.seed(NS_INIT_E, episode // self.config.t_ep)).flat
        stop = threading.Event()
        # Each group draws the stage's t_gtrain batches from a stream of its own.
        streams = [itertools.islice(batch_stream(), self.config.t_gtrain) for _ in self.groups]
        args = (self.config.alpha2, self.frozen(), self.y_g, episode, stop)
        # The first (largest) group runs on this thread.
        rest = [pool.submit(_member_group_steps, group, stream, *args)
                for group, stream in zip(self.groups[1:], streams[1:])]
        try:
            failures = [_member_group_steps(self.groups[0], streams[0], *args)]
            failures += [future.result() for future in rest]
        except BaseException:  # e.g. KeyboardInterrupt: do not wait for the rest
            stop.set()
            raise
        if any(failures):
            raise _stack_failure([failure for failure in failures if failure])
        self.log.records += [LogRecord(episode, 2, n) for n in range(self.config.t_gtrain)]

    def retrain_member(self, pool, episode, batch_stream):
        k = episode % self.config.k
        member = self.ensemble.members[k]
        adam = nets.AdamState(lr=self.config.alpha2)
        f_val = _generate(self.gen, self.dataset.vectors, self.val_idx)
        batches = batch_stream()  # one batch per check; a stopping check's goes unused

        def gradient(n, idx):  # it and check n read the member as step n - 1 left it
            return _discriminator_grads(member, self.frozen()[idx], self.y_g[idx], (4, episode, n))

        ahead = None
        for n in range(self.config.t_plat):
            if n:  # beside the check; check 0 may stop the stage before f_train exists
                ahead = pool.submit(gradient, n, next(batches))
            val_out, _ = nets.discriminator_forward(member, f_val)
            acc = float(np.mean(np.argmax(val_out, axis=1) == self.val_attrs))
            self.log.append(episode=episode, stage=4, iteration=n, member_k=k, val_acc=acc)
            if acc > self.config.g_thresh:
                break
            grads = gradient(n, next(batches)) if ahead is None else ahead.result()
            nets.adam_step(adam, member, grads)
        if ahead is not None:  # a stopping check waits for its gradient, then drops it
            ahead.exception()  # and any error it raised


def train(dataset, config, stage_hook=None):
    """Run the full schedule; returns (generator, classifier, ensemble, log).

    ``stage_hook(event, episode, stage, gen, cls, ensemble)`` is invoked
    with event "start"/"end" around every executed stage; it must treat the
    parameters as read-only. Each of the three is one object for the whole
    run, updated in place. A stage's wall time, hooks excluded, adds to
    ``log.stage_seconds``.
    """
    config.validate()
    state = TrainState(dataset, config)
    seconds = state.log.stage_seconds
    with _worker_pool(state.log.workers) as pool:
        for episode, stage, run in state.schedule():
            if stage_hook is not None:
                stage_hook("start", episode, stage, state.gen, state.cls, state.ensemble)
            started = time.monotonic()
            run(pool, episode, functools.partial(state.batches, episode, stage))
            seconds[stage] = seconds.get(stage, 0.0) + time.monotonic() - started
            if stage_hook is not None:
                stage_hook("end", episode, stage, state.gen, state.cls, state.ensemble)
    return state.gen, state.cls, state.ensemble, state.log


def transform(gen, dataset):
    """Re-embed every record through the generator; labels pass through."""
    return dataset.remap("generator", gen.weight.shape, functools.partial(_generate, gen))
