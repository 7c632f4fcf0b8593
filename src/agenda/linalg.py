"""Dense covariance, symmetric eigendecomposition, rank correlation, and
the BLAS thread policy.

Everything here computes in float64; ``covariance`` also reads float32 rows,
widening them as it centres them. The eigensolver is LAPACK's symmetric
solver through numpy, with eigenvalues sorted descending and eigenvector
signs fixed so that output files are reproducible.

A multi-threaded BLAS may split a product or a factorization differently at
each thread count, and LAPACK's ``eigh`` then returns different low-order
bits. :func:`blas_threads` sets the thread count of numpy's bundled
OpenBLAS for a block of work; every CLI subcommand runs under one thread.
"""

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ValidationError

PR_SET_PDEATHSIG = 1  # prctl(2) option: the signal a process gets when its parent ends


@functools.cache
def openblas_handle():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    import glob  # only the first lookup needs it

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@contextlib.contextmanager
def blas_threads(count):
    """Numpy's BLAS on ``count`` threads for the body, the previous count
    restored after. Yields the count in force: ``count``, or None when
    there is no handle on the count, and the environment's count stays.
    Also a decorator, for a function's whole body."""
    handle = openblas_handle()
    if handle is None:
        yield None
        return
    get_threads, set_threads = handle
    previous = get_threads()
    set_threads(count)
    try:
        yield count
    finally:
        set_threads(previous)


def in_processes(fn, units):
    """``[fn(unit) for unit in units]``, each call in a forked child.

    At most ``min(cores, len(units))`` children run at once, each pinned to
    ``cores // running`` of the usable cores, so ``trainer.thread_plan`` in
    a child sees its share. A unit left alone on one core when
    ``len(units) % cores == 1`` runs last, in this process, on every core.
    A child pickles its result or exception to a pipe and ends with
    ``os._exit``, never returning into the caller's stack. In unit order,
    the parent reads a child's pipe to its end, reaps it, gives its cores to
    the next unit and raises the first failure; a child killed by SIGKILL,
    the out-of-memory killer's signal, raises ``MemoryError``. On any
    exception here every running child is killed and reaped, and a child
    dies with this process if it is killed outright (``PR_SET_PDEATHSIG``).
    With one usable core or unit, without ``sched_setaffinity``, or with
    another Python thread alive, the calls run here. A child keeps the
    caller's BLAS thread count: two on one core made a probe 12 times slower.
    """
    units = list(units)
    cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    running = min(len(cores), len(units))
    if running < 2 or threading.active_count() > 1:
        return [fn(unit) for unit in units]
    if len(units) > len(cores) and len(units) % len(cores) == 1:
        return in_processes(fn, units[:-1]) + [fn(units[-1])]
    share = len(cores) // running
    free = [cores[slot * share:(slot + 1) * share] for slot in range(running)]
    queue, children, results = units[::-1], [], []  # children: (pid, read end, cpus)
    parent = os.getpid()

    def start(unit, cpus):
        with _signals_held() as mask:
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on a fork while another thread lives.
                    # Only OpenBLAS's workers can (checked above): its fork
                    # handler stops them, and a child starts its own on first use.
                    warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                            DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(fn, unit, cpus, (read, write), mask, parent)
            children.append((pid, read, cpus))
            os.close(write)

    try:
        for index in range(len(units)):
            while queue and free:
                start(queue.pop(), free.pop())
            pid, read, cpus = children[0]
            with open(read, "rb", closefd=False) as pipe:
                payload = pipe.read()
            with _signals_held():
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                os.close(read)
                del children[0]
                free.append(cpus)
            if code == -signal.SIGKILL:
                raise MemoryError("unit %d was killed by SIGKILL" % index)
            if code or not payload:
                raise ChildProcessError("unit %d ended without a result, status %d" % (index, code))
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results.append(value)
    finally:
        with _signals_held():
            for pid, read, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read)
    return results


@contextlib.contextmanager
def _signals_held():
    """Every signal waits until the body ends, so an interrupt cannot fall
    between a fork and the child's registration, or in a cleanup. Yields
    the mask in force before."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a held signal is handled here


def _child(fn, unit, cpus, pipe, mask, parent):
    """One ``in_processes`` child: ``fn(unit)`` on ``cpus``, its result or
    exception pickled to the write end of ``pipe``. It never returns."""
    try:
        read, write = pipe
        os.close(read)
        # Killed with the parent, even by SIGKILL. A parent that ended before
        # this call sends no signal, so end here.
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            return
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.sched_setaffinity(0, cpus)
        try:
            payload = pickle.dumps((True, fn(unit)))
        except BaseException as exc:
            payload = pickle.dumps((False, exc))
        with open(write, "wb") as out:
            out.write(payload)
    finally:
        os._exit(0)


def covariance(x):
    """Sample covariance of the rows of ``x``.

    Returns ``(cov, mean)`` where ``cov = (X-mean)^T (X-mean) / (n-1)`` and
    ``mean`` is the column mean, kept so callers can center test data the
    same way. The result is symmetrized exactly so the eigensolver never
    sees rounding skew.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise DimensionError("covariance expects a 2-d array, got ndim=%d" % x.ndim)
    if x.shape[0] < 2:
        raise DimensionError("covariance needs at least 2 rows, got %d" % x.shape[0])
    mean = x.mean(axis=0, dtype=np.float64)
    centered = x - mean  # float64 whatever the rows' precision
    cov = centered.T @ centered / (x.shape[0] - 1)
    cov = (cov + cov.T) / 2.0
    return cov, mean


@dataclass
class EigenDecomposition:
    """Full symmetric eigendecomposition, eigenvalues sorted descending.

    ``eigenvectors[i]`` is the unit eigenvector paired with
    ``eigenvalues[i]`` (one eigenvector per row).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _canonical_signs(vectors):
    # Flip each row so its largest-magnitude component is positive; makes
    # eigenvector files reproducible despite the inherent sign ambiguity.
    idx = np.argmax(np.abs(vectors), axis=1)
    signs = np.sign(vectors[np.arange(vectors.shape[0]), idx])
    return vectors * signs[:, None]


def eigh(a):
    """Eigendecompose a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    Input must be square and symmetric within ``1e-9`` relative to its
    largest entry; it is symmetrized exactly before the solve. Raises
    :class:`NumericError` for non-finite input or if LAPACK does not
    converge.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("eigh expects a square matrix, got shape %s" % (a.shape,))
    if a.shape[0] == 0:
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0)))
    if not np.all(np.isfinite(a)):
        raise NumericError("eigh input has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    skew = float(np.max(np.abs(a - a.T)))
    if skew > 1e-9 * scale:
        raise ValidationError(
            "matrix is not symmetric: max |A - A^T| = %.3e exceeds tolerance" % skew
        )
    try:
        eigenvalues, v = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError("eigendecomposition failed: %s" % exc) from exc
    order = np.argsort(-eigenvalues, kind="stable")
    return EigenDecomposition(eigenvalues[order], _canonical_signs(v[:, order].T.copy()))


def average_ranks(values):
    """Ranks 1..n, ``#less + (#equal + 1) / 2``: ties share the mean of their
    positions, ``-0.0`` ties ``0.0``, and NaNs rank last, in input order."""
    values = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # a group of c equal values covers end - c + 1 .. end
    ranks = ((ends - counts + 1 + ends) / 2.0)[inverse]
    nan = np.isnan(values)  # np.unique's sort need not keep NaNs in input order
    ranks[nan] = np.arange(len(values) - np.count_nonzero(nan), len(values)) + 1.0
    return ranks


def spearman(v, labels):
    """Spearman rank correlation with average ranks for ties.

    Constant input on either side has no rank variance; by convention that
    returns 0.0, not NaN, so threshold comparisons downstream stay well
    defined (a constant direction carries no attribute signal).
    """
    v = np.asarray(v, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if v.ndim != 1 or labels.ndim != 1:
        raise DimensionError("spearman expects 1-d arrays")
    if len(v) != len(labels):
        raise DimensionError(
            "length mismatch: %d vs %d" % (len(v), len(labels))
        )
    if len(v) < 3:
        raise ValidationError("spearman needs at least 3 observations")
    rv = average_ranks(v)
    rl = average_ranks(labels)
    rv -= rv.mean()
    rl -= rl.mean()
    ss_v = float(rv @ rv)
    ss_l = float(rl @ rl)
    if ss_v == 0.0 or ss_l == 0.0:
        return 0.0
    rho = float(rv @ rl) / np.sqrt(ss_v * ss_l)
    return float(np.clip(rho, -1.0, 1.0))
