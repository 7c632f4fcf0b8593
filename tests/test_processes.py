"""Independent units in forked children (``linalg.in_processes``): the same
results and errors as the loop, and no child left behind.

The loop's path is the runner on one usable core, so the CLI comparisons
run one side in a subprocess pinned to a single core.
"""

import os
import pickle
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from agenda import cli, dataio, errors, linalg
from conftest import run_cli, tiny_corpus

ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.AgendaError)]


def cores():
    return sorted(os.sched_getaffinity(0))


def require_two_cores():
    if not hasattr(os, "sched_setaffinity") or len(cores()) < 2:
        pytest.skip("one usable core: every unit runs in this process")


def run_cli_on_one_core(*argv):
    """``run_cli`` with the subprocess pinned to one core, so its runner calls
    every unit in process."""
    script = ("import os, sys; os.sched_setaffinity(0, {%d}); "
              "from agenda.cli import main; sys.exit(main(sys.argv[1:]))" % cores()[0])
    proc = subprocess.run([sys.executable, "-c", script, *[str(a) for a in argv]],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def alive(pid):
    """Whether ``pid`` runs: neither gone nor a zombie left for its reaper."""
    try:
        with open("/proc/%d/stat" % pid) as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_round_trips_through_pickle(cls):
    error = cls("truncated", "a message") if cls is errors.DataFormatError else cls("a message")
    error.block = "w1"  # set after construction, as nets sets NumericError.block
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == "a message" and vars(back) == vars(error)


class TestRunner:
    def test_results_in_unit_order_from_pinned_children(self):
        require_two_cores()

        def unit(u):
            time.sleep(0.05 * (3 - u))  # later units finish first
            return u, os.getpid(), len(os.sched_getaffinity(0))

        results = linalg.in_processes(unit, range(3))
        assert [r[0] for r in results] == [0, 1, 2]
        assert os.getpid() not in [r[1] for r in results]
        assert [r[2] for r in results] == [len(cores()) // min(len(cores()), 3)] * 3
        assert_no_child_left()

    def test_one_unit_runs_in_this_process(self):
        assert linalg.in_processes(lambda u: os.getpid(), [0]) == [os.getpid()]

    @pytest.mark.parametrize("failing, raised", [({1}, 1), ({0, 1, 2}, 0)])
    def test_lowest_failing_unit_raises_its_error(self, failing, raised):
        require_two_cores()

        def unit(u):
            if u == 0:
                time.sleep(0.2)  # the other units' outcomes arrive first
            if u in failing:
                raise errors.DataFormatError("bad_value", "unit %d" % u)
            return u

        with pytest.raises(errors.DataFormatError) as caught:
            linalg.in_processes(unit, range(3))
        assert (caught.value.code, str(caught.value)) == ("bad_value", "unit %d" % raised)
        assert_no_child_left()

    def test_memory_error_reaches_the_parent(self):
        require_two_cores()

        def unit(u):
            return np.empty(10 ** 15) if u == 1 else u

        with pytest.raises(MemoryError):
            linalg.in_processes(unit, range(3))
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_every_child(self, tmp_path):
        require_two_cores()

        def unit(u):
            (tmp_path / ("%d.pid" % u)).write_text(str(os.getpid()))
            time.sleep(30)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(KeyboardInterrupt):
                linalg.in_processes(unit, range(3))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        pids = [int(path.read_text()) for path in tmp_path.glob("*.pid")]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert_no_child_left()

    def test_fork_warning_of_newer_pythons_is_not_an_error(self, monkeypatch):
        # Python 3.12+ warns in the parent, after the fork, when the process
        # has other threads (OpenBLAS's workers); under "error" filters that
        # raise would lose the child.
        require_two_cores()
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("This process (pid=%d) is multi-threaded, use of fork() may "
                              "lead to deadlocks in the child." % os.getpid(), DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        assert linalg.in_processes(lambda u: u * 2, range(3)) == [0, 2, 4]
        assert_no_child_left()

    def test_failed_fork_leaves_no_child_or_descriptor(self, monkeypatch):
        require_two_cores()
        fork, forks = os.fork, []

        def second_fork_fails():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        def unit(u):
            time.sleep(30)

        descriptors = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", second_fork_fails)
        with pytest.raises(BlockingIOError):
            linalg.in_processes(unit, range(3))
        assert len(os.listdir("/proc/self/fd")) == descriptors
        assert_no_child_left()

    def test_children_die_with_a_killed_parent(self, tmp_path):
        require_two_cores()
        script = ("import os, pathlib, sys, time; from agenda import linalg\n"
                  "def unit(u):\n"
                  "    path = pathlib.Path(sys.argv[1], '%d.tmp' % u)\n"
                  "    path.write_text(str(os.getpid()))\n"
                  "    path.replace(path.with_suffix('.pid'))\n"
                  "    time.sleep(30)\n"
                  "linalg.in_processes(unit, range(2))\n")
        parent = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)])
        try:
            deadline = time.monotonic() + 20
            while len(list(tmp_path.glob("*.pid"))) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            pids = [int(path.read_text()) for path in tmp_path.glob("*.pid")]
            assert len(pids) == 2
        finally:
            parent.kill()
            parent.wait()
        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(alive(pid) for pid in pids)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("units") / "c.fds"
    dataio.write_dataset(tiny_corpus(n_identities=24, samples=8)[0], path)
    return path


def sweep_config(path):
    path.write_text("lam=1.0\nk=2\nt_fc=30\nt_gtrain=10\nt_deb=8\nt_plat=8\nn_ep=1\n"
                    "g_thresh=1.0\nalpha3=1e-3\nbatch_size=16\nseed=3\n"
                    "validation_fraction=0.15\n")
    return path


class TestSameBytesAsOneCore:
    @pytest.mark.parametrize("argv", [
        ("tpe", "--train", "{data}", "--out", "{out}", "--repeats", "3", "--iterations", "50"),
        ("sweep", "--data", "{data}", "--config", "{cfg}", "--lambdas", "0,1,10",
         "--fpr", "0.05", "--report", "{out}"),
        ("sweep", "--data", "{data}", "--config", "{cfg}", "--ks", "1,2",
         "--fpr", "0.05", "--report", "{out}"),
    ], ids=["tpe repeats 3", "sweep lambdas", "sweep ks"])
    def test_outputs_match(self, tmp_path, corpus, argv):
        require_two_cores()
        cfg = sweep_config(tmp_path / "t.cfg")
        written = []
        for name, run in (("processes", run_cli), ("one_core", run_cli_on_one_core)):
            out = tmp_path / name
            code, _, err = run(*[a.format(data=corpus, cfg=cfg, out=out) for a in argv])
            assert code == 0, err
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_diverging_tpe_fails_with_the_same_line(self, tmp_path, corpus):
        require_two_cores()
        argv = ("tpe", "--train", corpus, "--out", tmp_path / "w.tpe", "--repeats", 3,
                "--iterations", 50, "--rate", "1e12")
        results = [run(*argv)[::2] for run in (run_cli, run_cli_on_one_core)]
        assert results[0] == results[1]
        code, err = results[0]
        assert code == 4 and err.startswith("agenda: error exit=4 kind=NumericError ")
        assert not (tmp_path / "w.tpe").exists()


@pytest.mark.parametrize("argv, code", [
    (("tpe", "--train", "{data}", "--out", "{out}", "--repeats", "3", "--iterations", "20"), 0),
    (("tpe", "--train", "{data}", "--out", "{out}", "--repeats", "3", "--batch", "0"), 4),
    (("sweep", "--data", "{data}", "--config", "{cfg}", "--ks", "1,2", "--fpr", "0.05",
      "--report", "{out}"), 0),
], ids=["tpe", "tpe refused", "sweep"])
def test_no_child_outlives_a_command(tmp_path, corpus, capsys, argv, code):
    cfg = sweep_config(tmp_path / "t.cfg")
    out = tmp_path / "out"
    assert cli.main([a.format(data=corpus, cfg=cfg, out=out) for a in argv]) == code
    assert_no_child_left()
