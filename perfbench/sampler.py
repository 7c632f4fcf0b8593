"""Sample the CPU speed a process gets while it works.

Usage: python3 perfbench/sampler.py OUT.json SUBCOMMAND [ARGS...]

It runs one ``agenda`` subcommand in-process under ``SpeedSamples`` and writes
the sample times to OUT.json when the command returns; the exit code is
the command's.

The machine the benchmark was built on is shared, and the speed a process
gets from it changes by up to 1.6x within seconds. So that the benchmark
can take that out of its timings, a profiling timer interrupts the process
after every SAMPLE_EVERY_CPU_S of CPU time, and the handler times a fixed
piece of work: an interpreter loop and a small matrix product, about four
parts to one and together about 0.8 ms with one BLAS thread. Most of the
program's steps are interpreter-bound (the Jacobi ``eigh``, the
small-shape training loop), and on them the loop follows the step's speed
more closely than the product does; the product covers the BLAS-bound
full-scale training. One more sample is taken when the work ends, so that
even a short step has a speed. The median sample is the speed the work
saw, measured on the CPU it ran on while it ran. The samples cost about
1.6 % of the work's time, the same share on every run.
"""

import json
import signal
import sys
import time

import numpy as np

SAMPLE_EVERY_CPU_S = 0.05
SAMPLE_LOOP = 8_000
_MATRIX = np.random.default_rng(0).standard_normal((128, 128))


class SpeedSamples:
    """Context manager; ``samples`` holds the sample times in seconds."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for i in range(SAMPLE_LOOP):
            total += i * i
        _MATRIX @ _MATRIX
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_CPU_S, SAMPLE_EVERY_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        # work shorter than one sampling period still gets a speed; one
        # sample only, as a second one would run with the first's warm caches
        self._sample(None, None)
        return False


def main(out, argv):
    speed = SpeedSamples()
    try:
        with speed:
            from agenda.cli import main as cli_main
            code = cli_main(argv)
    finally:
        with open(out, "w") as f:
            json.dump(speed.samples, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
