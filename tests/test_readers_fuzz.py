"""Seeded byte mutations of every binary format the package reads.

Each mutated file must either load or fail with DataFormatError; any other
exception is a reader bug (a traceback and exit 1 on the CLI instead of a
one-line error and exit 3).
"""

import numpy as np
import pytest

from agenda import corrpca, dataio, nets, tpe
from agenda.errors import DataFormatError
from conftest import tiny_corpus

MUTATIONS_PER_FORMAT = 1500


def _write_valid_files(tmp_path):
    # Small payloads, so a random position often lands in the header.
    ds, _ = tiny_corpus(n_identities=4, samples=3, dim=4)
    paths = {
        "dataset": tmp_path / "c.fds",
        "checkpoint": tmp_path / "m.agnd",
        "subspace": tmp_path / "s.cpca",
        "matrix": tmp_path / "w.tpe",
    }
    dataio.write_dataset(ds, paths["dataset"])
    nets.save_checkpoint(
        paths["checkpoint"], nets.init_generator(4, 0, units=4),
        nets.init_classifier(2, 0, units=4), nets.init_ensemble(2, 0, units=4, hidden=3),
    )
    corrpca.save_subspace(corrpca.fit(ds, delta=0.9), paths["subspace"])
    w = np.arange(8, dtype=np.float64).reshape(4, 2)
    tpe.save_tpe(w, paths["matrix"])
    return paths


READERS = {
    "dataset": dataio.read_dataset,
    "checkpoint": nets.load_checkpoint,
    "subspace": corrpca.load_subspace,
    "matrix": tpe.load_tpe,
}


def _mutate(blob, rng):
    blob = bytearray(blob)
    kind = rng.integers(3)
    pos = int(rng.integers(len(blob) + 1))
    if kind == 0 and pos < len(blob):  # overwrite one byte
        blob[pos] = int(rng.integers(256))
    elif kind == 1:  # truncate
        del blob[pos:]
    else:  # insert a few random bytes
        blob[pos:pos] = rng.integers(256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
    return bytes(blob)


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_mutated_files_load_or_raise_data_format_error(tmp_path, fmt):
    source = _write_valid_files(tmp_path)[fmt]
    original = source.read_bytes()
    READERS[fmt](source)
    rng = np.random.default_rng(20060784)
    target = tmp_path / ("mutant" + source.suffix)
    rejected = 0
    for i in range(MUTATIONS_PER_FORMAT):
        blob = original
        for _ in range(int(rng.integers(1, 4))):
            blob = _mutate(blob, rng)
        target.write_bytes(blob)
        try:
            READERS[fmt](target)
        except DataFormatError:
            rejected += 1
        except Exception as exc:
            pytest.fail("mutation %d of the %s file raised %r" % (i, fmt, exc))
    assert 0 < rejected < MUTATIONS_PER_FORMAT
