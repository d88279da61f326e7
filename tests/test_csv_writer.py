"""``cli.write_csv`` against the %-formatting writer it replaced.

The writer formats each block as one byte matrix: floats through digit
tables, with printf for the cells it cannot place exactly.  Every file it
writes must equal, byte for byte, the file the row-by-row ``%`` loop below
writes.  The property test is derandomized, so the suite is deterministic.
"""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storagelab import (Affine, CompoundPoisson, Exponential, cli,
                        event_ensemble, grid_ensemble)
from storagelab.cli import write_csv


def printf_csv(path, header, blocks) -> None:
    """The writer before byte matrices: one ``%`` conversion per value."""
    with path.open("w", encoding="utf-8") as f:
        f.write(f"# csv_schema={cli.CSV_SCHEMA}\n{','.join(header)}\n")
        for cols in blocks:
            cols = [np.asarray(col) for col in cols]
            n = len(cols[0])
            line = ",".join(cli._CONVERSIONS[col.dtype.kind] for col in cols) + "\n"
            for lo in range(0, n, 1024):
                rows = zip(*(col[lo:lo + 1024].tolist() for col in cols))
                values = tuple(itertools.chain.from_iterable(rows))
                f.write((line * min(1024, n - lo)) % values)


def assert_same_bytes(tmp_path, header, blocks) -> None:
    """write_csv and printf_csv write the same file from ``blocks``, each
    writer reading them from its own generator."""
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(new, header, (cols for cols in blocks))
    printf_csv(old, header, (cols for cols in blocks))
    assert new.read_bytes() == old.read_bytes()


def _ulps(values):
    """Each value and its neighbour one ulp either side."""
    xs = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # the largest double's is inf
        return np.concatenate([xs, np.nextafter(xs, np.inf),
                               np.nextafter(xs, -np.inf)])


def _ties(digits, exponents):
    """The doubles nearest the 11-digit decimals ``digits``5e``exponent``,
    ties at 10 significant digits: scaled by a rounded multiply or divide,
    some of them land on the tie exactly."""
    return [float(f"{d[0]}.{d[1:]}5e{p}") for d in digits for p in exponents]


# ties and the values one ulp either side of them, values with few digits
# (2^-15 = 3.0517578125e-05 is an exact tie), carries into the next
# exponent, powers of 10, the ends of the writer's exponent range
_SPECIAL = _ulps(
    [0.0, 0.5, 1.25, 2.5e-7, 3.0517578125e-05, 2.0 ** -20, 2.0 ** 40,
     1234567890.5, 1234567891.5, 12345678905.0, 9.9999999996, 9.9999999995,
     9.99999999949999, 99999999995.0, 0.99999999995, 1e-13, 9.9999999999e-14,
     1e31, 9.9999999999e31, 1e32, 5e-324, 2.2250738585072014e-308,
     1e100, -1.5e-200, 1.7976931348623157e308]
    + [2.0 ** j for j in range(-70, 120, 7)]
    + [10.0 ** k for k in range(-16, 35)]
    + _ties(["1234567890", "9999999999", "5000000000", "1000000000",
             "7777777777", "3141592653"], range(-14, 33, 3)))
_SPECIAL = np.concatenate([_SPECIAL, -_SPECIAL,
                           [-0.0, math.nan, math.inf, -math.inf]])

_floats = st.one_of(st.floats(width=64), st.sampled_from(_SPECIAL.tolist()))
_ints = st.one_of(st.integers(-2**63, 2**63 - 1),
                  st.integers(-10**9, 10**9), st.just(0))
_texts = st.text(st.characters(codec="utf-8"), max_size=6)


@st.composite
def _blocks(draw):
    """Columns of each kind and width, in blocks whose lengths sit around
    a small block size, with that block size."""
    block = draw(st.integers(1, 9))
    kinds = draw(st.lists(st.sampled_from(
        ["f8", "f8", "f4", "i8", "i4", "U"]), min_size=1, max_size=4))
    lengths = draw(st.lists(st.sampled_from(
        [0, 1, block - 1, block, block + 1, 2 * block + 1]), min_size=1,
        max_size=3))
    blocks = []
    for n in lengths:
        cols = []
        for kind in kinds:
            values = {"f": _floats, "i": _ints, "U": _texts}[kind[0]]
            col = draw(st.lists(values, min_size=n, max_size=n))
            if kind == "i4":
                col = [v % 2**31 - 2**30 for v in col]
            with np.errstate(over="ignore"):  # float32 overflows to inf
                cols.append(np.array(col, dtype=kind[0] + "8").astype(kind))
        blocks.append(cols)
    return block, [f"c{j}" for j in range(len(kinds))], blocks


class TestWriteCsv:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_blocks())
    def test_matches_printf_writer(self, tmp_path_factory, case):
        block, header, blocks = case
        with mock.patch.object(cli, "_CSV_BLOCK", block):
            assert_same_bytes(tmp_path_factory.mktemp("csv"), header, blocks)

    @pytest.mark.parametrize("n", [cli._CSV_BLOCK - 1, cli._CSV_BLOCK,
                                   cli._CSV_BLOCK + 1, 2 * cli._CSV_BLOCK + 5])
    def test_special_values_in_full_blocks(self, tmp_path, n):
        # every double's bit pattern is as likely as any other, so the whole
        # exponent range shows; the special values land in every block
        gen = np.random.default_rng(n)
        bits = gen.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        x = bits.view(np.float64).copy()
        x[gen.integers(0, n, _SPECIAL.size)] = _SPECIAL
        near = gen.exponential(1.0, n) * 10.0 ** gen.integers(-15, 33, n)
        ties = _ulps(_ties(gen.integers(10**9, 10**10, 20).astype(str),
                           range(-14, 33, 2)))
        near[:ties.size] = ties
        ids = gen.integers(-10**12, 10**12, n) // 10 ** gen.integers(0, 12, n)
        labels = np.array(["", "a", "é", "tail_upper"])[gen.integers(0, 4, n)]
        assert_same_bytes(tmp_path, ["i", "x", "near", "s"],
                          [(ids, x, near, labels), (ids[:7], near[:7],
                                                    x[:7], labels[:7])])

    def test_events_run_matches_printf(self, tmp_path):
        # the engine's own rows: a zero row opens every lane
        chunks = list(event_ensemble(CompoundPoisson(2.0, Exponential(1.0)),
                                     Affine(0.5, 1.0), 0.0, 5.0, 300, 7))
        assert sum(len(c[0]) for c in chunks) > 1000
        assert_same_bytes(tmp_path, ["path_id", "t", "jump_size", "x_after"],
                          chunks)

    def test_grid_run_matches_printf(self, tmp_path):
        grid = [0.0, 0.5, 1.0, 4.0]
        paths = grid_ensemble(CompoundPoisson(2.0, Exponential(1.0)),
                              Affine(0.5, 1.0), 1.0, grid, 300, 13)
        cols = [np.repeat(np.arange(300), len(grid)), np.tile(grid, 300),
                paths.ravel()]
        assert_same_bytes(tmp_path, ["path_id", "t", "x"], [cols])

    def test_memory_bounded(self, tmp_path):
        # a million rows from a generator: the peak is a few blocks' worth,
        # whatever the row count
        def blocks():
            gen = np.random.default_rng(3)
            for lo in range(0, 10**6, 10**4):
                yield (np.arange(lo, lo + 10**4), gen.exponential(1.0, 10**4),
                       gen.normal(0.0, 1.0, 10**4), gen.exponential(3.0, 10**4))
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_csv(path, ["path_id", "t", "jump_size", "x_after"], blocks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        with path.open("rb") as f:
            assert sum(1 for _ in f) == 10**6 + 2
