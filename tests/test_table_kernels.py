"""Differential tests of the per-row table kernels against the code they
replaced, and of read_csv's header kind and memory.

- _unravel/_split peel flat keys with a scalar floor division per axis; the
  reference is the np.divmod chain (`_ref_split`, kept verbatim).
- cells finds an array's nonzero cells as flat indices; the reference is the
  4-D np.nonzero it replaced (`_ref_cells`).
- _factor_bytes finds runs of equal rows with one comparison of neighbours
  per key; the reference is _factor, the per-token dict factoring.

write_csv's rows are pinned byte for byte by tests/test_csv_oracle.py.
"""

import re
import tracemalloc

import numpy as np
import pytest

from censim.errors import DataError
from censim.table import (FULL_AGES, SEXES, CensusTable, Entries, ResolutionSpec,
                          _factor, _factor_bytes, _split, _unravel, cells, read_csv,
                          write_csv)


def _ref_split(flat, radices):
    c, n = radices
    rest, last = np.divmod(flat, n)
    rest, sex = np.divmod(rest, 3)
    year, region = np.divmod(rest, c)
    return year, region, sex, last


def _ref_cells(years, regions, sexes, lasts, array):
    array = np.asarray(array)
    at = np.nonzero(array)
    return Entries((years, regions, sexes, lasts), at, array[at], array[at])


def _assert_same_arrays(ours, ref):
    assert len(ours) == len(ref)
    for a, b in zip(ours, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(30))
def test_split_equals_the_divmod_chain(seed):
    rng = np.random.default_rng(seed)
    c, n = (int(v) for v in rng.choice([1, 1, 2, 3, 40, 2100], 2))
    years = int(rng.integers(1, 40))
    size = int(rng.choice([0, 1, 7, 5000]))
    flat = rng.integers(0, years * c * 3 * n, size, dtype=np.int64)
    _assert_same_arrays(_split(flat, (c, n)), _ref_split(flat, (c, n)))


@pytest.mark.parametrize("sizes", [(None, 1, 1, 1), (5, 1, 3, 1), (2, 7), (9,),
                                   (None, 40, 3, 101), (3, 0, 2, 101)])
def test_unravel_equals_unravel_index(sizes):
    bounded = [4 if s is None else s for s in sizes]
    total = int(np.prod(bounded))
    flat = np.arange(total, dtype=np.int64)[::3]
    ours = _unravel(flat, sizes)
    assert len(ours) == len(sizes)
    if total:
        _assert_same_arrays(ours, np.unravel_index(flat, bounded))
    else:
        assert all(a.size == 0 and a.dtype == np.int64 for a in ours)


def _random_array(rng, shape, dtype):
    array = rng.integers(1, 9, shape).astype(dtype)
    array[rng.random(shape) < rng.choice([0.0, 0.5, 0.95, 1.0])] = 0
    return array


@pytest.mark.parametrize("seed", range(30))
def test_cells_equals_the_nonzero_scan(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(v) for v in rng.choice([0, 1, 2, 3, 7], 4))
    dtype = rng.choice([np.int64, np.float64])
    array = _random_array(rng, shape, dtype)
    if seed % 3 == 0:  # a non-contiguous view
        array = _random_array(rng, shape[:3] + (2 * shape[3],), dtype)[..., ::2]
    axes = [tuple(range(10, 10 + s)) for s in shape]
    ours, ref = cells(*axes, array), _ref_cells(*axes, array)
    assert ours.axes == ref.axes
    _assert_same_arrays(ours.index, ref.index)
    _assert_same_arrays((ours.values, ours.raw), (ref.values, ref.raw))


def test_cells_of_an_all_zero_array_is_empty():
    e = cells((2000,), ("101",), SEXES, FULL_AGES, np.zeros((1, 1, 2, 101)))
    assert e == {} and all(ix.dtype == np.intp and ix.size == 0 for ix in e.index)


def _bytes_factored(tokens):
    """_factor_bytes over one token a line, as read_csv calls it on a column."""
    text = "".join(t + "\n" for t in tokens)
    buf = np.frombuffer(text.encode() + bytes(8), np.uint8)
    end = np.flatnonzero(buf == ord("\n"))
    start = np.concatenate(([0], end[:-1] + 1)).astype(end.dtype)[:len(end)]
    words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))
    return _factor_bytes(text, words, start, end)


def _random_tokens(rng, rows):
    stems = ["", "a", "1999", "10101", "0.0123", "m", "100+"] + [
        "x" * k for k in (6, 7, 8, 13, 14, 15, 55, 56)]
    pool = list(dict.fromkeys(
        stems + ["".join(rng.choice(list("0123456789.e-+abc"), int(k)))
                 for k in rng.integers(0, 57, 20)]))
    runs = rng.choice(len(pool), max(rows // 3, 1))
    lengths = rng.choice([1, 1, 2, 50], len(runs))
    return [pool[i] for i, k in zip(runs, lengths) for _ in range(k)][:rows]


@pytest.mark.parametrize("seed", range(30))
def test_factor_bytes_equals_factor(seed):
    rng = np.random.default_rng(seed)
    tokens = _random_tokens(rng, int(rng.choice([1, 2, 9, 300, 3000])))
    distinct, index = _bytes_factored(tokens)
    ref_distinct, ref_index = _factor(tokens)
    assert distinct == ref_distinct
    _assert_same_arrays((index,), (ref_index,))


@pytest.mark.parametrize("tokens", [[], ["7"], ["x" * 56] * 40,
                                    ["x" * 7, "x" * 8, "x" * 7, ""]])
def test_factor_bytes_edge_columns(tokens):
    distinct, index = _bytes_factored(tokens)
    ref_distinct, ref_index = _factor(tokens)
    assert distinct == ref_distinct
    _assert_same_arrays((index,), (ref_index,))


# a given resolution fixes the header kind

RES = ResolutionSpec((2000, 2001), "federalstates", ages=FULL_AGES, open_age=100)
RES_OD = ResolutionSpec((2000, 2001), "federalstates", od=True)
HEADER = "year,region,sex,age,value\n"
HEADER_OD = "year,region,sex,region2,value\n"


@pytest.mark.parametrize("header, rows, res", [
    (HEADER, "", RES_OD),
    (HEADER, "2000,AT-1,m,5,3\n", RES_OD),
    (HEADER_OD, "", RES),
    (HEADER_OD, "2000,AT-1,m,AT-2,3\n", RES),
])
def test_read_csv_rejects_a_header_of_the_other_kind(tmp_path, header, rows, res):
    path = tmp_path / "t.csv"
    path.write_text(header + rows)
    expected = header.strip().split(",")
    with pytest.raises(DataError, match=f"^{re.escape(f't: unexpected header {expected}')}$"):
        read_csv(str(path), resolution=res, name="t")


@pytest.mark.parametrize("header, res", [(HEADER, RES), (HEADER_OD, RES_OD)])
def test_read_csv_accepts_a_header_of_the_given_kind(tmp_path, header, res):
    path = tmp_path / "t.csv"
    path.write_text(header)
    assert read_csv(str(path), resolution=res) == CensusTable(res, {})


def test_read_csv_transient_memory_per_row(tmp_path):
    """The file's bytes, text and field ends are gone before the table is
    built: under 220 B a row above the result on a 48,480-row census (about
    239 B a row when they were held through construction)."""
    codes = [f"{d}{m:02d}" for d in (101, 102, 201, 202, 301, 302, 401, 402)
             for m in range(1, 6)]
    years = range(1999, 2005)
    array = np.random.default_rng(1).integers(1, 400, (len(years), 40, 2, 101))
    res = ResolutionSpec((1999, 2004), "municipalities", ages=FULL_AGES, open_age=100)
    path = str(tmp_path / "P.csv")
    write_csv(CensusTable(res, cells(years, codes, SEXES, FULL_AGES, array),
                          integer=True), path)
    read_csv(path, integer=True)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        table = read_csv(path, integer=True)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == array.size
    assert (peak - current) / len(table) < 220
