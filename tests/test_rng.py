"""Counter-based stream primitives: determinism, ranges, scalar/vector parity."""

import numpy as np
import pytest

from grouptest import rng


def test_mix64_is_deterministic_and_order_sensitive():
    assert rng.mix64(1, 2, 3) == rng.mix64(1, 2, 3)
    assert rng.mix64(1, 2, 3) != rng.mix64(3, 2, 1)
    assert rng.mix64(0) != rng.mix64(1)
    assert 0 <= rng.mix64(2**64 - 1, 17) < 2**64


def test_scalar_and_vector_u64_agree():
    """The vectorised streams read the scalar words: unit_np their top 53
    bits, bounded_np at bound 2**63 their low 63 bits."""
    keys = [rng.mix64(9, i) for i in range(8)]
    for key in keys:
        counters = np.arange(16, dtype=np.uint64)
        top = (rng.unit_np(np.uint64(key), counters) * 2.0**53).astype(np.uint64)
        low = rng.bounded_np(np.uint64(key), counters, 2**63)
        got = [(int(t) << 11) | (int(v) & ((1 << 11) - 1)) for t, v in zip(top, low)]
        assert got == [rng.u64_at(key, c) for c in range(16)]
        assert [int(v) for v in low] == [rng.u64_at(key, c) % 2**63 for c in range(16)]


# bounds of every size; 2**64 // 3 + 1, 2**62 + 1 and 3 * 2**61 reject a
# quarter to a third of all words, so the re-hash branch runs
BOUNDS = [1, 2, 3, 7, 13, 64, 400, 1000, 2**32, 2**32 + 1, 2**62 + 1, 3 * 2**61, 2**64 // 3 + 1, 2**63 - 1, 2**63]


@pytest.mark.parametrize("bound", BOUNDS)
def test_scalar_and_vector_bounded_agree(bound):
    key = rng.mix64(4, bound)
    got = rng.bounded_np(np.uint64(key), np.arange(64, dtype=np.uint64), bound)
    want = [rng.bounded_at(key, c, bound) for c in range(64)]
    assert [int(v) for v in got] == want
    assert all(0 <= v < bound for v in want)


def test_bounded_np_takes_one_bound_per_element():
    """An array of bounds broadcast with the keys and counters: each draw is
    `bounded_at`'s at its own bound, whether the bounds differ or are all
    equal, and for 0-d inputs."""
    keys = np.array([rng.mix64(6, i) for i in range(40)], dtype=np.uint64)
    counters = np.arange(8, dtype=np.uint64)
    got = rng.bounded_np(keys[:, None, None], counters[:, None], np.array(BOUNDS, dtype=np.uint64))
    want = [[[rng.bounded_at(int(k), c, b) for b in BOUNDS] for c in range(8)] for k in keys]
    assert got.tolist() == want
    rejected = sum(rng.u64_at(int(k), c) >= rng._rejection_threshold(b) for k in keys for c in range(8) for b in BOUNDS)
    assert rejected > 100
    for bound in BOUNDS:
        same = rng.bounded_np(keys, np.uint64(3), np.full(keys.shape, bound))
        assert same.tolist() == [rng.bounded_at(int(k), 3, bound) for k in keys]
        zero_d = rng.bounded_np(keys[0], np.uint64(5), np.array(bound))
        assert np.ndim(zero_d) == 0 and int(zero_d) == rng.bounded_at(int(keys[0]), 5, bound)


@pytest.mark.parametrize(
    "bounds", [np.array([0, 3]), np.array([-1, 4]), np.array([2**63 + 1], dtype=np.uint64), np.array([1.5])]
)
def test_bounded_np_rejects_bound_arrays_outside_the_range(bounds):
    with pytest.raises(ValueError, match="2\\*\\*63"):
        rng.bounded_np(np.uint64(1), np.arange(bounds.shape[0], dtype=np.uint64), bounds)


def test_bounded_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        rng.bounded_at(1, 0, 0)
    with pytest.raises(ValueError):
        rng.bounded_np(np.uint64(1), np.uint64(0), -3)


@pytest.mark.parametrize("bound", [2**63 + 1, 2**64 - 1, 2**64])
def test_bounded_rejects_bounds_above_2_63(bound):
    # a draw at or above 2**63 would not fit the int64 that bounded_np returns
    with pytest.raises(ValueError, match="2\\*\\*63"):
        rng.bounded_at(1, 0, bound)
    with pytest.raises(ValueError, match="2\\*\\*63"):
        rng.bounded_np(np.uint64(1), np.arange(4, dtype=np.uint64), bound)


def test_unit_at_range_and_parity():
    key = rng.mix64(77)
    vals = [rng.unit_at(key, c) for c in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    vec = rng.unit_np(np.uint64(key), np.arange(1000, dtype=np.uint64))
    assert np.array_equal(np.array(vals), vec)
    # crude uniformity: mean of 1000 uniforms within 5 sigma of 1/2
    assert abs(np.mean(vals) - 0.5) < 5 * (1 / 12) ** 0.5 / 1000**0.5


def test_bounded_uniformity_chi_square():
    """10 bins, 50k draws: chi-square statistic below the 0.999 quantile (27.9)."""
    key = rng.mix64(123)
    draws = rng.bounded_np(np.uint64(key), np.arange(50_000, dtype=np.uint64), 10)
    counts = np.bincount(draws, minlength=10)
    expected = 5000.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 27.88, chi2


def _stream_inputs():
    keys = np.array([rng.mix64(5, i) for i in range(6)], dtype=np.uint64)[:, None]
    counters = np.arange(7, dtype=np.uint64)[None, :]
    return keys, counters


@pytest.mark.parametrize(
    "fn",
    [
        lambda k, c: rng.below_np(k, c, 0.3),
        lambda k, c: rng.mix64_np(3, k, c),
        lambda k, c: rng.bounded_np(k, c, 7),
        rng.unit_np,
    ],
    ids=["below_np", "mix64_np", "bounded_np", "unit_np"],
)
def test_vector_streams_leave_their_inputs_unmodified(fn):
    keys, counters = _stream_inputs()
    keys_before, counters_before = keys.copy(), counters.copy()
    fn(keys, counters)
    assert np.array_equal(keys, keys_before)
    assert np.array_equal(counters, counters_before)


def test_vector_streams_accept_zero_dimensional_inputs():
    key, counter = np.uint64(rng.mix64(8)), np.uint64(5)
    assert int(rng.bounded_np(key, counter, 2**63)) == rng.u64_at(int(key), 5) % 2**63
    assert int(rng.bounded_np(key, counter, 11)) == rng.bounded_at(int(key), 5, 11)
    big_bound = 2**64 // 3 + 1
    for c in range(8):  # about a third of these words take the re-hash branch
        big = int(rng.bounded_np(key, np.uint64(c), big_bound))
        assert big == rng.bounded_at(int(key), c, big_bound)
    assert float(rng.unit_np(key, counter)) == rng.unit_at(int(key), 5)
    assert int(rng.mix64_np(np.uint64(4), np.uint64(9))) == rng.mix64(4, 9)
    assert int(rng.mix64_np(4, 9)) == rng.mix64(4, 9)
    assert np.ndim(rng.unit_np(key, counter)) == 0
    assert np.ndim(rng.bounded_np(key, counter, 11)) == 0
    assert np.ndim(rng.mix64_np(4, 9)) == 0


def test_mix64_np_matches_mix64_with_scalars_before_and_after_arrays():
    items = np.arange(5, dtype=np.uint64)
    got = rng.mix64_np(7, 1, items, 2**64 - 1)
    assert [int(v) for v in got] == [rng.mix64(7, 1, i, 2**64 - 1) for i in range(5)]
    grid = rng.mix64_np(items[:, None], 3, items[None, :])
    assert grid.shape == (5, 5)
    assert int(grid[2, 4]) == rng.mix64(2, 3, 4)


@pytest.mark.parametrize(
    "p",
    [2.0**-53, 3 * 2.0**-54, 5e-324, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53]
    + list(np.random.default_rng(2016).random(8)),
)
def test_below_np_matches_the_unit_comparison(p):
    keys = np.array([rng.mix64(6, i) for i in range(64)], dtype=np.uint64)[:, None]
    counters = np.arange(512, dtype=np.uint64)[None, :]
    got = rng.below_np(keys, counters, p)
    assert got.dtype == bool and got.shape == (64, 512)
    assert np.array_equal(got, rng.unit_np(keys, counters) < p)


def test_below_np_at_a_word_s_own_unit_value():
    """p equal to a cell's unit value excludes the cell, the next double
    above it includes it, and below_np agrees with unit_np on both sides."""
    key = np.uint64(rng.mix64(12))
    counters = np.arange(200, dtype=np.uint64)
    units = rng.unit_np(key, counters)
    for c in (0, 17, 199):
        for p, hit in ((units[c], False), (np.nextafter(units[c], 1.0), True)):
            got = rng.below_np(key, counters, float(p))
            assert bool(got[c]) is hit
            assert np.array_equal(got, units < p)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_below_np_rejects_p_outside_the_open_unit_interval(p):
    with pytest.raises(ValueError):
        rng.below_np(np.uint64(1), np.arange(3, dtype=np.uint64), p)


def test_below_np_takes_one_p_per_element():
    """An array of p broadcast with the keys and counters: each cell is the
    scalar call's at its own p."""
    ps = np.array([2.0**-60, 0.05, 0.5, 1.0 - 2.0**-53])
    keys, counters = _stream_inputs()
    got = rng.below_np(keys[..., None], counters[..., None], ps)
    for j, p in enumerate(ps):
        assert np.array_equal(got[..., j], rng.below_np(keys, counters, float(p)))
    words = rng._words_np(keys, counters)
    assert np.array_equal(got[..., 2], words < np.uint64(1 << 63))


@pytest.mark.parametrize("bad", [0.0, 1.0, float("nan")])
def test_below_np_rejects_any_p_outside_the_open_unit_interval(bad):
    with pytest.raises(ValueError, match="every p"):
        rng.below_np(np.uint64(1), np.arange(3, dtype=np.uint64), np.array([0.5, bad, 0.25]))
