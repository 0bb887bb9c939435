"""Group-testing instances: pooling designs, defective sets, outcomes, per-item counts.

A design is a binary T x N incidence structure stored as compressed sparse
rows (CSR), one row per item: item i is in the tests
``indices[indptr[i]:indptr[i + 1]]``, strictly increasing. ``indptr`` is an
int64 array of N + 1 row pointers; ``indices`` holds all rows back to back in
the narrowest unsigned type that fits T. Every constructor (the generators,
hand-written per-item lists, the JSON loader) ends in one vectorised
validation. The arrays are the one representation of a design; the PD
(possible defective) step reads them with an outcome and masks only the PD
items, over the positive tests (:func:`possible_defectives`), and the design
keeps that answer for its last outcome (:meth:`TestDesign.pd`). Generation,
validation and the PD step run on a block of designs at once, a single
design being a block of one: :func:`generate_designs` draws designs of any
kinds as one block, checked once, and :func:`block_instances` gives any
designs their outcomes and PD answers in one pass.
``rows()`` lists the arrays' rows. Design JSON text has one encoder,
:func:`design_json_chunks`, which joins the rows from the arrays in bounded
chunks, byte-identical to json's compact or indented text of
:func:`design_to_json_dict`. Three random constructions are provided:

* ``bernoulli``       -- every (test, item) cell is included independently
                         with probability p.
* ``near_constant``   -- per item, L tests drawn uniformly *with* replacement;
                         duplicate draws collapse, so column weights may fall
                         slightly below L.
* ``exact_constant``  -- per item, a uniform L-subset of tests (without
                         replacement), so every column weighs exactly L.

All randomness is counter-based (see :mod:`grouptest.rng`): column i of a
design depends only on (seed, kind, i), so columns can be generated in any
order or concurrently with identical results. Each kind has one row rule,
which the design blocks (the generators are blocks of one) and the lab's
trial blocks share, with one call shape: T and L per key, p one number or
one per key. Rows are drawn a bounded pass at a time, whatever N, T and L
(:func:`_csr_rows`). Exact-constant's rule is a partial Fisher-Yates over a
block of keys, which also draws many defective sets at once
(:func:`sample_defective_sets`, the trial blocks). A :class:`PdBlock` draws
a block of the lab's trials at once, at most :func:`pd_block_trials` of
them: the item keys, the defective sets, the defectives' rows, which fix
the outcomes, only the cells that decide which nondefectives are PD items,
and those items' rows. It reads each trial's COMP and DD success from these
arrays and, on request, all its trials' designs over their PD items.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, groupby, repeat

import numpy as np

from . import rng

KIND_BERNOULLI = "bernoulli"
KIND_NEAR_CONSTANT = "near_constant"
KIND_EXACT_CONSTANT = "exact_constant"
DESIGN_KINDS = (KIND_BERNOULLI, KIND_NEAR_CONSTANT, KIND_EXACT_CONSTANT)

# Bernoulli inclusion probabilities derived from nu are clamped below 1 so a
# float rounding artifact can never produce degenerate all-ones columns.
P_MAX = 1.0 - 1e-12

# Stream tags separating the independent randomness consumers of one seed.
_STREAM_COLUMNS = {KIND_BERNOULLI: 1, KIND_NEAR_CONSTANT: 2, KIND_EXACT_CONSTANT: 3}
_STREAM_DEFECTIVE = 4

_SEED_LIMIT = 1 << 64

# Cells (Bernoulli) or draws (near-constant) per generation block: 512 kB per
# uint64 buffer, so a block's buffers stay in a core's L2 cache (a
# 10^4 x 384 Bernoulli design took 26 ms in such blocks, 64 ms in 2 MB ones).
_GEN_BLOCK = 1 << 16

# Cells per item in the first block of `_drop_negative`; the step doubles
# after each block. A block of trials shares each step's numpy calls, so a
# short first step costs few calls and saves cells: a Figure-2 nondefective
# is out after about 2 near-constant draws or 14 Bernoulli cells, and the
# fig2 sweep ran about 1.5x the trials/s of a first step of 32.
_DROP_STEP = 4

# The most entries a design may be generated with (N * T cells for
# Bernoulli, N * min(L, T) for a weight design): its index arrays alone take
# 8 GiB beyond that, and rows of about 10^18 draws would never finish. The
# largest design the tests, criteria and benchmark build holds 1.7e5.
MAX_ENTRIES = 1 << 31

# Rows per chunk of design JSON text (:func:`design_json_chunks`): the
# indented 10^4-item, T=384 file is written in ten chunks of about 190 kB.
_JSON_BLOCK = 1024

# Tuples made per instance (a PD answer's items and solo tests, the item
# counts, the decoders' estimates) are built from lists, not generators:
# tuple() of a generator takes a 10-slot tuple and shrinks it, so when freed
# it joins the free list of its final size. Over a long corpus pass those
# free lists filled, about 4 MB at sizes 1 to 20, whenever no full garbage
# collection (which empties them) happened to run.


def is_integer(value: object) -> bool:
    """True for Python and numpy integers; bools are not integers here."""
    # a plain int needs no further type test (a bool's type is bool)
    return type(value) is int or (isinstance(value, (int, np.integer)) and not isinstance(value, bool))


def is_number(value: object) -> bool:
    """True for Python and numpy integers and floats; bools are not numbers here."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_seed(seed: int) -> int:
    if not is_integer(seed) or not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def _check_size(value: int, name: str) -> int:
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


_INDEX_DTYPES = ((np.uint8, 1 << 8), (np.uint16, 1 << 16), (np.uint32, 1 << 32))


def _index_dtype(n_tests: int) -> type[np.integer]:
    """The narrowest unsigned type holding every index of a `n_tests`-test design."""
    for dtype, size in _INDEX_DTYPES:
        if n_tests <= size:
            return dtype
    return np.uint64


@dataclass(frozen=True)
class DesignParams:
    """Construction parameters: p for Bernoulli, draws (L) for weight designs.

    ``nu`` records the density parameter the values were derived from, when
    known (L = nu*T/K, p = nu/K); it is carried for diagnostics only.
    """

    p: float | None = None
    draws: int | None = None
    nu: float | None = None


class TestDesign:
    """A pooling design: per item, the strictly increasing tests containing it.

    ``TestDesign(kind, n_items, n_tests, params, seed, columns)`` takes one
    sequence of test indices per item, and :meth:`from_csr` the CSR arrays;
    the generators split designs from a block checked as one
    (`generate_designs`). All go through the same validation, the design rules
    of `_checked_params` included, so any design that can be built can be
    saved and loaded again. The arrays are read-only, so the PD
    answer the design keeps for its last outcome (:meth:`pd`) stays valid.
    """

    __test__ = False  # the name matches pytest's collector; this is not a test
    __hash__ = None  # compared by value, like the arrays it holds

    def __init__(
        self,
        kind: str,
        n_items: int,
        n_tests: int,
        params: DesignParams,
        seed: int,
        columns: Sequence[Sequence[int]],
    ) -> None:
        indptr, indices = _csr_from_columns(columns)
        self._init(kind, n_items, n_tests, params, seed, indptr, indices)

    @classmethod
    def from_csr(
        cls,
        kind: str,
        n_items: int,
        n_tests: int,
        params: DesignParams,
        seed: int,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "TestDesign":
        """A design from row pointers and concatenated rows.

        The arrays are kept, not copied, when they already have the stored
        dtypes (int64 pointers, the narrowest unsigned type for indices).
        """
        design = cls.__new__(cls)
        design._init(kind, n_items, n_tests, params, seed, indptr, indices)
        return design

    def _init(self, kind, n_items, n_tests, params, seed, indptr, indices) -> None:
        params = _checked_params(kind, n_items, n_tests, params, required=False)
        seed = _check_seed(seed)
        indptr, indices = _checked_block([n_items], [n_tests], indptr, indices)
        self._keep(kind, n_items, n_tests, params, seed, indptr, indices)

    def _keep(self, kind, n_items, n_tests, params, seed, indptr, indices) -> None:
        """Store checked parameters and arrays, in the stored dtypes."""
        self.params, self.kind = params, kind
        self.n_items, self.n_tests, self.seed = int(n_items), int(n_tests), int(seed)
        self.indptr = indptr.astype(np.int64, copy=False)
        self.indices = indices.astype(_index_dtype(self.n_tests), copy=False)
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        self._pd: tuple[tuple, PossibleDefectives] | None = None  # (bits, answer)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestDesign):
            return NotImplemented
        return (
            (self.kind, self.n_items, self.n_tests, self.params, self.seed)
            == (other.kind, other.n_items, other.n_tests, other.params, other.seed)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return (
            f"TestDesign(kind={self.kind!r}, n_items={self.n_items}, "
            f"n_tests={self.n_tests}, params={self.params!r}, seed={self.seed}, "
            f"entries={self.indices.shape[0]})"
        )

    def rows(self) -> list[list[int]]:
        """Per-item test indices as fresh lists of Python ints."""
        flat = self.indices.tolist()
        bounds = self.indptr.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def pd(self, outcome: OutcomeVector) -> PossibleDefectives:
        """The PD answer for `outcome`, kept for the last outcome asked about
        (keyed by its bits), so the decoders and :func:`compute_item_stats`
        on one instance share one :func:`possible_defectives` pass."""
        bits = tuple(outcome.bits)
        kept = self._pd
        if kept is None or kept[0] != bits:
            kept = self._pd = (bits, possible_defectives(self, outcome))
        return kept[1]


def _checked_block(n_items, n_tests, indptr, indices) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of a block of designs, checked: design j has the j-th of
    each list and its rows follow design j - 1's. ValueError unless the
    arrays are flat integer arrays, one row per item, the pointers rising
    from 0 to the entry count, each entry in [0, T) of its own design and
    each row strictly increasing."""
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    if indptr.ndim != 1 or indices.ndim != 1:
        raise ValueError("row pointers and test indices must be flat arrays")
    # dtype kinds: signed or unsigned integer; bool, float and object fail
    if indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu":
        raise ValueError("test indices must be integers")
    if indptr.shape[0] != sum(n_items) + 1:
        raise ValueError("one column required per item")
    nnz = indices.shape[0]
    if indptr[0] != 0 or indptr[-1] != nnz or (indptr[1:] < indptr[:-1]).any():
        raise ValueError("row pointers must rise from 0 to the number of indices")
    if nnz:
        # each design's largest entry against its last test (capped at the
        # indices' largest value); designs without entries have no segment
        top = int(np.iinfo(indices.dtype).max)
        last = np.array([min(int(t) - 1, top) for t in n_tests], dtype=indices.dtype)
        starts = indptr[[0, *accumulate(n_items)]]
        filled = (starts[1:] > starts[:-1]).nonzero()[0]
        largest = np.maximum.reduceat(indices, starts[filled])
        if (indices.dtype.kind == "i" and indices.min() < 0) or (largest > last[filled]).any():
            raise ValueError("test index out of range")
    # strictly increasing rows: each entry is above the one before it
    # (compared, not subtracted, so unsigned types cannot wrap) or starts a row
    rises = np.ones(nnz + 1, dtype=bool)
    np.greater(indices[1:], indices[:-1], out=rises[1:nnz])
    rises[indptr] = True
    if not rises.all():
        raise ValueError("columns must be strictly sorted")
    return indptr, indices


def _csr_from_columns(columns) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and concatenated rows of per-item test-index sequences.

    Entries are type-checked, never coerced: ``int()`` would truncate 0.5 to
    test 0, and numpy would promote a row such as ``[True, 2]`` to integers.
    """
    if not isinstance(columns, (list, tuple)) or not set(map(type, columns)) <= {list, tuple}:
        raise ValueError("columns must be a list of per-item test-index lists")
    types = set(map(type, chain.from_iterable(columns)))
    if not all(issubclass(tp, (int, np.integer)) and tp is not bool for tp in types):
        raise ValueError("test indices must be integers")
    indptr = np.zeros(len(columns) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, columns), np.int64, len(columns)), out=indptr[1:])
    try:
        indices = np.fromiter(chain.from_iterable(columns), np.int64, int(indptr[-1]))
    except OverflowError as exc:  # Python ints beyond 64 bits
        raise ValueError("test index out of range") from exc
    return indptr, indices


@dataclass(frozen=True)
class DefectiveSet:
    """The hidden set of defective items, as a sorted tuple of indices."""

    items: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a >= b for a, b in zip(self.items, self.items[1:])):
            raise ValueError("items must be strictly sorted")
        if any(i < 0 for i in self.items):
            raise ValueError("item indices must be nonnegative")

    @property
    def k(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class OutcomeVector:
    """The T boolean test results."""

    bits: tuple[bool, ...]

    @property
    def n_tests(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class Instance:
    """One group-testing instance: a design, its defectives and their outcomes."""

    design: TestDesign
    truth: DefectiveSet
    outcome: OutcomeVector


@dataclass(frozen=True)
class ItemStats:
    """Exact per-instance counts driving the COMP/DD success conditions.

    ``covered_tests`` is the number of tests containing at least one
    defective; the three per-defective tuples are aligned with
    ``truth.items``. ``masked_nondefectives`` counts nondefective items that
    appear in no negative test (COMP succeeds iff it is zero).
    """

    covered_tests: int
    covered_without: tuple[int, ...]
    solo_defective_tests: tuple[int, ...]
    solo_pd_tests: tuple[int, ...]
    masked_nondefectives: int
    pd_set: tuple[int, ...]


@dataclass(frozen=True)
class PossibleDefectives:
    """The PD items of one outcome (increasing) and, aligned, their masks.

    Bit b of a mask is the b-th positive test, and ``all_positive`` has a bit
    per positive test. A PD item is in positive tests only, so its mask holds
    all its tests in fewer Python-int digits than a mask over all T tests.
    ``solo`` holds, per mask, its tests that no other PD mask holds,
    ``definite`` the positions of the masks holding such a test (DD's
    picks: every test holding a PD item is positive, so no positivity check
    is needed), and ``explains`` is True iff the masks cover every positive
    test. They are found once with the answer, in one pass, so every decoder
    and :func:`compute_item_stats` on one outcome share it. SCOMP's
    positions (:attr:`greedy_cover`) are found on first use, once per answer.
    """

    items: tuple[int, ...]
    masks: tuple[int, ...]
    all_positive: int
    solo: tuple[int, ...] = field(init=False, repr=False, compare=False)
    definite: tuple[int, ...] = field(init=False, repr=False, compare=False)
    explains: bool = field(init=False, repr=False, compare=False)
    # found on first use; functools.cached_property takes a lock at each
    # first use on Python 3.11, which costs more than this None test
    _greedy_cover: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        others = others_unions(self.masks)
        solo = tuple([m & ~o for m, o in zip(self.masks, others)])
        union = self.masks[0] | others[0] if self.masks else 0
        object.__setattr__(self, "solo", solo)
        object.__setattr__(self, "definite", tuple([j for j, s in enumerate(solo) if s]))
        object.__setattr__(self, "explains", union == self.all_positive)

    @property
    def greedy_cover(self) -> tuple[int, ...]:
        """Positions of SCOMP's estimate: :attr:`definite` plus greedy picks
        covering every positive test (`_scomp_estimate`), found on first use
        and shared by SCOMP and SSS's incumbent. ValueError unless the masks
        explain every positive test, which the greedy pass needs."""
        if self._greedy_cover is None:
            if not self.explains:
                raise ValueError("a positive test holds no possible-defective item")
            object.__setattr__(
                self, "_greedy_cover", _scomp_estimate(self.masks, self.all_positive, self.definite)
            )
        return self._greedy_cover


def _scomp_estimate(masks: Sequence[int], target: int, definite: Sequence[int]) -> tuple[int, ...]:
    """Positions of `definite` plus greedy picks covering `target`, sorted.

    While some test of `target` is uncovered, add the mask covering the most
    uncovered tests (ties broken by lowest position); one exists as long as
    the masks explain every test of `target`. A picked mask covers no
    uncovered test, so it is never picked again.
    """
    estimate = list(definite)
    uncovered = target
    for j in estimate:
        uncovered &= ~masks[j]
    while uncovered:
        best_pos = -1
        best_gain = 0
        for j, m in enumerate(masks):
            gain = (m & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_pos = j
        estimate.append(best_pos)
        uncovered &= ~masks[best_pos]
    return tuple(sorted(estimate))


def sample_defective_set(n_items: int, k: int, seed: int) -> DefectiveSet:
    """Uniform K-subset of [0, n_items), by partial Fisher-Yates.

    Exactly uniform over all C(n_items, k) subsets and O(k) in time and
    memory, so large item counts are fine. ValueError unless n_items and k
    are integers (not bools) with 0 <= k <= n_items.
    """
    if not (is_integer(n_items) and is_integer(k) and 0 <= k <= n_items):
        raise ValueError(f"need integers 0 <= k <= n_items, got k={k!r}, n_items={n_items!r}")
    seed = _check_seed(seed)
    key = rng.mix64(seed, _STREAM_DEFECTIVE)
    return DefectiveSet(tuple(_uniform_subset(key, int(n_items), int(k))))


def sample_defective_sets(n_items: np.ndarray, k: np.ndarray, seeds: np.ndarray) -> list[DefectiveSet]:
    """``sample_defective_set(n_items[j], k[j], seeds[j])`` for each j, drawn
    together by `_uniform_subsets`. The sizes are integer arrays and the
    seeds a uint64 array, all of one length; ValueError unless 0 <= k <= N."""
    if not (n_items.dtype.kind in "iu" and k.dtype.kind in "iu" and np.all((0 <= k) & (k <= n_items))):
        raise ValueError(f"need integers 0 <= k <= n_items, got k={k!r}, n_items={n_items!r}")
    items = _uniform_subsets(rng.mix64_np(seeds, _STREAM_DEFECTIVE), n_items, k).tolist()
    bounds = np.concatenate(([0], np.cumsum(k))).tolist()
    return [DefectiveSet(tuple(items[a:b])) for a, b in zip(bounds, bounds[1:])]


def _uniform_subset(key: int, n: int, k: int) -> list[int]:
    """Sorted uniform k-subset of [0, n): the first k places of a Fisher-Yates
    shuffle drawn from the stream `key`, with the swaps kept in a dict."""
    perm: dict[int, int] = {}
    chosen = []
    for r in range(k):
        j = r + rng.bounded_at(key, r, n - r)
        # swap places r and j; no later step reads place r, so only j is stored
        chosen.append(perm.get(j, j))
        perm[j] = perm.get(r, r)
    return sorted(chosen)


def _bernoulli_cells(keys, tests, p) -> np.ndarray:
    """Whether the item of each key is in the test beside it (the two, and
    a p array, broadcast): the Bernoulli rule, decided by `rng.below_np` on
    the cell's word."""
    return rng.below_np(keys, tests, p)


def _bernoulli_rows(keys: np.ndarray, n_tests: np.ndarray, p):
    """A block's rows over each key's tests 0..T-1: a (keys, T_max) grid of
    cells, each key's cells past its own T dropped, read back with one
    ``np.flatnonzero`` (a cell's row and test are its flat position divmod
    T_max). p is one number for all keys or one per key. A row of more than
    ``_GEN_BLOCK`` cells is a block of its own, drawn in column blocks of
    ``_GEN_BLOCK`` cells."""
    if isinstance(p, np.ndarray):
        p = p[:, None]
    width = int(n_tests.max())
    if width > _GEN_BLOCK:  # one item per block
        blocks = (np.arange(lo, min(width, lo + _GEN_BLOCK), dtype=np.uint64) for lo in range(0, width, _GEN_BLOCK))
        row = np.concatenate([tests[_bernoulli_cells(keys[:, None], tests, p).ravel()] for tests in blocks])
        return row.shape[0], row
    cells = _bernoulli_cells(keys[:, None], np.arange(width, dtype=np.uint64), p)
    cells &= np.arange(width) < n_tests[:, None]
    rows, tests = np.divmod(np.flatnonzero(cells), width)
    return np.bincount(rows, minlength=keys.shape[0]), tests


def _near_constant_draws(keys, counters, n_tests) -> np.ndarray:
    """The test drawn at each counter by the item of the key beside it, of
    its T tests (the three broadcast): the near-constant rule."""
    return rng.bounded_np(keys, counters, n_tests)


def _near_constant_rows(keys: np.ndarray, n_tests: np.ndarray, draws: np.ndarray):
    """A block's rows, each sorted with its repeats dropped: a (keys, L_max)
    grid of draws, each key's draws past its own L dropped. A row of more
    than ``_GEN_BLOCK`` draws is a block of its own (`_distinct_draws`)."""
    width = int(draws.max())
    if width > _GEN_BLOCK:  # one item per block
        row = _distinct_draws(keys, width, int(n_tests[0]))
        return row.shape[0], row
    picks = _near_constant_draws(keys[:, None], np.arange(width, dtype=np.uint64), n_tests[:, None])
    picks[np.arange(width) >= draws[:, None]] = -1  # past a key's L; sorts first
    picks.sort(axis=1)
    # a sorted draw is kept unless it repeats the one before it in its row
    keep = picks >= 0
    np.logical_and(keep[:, 1:], picks[:, 1:] != picks[:, :-1], out=keep[:, 1:])
    return np.count_nonzero(keep, axis=1), picks[keep]


def _distinct_draws(key: np.ndarray, draws: int, n_tests: int) -> np.ndarray:
    """The sorted distinct values of the `draws` draws of the one item of
    `key`, drawn ``_GEN_BLOCK`` at a time; once the row holds all `n_tests`
    tests, no later draw can change it."""
    row = np.empty(0, dtype=np.int64)
    for lo in range(0, draws, _GEN_BLOCK):
        counters = np.arange(lo, min(draws, lo + _GEN_BLOCK), dtype=np.uint64)
        row = np.union1d(row, _near_constant_draws(key[:, None], counters, n_tests))
        if row.shape[0] == n_tests:
            break
    return row


def _exact_constant_rows(keys: np.ndarray, n_tests: np.ndarray, draws: np.ndarray):
    """A block's rows by `_uniform_subsets`."""
    return draws, _uniform_subsets(keys, n_tests, draws)


def _trial_pass() -> int:
    """Cells or draws per numpy pass over a block of rows (`_csr_rows`) or of
    trials (`_drop_negative`): an eighth of ``_GEN_BLOCK``, since such a pass
    holds index, counter and key arrays of its size beside the words (a
    Fisher-Yates block, about ten arrays of its draws). An exact-constant
    elimination pass up to place hi counts hi draws per entry, the whole
    prefix it redraws, not its step. In passes of a whole ``_GEN_BLOCK``
    the fig2 benchmark's peak memory was about 1.2 MB (3.7%) above the
    lab's of one trial at a time; in these it is about 0.2 MB above."""
    return _GEN_BLOCK >> 3


def _csr_rows(kind, keys, n_tests, param) -> tuple[np.ndarray, np.ndarray]:
    """The CSR arrays of the `kind` rows of `keys`. T (`n_tests`) and L are
    arrays beside `keys`; p is one number for all keys or one per key. The
    kind's row rule, which returns a block's lengths and entries, draws them
    ``max(1, _trial_pass() // width)`` items at a time (width: the most
    cells or draws of a row). A Bernoulli or near-constant row of more than
    ``_GEN_BLOCK`` cells or draws is drawn that many at a time; an
    exact-constant row is drawn whole, in memory in proportion to its L. A
    row depends only on its key, T and parameter, so the blocks never change
    the rows."""
    if kind == KIND_BERNOULLI:
        block_rows, width = _bernoulli_rows, n_tests
    else:
        block_rows = _near_constant_rows if kind == KIND_NEAR_CONSTANT else _exact_constant_rows
        width = param
    dtype = _index_dtype(int(n_tests.max(initial=1)))
    lengths = np.empty(keys.shape[0], dtype=np.int64)
    parts = [np.empty(0, dtype=dtype)]
    chunk = max(1, _trial_pass() // int(width.max(initial=1)))
    for lo in range(0, keys.shape[0], chunk):
        hi = lo + chunk
        rule_param = param[lo:hi] if isinstance(param, np.ndarray) else param
        lengths[lo:hi], entries = block_rows(keys[lo:hi], n_tests[lo:hi], rule_param)
        parts.append(entries.astype(dtype))
    indptr = np.zeros(keys.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr, np.concatenate(parts)


def generate_designs(
    kinds: Sequence[str],
    n_items: Sequence[int],
    n_tests: Sequence[int],
    params: Sequence[DesignParams],
    seeds: Sequence[int],
) -> list[TestDesign]:
    """``generate_design(kinds[j], n_items[j], n_tests[j], seeds[j], params[j])``
    for each j, in the order given, drawn and checked as one block.

    Each design's parameters are checked once (`_checked_params`), before
    any draw; ValueError on anything `generate_design` refuses or on
    sequences of unequal lengths. The designs are sorted by kind, so each
    kind's rows come from one `_csr_rows` call over its designs' item keys,
    each design's T and L repeated over its items, and p one number when
    those designs share it and one per key otherwise. The rows are checked
    once and split into designs (`_split_block`)."""
    if not len(kinds) == len(n_items) == len(n_tests) == len(params) == len(seeds):
        raise ValueError("one kind, N, T, params record and seed required per design")
    for kind, size, t, prm in zip(kinds, n_items, n_tests, params):
        _checked_params(kind, size, t, prm)
    seeds = [_check_seed(seed) for seed in seeds]
    order = sorted(range(len(kinds)), key=kinds.__getitem__)
    kinds, params, seeds = ([x[j] for j in order] for x in (kinds, params, seeds))
    sizes, tests = [int(n_items[j]) for j in order], [int(n_tests[j]) for j in order]
    # design b's items are keys bounds[b] .. bounds[b + 1] - 1; an item's key
    # mix64(seed, stream, item) is word `item` of the stream mix64(seed, stream)
    bounds = list(accumulate(sizes, initial=0))
    streams = np.array([rng.mix64(seed, _STREAM_COLUMNS[kind]) for kind, seed in zip(kinds, seeds)], dtype=np.uint64)
    items = np.arange(bounds[-1], dtype=np.uint64) - np.repeat(np.array(bounds[:-1], dtype=np.uint64), sizes)
    keys = rng._words_np(np.repeat(streams, sizes), items)
    ptrs, parts = [np.zeros(1, dtype=np.int64)], [np.empty(0, dtype=np.uint8)]
    b = 0
    for kind, run in groupby(kinds):
        a, b = b, b + len(list(run))
        bernoulli = kind == KIND_BERNOULLI
        param = [prm.p if bernoulli else prm.draws for prm in params[a:b]]
        # p stays one number when the designs share it; T and L are per key
        param = param[0] if bernoulli and len(set(param)) == 1 else np.repeat(param, sizes[a:b])
        row_tests = np.repeat(np.array(tests[a:b], dtype=np.uint64), sizes[a:b])  # holds T = 2**63
        indptr, indices = _csr_rows(kind, keys[bounds[a] : bounds[b]], row_tests, param)
        ptrs.append(indptr[1:] + ptrs[-1][-1])
        parts.append(indices)
    designs = _split_block(kinds, sizes, tests, params, seeds, np.concatenate(ptrs), np.concatenate(parts))
    return [designs[b] for b in sorted(range(len(order)), key=order.__getitem__)]


def _split_block(kinds, n_items, n_tests, params, seeds, indptr, indices) -> list[TestDesign]:
    """The designs of a block's arrays, checked once (`_checked_block`):
    design j has the j-th of each list and its rows follow design j - 1's."""
    indptr, indices = _checked_block(n_items, n_tests, indptr, indices)
    bounds = list(accumulate(n_items, initial=0))
    entries = indptr[bounds].tolist()
    designs = [TestDesign.__new__(TestDesign) for _ in n_items]
    rows = zip(bounds, bounds[1:], entries, entries[1:])
    for design, kind, n, t, prm, seed, (a, b, lo, hi) in zip(designs, kinds, n_items, n_tests, params, seeds, rows):
        design._keep(kind, n, t, prm, seed, indptr[a : b + 1] - lo, indices[lo:hi])
    return designs


def _uniform_subsets(keys: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """`_uniform_subset` on each of `keys`, with n and k per key: the sorted
    rows back to back.

    One `rng.bounded_np` call draws every key's places j_r, r < k (past a
    key's own k, with bound 1: j_r = r, a swap of a place with itself,
    dropped from the rows). Then the k swaps run over all keys at once. A
    key's swaps touch only its places r < k and the j_r it drew, so each
    key's places are renumbered into at most 2k slots: place r < k is slot
    r, and a drawn place j >= k is slot k plus the rank of j among the key's
    distinct draws. The memory is in proportion to the draws, whatever n.
    """
    width = int(k.max(initial=0))
    r = np.arange(width)
    counters = r.astype(np.uint64)
    live = r < k[:, None]
    # in uint64, which holds an n of 2**63
    bound = np.where(live, n.astype(np.uint64)[:, None] - counters, np.uint64(1))
    j = rng.bounded_np(keys[:, None], counters, bound)
    j += r
    # key i's draw r is at i * k + r of j's flat array, and its slot s at
    # i * 2k + s of the flat places
    first = np.arange(keys.shape[0])[:, None]
    order = np.argsort(j, axis=1) + first * width
    ranked = j.ravel()[order]
    fresh = np.ones(j.shape, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=fresh[:, 1:])
    row = first * (2 * width)
    slot = np.empty_like(j)
    slot.ravel()[order] = np.cumsum(fresh, axis=1) + (row + width - 1)
    np.copyto(slot, j + row, where=j < width)
    places = np.empty((keys.shape[0], 2 * width), dtype=np.int64)
    places[:, :width] = r
    places = places.ravel()
    places[slot] = j
    # one row per step: the slots drawn at r, and the slots of places r
    slot, lead = slot.T.copy(), (row + r).T.copy()
    chosen = np.empty((width, keys.shape[0]), dtype=np.int64)
    for step in range(width):
        places.take(slot[step], out=chosen[step])
        places[slot[step]] = places[lead[step]]
    chosen = chosen.T
    chosen[~live] = np.iinfo(np.int64).max  # sorts last
    chosen.sort(axis=1)
    return chosen[live]


def _drop_negative(kind, keys, trial, n_tests, param, positive) -> np.ndarray:
    """The positions of those entries (item stream ``keys[e]`` in trial
    ``trial[e]``) whose `kind` rows hold no negative test of their trial, in
    increasing order.

    `positive` holds each trial's outcome in a row, False past its T;
    `n_tests` and `param` (p, or L) are per trial. The cells are read in
    passes: each entry still in reads its next `step` cells (Bernoulli: its
    cells on its trial's negative tests; near-constant: its draws), and an
    entry with one in a negative test is out. The step starts at
    ``_DROP_STEP`` and doubles. A pass reads as many cells per entry as its
    widest entry, and each entry's cells past its own width are masked out.

    A pass lays its cells out counter-major, as a C-contiguous (step,
    entries) array, and reduces it over axis 0. The step is only 4 to 32
    wide, and numpy's ``any`` over so narrow a last axis is slow: a (2048,
    4) bool pass took 38 us, the same cells as (4, 2048) 1.4 us (numpy 2.4,
    2 shared vCPUs). So Bernoulli keeps its trials' negative tests
    transposed, as (T, trials), and gathers an entry's as a column with
    ``np.take``, which returns a C-ordered array: plain fancy indexing
    returns an F-ordered one, and a step-4 pass of 2048 entries took 92 us
    with it against 39 us.

    Exact-constant reads Fisher-Yates prefixes: the first s places of a
    `_uniform_subsets` row depend only on its first s steps, so a pass up to
    place `hi` draws the sorted prefix of ``min(L, hi)`` places and checks it
    whole. Its places before the pass's own are already known to miss every
    negative test, so the prefix is in exactly when places lo..hi are. Such
    a pass reads up to `hi` places per entry, so it holds at most
    ``_trial_pass()`` of them unless one entry's prefix is larger.
    """
    t_max = positive.shape[1]
    negative = ~positive
    negative[np.arange(t_max) >= n_tests[:, None]] = False
    prefixes = kind == KIND_EXACT_CONSTANT
    if kind == KIND_BERNOULLI:
        # each trial's negative tests, in increasing order, ahead of the rest,
        # as a column of a (T, trials) array
        tests = np.argsort(~negative, axis=1, kind="stable").T.astype(np.uint64, order="C")
        width = np.count_nonzero(negative, axis=1)[trial]

        def lands(entries, lo, hi):
            return _bernoulli_cells(keys[entries], np.take(tests[lo:hi], trial[entries], axis=1), param)

    elif kind == KIND_NEAR_CONSTANT:
        width = param[trial]
        negative = negative.ravel()

        def lands(entries, lo, hi):
            at = trial[entries]
            counters = np.arange(lo, hi, dtype=np.uint64)[:, None]
            return negative[at * t_max + _near_constant_draws(keys[entries], counters, n_tests[at])]

    else:
        width = param[trial]
        negative = negative.ravel()

        def lands(entries, lo, hi):
            at = trial[entries]
            draws = np.minimum(width[entries], hi)
            cells = negative[np.repeat(at * t_max, draws) + _uniform_subsets(keys[entries], n_tests[at], draws)]
            # one row: every prefix is nonempty and ends at the entry's own
            # width, so it is one reduceat segment and needs no mask
            return np.logical_or.reduceat(cells, np.cumsum(draws) - draws)[None]

    alive = np.arange(keys.shape[0])
    survivors = []
    lo, step = 0, _DROP_STEP
    while alive.size:
        done = width[alive] <= lo
        survivors.append(alive[done])
        alive = alive[~done]
        chunk = max(1, _trial_pass() // (lo + step if prefixes else step))
        hit = []
        for a in range(0, alive.shape[0], chunk):
            entries = alive[a : a + chunk]
            own = width[entries]
            cells = lands(entries, lo, min(lo + step, int(own.max())))
            if own.min() < lo + cells.shape[0]:
                cells &= np.arange(lo, lo + cells.shape[0])[:, None] < own
            hit.append(cells.any(axis=0))
        if hit:
            alive = alive[~np.concatenate(hit)]
        lo, step = lo + step, min(2 * step, _trial_pass())
    return np.sort(np.concatenate(survivors + [alive]))


class PdBlock:
    """A block of trials of one design arm, reduced to their PD items.

    Trial b has T = ``n_tests[b]`` (an int64 array), parameters
    ``params[b]`` (a list; Bernoulli trials share one p) and seed
    ``seeds[b]`` (a uint64 array); its design and defective set are those of
    ``generate_design(kind, n_items, T, seed, params)`` and
    ``sample_defective_set(n_items, k, seed)``. The inputs are not checked
    again: the lab's `ExperimentConfig` has checked every value they come
    from. The block draws its trials at once: the item keys, the defective
    sets (`_uniform_subsets`), the defectives' rows, which fix the outcomes,
    the elimination of every nondefective in a negative test of its trial
    (`_drop_negative`), and the survivors' rows. ``comp_exact[b]`` and
    ``dd_exact[b]`` read whether COMP and DD recover trial b from these
    arrays: COMP is exact iff no nondefective survives (G = 0), and DD iff
    every defective holds a positive test that no other PD item holds
    (min L_i > 0), the :class:`ItemStats` quantities ``masked_nondefectives``
    and ``solo_pd_tests``. :meth:`instances` builds every trial's PD-item
    instance at once; the block keeps no outcome.
    """

    def __init__(self, kind, n_items, k, n_tests, params, seeds) -> None:
        self.kind, self.n_tests, self.params, self.seeds = kind, n_tests, params, seeds
        size = seeds.shape[0]
        if kind == KIND_BERNOULLI:
            self._param = params[0].p  # the same at every T
        else:
            self._param = np.fromiter((prm.draws for prm in params), np.int64, size)
        t_max = int(n_tests.max())
        self._keys = rng.mix64_np(seeds[:, None], _STREAM_COLUMNS[kind], np.arange(n_items, dtype=np.uint64))
        self._defective = _uniform_subsets(
            rng.mix64_np(seeds, _STREAM_DEFECTIVE), np.full(size, n_items), np.full(size, k)
        ).reshape(size, k)
        # the defectives' rows, in (trial, defective) order, fix the outcomes
        def_trial = np.repeat(np.arange(size), k)
        def_rows = self._rows(self._keys[def_trial, self._defective.ravel()], def_trial)
        def_cells = self._cells(def_rows, def_trial, t_max)
        positive = np.zeros((size, t_max), dtype=bool)
        positive.flat[def_cells] = True
        # every other item of each trial, as its flat position trial * N + item
        others = np.ones((size, n_items), dtype=bool)
        others[def_trial, self._defective.ravel()] = False
        others = others.ravel().nonzero()[0]
        kept = _drop_negative(kind, self._keys.ravel()[others], others // n_items, n_tests, self._param, positive)
        self._survivors = others[kept]
        surv_trial = self._survivors // n_items
        surv_cells = self._cells(self._rows(self._keys.ravel()[self._survivors], surv_trial), surv_trial, t_max)
        # G: the survivors per trial; L_i: the positive tests of defective i
        # that no other PD item holds (each row's tests are distinct)
        self.comp_exact = np.bincount(surv_trial, minlength=size) == 0
        holders = np.bincount(np.concatenate((def_cells, surv_cells)), minlength=size * t_max)
        solo = np.bincount(
            np.repeat(np.arange(size * k), np.diff(def_rows[0])),
            weights=holders[def_cells] == 1,
            minlength=size * k,
        )
        self.dd_exact = (solo.reshape(size, k) > 0).all(axis=1)

    def __len__(self) -> int:
        return self.seeds.shape[0]

    def _rows(self, keys, trial):
        """The CSR rows of `keys`, each of the trial beside it."""
        param = self._param if self.kind == KIND_BERNOULLI else self._param[trial]
        return _csr_rows(self.kind, keys, self.n_tests[trial], param)

    @staticmethod
    def _cells(rows, trial, t_max) -> np.ndarray:
        """Each entry of `rows` as the flat position trial * t_max + test."""
        indptr, indices = rows
        return np.repeat(trial, np.diff(indptr)) * t_max + indices

    def instances(self) -> list[tuple[Instance, tuple[int, ...]]]:
        """Each trial restricted to its PD items, and those items.

        A trial's PD items are its defectives and survivors, increasing, or
        item 0 (held in full, so the PD step drops it) for a trial with none.
        Their rows, drawn in one `_rows` pass and checked once
        (`_split_block`), are the full design's, so one `block_instances`
        call gives each trial the full design's outcome, PD answer and
        decoder estimates, over positions: item j is the j-th of the
        trial's item tuple, and so is its truth.
        """
        size, k = self._defective.shape
        n_items = self._keys.shape[1]
        # each trial's PD items as flat positions trial * N + item, sorted
        defective = (np.arange(size)[:, None] * n_items + self._defective).ravel()
        counts = np.bincount(self._survivors // n_items, minlength=size) + k
        bare = (counts == 0).nonzero()[0]
        counts[bare] = 1
        flat = np.sort(np.concatenate((defective, self._survivors, bare * n_items)))
        trial, items = np.divmod(flat, n_items)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        at = np.searchsorted(flat, defective).reshape(size, k) - bounds[:-1, None]
        meta = repeat(self.kind), counts.tolist(), self.n_tests.tolist(), self.params, self.seeds.tolist()
        designs = _split_block(*meta, *self._rows(self._keys.ravel()[flat], trial))
        insts = block_instances(designs, [DefectiveSet(tuple(row)) for row in at.tolist()])
        items, bounds = items.tolist(), bounds.tolist()
        return [(inst, tuple(items[a:b])) for inst, a, b in zip(insts, bounds, bounds[1:])]


def pd_block_trials(n_items: int, t_max: int) -> int:
    """Trials per `PdBlock` of N items and T at most `t_max`: at most
    ``_GEN_BLOCK // max(N, T)``, so a block's item keys and outcomes, like
    every hashed array of its draws, hold at most ``_GEN_BLOCK`` words."""
    return max(1, _GEN_BLOCK // max(n_items, t_max))


def gen_bernoulli(
    n_items: int, n_tests: int, p: float, seed: int, *, nu: float | None = None
) -> TestDesign:
    """Design with every cell included independently with probability p
    (`_bernoulli_cells`), drawn a pass of at most ``_GEN_BLOCK // 8`` cells
    at a time; a row of more than ``_GEN_BLOCK`` cells is drawn that many at
    a time."""
    return generate_design(KIND_BERNOULLI, n_items, n_tests, seed, DesignParams(p=p, nu=nu))


def gen_near_constant(
    n_items: int, n_tests: int, draws: int, seed: int, *, nu: float | None = None
) -> TestDesign:
    """Design with L uniform draws per item, with replacement (duplicates collapse).

    Rows are drawn a pass of at most ``_GEN_BLOCK // 8`` draws at a time,
    each sorted with its duplicates dropped. A row of more than
    ``_GEN_BLOCK`` draws is a block of its own, drawn in column blocks of
    that many merged into its distinct set, and stops early once it holds
    every test.
    """
    return generate_design(KIND_NEAR_CONSTANT, n_items, n_tests, seed, DesignParams(draws=draws, nu=nu))


def gen_exact_constant(
    n_items: int, n_tests: int, draws: int, seed: int, *, nu: float | None = None
) -> TestDesign:
    """Design with a uniform L-subset of tests per item (without replacement):
    the partial Fisher-Yates of `_uniform_subsets` over a block of items at
    a time, at most ``_GEN_BLOCK // 8`` draws, or one item when L is more."""
    return generate_design(KIND_EXACT_CONSTANT, n_items, n_tests, seed, DesignParams(draws=draws, nu=nu))


def _checked_params(
    kind: str, n_items: int, n_tests: int, params: DesignParams, *, required: bool = True
) -> DesignParams:
    """`params`, checked against the rules of a `kind` design of N items, T tests.

    Every `TestDesign` obeys them (its constructor passes `required` False);
    the generators and the lab's config apply them before any draw.
    ValueError when `params` is not a `DesignParams`; when N or T is not a
    positive integer; when `params` carries the other kind's parameter (p
    for a weight design, L for Bernoulli) or, if `required`, lacks its own;
    when p is not a number strictly inside (0, 1); when L is not an integer
    >= 1, or is above T on an exact-constant design; when T is above 2**63
    on a weight design (a test index is a bounded draw); when nu is given
    and is not a positive, finite number; or, if `required` (the design is
    to be generated), when it could hold more than ``MAX_ENTRIES`` entries:
    N*T for Bernoulli, N*min(L, T) for a weight design.
    """
    if not isinstance(params, DesignParams):
        raise ValueError(f"params must be a DesignParams, got {params!r}")
    n_items = _check_size(n_items, "n_items")
    n_tests = _check_size(n_tests, "n_tests")
    bernoulli = kind == KIND_BERNOULLI
    if bernoulli:
        own, other, message = params.p, params.draws, "bernoulli designs take p, not L"
    elif kind in DESIGN_KINDS:
        own, other, message = params.draws, params.p, f"{kind} designs take L, not p"
    else:
        raise ValueError(f"unknown design kind {kind!r}")
    if other is not None or (required and own is None):
        raise ValueError(message)
    if not bernoulli and n_tests > rng.BOUND_MAX:
        raise ValueError(f"T must be at most 2**63 on a {kind} design, got {n_tests}")
    p, draws, nu = params.p, params.draws, params.nu
    # a bool is neither a number nor an integer here (is_number, is_integer)
    if p is not None and not (is_number(p) and 0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    if draws is not None and not (is_integer(draws) and draws >= 1):
        raise ValueError(f"draws must be an integer >= 1, got {draws!r}")
    if draws is not None and kind == KIND_EXACT_CONSTANT and draws > n_tests:
        raise ValueError(f"draws must not exceed n_tests ({n_tests}), got {draws}")
    # compared, not passed to math.isfinite, which overflows on a huge JSON integer
    if nu is not None and not (is_number(nu) and 0.0 < nu < math.inf):
        raise ValueError(f"nu must be positive and finite, got {nu!r}")
    if required and n_items * (n_tests if bernoulli else min(draws, n_tests)) > MAX_ENTRIES:
        raise ValueError(
            f"a {kind} design of N={n_items}, {'p' if bernoulli else 'L'}={own}, T={n_tests} "
            f"holds more than 2**31 entries"
        )
    return params


def generate_design(
    kind: str, n_items: int, n_tests: int, seed: int, params: DesignParams
) -> TestDesign:
    """The `kind` design of `seed`, which takes p for Bernoulli and draws (L)
    otherwise: a block of one (`generate_designs`). ValueError unless `params`
    carries its kind's parameter and not the other one, with values the kind
    allows, and the design fits ``MAX_ENTRIES`` (`_checked_params`)."""
    return generate_designs([kind], [n_items], [n_tests], [params], [seed])[0]


def regenerate_design(design: TestDesign) -> TestDesign:
    """Rebuild a design from its (kind, sizes, params, seed) metadata."""
    return generate_design(design.kind, design.n_items, design.n_tests, design.seed, design.params)


def params_from_nu(kind: str, nu: float, n_tests: int, k: int) -> DesignParams:
    """The parameter a `kind` design takes at density nu, T tests and K defectives.

    Bernoulli takes p = nu/K, clamped to P_MAX. The weight designs take
    L = nu*T/K rounded to the nearest integer (ties to even, floored at 1),
    and exact-constant, which draws without replacement, caps L at T.
    """
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if k < 1 or n_tests < 1:
        raise ValueError("k and n_tests must be >= 1")
    exact = nu * n_tests / k
    if not math.isfinite(exact):
        raise ValueError(f"nu * T / K must be finite, got nu={nu}, T={n_tests}, K={k}")
    if kind == KIND_BERNOULLI:
        return DesignParams(p=min(P_MAX, nu / k), nu=nu)
    draws = max(1, round(exact))
    if kind == KIND_EXACT_CONSTANT:
        draws = min(draws, n_tests)
    return DesignParams(draws=draws, nu=nu)


def tests_containing(design: TestDesign, items: Iterable[int]) -> list[bool]:
    """One bool per test of `design`: True iff the test contains one of `items`.
    (A list: for a defective set's few rows it beats a numpy write per row.)"""
    hit = [False] * design.n_tests
    indptr, indices = design.indptr, design.indices
    for i in items:
        if not 0 <= i < design.n_items:
            raise ValueError(f"item {i} out of range for {design.n_items} items")
        for t in indices[indptr[i] : indptr[i + 1]].tolist():
            hit[t] = True
    return hit


def run_tests(design: TestDesign, truth: DefectiveSet) -> OutcomeVector:
    """Noiseless outcomes: test t is positive iff it contains a defective."""
    return OutcomeVector(tuple(tests_containing(design, truth.items)))


def is_satisfying(design: TestDesign, outcome: OutcomeVector, candidate: Iterable[int]) -> bool:
    """True iff `candidate` hits every positive test and no negative one: the
    rule of :func:`run_tests`, read from the CSR arrays, not the PD masks."""
    check_outcome_length(design, outcome)
    return tests_containing(design, candidate) == list(map(bool, outcome.bits))


def check_outcome_length(design: TestDesign, outcome: OutcomeVector) -> None:
    """Raise ValueError unless `outcome` has one result per test of `design`."""
    if outcome.n_tests != design.n_tests:
        raise ValueError(
            f"outcome has {outcome.n_tests} tests, design has {design.n_tests}"
        )


def others_unions(masks: Sequence[int]) -> list[int]:
    """For each of `masks`, the OR of the other masks.

    One suffix pass and one prefix pass: O(len(masks)) ORs in all.
    """
    suffix = [0] * (len(masks) + 1)
    for idx in range(len(masks) - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] | masks[idx]
    others = []
    prefix = 0
    for idx, m in enumerate(masks):
        others.append(prefix | suffix[idx + 1])
        prefix |= m
    return others


def possible_defectives(design: TestDesign, outcome: OutcomeVector) -> PossibleDefectives:
    """The PD step of COMP: the items in no negative test, with their masks;
    `_pd_answers` on a block of one design."""
    check_outcome_length(design, outcome)
    positive = np.array(outcome.bits, dtype=bool)
    return _pd_answers([design.n_items], [design.n_tests], design.indptr, design.indices, positive)[0]


def block_instances(designs: Sequence[TestDesign], truths: Sequence[DefectiveSet]) -> list[Instance]:
    """``Instance(d, truth, run_tests(d, truth))`` for each pair, each design
    carrying its PD answer from one `_pd_answers` pass. The designs' rows
    are laid back to back in the order given, one slice per design and a
    fixed number of numpy calls, and so are their outcomes, which one
    scatter of the defectives' rows fills. ValueError on a defective outside
    its design or on lists of unequal lengths."""
    if len(designs) != len(truths):
        raise ValueError("one defective set required per design")
    if not designs:
        return []
    n_items, n_tests = [d.n_items for d in designs], [d.n_tests for d in designs]
    for n, truth in zip(n_items, truths):
        if truth.items and truth.items[-1] >= n:
            bad = next(i for i in truth.items if i >= n)
            raise ValueError(f"item {bad} out of range for {n} items")
    item_at = list(accumulate(n_items, initial=0))
    test_at = list(accumulate(n_tests, initial=0))
    entry_at = list(accumulate((d.indices.shape[0] for d in designs), initial=0))
    # design j's rows from its first entry on, and each entry's place in the
    # block's outcomes: its design's first test plus its own
    indptr = np.concatenate([d.indptr[:-1] for d in designs] + [np.zeros(1, dtype=np.int64)])
    indptr += np.repeat(entry_at, [*n_items, 1])
    tests = np.concatenate([d.indices for d in designs], dtype=np.int64)
    tests += np.repeat(test_at[:-1], np.diff(entry_at))
    # the defectives' rows, as block items, and their entries back to back
    defective = np.fromiter(chain.from_iterable(t.items for t in truths), np.int64)
    defective += np.repeat(item_at[:-1], [t.k for t in truths])
    starts = indptr[defective]
    sizes = indptr[defective + 1] - starts
    # entry e of them: its row's start plus its place in the row
    entries = np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    positive = np.zeros(test_at[-1], dtype=bool)
    positive[tests[entries]] = True
    bits = positive.tolist()
    outcomes = [OutcomeVector(tuple(bits[a:b])) for a, b in zip(test_at, test_at[1:])]
    for design, outcome, answer in zip(designs, outcomes, _pd_answers(n_items, n_tests, indptr, tests, positive)):
        design._pd = (outcome.bits, answer)
    return list(map(Instance, designs, truths, outcomes))


def _pd_answers(n_items, n_tests, indptr, tests, positive) -> list[PossibleDefectives]:
    """The PD answer of each design of a block (rows as in `_checked_block`;
    `positive` holds the outcomes back to back, `tests` each entry's place in
    it). One gather of the outcomes and one AND per non-empty row find the PD
    rows, and one `_pd_masks` call packs their masks, each entry ranked among
    its design's positive tests (memory in proportion to the masks)."""
    sizes = indptr[1:] - indptr[:-1]
    # An empty row is in no negative test, so it is PD. Without the empty
    # rows the starts rise strictly, and each reduceat segment is exactly one
    # row (the last runs to the end). np.take reads the narrow indices as
    # they are (indexing casts them to intp first).
    filled = sizes.nonzero()[0]
    is_pd = np.ones(sizes.shape[0], dtype=bool)
    is_pd[filled] = np.logical_and.reduceat(np.take(positive, tests), indptr[filled])
    pd = is_pd.nonzero()[0]
    # each positive test's rank in its design; design j's PD rows are
    # pd[ends[j]:ends[j + 1]] (per-design offsets as lists: blocks are short)
    rank = np.cumsum(positive) - 1
    item_at = list(accumulate(n_items, initial=0))
    before = [0, *(rank[[t - 1 for t in accumulate(n_tests)]] + 1).tolist()]
    rank -= np.repeat(before[:-1], n_tests)
    n_pos = [b - a for a, b in zip(before, before[1:])]
    ends = np.searchsorted(pd, item_at).tolist()
    masks = _pd_masks(np.take(rank, tests[np.repeat(is_pd, sizes)]), sizes[pd], max(n_pos))
    pd = pd.tolist()
    return [
        PossibleDefectives(tuple([i - at for i in pd[a:b]]), masks[a:b], (1 << count) - 1)
        for a, b, at, count in zip(ends, ends[1:], item_at, n_pos)
    ]


def _pd_masks(bits: np.ndarray, sizes: np.ndarray, n_bits: int) -> tuple[int, ...]:
    """The mask of each row of `bits` (rows of `sizes` entries back to back,
    each bit below `n_bits`), OR-ed into whole-byte rows and read back by
    ``int.from_bytes``."""
    width = n_bits // 8 + 1  # bytes per mask; the spare byte keeps it positive
    byte_at = np.repeat(np.arange(0, sizes.shape[0] * width, width), sizes) + (bits >> 3)
    packed = np.zeros(sizes.shape[0] * width, dtype=np.uint8)
    np.bitwise_or.at(packed, byte_at, np.left_shift(1, bits & 7).astype(np.uint8))
    return tuple(map(int.from_bytes, packed.view(f"V{width}").tolist(), repeat("little")))


def compute_item_stats(
    design: TestDesign, truth: DefectiveSet, outcome: OutcomeVector
) -> ItemStats:
    """Exact counts of the quantities governing COMP/DD success.

    For defective i with tests m_i, W_i counts the tests of the other
    defectives, M_i the tests in m_i and in no other defective's, and L_i
    the tests in m_i and in no other PD item's, all read from the PD masks.
    """
    answer = design.pd(outcome)
    if not is_satisfying(design, outcome, truth.items):
        raise ValueError("outcome is inconsistent with (design, truth)")
    # so every defective is a PD item
    at = {item: j for j, item in enumerate(answer.items)}
    pos = [at[i] for i in truth.items]
    masks = [answer.masks[j] for j in pos]
    others = others_unions(masks)
    return ItemStats(
        covered_tests=answer.all_positive.bit_count(),
        covered_without=tuple([o.bit_count() for o in others]),
        solo_defective_tests=tuple([(m & ~o).bit_count() for m, o in zip(masks, others)]),
        solo_pd_tests=tuple([answer.solo[j].bit_count() for j in pos]),
        masked_nondefectives=len(answer.items) - truth.k,
        pd_set=answer.items,
    )


# -- JSON serialization (the CLI's design export/import format) --
# One encoder writes design JSON text, design_json_chunks; its text is
# byte-identical to json.dumps of design_to_json_dict, compact or indented.


def _json_header(design: TestDesign) -> dict:
    params: dict[str, object] = {"nu": design.params.nu}
    if design.kind == KIND_BERNOULLI:
        params["p"] = design.params.p
    else:
        params["L"] = design.params.draws
    return {
        "kind": design.kind,
        "N": design.n_items,
        "T": design.n_tests,
        "params": params,
        "seed": design.seed,
    }


def design_to_json_dict(design: TestDesign) -> dict:
    return {**_json_header(design), "columns": design.rows()}


def design_json_chunks(design: TestDesign, indent: int | None = None) -> Iterator[str]:
    """The text of ``json.dumps(design_to_json_dict(design), indent=indent)``,
    in chunks of ``_JSON_BLOCK`` rows, for `indent` None or a number of spaces.

    json writes the header, so its floats, nulls and key order are json's
    own; the rows are joined from the CSR arrays a block at a time (with an
    indent, json itself encodes in Python and joins one chunk per index).
    """
    head = json.dumps(_json_header(design), indent=indent)
    # the header less its closing "}" (or "\n}"), then the columns as json
    # separates them: ", " compact, "," and a newline at each depth indented
    if indent is None:
        yield head[:-1] + ', "columns": ['
        start, sep, end, between, close = "[", ", ", "]", ", ", "]}"
    else:
        pad = " " * indent
        yield f'{head[:-2]},\n{pad}"columns": [\n{pad * 2}'
        start, sep, end = f"[\n{pad * 3}", f",\n{pad * 3}", f"\n{pad * 2}]"
        between, close = f",\n{pad * 2}", f"\n{pad}]\n}}"
    indptr, indices = design.indptr, design.indices
    # each test's text made once, unless the design has fewer entries than tests
    if design.n_tests <= indices.shape[0]:
        text = list(map(str, range(design.n_tests))).__getitem__
    else:
        text = str
    for lo in range(0, design.n_items, _JSON_BLOCK):
        bounds = indptr[lo : lo + _JSON_BLOCK + 1]
        texts = list(map(text, indices[bounds[0] : bounds[-1]].tolist()))
        bounds = (bounds - bounds[0]).tolist()
        rows = [
            f"{start}{sep.join(texts[a:b])}{end}" if a < b else "[]"
            for a, b in zip(bounds, bounds[1:])
        ]
        yield (between if lo else "") + between.join(rows)
    yield close


def design_to_json(design: TestDesign) -> str:
    return "".join(design_json_chunks(design))


def design_from_json_dict(obj: dict) -> TestDesign:
    """Load a design object; any malformed field raises ValueError.

    Types are checked, never coerced: sizes, seed and L must be JSON
    integers, p and nu numbers, and every column a list of integers.
    ``params`` may leave the kind's own parameter null (a hand-written
    design), but not carry the other kind's; the constructor applies these
    rules (``_checked_params``).
    """
    if not isinstance(obj, dict):
        raise ValueError("a design must be a JSON object")
    try:
        kind, n_items, n_tests, raw_params, seed, columns = (
            obj[key] for key in ("kind", "N", "T", "params", "seed", "columns")
        )
    except KeyError as exc:
        raise ValueError(f"malformed design object: missing {exc}") from exc
    if not isinstance(raw_params, dict):
        raise ValueError("params must be a JSON object")
    params = DesignParams(p=raw_params.get("p"), draws=raw_params.get("L"), nu=raw_params.get("nu"))
    return TestDesign(kind, n_items, n_tests, params, seed, columns)


def design_from_json(text: str) -> TestDesign:
    return design_from_json_dict(json.loads(text))
