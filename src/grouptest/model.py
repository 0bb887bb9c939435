"""Group-testing instances: pooling designs, defective sets, outcomes, per-item counts.

A design is a binary T x N incidence structure stored as compressed sparse
rows (CSR), one row per item: item i is in the tests
``indices[indptr[i]:indptr[i + 1]]``, strictly increasing. ``indptr`` is an
int64 array of N + 1 row pointers; ``indices`` holds all rows back to back in
the narrowest unsigned type that fits T. Every constructor (the generators,
hand-written per-item lists, the JSON loader) ends in one vectorised
validation. The per-item views, ``columns`` (tuples of test indices) and
``item_masks`` (Python-int bitmasks), are built from the arrays on first use,
never through a dense N x T matrix. Three random constructions are provided:

* ``bernoulli``       -- every (test, item) cell is included independently
                         with probability p.
* ``near_constant``   -- per item, L tests drawn uniformly *with* replacement;
                         duplicate draws collapse, so column weights may fall
                         slightly below L.
* ``exact_constant``  -- per item, a uniform L-subset of tests (without
                         replacement), so every column weighs exactly L.

All randomness is counter-based (see :mod:`grouptest.rng`): column i of a
design depends only on (seed, kind, i), so columns can be generated in any
order or concurrently with identical results.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat

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

# Dense bool cells per row chunk when item masks are packed (256 kB).
_MASK_CHUNK_CELLS = 1 << 18


def is_integer(value: object) -> bool:
    """True for Python and numpy integers; bools are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def _index_dtype(n_tests: int) -> type[np.integer]:
    """The narrowest unsigned type holding every index of a `n_tests`-test design."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n_tests <= np.iinfo(dtype).max + 1:
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
    sequence of test indices per item; the generators build the CSR arrays
    directly through :meth:`from_csr`. Both go through the same validation.
    The arrays are read-only, so the lazily built views stay valid.
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
        if kind not in DESIGN_KINDS:
            raise ValueError(f"unknown design kind {kind!r}")
        self.kind = kind
        self.n_items = _check_size(n_items, "n_items")
        self.n_tests = _check_size(n_tests, "n_tests")
        self.params = params
        self.seed = _check_seed(seed)
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("row pointers and test indices must be flat arrays")
        # dtype kinds: signed or unsigned integer; bool, float and object fail
        if indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu":
            raise ValueError("test indices must be integers")
        if indptr.shape[0] != self.n_items + 1:
            raise ValueError("one column required per item")
        nnz = indices.shape[0]
        if indptr[0] != 0 or indptr[-1] != nnz or np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("row pointers must rise from 0 to the number of indices")
        if nnz and (indices.min() < 0 or indices.max() >= self.n_tests):
            raise ValueError("test index out of range")
        # strictly increasing rows: the consecutive differences (compared, not
        # subtracted, so unsigned types cannot wrap) may be <= 0 only where a
        # new row starts
        steps_down = np.flatnonzero(indices[1:] <= indices[:-1]) + 1
        if steps_down.size:
            row_start = np.zeros(nnz + 1, dtype=bool)
            row_start[indptr] = True
            if not row_start[steps_down].all():
                raise ValueError("columns must be strictly sorted")
        self.indptr = indptr.astype(np.int64, copy=False)
        self.indices = indices.astype(_index_dtype(self.n_tests), copy=False)
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        self._columns: tuple[tuple[int, ...], ...] | None = None
        self._masks: tuple[int, ...] | None = None

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

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Per-item sorted test indices as tuples (built on first use)."""
        if self._columns is None:
            self._columns = tuple(map(tuple, self.rows()))
        return self._columns

    @property
    def item_masks(self) -> tuple[int, ...]:
        """Per-item bitmask of tests (bit t set iff test t contains the item).

        Built on first use, a bounded chunk of rows at a time: the chunk's
        cells are set in a dense bool block of whole-byte rows, packed
        little-endian by ``np.packbits``, viewed as one bytes object per row
        and read back by ``int.from_bytes``.
        """
        if self._masks is None:
            width = -(-self.n_tests // 8)  # bytes per mask
            chunk = max(1, _MASK_CHUNK_CELLS // (8 * width))
            masks: list[int] = []
            for lo in range(0, self.n_items, chunk):
                ptr = self.indptr[lo : lo + chunk + 1]
                n_rows = ptr.shape[0] - 1
                block = np.zeros(n_rows * 8 * width, dtype=bool)
                row_at = np.repeat(np.arange(0, block.shape[0], 8 * width), np.diff(ptr))
                block[row_at + self.indices[ptr[0] : ptr[-1]]] = True
                packed = np.packbits(block, bitorder="little").view(f"V{width}").tolist()
                masks.extend(map(int.from_bytes, packed, repeat("little")))
            self._masks = tuple(masks)
        return self._masks

    @property
    def all_tests_mask(self) -> int:
        return (1 << self.n_tests) - 1


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
    positive_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        packed = np.packbits(np.array(self.bits, dtype=bool), bitorder="little")
        object.__setattr__(self, "positive_mask", int.from_bytes(packed.tobytes(), "little"))

    @property
    def n_tests(self) -> int:
        return len(self.bits)

    def negative_mask(self, n_tests: int | None = None) -> int:
        n = len(self.bits) if n_tests is None else n_tests
        return ((1 << n) - 1) ^ self.positive_mask


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


def sample_defective_set(n_items: int, k: int, seed: int) -> DefectiveSet:
    """Uniform K-subset of [0, n_items), by partial Fisher-Yates.

    Exactly uniform over all C(n_items, k) subsets and O(k) in time and
    memory, so large item counts are fine.
    """
    if n_items < 0 or k < 0 or k > n_items:
        raise ValueError(f"need 0 <= k <= n_items, got k={k}, n_items={n_items}")
    seed = _check_seed(seed)
    return DefectiveSet(tuple(_uniform_subset(rng.mix64(seed, _STREAM_DEFECTIVE), n_items, k)))


def _uniform_subset(key: int, n: int, k: int) -> list[int]:
    """Sorted uniform k-subset of [0, n): the first k places of a Fisher-Yates
    shuffle drawn from the stream `key`, with the swaps kept in a dict."""
    perm: dict[int, int] = {}
    chosen = []
    for r in range(k):
        j = r + rng.bounded_at(key, r, n - r)
        vr = perm.get(r, r)
        vj = perm.get(j, j)
        perm[r], perm[j] = vj, vr
        chosen.append(vj)
    return sorted(chosen)


def _row_pointers(row_lengths: np.ndarray) -> np.ndarray:
    indptr = np.zeros(row_lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(row_lengths, out=indptr[1:])
    return indptr


def gen_bernoulli(
    n_items: int, n_tests: int, p: float, seed: int, *, nu: float | None = None
) -> TestDesign:
    """Design with every cell included independently with probability p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if n_items < 1 or n_tests < 1:
        raise ValueError("n_items and n_tests must be positive")
    seed = _check_seed(seed)
    keys = rng.mix64_np(seed, _STREAM_COLUMNS[KIND_BERNOULLI], np.arange(n_items, dtype=np.uint64))
    counters = np.arange(n_tests, dtype=np.uint64)
    dtype = _index_dtype(n_tests)
    lengths, parts = [], []
    # chunk rows to bound the (items x tests) buffer at ~32 MB
    chunk = max(1, (4 << 20) // max(1, n_tests))
    for lo in range(0, n_items, chunk):
        block = rng.unit_np(keys[lo : lo + chunk, None], counters[None, :]) < p
        item, test = np.nonzero(block)
        lengths.append(np.bincount(item, minlength=block.shape[0]))
        parts.append(test.astype(dtype))
    return TestDesign.from_csr(
        KIND_BERNOULLI,
        n_items,
        n_tests,
        DesignParams(p=p, nu=nu),
        seed,
        _row_pointers(np.concatenate(lengths)),
        np.concatenate(parts),
    )


def gen_near_constant(
    n_items: int, n_tests: int, draws: int, seed: int, *, nu: float | None = None
) -> TestDesign:
    """Design with L uniform draws per item, with replacement (duplicates collapse)."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if n_tests < 1:
        raise ValueError(f"n_tests must be >= 1, got {n_tests}")
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    seed = _check_seed(seed)
    keys = rng.mix64_np(seed, _STREAM_COLUMNS[KIND_NEAR_CONSTANT], np.arange(n_items, dtype=np.uint64))
    picks = rng.bounded_np(keys[:, None], np.arange(draws, dtype=np.uint64)[None, :], n_tests)
    del keys
    picks.sort(axis=1)
    # a sorted draw is kept unless it repeats the one before it in its row
    keep = np.ones(picks.shape, dtype=bool)
    np.not_equal(picks[:, 1:], picks[:, :-1], out=keep[:, 1:])
    indices = picks[keep].astype(_index_dtype(n_tests))
    del picks
    return TestDesign.from_csr(
        KIND_NEAR_CONSTANT,
        n_items,
        n_tests,
        DesignParams(draws=draws, nu=nu),
        seed,
        _row_pointers(np.count_nonzero(keep, axis=1)),
        indices,
    )


def gen_exact_constant(
    n_items: int, n_tests: int, draws: int, seed: int, *, nu: float | None = None
) -> TestDesign:
    """Design with a uniform L-subset of tests per item (without replacement)."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if draws > n_tests:
        raise ValueError(f"draws must not exceed n_tests ({n_tests}), got {draws}")
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    seed = _check_seed(seed)
    tag = _STREAM_COLUMNS[KIND_EXACT_CONSTANT]
    flat: list[int] = []
    for i in range(n_items):
        flat.extend(_uniform_subset(rng.mix64(seed, tag, i), n_tests, draws))
    return TestDesign.from_csr(
        KIND_EXACT_CONSTANT,
        n_items,
        n_tests,
        DesignParams(draws=draws, nu=nu),
        seed,
        np.arange(0, n_items * draws + 1, draws, dtype=np.int64),
        np.array(flat, dtype=_index_dtype(n_tests)),
    )


def generate_design(
    kind: str,
    n_items: int,
    n_tests: int,
    seed: int,
    *,
    p: float | None = None,
    draws: int | None = None,
    nu: float | None = None,
) -> TestDesign:
    """Dispatch to the generator for `kind` (p for Bernoulli, draws otherwise)."""
    if kind == KIND_BERNOULLI:
        if p is None:
            raise ValueError("bernoulli designs require p")
        return gen_bernoulli(n_items, n_tests, p, seed, nu=nu)
    if kind == KIND_NEAR_CONSTANT:
        if draws is None:
            raise ValueError("near_constant designs require draws")
        return gen_near_constant(n_items, n_tests, draws, seed, nu=nu)
    if kind == KIND_EXACT_CONSTANT:
        if draws is None:
            raise ValueError("exact_constant designs require draws")
        return gen_exact_constant(n_items, n_tests, draws, seed, nu=nu)
    raise ValueError(f"unknown design kind {kind!r}")


def regenerate_design(design: TestDesign) -> TestDesign:
    """Rebuild a design from its (kind, sizes, params, seed) metadata."""
    return generate_design(
        design.kind,
        design.n_items,
        design.n_tests,
        design.seed,
        p=design.params.p,
        draws=design.params.draws,
        nu=design.params.nu,
    )


@dataclass(frozen=True)
class NuParams:
    """Finite-size parameters realized from the density parameter nu.

    The analysis treats L = nu*T/K as a real number; ``draws`` rounds it to
    the nearest integer (ties to even, floored at 1) and ``draws_exact``
    retains the real value for diagnostics.
    """

    draws: int
    p: float
    draws_exact: float
    nu: float


def params_from_nu(nu: float, n_tests: int, k: int) -> NuParams:
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if k < 1 or n_tests < 1:
        raise ValueError("k and n_tests must be >= 1")
    exact = nu * n_tests / k
    if not math.isfinite(exact):
        raise ValueError(f"nu * T / K must be finite, got nu={nu}, T={n_tests}, K={k}")
    return NuParams(
        draws=max(1, round(exact)),
        p=min(P_MAX, nu / k),
        draws_exact=exact,
        nu=nu,
    )


def run_tests(design: TestDesign, truth: DefectiveSet) -> OutcomeVector:
    """Noiseless outcomes: test t is positive iff it contains a defective."""
    positive = np.zeros(design.n_tests, dtype=bool)
    indptr, indices = design.indptr, design.indices
    for i in truth.items:
        if i >= design.n_items:
            raise ValueError(f"defective index {i} out of range for {design.n_items} items")
        positive[indices[indptr[i] : indptr[i + 1]]] = True
    return OutcomeVector(tuple(positive.tolist()))


def possible_defectives(design: TestDesign, outcome: OutcomeVector) -> list[int]:
    """Items appearing in no negative test (the PD set of COMP step 1)."""
    neg = outcome.negative_mask(design.n_tests)
    masks = design.item_masks
    return [i for i in range(design.n_items) if masks[i] & neg == 0]


def compute_item_stats(
    design: TestDesign, truth: DefectiveSet, outcome: OutcomeVector
) -> ItemStats:
    """Exact counts of the quantities governing COMP/DD success."""
    if outcome.n_tests != design.n_tests:
        raise ValueError("outcome length does not match design")
    masks = design.item_masks
    union = 0
    for i in truth.items:
        if i >= design.n_items:
            raise ValueError(f"defective index {i} out of range")
        union |= masks[i]
    if union != outcome.positive_mask:
        raise ValueError("outcome is inconsistent with (design, truth)")

    k = truth.k
    # union of the other defectives' columns, via prefix/suffix ORs
    prefix = [0] * (k + 1)
    for idx, i in enumerate(truth.items):
        prefix[idx + 1] = prefix[idx] | masks[i]
    suffix = [0] * (k + 1)
    for idx in range(k - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] | masks[truth.items[idx]]

    covered = union.bit_count()
    covered_without = []
    solo_defective = []
    for idx, i in enumerate(truth.items):
        others = prefix[idx] | suffix[idx + 1]
        covered_without.append(others.bit_count())
        solo_defective.append((masks[i] & ~others).bit_count())

    pd = possible_defectives(design, outcome)
    pd_counts = [0] * design.n_tests
    for j in pd:
        for t in design.columns[j]:
            pd_counts[t] += 1
    truth_set = set(truth.items)
    solo_pd = [
        sum(1 for t in design.columns[i] if pd_counts[t] == 1) for i in truth.items
    ]
    intruders = sum(1 for j in pd if j not in truth_set)
    return ItemStats(
        covered_tests=covered,
        covered_without=tuple(covered_without),
        solo_defective_tests=tuple(solo_defective),
        solo_pd_tests=tuple(solo_pd),
        masked_nondefectives=intruders,
        pd_set=tuple(pd),
    )


# -- JSON serialization (the CLI's design export/import format) --


def design_to_json_dict(design: TestDesign) -> dict:
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
        "columns": design.rows(),
    }


def design_to_json(design: TestDesign, indent: int | None = None) -> str:
    return json.dumps(design_to_json_dict(design), indent=indent)


def _optional_param(raw: dict, key: str, integral: bool) -> float | int | None:
    value = raw.get(key)
    if value is None:
        return None
    if not (is_integer if integral else is_number)(value):
        kind = "an integer" if integral else "a number"
        raise ValueError(f"params.{key} must be {kind} or null, got {value!r}")
    return value


def design_from_json_dict(obj: dict) -> TestDesign:
    """Load a design object; any malformed field raises ValueError.

    Types are checked, never coerced: sizes and seed must be JSON integers,
    and every column a list of integers.
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
    params = DesignParams(
        p=_optional_param(raw_params, "p", integral=False),
        draws=_optional_param(raw_params, "L", integral=True),
        nu=_optional_param(raw_params, "nu", integral=False),
    )
    return TestDesign(kind, n_items, n_tests, params, seed, columns)


def design_from_json(text: str) -> TestDesign:
    return design_from_json_dict(json.loads(text))
