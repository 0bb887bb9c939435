"""Deterministic counter-based random streams.

Every random quantity in this package is a pure function of a 64-bit key and
a counter, built from the splitmix64 finalizer (Steele, Lea & Flood 2014;
constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB).
Streams keyed by (seed, stream tag, index) can therefore be evaluated in any
order, or in parallel, with results identical to sequential generation.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
BOUND_MAX = 1 << 63
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def mix64(*values: int) -> int:
    """Hash a sequence of integers into a single 64-bit value.

    Equivalent to absorbing each value into a running splitmix64 state; used
    both for deriving stream keys and for the simulation-harness seed mixer.
    """
    h = 0
    for v in values:
        h = _finalize((h + _GOLDEN + (v & MASK64)) & MASK64)
    return h


def u64_at(key: int, counter: int) -> int:
    """The `counter`-th 64-bit word of the stream identified by `key`."""
    return _finalize((key + _GOLDEN + counter) & MASK64)


def unit_at(key: int, counter: int) -> float:
    """Uniform float in [0, 1) with 53 random bits."""
    return (u64_at(key, counter) >> 11) * 2.0**-53


def _rejection_threshold(bound: int) -> int:
    """2**64 - (2**64 mod bound): the words below it fall evenly on [0, bound).

    The bounded draws take 1 <= bound <= 2**63, so every draw fits an int64
    and at least half of all words are accepted; ValueError otherwise.
    """
    if not 1 <= bound <= BOUND_MAX:
        raise ValueError(f"bound must lie in [1, 2**63], got {bound}")
    return (MASK64 + 1) - ((MASK64 + 1) % bound)


def bounded_at(key: int, counter: int, bound: int) -> int:
    """Exactly uniform integer in [0, bound), by rejection.

    The rejection branch re-finalizes the current word, so the result stays a
    pure function of (key, counter, bound). Rejection fires with probability
    < bound / 2**64, so the loop is effectively a single hash.
    """
    threshold = _rejection_threshold(bound)
    h = u64_at(key, counter)
    while h >= threshold:
        h = _finalize((h + _GOLDEN) & MASK64)
    return h % bound


# -- vectorized counterparts (identical outputs, numpy uint64 arithmetic) --

_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)
_NP_S30, _NP_S27, _NP_S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _finalize_np(z: np.ndarray) -> np.ndarray:
    """The finalizer of every word of `z`, computed in `z` itself.

    `z` must be a uint64 array its caller created (0-d works too), never a
    caller's input; one more array of its size holds the shifted words.
    Array arithmetic wraps modulo 2**64 without a warning.
    """
    shifted = np.empty_like(z)
    for shift, mult in ((_NP_S30, _NP_MIX1), (_NP_S27, _NP_MIX2), (_NP_S31, None)):
        np.right_shift(z, shift, out=shifted)
        z ^= shifted
        if mult is not None:
            z *= mult
    return z


def mix64_np(*values) -> np.ndarray:
    """Broadcasted mix64 over numpy uint64 arrays / scalars.

    The leading scalar arguments are folded in Python ints, as `mix64` does;
    numpy takes over at the first array argument, so only the arrays are
    broadcast and hashed.
    """
    h = 0
    for lead, v in enumerate(values):
        if np.ndim(v):
            break
        h = _finalize((h + _GOLDEN + (int(v) & MASK64)) & MASK64)
    else:
        return np.uint64(h)
    # the first array's addend, folded in Python ints; array arithmetic wraps
    # without a warning (only numpy scalars warn)
    addend = np.uint64((h + _GOLDEN) & MASK64)
    for v in values[lead:]:
        state = _finalize_np(np.add(np.asarray(v, dtype=np.uint64), addend))
        addend = state + _NP_GOLDEN
    return state


def _words_np(keys, counters) -> np.ndarray:
    """The stream words as a fresh uint64 buffer, 0-d for scalar inputs."""
    keys = np.asarray(keys, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    # Array arithmetic wraps without a warning (only numpy scalars warn), and
    # the constant goes onto the smaller operand, before the broadcast.
    if keys.size <= counters.size:
        words = np.add(keys + _NP_GOLDEN, counters)
    else:
        words = np.add(keys, counters + _NP_GOLDEN)
    # a fresh buffer, an array even for scalar inputs
    return _finalize_np(np.asarray(words))


def unit_np(keys, counters) -> np.ndarray:
    words = _words_np(keys, counters)
    words >>= np.uint64(11)
    return words * 2.0**-53


def below_np(keys, counters, p) -> np.ndarray:
    """``unit_np(keys, counters) < p``, decided on the 64-bit words.

    For 0 < p < 1, ``(u >> 11) * 2**-53 < p`` holds iff ``(u >> 11) <
    ceil(p * 2**53)``, that is iff ``u < ceil(p * 2**53) << 11``, and the
    shifted threshold stays below 2**64. `p` is one number, or a float
    array broadcast with `keys` and `counters`; ValueError unless every p
    lies strictly inside (0, 1) (NaN does not).
    """
    if isinstance(p, np.ndarray):
        if not np.all((p > 0.0) & (p < 1.0)):
            raise ValueError(f"every p must lie strictly inside (0, 1), got {p!r}")
        # p * 2**53 and its ceiling are exact floats below 2**53
        threshold = np.ceil(p * 2.0**53).astype(np.uint64) << np.uint64(11)
    elif 0.0 < p < 1.0:
        threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
    else:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    return _words_np(keys, counters) < threshold


def _rehash_rejected(h: np.ndarray, last_accepted) -> np.ndarray:
    """`h` with every word above `last_accepted` re-finalized until none is,
    as `bounded_at` does; `last_accepted` broadcasts with `h`."""
    reject = h > last_accepted
    while reject.any():
        bumped = h.copy()
        bumped += _NP_GOLDEN
        h = np.where(reject, _finalize_np(bumped), h)
        reject = h > last_accepted
    return h


def bounded_np(keys, counters, bound) -> np.ndarray:
    """Vectorized `bounded_at`; elementwise identical to the scalar version.

    `bound` is one number, or an integer array broadcast with `keys` and
    `counters`; every bound lies in [1, 2**63] (ValueError otherwise).
    """
    h = _words_np(keys, counters)
    if isinstance(bound, np.ndarray):
        integers = bound.dtype.kind in "iu"
        low, top = (int(bound.min()), int(bound.max())) if integers and bound.size else (1, 1)
        if not (integers and low >= 1 and top <= BOUND_MAX):
            raise ValueError(f"every bound must be an integer in [1, 2**63], got {bound!r}")
        shape = np.broadcast_shapes(h.shape, bound.shape)
        if h.shape != shape:
            h = np.broadcast_to(h, shape).copy()
        if not bound.size or low != top:
            bound = bound.astype(np.uint64)
            # 2**64 mod b is (2**64 - b) mod b; a word is accepted iff it is
            # at most 2**64 - 1 - (2**64 mod b), the complement of the
            # remainder, so a remainder of 0 (b divides 2**64) accepts all.
            # That limit is at least 2**64 - b, so only words at or above
            # 2**64 - max(b) need it.
            if (h >= np.uint64((1 << 64) - top)).any():
                h = _rehash_rejected(h, ~(np.negative(bound) % bound))
            return np.remainder(h, bound, out=h).view(np.int64)[()]
        bound = top  # one bound for all: the scalar path
    threshold = _rejection_threshold(bound)
    if threshold <= MASK64:  # 2**64 means bound divides 2**64: accept all
        h = _rehash_rejected(h, np.uint64(threshold - 1))
    # h mod b as h - (h // b) * b: numpy divides by a scalar without a
    # hardware division per word, and the result is the same
    b = np.uint64(bound)
    quotient = h // b
    quotient *= b
    h -= quotient
    # every draw is below 2**63, so the int64 view holds the same values
    return h.view(np.int64)[()]
