"""Independent oracles for the benchmark's correctness checks.

Nothing here imports ``grouptest``. Designs arrive in their documented JSON
form (``{"N": ..., "T": ..., "columns": [[test, ...], ...], ...}``), so these
checks share no code with the decoders and formulas they check.
"""

from __future__ import annotations

import math
from itertools import chain
from statistics import NormalDist

import numpy as np

# -- exact COMP success ------------------------------------------------------


def distinct_count_pmf(draws: int, n_tests: int) -> np.ndarray:
    """P(x distinct tests are hit) after `draws` uniform draws from `n_tests`."""
    x = np.arange(n_tests + 1)
    stay = x / n_tests
    pmf = np.zeros(n_tests + 1)
    pmf[0] = 1.0
    for _ in range(draws):
        nxt = pmf * stay
        nxt[1:] += pmf[:-1] * (1.0 - stay[:-1])
        pmf = nxt
    return pmf


def comp_success_near_constant(n_items: int, k: int, n_tests: int, draws: int) -> float:
    """Sum_x P(K*L draws hit x distinct tests) * (1 - (x/T)^L)^(N-K).

    A nondefective is masked iff all L of its draws land in the x positive
    tests; given x that happens independently for each nondefective.
    """
    pmf = distinct_count_pmf(k * draws, n_tests)
    x = np.arange(n_tests + 1)
    return float(np.sum(pmf * (1.0 - (x / n_tests) ** draws) ** (n_items - k)))


def comp_success_bernoulli(n_items: int, k: int, n_tests: int, p: float) -> float:
    """Sum_x Bin(T, q)(x) * (1 - (1-p)^(T-x))^(N-K), with q = 1 - (1-p)^K.

    x is the number of positive tests; a nondefective escapes masking iff it
    sits in at least one of the T - x negative tests.
    """
    q = 1.0 - (1.0 - p) ** k
    x = np.arange(n_tests + 1)
    law = np.exp(_log_binom_pmf(n_tests, q))
    return float(np.sum(law * (1.0 - (1.0 - p) ** (n_tests - x)) ** (n_items - k)))


# -- binomial tails ----------------------------------------------------------


def _log_binom_pmf(n: int, p: float) -> np.ndarray:
    x = np.arange(n + 1)
    log_c = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in x])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(x > 0, x * math.log(p) if p > 0 else -np.inf, 0.0)
        log_q = np.where(x < n, (n - x) * math.log1p(-p) if p < 1 else -np.inf, 0.0)
    return log_c + log_p + log_q


def binom_tails(successes: int, trials: int, p: float) -> tuple[float, float]:
    """(P(X <= s), P(X >= s)) for X ~ Bin(trials, p)."""
    pmf = np.exp(_log_binom_pmf(trials, p))
    return float(pmf[: successes + 1].sum()), float(pmf[successes:].sum())


def outside_family_interval(
    counts: list[tuple[int, int, float]], confidence: float
) -> list[int]:
    """Indices of (successes, trials, p) cells outside a family-wise interval.

    Bonferroni over the cells, two-sided exact binomial tails: a cell fails
    when either tail probability is below (1 - confidence) / (2 * cells).
    """
    alpha = (1.0 - confidence) / (2 * len(counts))
    return [
        i
        for i, (s, n, p) in enumerate(counts)
        if min(binom_tails(s, n, p)) < alpha
    ]


def sum_outside_interval(counts: list[tuple[int, int, float]], confidence: float) -> bool:
    """True when the summed successes of (successes, trials, p) cells lie
    outside the two-sided normal interval of their expected sum."""
    got = sum(s for s, _, _ in counts)
    mean = sum(n * p for _, n, p in counts)
    var = sum(n * p * (1.0 - p) for _, n, p in counts)
    z = NormalDist().inv_cdf(1.0 - (1.0 - confidence) / 2.0)
    return abs(got - mean) > z * math.sqrt(var)


# -- decoding from the JSON columns ------------------------------------------


class JsonDesign:
    """A design's JSON columns as flat (test, item) incidence arrays."""

    def __init__(self, obj: dict):
        self.n_items = int(obj["N"])
        self.n_tests = int(obj["T"])
        cols = obj["columns"]
        lengths = np.fromiter(map(len, cols), dtype=np.int64, count=len(cols))
        self.tests = np.fromiter(chain.from_iterable(cols), dtype=np.int64, count=int(lengths.sum()))
        self.items = np.repeat(np.arange(len(cols)), lengths)

    def covered(self, chosen) -> np.ndarray:
        """Bool vector over tests: True where some chosen item is pooled."""
        hit = np.zeros(self.n_tests, dtype=bool)
        hit[self.tests[np.isin(self.items, np.asarray(chosen, dtype=np.int64))]] = True
        return hit

    def decode(self, positive: np.ndarray) -> tuple[list[int], list[int]]:
        """(PD = COMP estimate, DD estimate) for a bool outcome vector."""
        in_negative = ~positive[self.tests]
        pd = np.bincount(self.items, weights=in_negative, minlength=self.n_items) == 0
        in_pd = pd[self.items]
        pd_per_test = np.bincount(self.tests[in_pd], minlength=self.n_tests)
        solo = in_pd & (pd_per_test[self.tests] == 1)
        dd = np.bincount(self.items, weights=solo, minlength=self.n_items) > 0
        return np.flatnonzero(pd).tolist(), np.flatnonzero(dd).tolist()

    def is_satisfying(self, positive: np.ndarray, chosen) -> bool:
        """True iff `chosen` hits every positive test and no negative one."""
        return bool(np.array_equal(self.covered(chosen), positive))
