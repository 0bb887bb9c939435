"""Rates, capacity and converse curves, and exact combinatorial distributions.

Closed forms
------------
With K = Theta(N^theta) defectives, the operative quantities are, in
bits/test:

* ``counting_bound``      -- universal success cap  2^T / C(N, K).
* ``bernoulli_capacity``  -- max over nu of min{nu e^-nu (1-theta)/(theta ln2),
                             h(e^-nu)}; equals 1 for theta <= 1/3.
* ``theoretical_rate``    -- the named rate curves for COMP and DD under the
                             two designs, plus the design-level converse for
                             near-constant column weights.

Distributions
-------------
The column-sampling process is coupon collection: an item's L draws (with
replacement) among T tests. Each law below is exact; ``distinct_coupon_pmf``,
``mi_pmf`` and ``phi_exact`` are computed in integer / rational arithmetic
and converted to float at the end, the others in floats:

* ``distinct_coupon_pmf``  -- distinct-count law of n uniform draws from T.
* ``mi_pmf``               -- law of the number of tests holding a given
                              defective and no other, given the other
                              defectives cover w tests.
* ``g_conditional_pmf``    -- law of the nondefectives hidden inside the
                              covered tests: Binomial(N-K, (x/T)^L).
* ``li_zero_prob``/``phi`` -- inclusion-exclusion probability that intruder
                              draws swallow all of a defective's solo tests.
* ``comp_success_exact``   -- P(G = 0), COMP's exact success on the
                              near-constant design, summed over the coupon
                              law of a float64 occupancy recursion whose
                              terms are all positive; ``comp_masked_mean``
                              is E[G].
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, factorial, lgamma, log, log1p

import numpy as np

LN2 = math.log(2.0)

CURVES = (
    "bern_capacity",
    "bern_comp",
    "bern_dd",
    "ncc_comp",
    "ncc_dd",
    "ncc_converse",
    "counting_bound_rate",
)

# curves whose formula divides by theta and therefore reject theta == 0
_THETA_POSITIVE = frozenset({"ncc_dd", "ncc_converse", "bern_dd"})


def binary_entropy(t: float) -> float:
    """h(t) = -t log2 t - (1-t) log2 (1-t), with h(0) = h(1) = 0."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {t}")
    if t == 0.0 or t == 1.0:
        return 0.0
    return -t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t)


def log2_binom(n: int, k: int) -> float:
    """log2 C(n, k) via log-gamma; safe for n up to 1e9 and beyond."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)) / LN2


def rate_of(n_items: int, k: int, n_tests: int) -> float:
    """Bits of defectivity information learned per test: log2 C(N,K) / T."""
    if k < 1 or k > n_items:
        raise ValueError(f"need 1 <= k <= n_items, got k={k}")
    if n_tests < 1:
        raise ValueError(f"n_tests must be >= 1, got {n_tests}")
    return log2_binom(n_items, k) / n_tests


def counting_bound(n_items: int, k: int, n_tests: int) -> float:
    """Universal success-probability cap min(1, 2^T / C(N, K))."""
    if k < 1 or k > n_items:
        raise ValueError(f"need 1 <= k <= n_items, got k={k}")
    if n_tests < 1:
        raise ValueError(f"n_tests must be >= 1, got {n_tests}")
    excess = n_tests - log2_binom(n_items, k)
    return 1.0 if excess >= 0 else 2.0**excess


@dataclass(frozen=True)
class CapacityResult:
    value: float
    argmax_nu: float


def bernoulli_capacity(theta: float) -> CapacityResult:
    """Maximum achievable rate of Bernoulli designs at sparsity theta.

    The objective is min{f, h} with f(nu) = nu e^-nu (1-theta)/(theta ln2)
    and h(nu) = h(e^-nu). Both rise below nu = ln 2 and fall above nu = 1;
    between them f rises and h falls. So the maximum is h(ln 2) = 1 when
    f(ln 2) >= 1, f(1) when f(1) <= h(1), and otherwise the crossing of f
    and h, found by bisection on (ln 2, 1).
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must lie in [0, 1), got {theta}")

    def f(nu: float) -> float:
        return nu * exp(-nu) * (1.0 - theta) / (theta * LN2)

    def h(nu: float) -> float:
        return binary_entropy(exp(-nu))

    # at theta = 0 the binomial-coefficient term is unconstrained
    if theta == 0.0 or f(LN2) >= 1.0:
        return CapacityResult(1.0, LN2)
    if f(1.0) <= h(1.0):
        return CapacityResult(f(1.0), 1.0)
    lo, hi = LN2, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if f(mid) < h(mid):
            lo = mid
        else:
            hi = mid
    nu = (lo + hi) / 2.0
    return CapacityResult(min(f(nu), h(nu)), nu)


def theoretical_rate(curve: str, theta: float) -> float:
    """Evaluate one of the named rate curves at sparsity exponent theta."""
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}; expected one of {CURVES}")
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must lie in [0, 1), got {theta}")
    if theta == 0.0 and curve in _THETA_POSITIVE:
        raise ValueError(f"curve {curve!r} requires theta > 0")
    if curve == "ncc_comp":
        return LN2 * (1.0 - theta)
    if curve == "ncc_dd":
        return LN2 * min(1.0, (1.0 - theta) / theta)
    if curve == "ncc_converse":
        return min(1.0, LN2 * (1.0 - theta) / theta)
    if curve == "bern_comp":
        return (1.0 - theta) / (math.e * LN2)
    if curve == "bern_dd":
        return min(1.0, (1.0 - theta) / theta) / (math.e * LN2)
    if curve == "bern_capacity":
        return bernoulli_capacity(theta).value
    return 1.0  # counting_bound_rate


def t_threshold(algorithm: str, n_items: int, k: int) -> float:
    """Test-count threshold where the named decoder's success transitions.

    COMP: K log2(N) / ln 2. DD: max{K log2(N/K), K log2 K} / ln 2.
    """
    if not 1 <= k < n_items:
        raise ValueError(f"need 1 <= k < n_items, got k={k}, n_items={n_items}")
    if algorithm == "comp":
        return k * math.log2(n_items) / LN2
    if algorithm == "dd":
        return max(k * math.log2(n_items / k), k * math.log2(k)) / LN2
    raise ValueError(f"unknown algorithm {algorithm!r}; expected 'comp' or 'dd'")


# -- Stirling numbers of the second kind ----------------------------------

_stirling_rows: list[list[int]] = [[1]]  # row n holds S(n, 0..n)
_stirling_lock = threading.Lock()


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks (exact int)."""
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got n={n}, k={k}")
    if k > n:
        return 0
    if n >= len(_stirling_rows):
        with _stirling_lock:
            while len(_stirling_rows) <= n:
                prev = _stirling_rows[-1]
                m = len(_stirling_rows)
                row = [0] * (m + 1)
                row[m] = 1
                for j in range(1, m):
                    row[j] = j * prev[j] + prev[j - 1]
                _stirling_rows.append(row)
    return _stirling_rows[n][k]


def stirling2_by_inclusion_exclusion(n: int, k: int) -> int:
    """The defining alternating sum; cross-check for the recurrence."""
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got n={n}, k={k}")
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1))
    assert total % factorial(k) == 0
    return total // factorial(k)


def falling_factorial(n: int, j: int) -> int:
    """n (n-1) ... (n-j+1); zero when j > n."""
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    out = 1
    for r in range(j):
        out *= n - r
        if out == 0:
            return 0
    return out


# -- the phi function (inclusion-exclusion masking probability) ------------


def _check_phi_args(j: int, s, v: int) -> None:
    if j < 0 or v < 0:
        raise ValueError(f"need j, V >= 0, got j={j}, V={v}")
    if s < 0 or s > 1:
        raise ValueError(f"need s in [0, 1], got s={s}")
    # 1e-9 slack: float callers pass s = 1/(w+j), where j*s can exceed 1 by an ulp
    if j * s > 1 + 1e-9:
        raise ValueError(f"need j*s <= 1, got j*s = {j * s}")


def phi_exact(j: int, s: Fraction, v: int) -> Fraction:
    """phi_j(s, V) = sum_l (-1)^l C(j,l) (1 - l s)^V in exact rationals."""
    s = Fraction(s)
    _check_phi_args(j, s, v)
    return sum(
        (-1) ** l * comb(j, l) * (1 - l * s) ** v for l in range(j + 1)
    )


def phi(j: int, s: float, v: int) -> float:
    """Probability that V uniform draws over 1/s slots hit all j marked slots.

    The defining alternating sum cancels catastrophically when s is small, so
    for s*(V-j)*j <= 2 the equivalent polynomial expansion (whose terms are
    alternating and decreasing) is used instead; elsewhere the direct sum is
    numerically benign. Result clamped to [0, 1].
    """
    _check_phi_args(j, s, v)
    if j == 0:
        return 1.0
    if v < j:
        return 0.0  # fewer draws than marked slots: some slot is missed
    if s * (v - j) * j <= 2.0:
        value = _phi_expansion_float(j, s, v)
    else:
        value = math.fsum(
            (-1) ** l * comb(j, l) * max(0.0, 1.0 - l * s) ** v for l in range(j + 1)
        )
    return min(1.0, max(0.0, value))


def _phi_expansion_float(j: int, s: float, v: int) -> float:
    if s == 0.0:
        return 0.0
    # leading factor (V)_(j) s^j, in log space to dodge overflow
    log_lead = sum(log(v - r) for r in range(j)) + j * log(s)
    # a_0 = 1; a_{u+1}/a_u = s (V-j-u)/(j+u+1) * S(j+u+1, j)/S(j+u, j)
    terms = [1.0]
    a = 1.0
    for u in range(v - j):
        a *= s * (v - j - u) / (j + u + 1) * (stirling2(j + u + 1, j) / stirling2(j + u, j))
        terms.append(a if u % 2 == 1 else -a)
        if a < 1e-25:  # alternating tail bounded by its first term
            break
    return exp(log_lead) * math.fsum(terms)


def phi_poly_expansion(j: int, s: Fraction, v: int) -> Fraction:
    """Exact polynomial-in-s expansion of phi (degree-V alternating series)."""
    s = Fraction(s)
    _check_phi_args(j, s, v)
    if j == 0:
        return Fraction(1)
    if v < j:
        return Fraction(0)
    lead = Fraction(falling_factorial(v, j)) * s**j
    inner = sum(
        (-1) ** u
        * s**u
        * Fraction(factorial(j) * factorial(v - j), factorial(u + j) * factorial(v - u - j))
        * stirling2(j + u, j)
        for u in range(v - j + 1)
    )
    return lead * inner


# -- conditional laws of the per-item counts --------------------------------


def mi_pmf(j: int, w: int, draws: int, n_tests: int) -> float:
    """P(a defective has exactly j solo tests | others cover w of T tests).

    Exact: the item's L draws must produce j distinct tests outside the w
    covered ones; computed in integer arithmetic over the T^L sample space.
    """
    if n_tests < 1 or draws < 1:
        raise ValueError("need n_tests >= 1 and draws >= 1")
    if not 0 <= w <= n_tests:
        raise ValueError(f"need 0 <= w <= n_tests, got w={w}")
    if not 0 <= j <= min(draws, n_tests - w):
        raise ValueError(
            f"need 0 <= j <= min(draws, n_tests - w) = "
            f"{min(draws, n_tests - w)}, got j={j}"
        )
    inner = sum(
        comb(draws, s) * stirling2(draws - s, j) * w**s for s in range(draws - j + 1)
    )
    num = falling_factorial(n_tests - w, j) * inner
    return float(Fraction(num, n_tests**draws))


def g_conditional_pmf(
    g: int, x: int, n_tests: int, draws: int, n_items: int, k: int
) -> float:
    """P(g nondefectives are hidden | defectives cover x of T tests).

    Each of the N-K nondefectives independently lands all L draws inside the
    covered tests with probability (x/T)^L, so the law is binomial.
    """
    if not 0 <= x <= n_tests:
        raise ValueError(f"need 0 <= x <= n_tests, got x={x}")
    if not 0 <= k <= n_items:
        raise ValueError(f"need 0 <= k <= n_items, got k={k}, n_items={n_items}")
    n = n_items - k
    if not 0 <= g <= n:
        raise ValueError(f"need 0 <= g <= {n}, got g={g}")
    if draws < 1:
        raise ValueError(f"need draws >= 1, got {draws}")
    q = (x / n_tests) ** draws
    if q == 0.0:
        return 1.0 if g == 0 else 0.0
    if q == 1.0:
        return 1.0 if g == n else 0.0
    logp = (
        lgamma(n + 1)
        - lgamma(g + 1)
        - lgamma(n - g + 1)
        + g * log(q)
        + (n - g) * log1p(-q)
    )
    return exp(logp)


def li_zero_prob(g: int, w: int, j: int, draws: int) -> float:
    """P(all j solo tests get swallowed | g intruders, w+j positive tests).

    Each intruder's L draws land uniformly among the w+j positive tests; the
    defective keeps no solo test exactly when the g*L intruder draws cover
    all j of them.
    """
    if g < 0 or w < 0 or j < 0 or draws < 1:
        raise ValueError("need g, w, j >= 0 and draws >= 1")
    if w + j < 1:
        raise ValueError("need w + j >= 1")
    return phi(j, 1.0 / (w + j), g * draws)


# -- coupon-collector laws ---------------------------------------------------


def distinct_coupon_pmf(n_draws: int, n_tests: int, w: int) -> float:
    """P(exactly w distinct coupons in n uniform draws from T): C(T,w) w! S(n,w) / T^n."""
    if n_tests < 1 or n_draws < 0:
        raise ValueError("need n_tests >= 1 and n_draws >= 0")
    if not 0 <= w <= min(n_draws, n_tests):
        raise ValueError(
            f"need 0 <= w <= min(n_draws, n_tests) = {min(n_draws, n_tests)}, got {w}"
        )
    num = comb(n_tests, w) * factorial(w) * stirling2(n_draws, w)
    return float(Fraction(num, n_tests**n_draws))


def expected_distinct(n_draws: int, n_tests: int) -> float:
    """E[distinct coupons] = T (1 - (1 - 1/T)^n), by linearity of expectation."""
    if n_tests < 1 or n_draws < 0:
        raise ValueError("need n_tests >= 1 and n_draws >= 0")
    if n_draws == 0:
        return 0.0
    if n_tests == 1:
        return 1.0
    return n_tests * -math.expm1(n_draws * log1p(-1.0 / n_tests))


# -- exact COMP success on the near-constant design ---------------------------


# The least mass a count keeps in the occupancy recursion's window.
_PMF_FLOOR = 1e-300


@functools.lru_cache(maxsize=16)
def _covered_pmf(n_draws: int, n_tests: int) -> np.ndarray:
    """P(n uniform draws from T hit exactly x distinct tests), x = 0..min(n, T),
    as a read-only array; the 16 last used (n, T) keep theirs, so the
    success and E[G] at one point share one recursion.

    One occupancy step per draw, P_{m+1}(x) = P_m(x) x/T + P_m(x-1) (T-x+1)/T,
    in float64: every term is positive, so no digit is lost to cancellation.
    A step spans only the counts of mass at least ``_PMF_FLOOR``; the rest
    are 0. Each of the at most 2n trims drops less than 1e-300.
    """
    top = min(n_draws, n_tests)
    x = np.arange(top + 1)
    stay = x / n_tests
    enter = (n_tests - x + 1) / n_tests  # enter[x]: from x - 1 counts to x
    pmf = np.zeros(top + 2)  # pmf[x + 1] = P(x), and pmf[0] = P(-1) stays 0
    pmf[1] = 1.0
    lo = hi = 0  # P(x) = 0 outside lo <= x <= hi
    for _ in range(n_draws):
        hi = min(hi + 1, top)
        entered = pmf[lo : hi + 1] * enter[lo : hi + 1]
        window = pmf[lo + 1 : hi + 2]  # a view: updated in place
        window *= stay[lo : hi + 1]
        window += entered
        while pmf.item(lo + 1) < _PMF_FLOOR:
            pmf[lo + 1] = 0.0
            lo += 1
        while pmf.item(hi + 1) < _PMF_FLOOR:
            pmf[hi + 1] = 0.0
            hi -= 1
    pmf.flags.writeable = False
    return pmf[1:]


def _comp_masking_law(
    n_items: int, k: int, n_tests: int, draws: int
) -> tuple[np.ndarray, np.ndarray]:
    """P(defectives cover x tests) and (x/T)^L, over x = 0..min(K*L, T).

    The K defectives make K*L uniform draws, so the covered count follows the
    coupon law; each nondefective is then masked with probability (x/T)^L.
    """
    if n_tests < 1 or draws < 1:
        raise ValueError("need n_tests >= 1 and draws >= 1")
    if not 0 <= k <= n_items:
        raise ValueError(f"need 0 <= k <= n_items, got k={k}, n_items={n_items}")
    pmf = _covered_pmf(k * draws, n_tests)
    return pmf, (np.arange(pmf.shape[0]) / n_tests) ** draws


def comp_success_exact(n_items: int, k: int, n_tests: int, draws: int) -> float:
    """Exact P(COMP succeeds) on the near-constant design with L = ``draws``.

    COMP is exact iff no nondefective is masked (G = 0), so the success is
    sum_x P(cover x) (1 - (x/T)^L)^(N-K). ``simlab`` realizes L as
    ``model.params_from_nu("near_constant", nu, T, K).draws``; pass that value to compare.
    """
    pmf, masked = _comp_masking_law(n_items, k, n_tests, draws)
    return math.fsum((pmf * (1.0 - masked) ** (n_items - k)).tolist())


def comp_masked_mean(n_items: int, k: int, n_tests: int, draws: int) -> float:
    """E[G] = (N-K) sum_x P(cover x) (x/T)^L, the expected masked nondefectives.

    The COMP threshold T^COMP is where this first moment crosses 1, and
    P(COMP succeeds) >= 1 - E[G] by Markov's inequality.
    """
    pmf, masked = _comp_masking_law(n_items, k, n_tests, draws)
    return (n_items - k) * math.fsum((pmf * masked).tolist())
