"""Self-checks: closed-form constants, oracle equivalences, fuzzed invariants.

Each check returns a :class:`CheckResult`; the CLI ``verify`` subcommand runs
the registry and exits nonzero if anything fails. The checks are the same
ones the acceptance test-suite runs, parameterized by instance counts so the
CLI can run a faster pass.

The fuzz corpus (:func:`fuzz_instance`) is drawn a block of up to 256
instances at a time: one vectorised pass for the block's shapes, one design
block of all kinds, drawn and checked once (`model.generate_designs`), one
pass for the defective sets (`model.sample_defective_sets`), and one for
the outcomes and PD answers of those designs (`model.block_instances`). A
corpus pass (:func:`run_decoder_corpus`) ends its last block where the
pass ends. Instance idx depends only on the seed, idx and the sizes, never
on the block.

Empirical distributions are sampled with numpy's own generator, keeping the
sampling path independent of the package's counter-based streams.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import analysis as an
from . import decoders as dec
from . import model, rng, simlab

LN2 = math.log(2.0)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


# -- fuzzed instance corpus --------------------------------------------------
# Instance idx of a corpus depends only on (seed, idx, n_max, k_max, t_max):
# with h = mix64(seed, idx), N = 2 + bounded_at(h, 0, n_max - 1), T = 1 +
# bounded_at(h, 1, t_max), K = bounded_at(h, 2, min(k_max, N) + 1), the kind
# bounded_at(h, 3, 3), p = 0.05 + 0.5 * unit_at(h, 4) or L = 1 + bounded_at(h,
# 4, min(8, T)), the design of seed u64_at(h, 5) and the defective set of
# seed u64_at(h, 6). The instances are drawn a block at a time.


# [low, top) of each corpus argument
_CORPUS_RANGES = {
    "seed": (0, 1 << 64),
    "idx": (0, 1 << 64),
    "n_max": (2, math.inf),
    "k_max": (0, math.inf),
    "t_max": (1, math.inf),
    "instances": (0, math.inf),
}


def _check_corpus_args(**values: int) -> None:
    """ValueError naming the first of `values` that is not an integer (a
    bool is not) in its range (`_CORPUS_RANGES`)."""
    for name, value in values.items():
        low, top = _CORPUS_RANGES[name]
        if not (model.is_integer(value) and low <= value < top):
            where = f">= {low}" if top == math.inf else "in [0, 2**64)"
            raise ValueError(f"{name} must be an integer {where}, got {value!r}")


# A block holds at most _BLOCK_INSTANCES instances, and at most _BLOCK_CELLS
# // (n_max * t_max), which bounds the block's own CSR arrays (`model._csr_rows`
# draws its rows in passes of a bounded number of cells or draws, whatever
# B, T and L). Each block pays a fixed cost of numpy calls, so the fewer
# blocks the better.
_BLOCK_INSTANCES = 256
_BLOCK_CELLS = 1 << 19


def _fuzz_block(seed: int, lo: int, hi: int, n_max: int, k_max: int, t_max: int) -> list[model.Instance]:
    """Instances lo, lo + 1, ..., hi - 1 (all below 2**64) of a corpus:
    their shapes from one vectorised pass of each rule, their designs of
    every kind drawn and checked as one block (`model.generate_designs`),
    the defective sets from one `model.sample_defective_sets` call, and the
    outcomes and PD answers from one `model.block_instances` call on the
    designs."""
    idx = np.uint64(lo) + np.arange(hi - lo, dtype=np.uint64)
    h = rng.mix64_np(seed, idx)
    n = 2 + rng.bounded_np(h, 0, n_max - 1)
    t = 1 + rng.bounded_np(h, 1, t_max)
    k = rng.bounded_np(h, 2, np.minimum(k_max, n) + 1)
    kinds = [model.DESIGN_KINDS[code] for code in rng.bounded_np(h, 3, 3).tolist()]
    p = (0.05 + 0.5 * rng.unit_np(h, 4)).tolist()
    draws = (1 + rng.bounded_np(h, 4, np.minimum(8, t))).tolist()
    params = [
        model.DesignParams(p=x) if kind == model.KIND_BERNOULLI else model.DesignParams(draws=d)
        for kind, x, d in zip(kinds, p, draws)
    ]
    design_seeds, truth_seeds = rng._words_np(h, np.arange(5, 7, dtype=np.uint64)[:, None])
    designs = model.generate_designs(kinds, n.tolist(), t.tolist(), params, design_seeds.tolist())
    return model.block_instances(designs, model.sample_defective_sets(n, k, truth_seeds))


# the last block drawn: its corpus (seed, n_max, k_max, t_max), its first
# index and its instances, each None once handed out; it saves work, and no
# instance depends on it
_kept: tuple[tuple, int, list] = ((), 0, [])


def fuzz_instance(
    seed: int, idx: int, *, n_max: int, k_max: int, t_max: int, stop: int | None = None
) -> model.Instance:
    """Deterministic random instance: any design kind, truth, and outcome.

    Instance idx is drawn with its block, the B = ``max(1, min(256, 2**19
    // (n_max * t_max)))`` instances from the multiple of B at or below idx
    (256 at the default sizes), ended early at `stop` when given: a caller
    that reads no index at or past `stop` passes it, so its last block
    draws nothing it will not read. The last block drawn is kept, so a pass
    over the corpus in order draws each block once; its design carries its
    PD answer. Each kept instance is handed out once; asked for again, it is
    drawn again. ValueError on sizes, seed or idx out of their ranges
    (`_check_corpus_args`), or on a `stop` that is not an integer above idx.
    """
    global _kept
    _check_corpus_args(seed=seed, idx=idx, n_max=n_max, k_max=k_max, t_max=t_max)
    if stop is not None and not (model.is_integer(stop) and idx < stop):
        raise ValueError(f"stop must be an integer above idx ({idx}), got {stop!r}")
    idx = int(idx)
    corpus, lo, insts = _kept
    key = (int(seed), int(n_max), int(k_max), int(t_max))
    if corpus != key or not lo <= idx < lo + len(insts) or insts[idx - lo] is None:
        size = max(1, min(_BLOCK_INSTANCES, _BLOCK_CELLS // (n_max * t_max)))
        lo = idx - idx % size
        hi = min(lo + size, 1 << 64, math.inf if stop is None else stop)
        insts = _fuzz_block(key[0], lo, hi, *key[1:])
        _kept = (key, lo, insts)
    inst, insts[idx - lo] = insts[idx - lo], None
    return inst


_STRUCTURAL, _SUCCESS = "decoder_structural_invariants", "success_condition_equivalences"

# the check that gates each identity of `decoders.INVARIANTS`
_GATES = {
    "dd_subset_truth": _STRUCTURAL,
    "truth_subset_comp": _STRUCTURAL,
    "sss_size": _STRUCTURAL,
    "scomp_satisfying": _STRUCTURAL,
    "sss_satisfying": _STRUCTURAL,
    "dd_exact_implies_scomp": _STRUCTURAL,
    "stats_identity": _STRUCTURAL,
    "comp_iff_g_zero": _SUCCESS,
    "dd_iff_li_positive": _SUCCESS,
}


@dataclass
class CorpusReport:
    """Violation counts from one pass of all decoders over a fuzz corpus."""

    instances: int = 0
    violations: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(dec.INVARIANTS, 0)
    )


def run_decoder_corpus(
    instances: int,
    seed: int = 2024,
    *,
    n_max: int = 50,
    k_max: int = 8,
    t_max: int = 40,
) -> CorpusReport:
    """Fuzz all four decoders plus the per-item counts, tallying violations.
    Instances 0 .. instances - 1 are fetched one `fuzz_instance` call each,
    with ``stop=instances``, so the last block ends where the pass does.
    ValueError on a negative count, or on a seed or sizes `fuzz_instance`
    refuses."""
    _check_corpus_args(instances=instances, seed=seed, n_max=n_max, k_max=k_max, t_max=t_max)
    report = CorpusReport(instances=instances)
    for idx in range(instances):
        inst = fuzz_instance(seed, idx, n_max=n_max, k_max=k_max, t_max=t_max, stop=instances)
        estimates = {
            alg: dec.decode(alg, inst.design, inst.outcome).estimate
            for alg in dec.ALGORITHMS
        }
        for key in dec.invariant_violations(inst, estimates):
            report.violations[key] += 1
    return report


def exhaustive_smallest_satisfying(
    design: model.TestDesign, outcome: model.OutcomeVector
) -> tuple[int, ...]:
    """Brute-force SSS oracle: scan subsets by size, then lexicographically.

    Subset enumeration is independent of the branch-and-bound path; it stops
    at the first satisfying subset, which by construction is the
    minimum-size, lexicographically-smallest one. It builds its own
    full-width masks from ``rows()``, sharing no code with the decoders.
    """
    model.check_outcome_length(design, outcome)
    masks = [sum(1 << t for t in row) for row in design.rows()]
    pos = sum(1 << t for t, bit in enumerate(outcome.bits) if bit)
    for size in range(design.n_items + 1):
        for combo in itertools.combinations(range(design.n_items), size):
            union = 0
            for i in combo:
                union |= masks[i]
            if union == pos:
                return combo
    raise AssertionError("no satisfying set; outcome not generated by run_tests?")


def check_sss_enumeration(instances: int = 500, seed: int = 77) -> CheckResult:
    """SSS output must equal the exhaustive oracle (size and identity)."""
    mismatches = 0
    for idx in range(instances):
        inst = fuzz_instance(seed, idx, n_max=14, k_max=4, t_max=16, stop=instances)
        got = dec.sss(inst.design, inst.outcome).estimate
        want = exhaustive_smallest_satisfying(inst.design, inst.outcome)
        if got != want:
            mismatches += 1
    return CheckResult(
        "sss_vs_exhaustive_enumeration",
        mismatches == 0,
        f"{instances} instances, {mismatches} mismatches",
    )


def _gate(report: CorpusReport, check: str) -> CheckResult:
    """`check` passes iff the identities it gates (`_GATES`) have no violation."""
    bad = sum(count for key, count in report.violations.items() if _GATES[key] == check)
    return CheckResult(check, bad == 0, f"{report.instances} instances, {bad} violations")


def check_structural_invariants(report: CorpusReport) -> CheckResult:
    return _gate(report, _STRUCTURAL)


def check_success_conditions(report: CorpusReport) -> CheckResult:
    return _gate(report, _SUCCESS)


# -- closed-form constants ---------------------------------------------------


def check_closed_form_constants() -> CheckResult:
    failures = []

    def expect(label: str, got: float, want: float, tol: float) -> None:
        if abs(got - want) > tol:
            failures.append(f"{label}: got {got!r}, want {want!r} +/- {tol}")

    expect("ncc_comp(0)", an.theoretical_rate("ncc_comp", 0.0), LN2, 1e-6)
    expect("ncc_comp(0) vs 0.693147", an.theoretical_rate("ncc_comp", 0.0), 0.693147, 1e-6)
    expect("bern_comp(0)", an.theoretical_rate("bern_comp", 0.0), 0.530738, 1e-3)
    expect("ncc_dd(0.5)", an.theoretical_rate("ncc_dd", 0.5), LN2, 1e-6)
    # crossover of the converse curve located by bisection on the curve itself,
    # compared against the closed form ln2/(1+ln2) ~= 0.409
    lo, hi = 0.05, 0.95
    for _ in range(60):
        mid = (lo + hi) / 2
        if an.theoretical_rate("ncc_converse", mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    expect("ncc_converse crossover", (lo + hi) / 2, LN2 / (1 + LN2), 1e-6)
    expect("theta* vs 0.409", LN2 / (1 + LN2), 0.409, 1e-3)
    for theta in (0.1, 0.2, 1.0 / 3.0):
        expect(
            f"bernoulli_capacity({theta:.4f})",
            an.bernoulli_capacity(theta).value,
            1.0,
            1e-6,
        )
    return CheckResult(
        "closed_form_constants", not failures, "; ".join(failures) or "all constants match"
    )


def check_formula_oracles() -> CheckResult:
    failures = []
    if abs(an.rate_of(500, 10, 200) - math.log2(math.comb(500, 10)) / 200) > 1e-9:
        failures.append("rate_of(500,10,200) disagrees with big-integer oracle")
    if abs(an.counting_bound(4, 2, 1) - 2 / 6) > 1e-12:
        failures.append("counting_bound(4,2,1) != 1/3")
    if an.counting_bound(10, 1, 30) != 1.0:
        failures.append("counting_bound cap at 1 failed")
    if abs(an.binary_entropy(0.5) - 1.0) > 1e-15 or an.binary_entropy(0.0) != 0.0:
        failures.append("binary_entropy endpoints")
    if abs(an.t_threshold("comp", 500, 10) - 10 * math.log2(500) / LN2) > 1e-9:
        failures.append("t_threshold comp")
    if abs(an.t_threshold("dd", 2000, 100) - 100 * math.log2(100) / LN2) > 1e-9:
        failures.append("t_threshold dd")
    for n in range(15):
        for k in range(n + 1):
            if an.stirling2(n, k) != an.stirling2_by_inclusion_exclusion(n, k):
                failures.append(f"stirling2({n},{k}) cross-check")
    return CheckResult("formula_oracles", not failures, "; ".join(failures) or "ok")


# -- distribution validation --------------------------------------------------


def _tv_distance(emp_counts: np.ndarray, probs: np.ndarray) -> float:
    emp = emp_counts / emp_counts.sum()
    return 0.5 * float(np.abs(emp - probs).sum())


def sample_solo_test_counts(
    n_samples: int, w: int, draws: int, n_tests: int, seed: int
) -> np.ndarray:
    """Simulate the solo-test count: distinct draws landing outside w covered tests."""
    rng = np.random.default_rng(seed)
    d = np.sort(rng.integers(0, n_tests, size=(n_samples, draws)), axis=1)
    fresh = np.ones(d.shape, dtype=bool)
    fresh[:, 1:] = d[:, 1:] != d[:, :-1]
    return ((d >= w) & fresh).sum(axis=1)


def check_mi_pmf_empirical(
    n_samples: int = 20000, seed: int = 11, tv_tol: float = 0.02
) -> CheckResult:
    failures = []
    for n_tests, w, draws in ((10, 4, 3), (25, 10, 5), (40, 20, 8)):
        counts = sample_solo_test_counts(n_samples, w, draws, n_tests, seed)
        support = np.arange(0, min(draws, n_tests - w) + 1)
        emp = np.bincount(counts, minlength=len(support))[: len(support)]
        probs = np.array([an.mi_pmf(int(j), w, draws, n_tests) for j in support])
        tv = _tv_distance(emp, probs)
        if tv > tv_tol:
            failures.append(f"mi_pmf TV={tv:.4f} at (T={n_tests}, w={w}, L={draws})")
        if abs(probs.sum() - 1.0) > 1e-9:
            failures.append(f"mi_pmf sum {probs.sum()} at (T={n_tests}, w={w}, L={draws})")
    return CheckResult("mi_pmf_vs_simulation", not failures, "; ".join(failures) or "ok")


def check_g_pmf_empirical(
    n_samples: int = 20000, seed: int = 12, tv_tol: float = 0.02
) -> CheckResult:
    failures = []
    rng = np.random.default_rng(seed)
    for n_items, k, n_tests, draws, x in ((50, 5, 20, 3, 10), (100, 10, 40, 5, 25)):
        hidden = np.zeros(n_samples, dtype=np.int64)
        chunk = 20000
        done = 0
        while done < n_samples:
            m = min(chunk, n_samples - done)
            inside = (
                rng.integers(0, n_tests, size=(m, n_items - k, draws)) < x
            ).all(axis=2)
            hidden[done : done + m] = inside.sum(axis=1)
            done += m
        support = np.arange(0, n_items - k + 1)
        emp = np.bincount(hidden, minlength=len(support))[: len(support)]
        probs = np.array(
            [an.g_conditional_pmf(int(g), x, n_tests, draws, n_items, k) for g in support]
        )
        tv = _tv_distance(emp, probs)
        if tv > tv_tol:
            failures.append(f"g_pmf TV={tv:.4f} at (N={n_items}, x={x})")
        if abs(probs.sum() - 1.0) > 1e-9:
            failures.append(f"g_pmf sum {probs.sum()} at (N={n_items}, x={x})")
    return CheckResult("g_conditional_pmf_vs_simulation", not failures, "; ".join(failures) or "ok")


def check_li_zero_empirical(n_samples: int = 20000, seed: int = 13) -> CheckResult:
    """Masking probability of all j solo tests, per the conditional construction."""
    failures = []
    rng = np.random.default_rng(seed)
    for g, w, j, draws in ((2, 6, 2, 3), (1, 4, 1, 2), (3, 10, 2, 4)):
        picks = rng.integers(0, w + j, size=(n_samples, g * draws))
        all_hit = np.ones(n_samples, dtype=bool)
        for marked in range(j):
            all_hit &= (picks == marked).any(axis=1)
        emp = all_hit.mean()
        want = an.li_zero_prob(g, w, j, draws)
        sigma = math.sqrt(max(want * (1 - want), 1e-12) / n_samples)
        if abs(emp - want) > 3 * sigma + 1e-9:
            failures.append(
                f"li_zero_prob({g},{w},{j},{draws}): emp={emp:.5f} want={want:.5f} sigma={sigma:.5f}"
            )
    return CheckResult("li_zero_prob_vs_simulation", not failures, "; ".join(failures) or "ok")


def check_coupon_pmf() -> CheckResult:
    """The exact coupon law's sum and mean; and, for every split of its n
    draws into K items of L, the float COMP law's two sums against it."""
    failures = []
    for n_draws, n_tests in ((1, 5), (2, 2), (8, 12), (40, 25), (6, 40)):
        top = min(n_draws, n_tests)
        probs = [an.distinct_coupon_pmf(n_draws, n_tests, w) for w in range(top + 1)]
        if abs(sum(probs) - 1.0) > 1e-9:
            failures.append(f"coupon pmf sum at (n={n_draws}, T={n_tests})")
        mean = sum(w * p for w, p in enumerate(probs))
        if abs(mean - an.expected_distinct(n_draws, n_tests)) > 1e-9:
            failures.append(f"coupon pmf mean at (n={n_draws}, T={n_tests})")
        n_clean = 30  # nondefectives
        for draws in (d for d in range(1, n_draws + 1) if n_draws % d == 0):
            k = n_draws // draws
            masked = [(w / n_tests) ** draws for w in range(top + 1)]
            success = math.fsum(p * (1.0 - q) ** n_clean for p, q in zip(probs, masked))
            mean_g = n_clean * math.fsum(p * q for p, q in zip(probs, masked))
            if abs(an.comp_success_exact(k + n_clean, k, n_tests, draws) - success) > 1e-12:
                failures.append(f"comp_success_exact at (K={k}, L={draws}, T={n_tests})")
            if abs(an.comp_masked_mean(k + n_clean, k, n_tests, draws) - mean_g) > 1e-12:
                failures.append(f"comp_masked_mean at (K={k}, L={draws}, T={n_tests})")
    return CheckResult("distinct_coupon_pmf", not failures, "; ".join(failures) or "ok")


def check_phi_properties(dense: bool = False) -> CheckResult:
    """Monotonicity in s and V, antitonicity in j, and the factorial bound.

    All comparisons run in exact rational arithmetic on a grid restricted to
    s*V*j <= 2, plus float-vs-exact agreement for V <= 50.
    """
    failures = []
    points = 0
    if dense:
        j_grid: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
        v_offsets: tuple[int, ...] = (0, 1, 3, 7, 12, 20, 30, 42)
        c_grid: tuple[int, ...] = tuple(range(1, 21))
    else:
        j_grid = (1, 2, 3, 5, 8)
        v_offsets = (0, 3, 10, 25, 42)
        c_grid = (1, 4, 9, 14, 19)
    for j in j_grid:
        for dv in v_offsets:
            v = min(j + dv, 50)
            for c_num in c_grid:
                s = Fraction(c_num, 10 * v * j)  # s*V*j = c_num / 10 <= 2
                if s > Fraction(1, j):
                    continue
                points += 1
                val = an.phi_exact(j, s, v)
                s_up = s + Fraction(1, 100 * v * j)
                if j * s_up <= 1 and an.phi_exact(j, s_up, v) < val:
                    failures.append(f"phi not increasing in s at (j={j}, s={s}, V={v})")
                if an.phi_exact(j, s, v + 1) < val:
                    failures.append(f"phi not increasing in V at (j={j}, s={s}, V={v})")
                if v >= j + 1 and (j + 1) * s <= 1 and an.phi_exact(j + 1, s, v) > val:
                    failures.append(f"phi not decreasing in j at (j={j}, s={s}, V={v})")
                bound = Fraction(an.falling_factorial(v, j)) * s**j
                if val > bound:
                    failures.append(f"factorial bound fails at (j={j}, s={s}, V={v})")
                if float(bound) > math.exp(j * math.log(float(v * s))) * (1 + 1e-12):
                    failures.append(f"exp bound fails at (j={j}, s={s}, V={v})")
                fval = an.phi(j, c_num / (10 * v * j), v)
                if val > 0 and abs(fval - float(val)) / float(val) > 1e-9:
                    failures.append(f"float phi disagrees at (j={j}, s={s}, V={v})")
                if an.phi_exact(j, s, v) != an.phi_poly_expansion(j, s, v):
                    failures.append(f"expansion identity fails at (j={j}, s={s}, V={v})")
    detail = f"{points} grid points; " + ("; ".join(failures[:5]) or "all properties hold")
    return CheckResult("phi_property_suite", not failures, detail)


def check_stirling_log_concavity() -> CheckResult:
    bad = [
        (j, u)
        for j in range(1, 21)
        for u in range(0, 21)
        if an.stirling2(j + u + 1, j) ** 2 < an.stirling2(j + u, j) * an.stirling2(j + u + 2, j)
    ]
    return CheckResult("stirling_log_concavity", not bad, f"{len(bad)} violations")


# -- harness-level checks -----------------------------------------------------


def check_masking_implies_sss_failure(trials: int = 300) -> CheckResult:
    """Every trial with a masked defective must have an inexact SSS decode."""
    disagreements = 0
    masked_trials = 0
    arm = simlab.DesignArm("ncc", LN2)
    for trial in range(trials):
        inst = simlab.trial_instance(arm, 25, 3, 12, simlab.trial_seed(31, 0, 12, trial))
        # a defective is masked when no test holds it alone (M_i = 0)
        stats = model.compute_item_stats(inst.design, inst.truth, inst.outcome)
        if 0 not in stats.solo_defective_tests:
            continue
        masked_trials += 1
        est = dec.sss(inst.design, inst.outcome).estimate
        if set(est) == set(inst.truth.items):
            disagreements += 1
    return CheckResult(
        "masking_implies_sss_inexact",
        disagreements == 0,
        f"{masked_trials} masked trials, {disagreements} disagreements",
    )


def check_counting_bound_cap(trials: int = 400) -> CheckResult:
    """Empirical success can never significantly exceed the counting bound."""
    cfg = simlab.ExperimentConfig(
        n_items=30,
        k=3,
        t_grid=(2, 4, 6, 8, 10),
        designs=(simlab.DesignArm("ncc", LN2), simlab.DesignArm("bernoulli", LN2)),
        decoders=("comp", "dd", "scomp", "sss"),
        trials=trials,
        master_seed=17,
    )
    _, failures = counting_bound_excess(simlab.run_success_curve(cfg))
    return CheckResult("counting_bound_cap", not failures, "; ".join(failures) or "ok")


def counting_bound_excess(curve: simlab.SuccessCurve) -> tuple[int, list[str]]:
    """(informative points, failures) of a curve against the counting bound.

    A point is informative where the bound is below 0.9; it fails when its
    estimate exceeds the bound by more than 3 sigma, sigma read off its 95%
    Wilson interval.
    """
    z95 = 1.959963984540054
    n, k = curve.config.n_items, curve.config.k
    checked = 0
    failures = []
    for pt in curve.points:
        bound = an.counting_bound(n, k, pt.n_tests)
        if bound >= 0.9:
            continue
        checked += 1
        sigma = (pt.ci_hi - pt.ci_lo) / (2 * z95)
        if pt.p_hat > bound + 3 * sigma:
            failures.append(
                f"{pt.design}/{pt.decoder}/T={pt.n_tests}: p={pt.p_hat:.3f} bound={bound:.3f}"
            )
    return checked, failures


def check_pd_trials(trials: int = 30) -> CheckResult:
    """The lab's PD-item trials count what full designs count: its successes
    and unresolved searches, cell by cell, against each trial's full
    instance (`simlab.trial_instance`) decoded by the same decoders; and
    each full trial's estimates break no identity of
    `decoders.invariant_violations`."""
    cfg = simlab.ExperimentConfig(
        n_items=40,
        k=3,
        t_grid=(4, 10, 18),
        designs=tuple(simlab.DesignArm(kind, LN2) for kind in model.DESIGN_KINDS),
        decoders=dec.ALGORITHMS,
        trials=trials,
        master_seed=29,
        sss_node_budget=20,
    )
    curve = simlab.run_success_curve(cfg)
    mismatches = []
    for arm_id, arm in enumerate(cfg.designs):
        for n_tests in cfg.t_grid:
            counts = {alg: [0, 0] for alg in cfg.decoders}
            for trial in range(cfg.trials):
                seed = simlab.trial_seed(cfg.master_seed, arm_id, n_tests, trial)
                inst = simlab.trial_instance(arm, cfg.n_items, cfg.k, n_tests, seed)
                results = simlab.decode_trial(inst, cfg.decoders, cfg.sss_node_budget)
                for alg, res in results.items():
                    if res is None:
                        counts[alg][1] += 1
                    elif dec.evaluate(res, inst.truth).exact:
                        counts[alg][0] += 1
                estimates = {alg: res.estimate for alg, res in results.items() if res is not None}
                broken = dec.invariant_violations(inst, estimates)
                if broken:
                    mismatches.append(f"{arm.kind}/T={n_tests}/r={trial} breaks {broken}")
            for alg, full in counts.items():
                pt = curve.point(arm.kind, alg, n_tests)
                if [pt.successes, pt.unresolved] != full:
                    mismatches.append(f"{arm.kind}/{alg}/T={n_tests}: {pt.successes, pt.unresolved} vs {tuple(full)}")
    cells = len(curve.points)
    return CheckResult(
        "pd_trials_match_full_designs",
        not mismatches,
        "; ".join(mismatches)
        or f"{cells} cells of {trials} trials, successes and unresolved equal, no identity broken",
    )


def check_determinism() -> CheckResult:
    cfg = simlab.ExperimentConfig(
        n_items=30,
        k=3,
        t_grid=(8, 16),
        designs=(simlab.DesignArm("ncc", LN2),),
        decoders=("comp", "dd"),
        trials=40,
        master_seed=9,
    )
    a = simlab.run_success_curve(cfg)
    b = simlab.run_success_curve(cfg)
    design = model.gen_near_constant(50, 20, 4, seed=123)
    regen = model.regenerate_design(design)
    # both formats: the compact text and the CLI's indented one, each read
    # back and compared with json's own text of the design's dict
    texts = {indent: "".join(model.design_json_chunks(design, indent)) for indent in (None, 2)}
    texts_ok = all(
        text == json.dumps(model.design_to_json_dict(design), indent=indent)
        and model.design_from_json(text) == design
        for indent, text in texts.items()
    )
    ok = a.points == b.points and design == regen and texts_ok
    return CheckResult(
        "determinism_and_roundtrip", ok, "repeat runs, compact and indented JSON round-trips"
    )


@dataclass
class Verification:
    """One pass of the registered checks, with wall times in seconds.

    The decoder corpus is built once and read by two checks, so its time is
    its own entry rather than charged to either of them.
    """

    corpus_instances: int
    corpus_seconds: float
    checks: list[tuple[CheckResult, float]]


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def run_verification(quick: bool = False) -> Verification:
    """The registered invariant suites, sized for CLI use."""
    sss_n = 200 if quick else 1500
    corpus_n = 1000 if quick else 10000
    samples = 5000 if quick else 50000
    trials = 120 if quick else 400
    corpus, corpus_seconds = _timed(run_decoder_corpus, corpus_n)
    checks = [
        (check_closed_form_constants,),
        (check_formula_oracles,),
        (check_coupon_pmf,),
        (check_stirling_log_concavity,),
        (check_phi_properties,),
        (check_sss_enumeration, sss_n),
        (check_structural_invariants, corpus),
        (check_success_conditions, corpus),
        (check_mi_pmf_empirical, samples),
        (check_g_pmf_empirical, samples),
        (check_li_zero_empirical, samples),
        (check_masking_implies_sss_failure, 120 if quick else 300),
        (check_counting_bound_cap, trials),
        (check_pd_trials, 10 if quick else 30),
        (check_determinism,),
    ]
    return Verification(corpus_n, corpus_seconds, [_timed(*call) for call in checks])
