"""Self-checks: closed-form constants, oracle equivalences, fuzzed invariants.

Each check returns a :class:`CheckResult`; the CLI ``verify`` subcommand runs
the registry and exits nonzero if anything fails. The checks are the same
ones the acceptance test-suite runs, parameterized by instance counts so the
CLI can run a faster pass.

Empirical distributions are sampled with numpy's own generator, keeping the
sampling path independent of the package's counter-based streams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import analysis as an
from . import decoders as dec
from . import model
from . import simlab
from .rng import bounded_at, mix64, u64_at, unit_at

LN2 = math.log(2.0)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


# -- fuzzed instance corpus --------------------------------------------------


def fuzz_instance(
    seed: int, idx: int, *, n_max: int, k_max: int, t_max: int
) -> model.Instance:
    """Deterministic random instance: any design kind, truth, and outcome."""
    h = mix64(seed, idx)
    n = 2 + bounded_at(h, 0, n_max - 1)
    t = 1 + bounded_at(h, 1, t_max)
    k = bounded_at(h, 2, min(k_max, n) + 1)
    kind = model.DESIGN_KINDS[bounded_at(h, 3, 3)]
    design_seed = u64_at(h, 5)
    if kind == model.KIND_BERNOULLI:
        p = 0.05 + 0.5 * unit_at(h, 4)
        design = model.gen_bernoulli(n, t, p, design_seed)
    else:
        draws = 1 + bounded_at(h, 4, min(8, t))
        design = model.generate_design(kind, n, t, design_seed, draws=draws)
    truth = model.sample_defective_set(n, k, u64_at(h, 6))
    return model.Instance(design, truth, model.run_tests(design, truth))


@dataclass
class CorpusReport:
    """Violation counts from one pass of all decoders over a fuzz corpus."""

    instances: int = 0
    violations: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(dec.INVARIANTS, 0)
    )

    @property
    def structural_violations(self) -> int:
        keys = ("dd_subset_truth", "truth_subset_comp", "sss_size",
                "scomp_satisfying", "sss_satisfying")
        return sum(self.violations[k] for k in keys)

    @property
    def equivalence_violations(self) -> int:
        keys = ("comp_iff_g_zero", "dd_iff_li_positive")
        return sum(self.violations[k] for k in keys)


def run_decoder_corpus(
    instances: int,
    seed: int = 2024,
    *,
    n_max: int = 50,
    k_max: int = 8,
    t_max: int = 40,
    node_budget: int = dec.DEFAULT_NODE_BUDGET,
) -> CorpusReport:
    """Fuzz all four decoders plus the per-item counts, tallying violations."""
    report = CorpusReport(instances=instances)
    for idx in range(instances):
        inst = fuzz_instance(seed, idx, n_max=n_max, k_max=k_max, t_max=t_max)
        estimates = {
            alg: dec.decode(alg, inst.design, inst.outcome, node_budget).estimate
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
    minimum-size, lexicographically-smallest one.
    """
    masks = design.item_masks
    pos = outcome.positive_mask
    neg = outcome.negative_mask(design.n_tests)
    for size in range(design.n_items + 1):
        for combo in itertools.combinations(range(design.n_items), size):
            union = 0
            for i in combo:
                union |= masks[i]
            if union & neg == 0 and pos & ~union == 0:
                return combo
    raise AssertionError("no satisfying set; outcome not generated by run_tests?")


def check_sss_enumeration(instances: int = 500, seed: int = 77) -> CheckResult:
    """SSS output must equal the exhaustive oracle (size and identity)."""
    mismatches = 0
    for idx in range(instances):
        inst = fuzz_instance(seed, idx, n_max=14, k_max=4, t_max=16)
        got = dec.sss(inst.design, inst.outcome).estimate
        want = exhaustive_smallest_satisfying(inst.design, inst.outcome)
        if got != want:
            mismatches += 1
    return CheckResult(
        "sss_vs_exhaustive_enumeration",
        mismatches == 0,
        f"{instances} instances, {mismatches} mismatches",
    )


def check_structural_invariants(
    instances: int = 3000, seed: int = 2024, report: CorpusReport | None = None
) -> CheckResult:
    if report is None:
        report = run_decoder_corpus(instances, seed)
    bad = report.structural_violations + report.violations["stats_identity"]
    return CheckResult(
        "decoder_structural_invariants",
        bad == 0,
        f"{report.instances} instances, {bad} violations",
    )


def check_success_conditions(
    instances: int = 3000, seed: int = 2024, report: CorpusReport | None = None
) -> CheckResult:
    if report is None:
        report = run_decoder_corpus(instances, seed)
    bad = report.equivalence_violations
    return CheckResult(
        "success_condition_equivalences",
        bad == 0,
        f"{report.instances} instances, {bad} violations",
    )


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
    failures = []
    for n_draws, n_tests in ((1, 5), (2, 2), (8, 12), (40, 25), (6, 40)):
        top = min(n_draws, n_tests)
        probs = [an.distinct_coupon_pmf(n_draws, n_tests, w) for w in range(top + 1)]
        if abs(sum(probs) - 1.0) > 1e-9:
            failures.append(f"coupon pmf sum at (n={n_draws}, T={n_tests})")
        mean = sum(w * p for w, p in enumerate(probs))
        if abs(mean - an.expected_distinct(n_draws, n_tests)) > 1e-9:
            failures.append(f"coupon pmf mean at (n={n_draws}, T={n_tests})")
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


def check_masking_implies_sss_failure(trials: int = 300, seed: int = 31) -> CheckResult:
    """Every trial with a masked defective must have an inexact SSS decode."""
    disagreements = 0
    masked_trials = 0
    arm = simlab.DesignArm("ncc", LN2)
    for trial in range(trials):
        inst = simlab.trial_instance(arm, 25, 3, 12, simlab.trial_seed(seed, 0, 12, trial))
        if not dec.some_defective_masked(inst.design, inst.truth):
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


def check_counting_bound_cap(trials: int = 400, seed: int = 17) -> CheckResult:
    """Empirical success can never significantly exceed the counting bound."""
    cfg = simlab.ExperimentConfig(
        n_items=30,
        k=3,
        t_grid=(2, 4, 6, 8, 10),
        designs=(simlab.DesignArm("ncc", LN2), simlab.DesignArm("bernoulli", LN2)),
        decoders=("comp", "dd", "scomp", "sss"),
        trials=trials,
        master_seed=seed,
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
    rt = model.design_from_json(model.design_to_json(design))
    ok = a.points == b.points and design == regen and design == rt
    return CheckResult("determinism_and_roundtrip", ok, "repeat runs and JSON round-trip")


def run_verification(quick: bool = False) -> list[CheckResult]:
    """The registered invariant suites, sized for CLI use."""
    sss_n = 200 if quick else 1500
    corpus_n = 1000 if quick else 10000
    samples = 5000 if quick else 50000
    trials = 120 if quick else 400
    corpus = run_decoder_corpus(corpus_n)
    results = [
        check_closed_form_constants(),
        check_formula_oracles(),
        check_coupon_pmf(),
        check_stirling_log_concavity(),
        check_phi_properties(),
        check_sss_enumeration(sss_n),
        check_structural_invariants(report=corpus),
        check_success_conditions(report=corpus),
        check_mi_pmf_empirical(samples),
        check_g_pmf_empirical(samples),
        check_li_zero_empirical(samples),
        check_masking_implies_sss_failure(120 if quick else 300),
        check_counting_bound_cap(trials),
        check_determinism(),
    ]
    return results
