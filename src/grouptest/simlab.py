"""Monte Carlo lab: success curves over test-count grids, empirical laws, CIs.

Determinism contract: trial r of design arm a at grid point T runs with seed
``mix64(master_seed, a, T, r)`` (splitmix64-based, see :mod:`grouptest.rng`),
and every decoder in the experiment decodes the *same* instance of that
trial. Results are therefore bitwise reproducible across machines, execution
orders, and thread counts; the implementation here is sequential.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, fields
from typing import IO

import numpy as np

from . import decoders as dec
from . import model
from .rng import mix64

DESIGN_ALIASES = {
    "bernoulli": model.KIND_BERNOULLI,
    "ncc": model.KIND_NEAR_CONSTANT,
    "near_constant": model.KIND_NEAR_CONSTANT,
    "ccw": model.KIND_EXACT_CONSTANT,
    "exact_constant": model.KIND_EXACT_CONSTANT,
}

CSV_COLUMNS = (
    "design",
    "decoder",
    "nu",
    "N",
    "K",
    "T",
    "trials",
    "successes",
    "unresolved",
    "p_hat",
    "ci_lo",
    "ci_hi",
)


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; always within [0, 1]."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    z = statistics.NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * ((p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) ** 0.5)
    # the interval endpoints are exactly 0 / 1 at the extremes; keep them so
    lo = 0.0 if successes == 0 else max(0.0, center - margin)
    hi = 1.0 if successes == trials else min(1.0, center + margin)
    return (lo, hi)


@dataclass(frozen=True)
class DesignArm:
    """One design under test: a kind plus the density parameter nu."""

    kind: str
    nu: float

    def __post_init__(self) -> None:
        kind = DESIGN_ALIASES.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown design kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if not model.is_number(self.nu) or not self.nu > 0:
            raise ValueError(f"nu must be a positive number, got {self.nu!r}")

    @classmethod
    def of(cls, entry: DesignArm | dict | tuple | list) -> DesignArm:
        """An arm from itself, a ``{"kind", "nu"}`` object or a ``[kind, nu]`` pair."""
        if isinstance(entry, cls):
            return entry
        if isinstance(entry, dict):
            return cls(entry["kind"], entry["nu"])
        kind, nu = entry
        return cls(kind, nu)

    def params(self, n_tests: int, k: int) -> model.NuParams:
        """p and L at a grid point; K is floored at 1 so K = 0 configs still
        realize a design."""
        return model.params_from_nu(self.nu, n_tests, max(1, k))


@dataclass
class ExperimentConfig:
    n_items: int
    k: int
    t_grid: tuple[int, ...]
    designs: tuple[DesignArm, ...]
    decoders: tuple[str, ...]
    trials: int
    master_seed: int
    sss_node_budget: int = dec.DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        # type-checked, never coerced: int() would run n_items=30.7 as 30
        for name in ("n_items", "k", "trials", "master_seed", "sss_node_budget"):
            if not model.is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not all(map(model.is_integer, self.t_grid)):
            raise ValueError(f"t_grid entries must be integers, got {self.t_grid!r}")
        self.t_grid = tuple(int(t) for t in self.t_grid)
        self.designs = tuple(map(DesignArm.of, self.designs))
        self.decoders = tuple(self.decoders)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.t_grid or any(
            a >= b for a, b in zip(self.t_grid, self.t_grid[1:])
        ):
            raise ValueError("t_grid must be nonempty and strictly increasing")
        if any(t < 1 for t in self.t_grid):
            raise ValueError("t_grid entries must be >= 1")
        if not 0 <= self.k < self.n_items:
            raise ValueError(f"need 0 <= k < n_items, got k={self.k}, N={self.n_items}")
        if not self.designs:
            raise ValueError("at least one design arm required")
        for alg in self.decoders:
            if alg not in dec.ALGORITHMS:
                raise ValueError(f"unknown decoder {alg!r}; expected one of {dec.ALGORITHMS}")
        if not self.decoders:
            raise ValueError("at least one decoder required")
        if self.sss_node_budget < 1:
            raise ValueError("sss_node_budget must be >= 1")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        for arm in self.designs:  # L = nu*T/K is largest at the last grid point
            arm.params(self.t_grid[-1], self.k)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """A config from its JSON object; ``master_seed`` defaults to 0."""
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"n_items", "k", "t_grid", "designs", "decoders", "trials"} - set(obj)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**{"master_seed": 0, **obj})

    def to_dict(self) -> dict:
        return {
            "n_items": self.n_items,
            "k": self.k,
            "t_grid": list(self.t_grid),
            "designs": [{"kind": a.kind, "nu": a.nu} for a in self.designs],
            "decoders": list(self.decoders),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "sss_node_budget": self.sss_node_budget,
        }


@dataclass(frozen=True)
class SuccessPoint:
    design: str
    nu: float
    decoder: str
    n_tests: int
    trials: int
    successes: int
    unresolved: int
    p_hat: float
    ci_lo: float
    ci_hi: float


@dataclass
class SuccessCurve:
    config: ExperimentConfig
    points: tuple[SuccessPoint, ...]

    def point(self, design: str, decoder: str, n_tests: int) -> SuccessPoint:
        kind = DESIGN_ALIASES.get(design, design)
        for pt in self.points:
            if pt.design == kind and pt.decoder == decoder and pt.n_tests == n_tests:
                return pt
        raise KeyError((design, decoder, n_tests))

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream)
        writer.writerow(CSV_COLUMNS)
        for pt in self.points:
            writer.writerow(
                [
                    pt.design,
                    pt.decoder,
                    f"{pt.nu:.6f}",
                    self.config.n_items,
                    self.config.k,
                    pt.n_tests,
                    pt.trials,
                    pt.successes,
                    pt.unresolved,
                    f"{pt.p_hat:.6f}",
                    f"{pt.ci_lo:.6f}",
                    f"{pt.ci_hi:.6f}",
                ]
            )


def trial_seed(master_seed: int, arm_id: int, n_tests: int, trial: int) -> int:
    """Seed for one (design arm, grid point, trial) cell."""
    return mix64(master_seed, arm_id, n_tests, trial)


def build_design(
    arm: DesignArm, n_items: int, k: int, n_tests: int, seed: int
) -> model.TestDesign:
    """Realize a design arm at a grid point: nu fixes p or the draw count."""
    params = arm.params(n_tests, k)
    if arm.kind == model.KIND_BERNOULLI:
        return model.gen_bernoulli(n_items, n_tests, params.p, seed, nu=arm.nu)
    draws = params.draws
    if arm.kind == model.KIND_EXACT_CONSTANT:
        draws = min(draws, n_tests)
    return model.generate_design(arm.kind, n_items, n_tests, seed, draws=draws, nu=arm.nu)


def trial_instance(
    arm: DesignArm, n_items: int, k: int, n_tests: int, seed: int
) -> model.Instance:
    """One trial: the arm's design and a uniform K-set, both from `seed`."""
    design = build_design(arm, n_items, k, n_tests, seed)
    truth = model.sample_defective_set(n_items, k, seed)
    return model.Instance(design, truth, model.run_tests(design, truth))


def run_success_curve(
    config: ExperimentConfig, *, check_invariants: bool = False
) -> SuccessCurve:
    """Empirical exact-recovery probability per (design, decoder, T).

    SSS trials that exhaust the node budget are counted as failures in the
    estimate and reported in the ``unresolved`` column. With
    ``check_invariants`` a trial whose estimates break any identity of
    :func:`decoders.invariant_violations` raises AssertionError (test mode).
    """
    counts: dict[tuple[int, str, int], list[int]] = {}
    for arm_id, arm in enumerate(config.designs):
        for n_tests in config.t_grid:
            for alg in config.decoders:
                counts[(arm_id, alg, n_tests)] = [0, 0]  # successes, unresolved
            for trial in range(config.trials):
                seed = trial_seed(config.master_seed, arm_id, n_tests, trial)
                inst = trial_instance(arm, config.n_items, config.k, n_tests, seed)
                estimates = {}
                for alg in config.decoders:
                    cell = counts[(arm_id, alg, n_tests)]
                    try:
                        res = dec.decode(alg, inst.design, inst.outcome, config.sss_node_budget)
                    except dec.UnresolvedSearchError:
                        cell[1] += 1
                        continue
                    estimates[alg] = res.estimate
                    if dec.evaluate(res, inst.truth).exact:
                        cell[0] += 1
                if check_invariants:
                    broken = dec.invariant_violations(inst, estimates)
                    if broken:
                        raise AssertionError(f"trial seed {seed} breaks {broken}")
    points = []
    for arm_id, arm in enumerate(config.designs):
        for alg in config.decoders:
            for n_tests in config.t_grid:
                successes, unresolved = counts[(arm_id, alg, n_tests)]
                lo, hi = wilson_interval(successes, config.trials)
                points.append(
                    SuccessPoint(
                        design=arm.kind,
                        nu=arm.nu,
                        decoder=alg,
                        n_tests=n_tests,
                        trials=config.trials,
                        successes=successes,
                        unresolved=unresolved,
                        p_hat=successes / config.trials,
                        ci_lo=lo,
                        ci_hi=hi,
                    )
                )
    return SuccessCurve(config, tuple(points))


@dataclass
class ItemStatsSample:
    """Joint empirical records of the per-instance counts across trials.

    Per-defective arrays have shape (trials, K) and stay aligned, so
    conditional laws can be extracted by boolean indexing.
    """

    n_items: int
    k: int
    n_tests: int
    draws: int
    trials: int
    covered: np.ndarray
    intruders: np.ndarray
    covered_without: np.ndarray
    solo_defective: np.ndarray
    solo_pd: np.ndarray

    def mi_given_covered_without(self, w: int) -> np.ndarray:
        """All M_i observations where that defective's W_{K\\i} equals w."""
        return self.solo_defective[self.covered_without == w]

    def intruders_given_covered(self, x: int) -> np.ndarray:
        return self.intruders[self.covered == x]

    def li_zero_rate(self, g: int, w: int, j: int) -> tuple[int, int]:
        """(count of L_i == 0, matching observations) at fixed (g, w, j)."""
        match = (
            (self.covered_without == w)
            & (self.solo_defective == j)
            & (self.intruders[:, None] == g)
        )
        sel = self.solo_pd[match]
        return int((sel == 0).sum()), int(sel.size)


def collect_item_stats(
    arm: DesignArm,
    n_items: int,
    k: int,
    n_tests: int,
    trials: int,
    master_seed: int,
) -> ItemStatsSample:
    """Sample the joint law of the per-instance counts for one design arm."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if k < 1:
        raise ValueError("collect_item_stats requires k >= 1")
    covered = np.zeros(trials, dtype=np.int64)
    intruders = np.zeros(trials, dtype=np.int64)
    covered_without = np.zeros((trials, k), dtype=np.int64)
    solo_defective = np.zeros((trials, k), dtype=np.int64)
    solo_pd = np.zeros((trials, k), dtype=np.int64)
    params = arm.params(n_tests, k)
    for trial in range(trials):
        inst = trial_instance(arm, n_items, k, n_tests, trial_seed(master_seed, 0, n_tests, trial))
        st = model.compute_item_stats(inst.design, inst.truth, inst.outcome)
        covered[trial] = st.covered_tests
        intruders[trial] = st.masked_nondefectives
        covered_without[trial] = st.covered_without
        solo_defective[trial] = st.solo_defective_tests
        solo_pd[trial] = st.solo_pd_tests
    return ItemStatsSample(
        n_items=n_items,
        k=k,
        n_tests=n_tests,
        draws=params.draws,
        trials=trials,
        covered=covered,
        intruders=intruders,
        covered_without=covered_without,
        solo_defective=solo_defective,
        solo_pd=solo_pd,
    )


@dataclass(frozen=True)
class MaskingEstimate:
    """Monte Carlo lower bound on SSS error via defective-masking events."""

    probability: float
    ci_lo: float
    ci_hi: float
    hits: int
    trials: int


def estimate_sss_masking_lb(
    arm: DesignArm,
    n_items: int,
    k: int,
    n_tests: int,
    trials: int,
    master_seed: int,
) -> MaskingEstimate:
    """Estimate P(some defective is masked by the other defectives).

    Whenever the event occurs the true set is not the smallest satisfying
    set, so this estimates a lower bound on the SSS error probability.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hits = 0
    for trial in range(trials):
        inst = trial_instance(arm, n_items, k, n_tests, trial_seed(master_seed, 0, n_tests, trial))
        hits += dec.some_defective_masked(inst.design, inst.truth)
    lo, hi = wilson_interval(hits, trials)
    return MaskingEstimate(hits / trials, lo, hi, hits, trials)
