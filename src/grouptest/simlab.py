"""Monte Carlo lab: success curves over test-count grids, with Wilson CIs.

Determinism contract: trial r of design arm a at grid point T runs with seed
``mix64(master_seed, a, T, r)`` (splitmix64-based, see :mod:`grouptest.rng`),
and every decoder in the experiment decodes the *same* instance of that
trial. Results are therefore bitwise reproducible across machines, execution
orders, and thread counts; the implementation here is sequential.

The lab walks each design arm's trials in flat (T, r) order, one block of
consecutive trials at a time (`model.PdBlock`), across grid points: the
Figure-2 sweep runs one trial per (arm, T) cell, so a block within one grid
point would hold one trial. A block's grid points, trials, seeds and
parameters come from its range of flat indices, so memory stays that of one
block however many trials a point runs. COMP and DD successes are read from
each block's arrays: COMP is exact iff no nondefective is a possible
defective (G = 0), DD iff every defective holds a positive test that no
other possible defective holds (min L_i > 0). SCOMP and SSS decode each
trial's PD-item instance: the design of :func:`trial_instance` restricted to
its possible defectives, a block's at once (`model.PdBlock.instances`). Every
decoder reads only the PD items, so the estimates, node counts and counts
are those of the full design, which :func:`trial_instance` builds for
callers that need it; `verify.check_pd_trials` holds the two together.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, fields
from typing import IO

import numpy as np

from . import decoders as dec
from . import model
from .rng import mix64, mix64_np

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
        kind = DESIGN_ALIASES.get(self.kind) if isinstance(self.kind, str) else None
        if kind is None:
            raise ValueError(f"unknown design kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if not model.is_number(self.nu) or not self.nu > 0:
            raise ValueError(f"nu must be a positive number, got {self.nu!r}")

    @classmethod
    def of(cls, entry: DesignArm | dict | tuple | list) -> DesignArm:
        """An arm from itself, an object of exactly ``kind`` and ``nu``, or a ``[kind, nu]`` pair."""
        if isinstance(entry, cls):
            return entry
        if isinstance(entry, dict) and entry.keys() == {"kind", "nu"}:
            return cls(entry["kind"], entry["nu"])
        if isinstance(entry, (list, tuple)) and len(entry) == 2:
            return cls(*entry)
        raise ValueError(f'a design arm is a {{"kind", "nu"}} object or a [kind, nu] pair, got {entry!r}')

    def params(self, n_tests: int, k: int) -> model.DesignParams:
        """The design's p or L at a grid point; K is floored at 1 so K = 0
        configs still realize a design."""
        return model.params_from_nu(self.kind, self.nu, n_tests, max(1, k))


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
        # type-checked, never coerced: int() would run n_items=30.7 as 30,
        # and a string of decoders would be read one character at a time
        for name in ("n_items", "k", "trials", "master_seed", "sss_node_budget"):
            if not model.is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("t_grid", "designs", "decoders"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        if not all(map(model.is_integer, self.t_grid)):
            raise ValueError(f"t_grid entries must be integers, got {self.t_grid!r}")
        self.t_grid = tuple(int(t) for t in self.t_grid)
        self.designs = tuple(map(DesignArm.of, self.designs))
        self.decoders = tuple(self.decoders)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        # the lab numbers an arm's trials in int64
        if self.trials * len(self.t_grid) >= 1 << 63:
            raise ValueError(f"trials times the grid points must be below 2**63, got trials={self.trials}")
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
        # p does not depend on T, and L = nu*T/K (floored at 1, capped at T on
        # ccw), N*T and N*min(L, T) never fall as T grows: each arm's largest
        # design is at the last grid point, so a design the lab would refuse
        # is refused here, before any trial, and the lab refuses none
        t_max = self.t_grid[-1]
        for arm in self.designs:
            model._checked_params(arm.kind, self.n_items, t_max, arm.params(t_max, self.k))
        # a trial's outcome is T entries, held whole in its block
        if t_max > model.MAX_ENTRIES:
            raise ValueError(f"t_grid entries must be at most 2**31, got {t_max}")

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
    return model.generate_design(arm.kind, n_items, n_tests, seed, arm.params(n_tests, k))


def trial_instance(
    arm: DesignArm, n_items: int, k: int, n_tests: int, seed: int
) -> model.Instance:
    """One trial: the arm's design and a uniform K-set, both from `seed`."""
    design = build_design(arm, n_items, k, n_tests, seed)
    truth = model.sample_defective_set(n_items, k, seed)
    return model.Instance(design, truth, model.run_tests(design, truth))


def decode_trial(
    inst: model.Instance, algs: tuple[str, ...], node_budget: int
) -> dict[str, dec.DecodeResult | None]:
    """Each decoder's result on `inst`; None for an SSS search that ran out
    of its node budget."""
    results: dict[str, dec.DecodeResult | None] = {}
    for alg in algs:
        try:
            results[alg] = dec.decode(alg, inst.design, inst.outcome, node_budget)
        except dec.UnresolvedSearchError:
            results[alg] = None
    return results


def run_success_curve(config: ExperimentConfig) -> SuccessCurve:
    """Empirical exact-recovery probability per (design, decoder, T).

    Each arm's trials run in blocks of consecutive trials in flat (T, r)
    order, across grid points, ``model.pd_block_trials`` trials at a time:
    a block's grid points, trials, T, seeds and parameters are built from
    its range of flat indices alone, so no array spans a whole arm. COMP and
    DD successes are read from each block's counts (`comp_exact`,
    `dd_exact`); SCOMP and SSS decode each block's PD-item instances. SSS
    trials that exhaust the node budget are counted as failures in the
    estimate and reported in the ``unresolved`` column.
    """
    grid = np.array(config.t_grid)
    counted = [alg for alg in ("comp", "dd") if alg in config.decoders]
    decoded = tuple(alg for alg in config.decoders if alg not in counted)
    # (arm, decoder) -> successes and unresolved searches per grid point
    tally = {
        (arm_id, alg): np.zeros((2, len(grid)), dtype=np.int64)
        for arm_id in range(len(config.designs))
        for alg in config.decoders
    }
    total = len(grid) * config.trials
    size = model.pd_block_trials(config.n_items, config.t_grid[-1])
    for arm_id, arm in enumerate(config.designs):
        params = [arm.params(t, config.k) for t in config.t_grid]
        for lo in range(0, total, size):
            at, trial = np.divmod(np.arange(lo, min(total, lo + size)), config.trials)
            n_tests = grid[at]
            seeds = mix64_np(config.master_seed, arm_id, n_tests, trial)
            block = model.PdBlock(arm.kind, config.n_items, config.k, n_tests, [params[j] for j in at], seeds)
            exact = {"comp": block.comp_exact, "dd": block.dd_exact}
            for alg in counted:
                tally[(arm_id, alg)][0] += np.bincount(at[exact[alg]], minlength=len(grid))
            for b, (inst, _) in enumerate(block.instances() if decoded else ()):
                for alg, res in decode_trial(inst, decoded, config.sss_node_budget).items():
                    if res is None:
                        tally[(arm_id, alg)][1, at[b]] += 1
                    elif dec.evaluate(res, inst.truth).exact:
                        tally[(arm_id, alg)][0, at[b]] += 1
    points = []
    for (arm_id, alg), cells in tally.items():
        arm = config.designs[arm_id]
        for n, successes, unresolved in zip(grid, *cells.tolist()):
            lo, hi = wilson_interval(successes, config.trials)
            points.append(
                SuccessPoint(
                    design=arm.kind,
                    nu=arm.nu,
                    decoder=alg,
                    n_tests=n,
                    trials=config.trials,
                    successes=successes,
                    unresolved=unresolved,
                    p_hat=successes / config.trials,
                    ci_lo=lo,
                    ci_hi=hi,
                )
            )
    return SuccessCurve(config, tuple(points))
