"""The four benchmark workloads.

Each workload builds its inputs in ``setup``, then runs whole rounds of the
same operations. ``round(r)`` calls the package's public entry points and
times them from outside; ``round(r, tracer)`` runs the same inputs call by
call into the layer functions, inside root spans, with the tracer's patches
installed. Every output is checked against the oracles in :mod:`oracles` or
against properties the method must have; a failed check is appended to
``problems``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import oracles
from grouptest import analysis, cli, decoders, model, rng, simlab, verify

LN2 = math.log(2.0)
OUT = Path(__file__).resolve().parent / "out"
_NOW = time.perf_counter
# master seed of the set-up warm-ups: round 2**24 - 1 of seed 0, which no run
# reaches, so set-up does the same work whatever the seed
WARM_UP = (1 << 24) - 1

# spans whose mean inclusive time per call is the per-layer metric "<span>_us"
LAYER_SPANS = (
    "rng.np",
    "model.gen_bernoulli",
    "model.gen_near_constant",
    "model.gen_exact_constant",
    "model.sample_defective_set",
    "model.run_tests",
    "model.possible_defectives",
    "model.compute_item_stats",
    "model.design_to_json",
    "model.design_from_json",
    "decoders.comp",
    "decoders.dd",
    "decoders.scomp",
    "decoders.sss",
    "decoders.evaluate",
    "verify.fuzz_instance",
)


def layer_targets() -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every layer call the tracer wraps.

    The package calls these through module attributes or module globals, so
    replacing the attribute also catches the calls made inside the package
    (the generators inside ``simlab.build_design``, SCOMP inside SSS, the PD
    step inside each decoder).
    """
    targets = [(rng, name, "rng.np") for name in ("mix64_np", "bounded_np", "unit_np")]
    for name in (
        "gen_bernoulli",
        "gen_near_constant",
        "gen_exact_constant",
        "sample_defective_set",
        "run_tests",
        "possible_defectives",
        "compute_item_stats",
        "design_to_json",
    ):
        targets.append((model, name, f"model.{name}"))
    targets.append((model, "design_from_json_dict", "model.design_from_json"))
    targets.append((decoders, "possible_defectives", "model.possible_defectives"))
    for name in ("comp", "dd", "scomp", "sss", "evaluate"):
        targets.append((decoders, name, f"decoders.{name}"))
    targets.append((verify, "fuzz_instance", "verify.fuzz_instance"))
    return targets


def draws_for(t: int, k: int) -> int:
    """L, the draws per item of a near-constant design at density nu = ln 2."""
    return max(1, round(LN2 * t / k))


def _root(tracer, name: str):
    return nullcontext() if tracer is None else tracer.root(name)


def _self_ns(tracer, name: str, lo: int, hi: int) -> tuple[int, int]:
    """(number of spans named `name`, their summed ns minus their direct
    children's), over spans[lo:hi]."""
    count, kids = tracer.children(name, lo, hi)
    total = tracer.totals(lo, hi).get(name, (0, 0))[1]
    return count, total - sum(ns for _, ns in kids.values())


def decode_problems(cols, truth, positive, comp, dd, pd) -> list[str]:
    """COMP, DD and PD against the recomputation from the JSON columns."""
    want_comp, want_dd = cols.decode(positive)
    found = []
    if list(comp) != want_comp:
        found.append("COMP estimate differs from the recomputation")
    if list(dd) != want_dd:
        found.append("DD estimate differs from the recomputation")
    if list(pd) != want_comp:
        found.append("PD set differs from the recomputation")
    if not set(dd) <= set(truth) <= set(comp):
        found.append("DD <= truth <= COMP fails")
    return found


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.problems: list[str] = []
        self.nodes: tuple[int, int] | None = None  # SSS (total, max) per round

    def fail(self, message: str) -> None:
        self.problems.append(f"{self.name}: {message}")

    def master(self, r: int) -> int:
        """64-bit seed of round r."""
        return (self.seed << 24) | r

    def record_nodes(self, nodes: list[int]) -> None:
        got = (sum(nodes), max(nodes, default=0))
        if self.nodes is not None and got != self.nodes:
            self.fail(f"SSS node counts differ between rounds: {got} vs {self.nodes}")
        self.nodes = got

    def setup(self) -> None:
        """The package's work before the rounds (inputs, a warm-up call);
        timed, with the import, as `setup_s`."""
        raise NotImplementedError

    def prepare(self) -> None:
        """The benchmark's own work on the set-up's results (oracles and their
        cross-checks); run once, after the timed set-ups."""

    def round(self, r: int, tracer=None) -> tuple[list[float], int, int]:
        """Run round r; return (seconds per timed call, operations, failed)."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run."""

    def close(self) -> None:
        """Remove what the workload wrote."""

    def layer_extras(self, tracer, rounds_spans) -> dict[str, float]:
        """Workload-specific per-layer metrics; `rounds_spans` holds (first
        span, end span, host factor) for each traced round."""
        return {}


class Fig2Sweep(Workload):
    """The Figure-2 protocol: one trial per (arm, T) cell per round."""

    name = "fig2-sweep"
    N, K = 500, 10
    T_GRID = tuple(range(50, 401, 25))
    ARMS = (("ncc", LN2), ("bernoulli", LN2))
    # Family-wise level of the COMP count check. The benchmark runs about a
    # hundred times per comparison of two commits, so a level of 99.9% would
    # flag correct code in roughly one comparison in ten.
    CONFIDENCE = 1 - 1e-6
    # (N, K, T, exact COMP success to 6 places) at the criterion-9 points
    PINNED = ((10_000, 16, 384, 0.896368), (10_000, 16, 230, 0.000911))

    def setup(self) -> None:
        self.config = simlab.ExperimentConfig(
            n_items=self.N,
            k=self.K,
            t_grid=self.T_GRID,
            designs=self.ARMS,
            decoders=("comp", "dd"),
            trials=1,
            master_seed=WARM_UP,
        )
        simlab.run_success_curve(self.config)
        self.counts = defaultdict(lambda: [0, 0])  # (kind, decoder, T) -> successes, trials
        self.first_curve = self.curve = None

    def prepare(self) -> None:
        self.exact = {}
        self.analysis_s = []
        grid = [(self.N, self.K, t, None) for t in self.T_GRID]
        for n, k, t, pinned in grid + list(self.PINNED):
            draws = draws_for(t, k)
            mine = oracles.comp_success_near_constant(n, k, t, draws)
            start = _NOW()
            theirs = analysis.comp_success_exact(n, k, t, draws)
            self.analysis_s.append(_NOW() - start)
            if abs(mine - theirs) > 1e-9:
                self.fail(f"analysis.comp_success_exact{(n, k, t, draws)} = {theirs}, oracle {mine}")
            if pinned is not None and round(mine, 6) != pinned:
                self.fail(f"oracle COMP success at {(n, k, t)} is {mine}, expected {pinned}")
            if pinned is None:
                self.exact[(model.KIND_NEAR_CONSTANT, t)] = mine
                self.exact[(model.KIND_BERNOULLI, t)] = oracles.comp_success_bernoulli(n, k, t, LN2 / k)

    def round(self, r, tracer=None):
        """Untraced: the sweep. Traced: the same sweep inside one span, whose
        self time is the lab's own work, then a replay of its trials."""
        self.config.master_seed = self.master(r)
        trials = len(self.T_GRID) * len(self.ARMS)
        with _root(tracer, "simlab.run_success_curve"):
            start = _NOW()
            curve = simlab.run_success_curve(self.config)
            took = _NOW() - start
        if tracer is None:
            self.curve = curve
            if self.first_curve is None:
                self.first_curve = curve
            for pt in curve.points:
                cell = self.counts[(pt.design, pt.decoder, pt.n_tests)]
                cell[0] += pt.successes
                cell[1] += pt.trials
        else:
            if [pt.successes for pt in curve.points] != [pt.successes for pt in self.curve.points]:
                self.fail(f"round {r}: the traced sweep's success counts differ from the untraced ones")
            self.check_replay(self.replay(self.master(r), tracer), curve)
            trials *= 2  # the sweep's trials and their replay
        return [took], trials, 0

    def replay(self, master: int, tracer=None) -> list[tuple]:
        """The sweep's trials, one layer call at a time (seed rule mix64(m, a, T, r))."""
        out = []
        for arm_id, arm in enumerate(self.config.designs):
            for t in self.T_GRID:
                seed = simlab.trial_seed(master, arm_id, t, 0)
                with _root(tracer, "simlab.trial"):
                    design = simlab.build_design(arm, self.N, self.K, t, seed)
                    truth = model.sample_defective_set(self.N, self.K, seed)
                    outcome = model.run_tests(design, truth)
                    comp = decoders.comp(design, outcome)
                    dd = decoders.dd(design, outcome)
                    comp_ok = decoders.evaluate(comp, truth).exact
                    dd_ok = decoders.evaluate(dd, truth).exact
                out.append((arm.kind, t, design, truth, outcome, comp, dd, comp_ok, dd_ok))
        return out

    def check_replay(self, trials, curve) -> None:
        tally = Counter()
        for kind, t, design, truth, outcome, comp, dd, comp_ok, dd_ok in trials:
            tally[(kind, "comp", t)] += comp_ok
            tally[(kind, "dd", t)] += dd_ok
            cols = oracles.JsonDesign(model.design_to_json_dict(design))
            positive = cols.covered(truth.items)
            if positive.tolist() != list(outcome.bits):
                self.fail(f"{kind} T={t}: outcome differs from the recomputation")
                continue
            for msg in decode_problems(cols, truth.items, positive, comp.estimate, dd.estimate, comp.pd_set):
                self.fail(f"{kind} T={t}: {msg}")
            if comp_ok != (set(comp.estimate) == set(truth.items)) or dd_ok != (
                set(dd.estimate) == set(truth.items)
            ):
                self.fail(f"{kind} T={t}: evaluate disagrees with set equality")
        for pt in curve.points:
            if tally[(pt.design, pt.decoder, pt.n_tests)] != pt.successes:
                self.fail(f"replayed successes differ from run_success_curve at {pt.design}/{pt.decoder}/T={pt.n_tests}")

    def finish(self) -> None:
        self.check_replay(self.replay(self.master(0)), self.first_curve)
        cells = [
            (kind, t, *self.counts[(kind, "comp", t)], self.exact[(kind, t)])
            for kind, t in self.exact
        ]
        rounds = {n for *_, n, _ in cells}
        if len(rounds) != 1:
            self.fail(f"cells ran unequal trial counts {sorted(rounds)}")
        bad = oracles.outside_family_interval([(s, n, p) for *_, s, n, p in cells], self.CONFIDENCE)
        for i in bad:
            kind, t, s, n, p = cells[i]
            self.fail(f"COMP {kind} T={t}: {s}/{n} outside the family-wise {self.CONFIDENCE} interval of exact {p:.6f}")
        # a shift too small for any one cell still moves an arm's total
        for arm in {kind for kind, *_ in cells}:
            arm_cells = [(s, n, p) for kind, _, s, n, p in cells if kind == arm]
            if oracles.sum_outside_interval(arm_cells, self.CONFIDENCE):
                self.fail(f"COMP {arm}: total successes outside the {self.CONFIDENCE} interval of the exact sum")

    def layer_extras(self, tracer, rounds_spans):
        trials = len(self.T_GRID) * len(self.ARMS)
        overhead = []
        for lo, hi, factor in rounds_spans:
            sweeps, own_ns = _self_ns(tracer, "simlab.run_success_curve", lo, hi)
            overhead.append(own_ns / sweeps / trials / 1e3 / factor)
        return {
            "simlab.overhead_us": statistics.median(overhead),
            "analysis.comp_success_exact_us": 1e6 * sum(self.analysis_s) / len(self.analysis_s),
        }


class FuzzCorpus(Workload):
    """A fixed prefix of the tier-1 fuzz corpus, all decoders per instance."""

    name = "fuzz-corpus"
    CORPUS_SEED = 2024
    PREFIX = 200
    SIZES = {"n_max": 50, "k_max": 8, "t_max": 40}

    def setup(self) -> None:
        verify.run_decoder_corpus(20, self.CORPUS_SEED, **self.SIZES)

    def round(self, r, tracer=None):
        """Untraced: the corpus pass. Traced: the same pass inside one span,
        where the instances it generates are counted, then a replay of it.
        (`CorpusReport.instances` only echoes the count asked for.)"""
        mark = 0 if tracer is None else len(tracer.spans)
        with _root(tracer, "verify.run_decoder_corpus"):
            start = _NOW()
            report = verify.run_decoder_corpus(self.PREFIX, self.CORPUS_SEED, **self.SIZES)
            took = _NOW() - start
        for key, count in report.violations.items():
            if count:
                self.fail(f"CorpusReport tally {key} = {count}")
        if tracer is not None:
            _, kids = tracer.children("verify.run_decoder_corpus", mark)
            ran = kids.get("verify.fuzz_instance", (0, 0))[0]
            if ran != self.PREFIX:
                self.fail(f"run_decoder_corpus generated {ran} instances, asked {self.PREFIX}")
            self.check_replay(self.replay(tracer))
            return [took], 2 * self.PREFIX, 0  # the pass and its replay
        return [took], self.PREFIX, 0

    def replay(self, tracer=None) -> list[tuple]:
        out = []
        for idx in range(self.PREFIX):
            with _root(tracer, "verify.instance"):
                inst = verify.fuzz_instance(self.CORPUS_SEED, idx, **self.SIZES)
                design, outcome = inst.design, inst.outcome
                comp = decoders.comp(design, outcome)
                dd = decoders.dd(design, outcome)
                scomp = decoders.scomp(design, outcome)
                sss = decoders.sss(design, outcome, decoders.DEFAULT_NODE_BUDGET)
                stats = model.compute_item_stats(design, inst.truth, outcome)
                decoders.is_satisfying(design, outcome, scomp.estimate)
                decoders.is_satisfying(design, outcome, sss.estimate)
            out.append((idx, inst, comp, dd, scomp, sss, stats))
        return out

    def check_replay(self, instances) -> None:
        for idx, inst, comp, dd, scomp, sss, stats in instances:
            truth = inst.truth.items
            cols = oracles.JsonDesign(model.design_to_json_dict(inst.design))
            positive = cols.covered(truth)
            if positive.tolist() != list(inst.outcome.bits):
                self.fail(f"instance {idx}: outcome differs from the recomputation")
                continue
            found = decode_problems(cols, truth, positive, comp.estimate, dd.estimate, stats.pd_set)
            found += sss_problems(cols, positive, truth, scomp.estimate, sss.estimate)
            for msg in found:
                self.fail(f"instance {idx}: {msg}")
        self.record_nodes([sss.search_nodes for *_, sss, _ in instances])

    def finish(self) -> None:
        self.check_replay(self.replay())


def sss_problems(cols, positive, truth, scomp, sss) -> list[str]:
    found = []
    if not cols.is_satisfying(positive, scomp):
        found.append("SCOMP estimate is not satisfying")
    if not cols.is_satisfying(positive, sss):
        found.append("SSS estimate is not satisfying")
    if len(sss) > min(len(truth), len(scomp)):
        found.append(f"|SSS| = {len(sss)} exceeds min(K, |SCOMP|)")
    if len(sss) == len(truth) and tuple(sss) > tuple(truth):
        found.append("SSS of size K is lexicographically after the truth")
    return found


class SssDeep(Workload):
    """Deep SSS searches below the DD threshold, on a fixed instance pool."""

    name = "sss-deep"
    N, K, T = 500, 10, 50
    POOL = 2

    def setup(self) -> None:
        arm = simlab.DesignArm("ncc", LN2)
        self.pool = []
        for r in range(self.POOL):
            seed = simlab.trial_seed(0, 0, self.T, r)
            design = simlab.build_design(arm, self.N, self.K, self.T, seed)
            truth = model.sample_defective_set(self.N, self.K, seed)
            self.pool.append((design, truth.items, model.run_tests(design, truth)))

    def prepare(self) -> None:
        self.checks = []  # per pool instance: JSON columns, positive tests, PD set, SCOMP
        for r, (design, truth, outcome) in enumerate(self.pool):
            cols = oracles.JsonDesign(model.design_to_json_dict(design))
            positive = cols.covered(truth)
            if positive.tolist() != list(outcome.bits):
                self.fail(f"pool instance {r}: outcome differs from the recomputation")
            scomp = decoders.scomp(design, outcome).estimate
            self.checks.append((cols, positive, cols.decode(positive)[0], scomp))

    def round(self, r, tracer=None):
        times, nodes, failed = [], [], 0
        budget = decoders.DEFAULT_NODE_BUDGET
        for i, ((design, truth, outcome), (cols, positive, pd, scomp)) in enumerate(zip(self.pool, self.checks)):
            with _root(tracer, "sss.decode"):
                start = _NOW()
                try:
                    result = decoders.sss(design, outcome)
                except decoders.UnresolvedSearchError:
                    result = None
                times.append(_NOW() - start)
            if result is None:
                failed += 1
                continue
            nodes.append(result.search_nodes)
            found = sss_problems(cols, positive, truth, scomp, result.estimate)
            if list(result.pd_set) != pd:
                found.append("PD set differs from the recomputation")
            if result.search_nodes > budget:
                found.append(f"{result.search_nodes} nodes exceed the budget {budget}")
            for msg in found:
                self.fail(f"pool instance {i}: {msg}")
        self.record_nodes(nodes)
        return times, len(self.pool), failed


class CliRoundtrip(Workload):
    """In-process ``grouptest design`` then ``decode`` calls through files."""

    name = "cli-roundtrip"
    N, K, T = 10_000, 16, 384
    DRAWS = draws_for(T, K)
    TRUTHS = 2  # outcomes decoded (by COMP and by DD) per design

    def setup(self) -> None:
        self.dir = OUT / f"tmp-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.first_bytes = None
        path = self.dir / "warm.json"
        cli.main(self.design_args(WARM_UP, path))
        self.decode(path, "0" * self.T, "comp")

    def design_args(self, seed: int, path: Path) -> list[str]:
        return [
            "design", "--kind", "ncc", "--N", str(self.N), "--T", str(self.T),
            "--K", str(self.K), "--nu", repr(LN2), "--seed", str(seed), "--out", str(path),
        ]

    def decode(self, path: Path, bits: str, alg: str) -> tuple[int, float, Path]:
        out = self.dir / f"{alg}.json"
        argv = ["decode", "--design", str(path), "--outcome", bits, "--alg", alg, "--out", str(out)]
        start = _NOW()
        code = cli.main(argv)
        return code, _NOW() - start, out

    def round(self, r, tracer=None):
        calls = 1 + 2 * self.TRUTHS
        seed = self.master(r)
        path = self.dir / "design.json"
        with _root(tracer, "cli.design"):
            start = _NOW()
            code = cli.main(self.design_args(seed, path))
            times = [_NOW() - start]
        if code != 0:
            self.fail(f"design exited {code}")
            return times, calls, calls
        raw = path.read_bytes()
        if self.first_bytes is None:
            self.first_bytes = raw
        obj = json.loads(raw)
        self.check_design(obj, seed)
        cols = oracles.JsonDesign(obj)
        pick = np.random.default_rng([self.seed, r])
        failed = 0
        for _ in range(self.TRUTHS):
            truth = np.sort(pick.choice(self.N, self.K, replace=False)).tolist()
            positive = cols.covered(truth)
            bits = (positive.astype(np.uint8) + ord("0")).tobytes().decode()
            payload = {}
            for alg in ("comp", "dd"):
                with _root(tracer, "cli.decode"):
                    code, took, out = self.decode(path, bits, alg)
                times.append(took)
                if code != 0:
                    self.fail(f"decode --alg {alg} exited {code}")
                    failed += 1
                    continue
                payload[alg] = json.loads(out.read_text())
                if payload[alg].get("status") != "ok":
                    self.fail(f"decode --alg {alg} status {payload[alg].get('status')!r}")
            if len(payload) == 2:
                comp, dd = payload["comp"], payload["dd"]
                for msg in decode_problems(cols, truth, positive, comp["estimate"], dd["estimate"], comp["pd_set"]):
                    self.fail(f"round {r}: {msg}")
                if dd["pd_set"] != comp["pd_set"]:
                    self.fail(f"round {r}: DD and COMP print different PD sets")
        return times, calls, failed

    def check_design(self, obj: dict, seed: int) -> None:
        head = (obj.get("kind"), obj.get("N"), obj.get("T"), obj.get("seed"), obj.get("params", {}).get("L"))
        if head != (model.KIND_NEAR_CONSTANT, self.N, self.T, seed, self.DRAWS):
            self.fail(f"design header {head}")
        cols = obj.get("columns", [])
        if len(cols) != self.N or not all(type(t) is int for col in cols for t in col):
            self.fail("design columns are not N lists of integers")
            return
        flat = oracles.JsonDesign(obj)
        in_range = flat.tests.size == 0 or (flat.tests.min() >= 0 and flat.tests.max() < self.T)
        same_item = flat.items[1:] == flat.items[:-1]
        increasing = bool(np.all(np.diff(flat.tests)[same_item] > 0))
        weights = np.bincount(flat.items, minlength=self.N)
        if not (in_range and increasing and weights.max() <= self.DRAWS):
            self.fail("a column is not strictly increasing within [0, T) with at most L entries")

    def finish(self) -> None:
        path = self.dir / "remake.json"
        code = cli.main(self.design_args(self.master(0), path))
        if code != 0 or path.read_bytes() != self.first_bytes:
            self.fail("the design remade from round 0's seed is not byte-identical")

    def close(self) -> None:
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)

    def layer_extras(self, tracer, rounds_spans):
        calls = self_ns = 0.0
        for lo, hi, factor in rounds_spans:
            count, own_ns = _self_ns(tracer, "cli.decode", lo, hi)
            calls += count
            self_ns += own_ns / factor
        return {"cli.overhead_ms": self_ns / calls / 1e6}


WORKLOADS = {w.name: w for w in (Fig2Sweep, FuzzCorpus, SssDeep, CliRoundtrip)}
