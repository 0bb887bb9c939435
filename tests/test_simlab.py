"""Monte Carlo harness: determinism, per-trial invariants, empirical laws."""

import io
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grouptest import (
    DesignArm,
    ExperimentConfig,
    compute_item_stats,
    counting_bound,
    expected_distinct,
    distinct_coupon_pmf,
    g_conditional_pmf,
    li_zero_prob,
    mi_pmf,
    run_success_curve,
    run_tests,
    wilson_interval,
)
from grouptest import model, rng
from grouptest.decoders import ALGORITHMS, DEFAULT_NODE_BUDGET, UnresolvedSearchError, decode
from grouptest.simlab import trial_instance, trial_seed

LN2 = math.log(2)


class TestWilsonInterval:
    def test_zero_successes_lower_bound_is_zero(self):
        lo, hi = wilson_interval(0, 25)
        assert lo == 0.0 and 0 < hi < 0.2

    def test_all_successes_upper_bound_is_one(self):
        lo, hi = wilson_interval(25, 25)
        assert hi == 1.0 and 0.8 < lo < 1

    def test_halfwidth_at_half(self):
        """(500, 1000): symmetric about ~0.5 with half-width ~0.031."""
        lo, hi = wilson_interval(500, 1000)
        assert abs((hi + lo) / 2 - 0.5) < 1e-3
        assert abs((hi - lo) / 2 - 0.031) < 0.001

    def test_contained_in_unit_interval(self):
        for s, n in ((1, 3), (2, 7), (5, 5), (0, 1)):
            lo, hi = wilson_interval(s, n)
            assert 0.0 <= lo <= hi <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(3, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestExperimentConfig:
    def _base(self, **overrides):
        kwargs = dict(
            n_items=30,
            k=3,
            t_grid=(5, 10),
            designs=(DesignArm("ncc", LN2),),
            decoders=("comp",),
            trials=10,
            master_seed=0,
        )
        kwargs.update(overrides)
        return kwargs

    def test_aliases_canonicalize(self):
        cfg = ExperimentConfig(**self._base(designs=(("ccw", 1.0), ("bernoulli", 0.5))))
        assert cfg.designs[0].kind == "exact_constant"
        assert cfg.designs[1].kind == "bernoulli"

    @pytest.mark.parametrize(
        "bad",
        [
            {"trials": 0},
            {"t_grid": ()},
            {"t_grid": (10, 5)},
            {"t_grid": (5, 5)},
            {"k": 30},
            {"decoders": ("nope",)},
            {"decoders": ()},
            {"designs": ()},
            {"sss_node_budget": 0},
            {"trials": 2**62},  # 2**63 trials over the two grid points
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**self._base(**bad))

    @given(
        st.sampled_from(["bernoulli", "ncc", "ccw"]),
        st.floats(1e-30, 1e30),
        st.integers(2, 2**40),
        st.lists(st.integers(1, 2**64), min_size=1, max_size=4, unique=True),
    )
    def test_an_accepted_config_accepts_every_grid_point(self, kind, nu, n_items, t_grid):
        """The checks at the last grid point hold at every smaller T, so the
        lab draws every design of a config that `ExperimentConfig` accepts."""
        try:
            cfg = ExperimentConfig(
                **self._base(n_items=n_items, k=1, t_grid=sorted(t_grid), designs=((kind, nu),))
            )
        except ValueError:
            return
        arm = cfg.designs[0]
        for t in cfg.t_grid:
            model._checked_params(arm.kind, cfg.n_items, t, arm.params(t, cfg.k))

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"designs": ({"kind": "bernoulli", "nu": 0.69, "p": 0.05},)}, "design arm"),
            ({"designs": ({"kind": "ncc"},)}, "design arm"),
            ({"designs": (("ncc",),)}, "design arm"),
            ({"designs": (("ncc", LN2, 1),)}, "design arm"),
            ({"designs": ({"kind": ["ncc"], "nu": LN2},)}, "design kind"),
            ({"designs": 5}, "designs must be a list"),
            ({"designs": DesignArm("ncc", LN2)}, "designs must be a list"),
            ({"decoders": "comp"}, "decoders must be a list"),
            ({"t_grid": 5}, "t_grid must be a list"),
            ({"t_grid": {5: 1}}, "t_grid must be a list"),
        ],
    )
    def test_field_shapes(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**self._base(**bad))

    def test_arms_of_every_accepted_shape(self):
        arms = [DesignArm("ncc", LN2), ("ccw", 1.0), ["bernoulli", 0.5], {"nu": 0.5, "kind": "ncc"}]
        cfg = ExperimentConfig(**self._base(designs=arms, t_grid=[5, 10], decoders=["comp", "dd"]))
        assert cfg.designs == (
            DesignArm("ncc", LN2), DesignArm("ccw", 1.0), DesignArm("bernoulli", 0.5), DesignArm("ncc", 0.5)
        )
        assert (cfg.t_grid, cfg.decoders) == ((5, 10), ("comp", "dd"))

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(**self._base())
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        obj = ExperimentConfig(**self._base()).to_dict()
        obj["typo"] = 1
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(obj)


def test_trial_seed_is_stable():
    """Regression-pin the documented splitmix64 mixing of (seed, arm, T, r)."""
    a = trial_seed(0, 0, 50, 0)
    assert a == trial_seed(0, 0, 50, 0)
    assert len({trial_seed(0, a_, t, r) for a_ in range(2) for t in (5, 10) for r in range(5)}) == 20
    # the lab's seeds for a whole arm at once
    cells = [(t, r) for t in (5, 10, 2**40) for r in range(3)]
    seeds = rng.mix64_np(2**64 - 1, 1, np.array([t for t, _ in cells]), np.array([r for _, r in cells]))
    assert seeds.tolist() == [trial_seed(2**64 - 1, 1, t, r) for t, r in cells]


@pytest.fixture(scope="module")
def small_curve():
    cfg = ExperimentConfig(
        n_items=35,
        k=3,
        t_grid=(8, 16, 24),
        designs=(DesignArm("ncc", LN2), DesignArm("bernoulli", LN2)),
        decoders=("comp", "dd", "scomp", "sss"),
        trials=80,
        master_seed=7,
    )
    return cfg, run_success_curve(cfg)


class TestRunSuccessCurve:

    def test_deterministic_across_runs(self, small_curve):
        cfg, curve = small_curve
        again = run_success_curve(cfg)
        assert curve.points == again.points

    def test_bookkeeping(self, small_curve):
        cfg, curve = small_curve
        assert len(curve.points) == 2 * 4 * 3
        for pt in curve.points:
            assert 0 <= pt.successes + pt.unresolved <= pt.trials == cfg.trials
            assert pt.p_hat == pt.successes / pt.trials
            assert 0.0 <= pt.ci_lo <= pt.p_hat <= pt.ci_hi <= 1.0

    def test_success_improves_with_more_tests(self, small_curve):
        _, curve = small_curve
        comp_pts = [p for p in curve.points if p.decoder == "comp" and p.design == "near_constant"]
        by_t = sorted(comp_pts, key=lambda p: p.n_tests)
        assert by_t[0].p_hat <= by_t[-1].p_hat + 0.05

    def test_csv_shape(self, small_curve):
        _, curve = small_curve
        buf = io.StringIO()
        curve.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "design,decoder,nu,N,K,T,trials,successes,unresolved,p_hat,ci_lo,ci_hi"
        assert len(lines) == 1 + len(curve.points)

    def test_counting_bound_cap_at_t_one(self):
        """(T=1, N=10, K=1): success can't beat the 0.2 counting bound by luck."""
        cfg = ExperimentConfig(
            n_items=10,
            k=1,
            t_grid=(1,),
            designs=(DesignArm("ncc", LN2),),
            decoders=("comp", "dd", "scomp", "sss"),
            trials=400,
            master_seed=3,
        )
        curve = run_success_curve(cfg)
        bound = counting_bound(10, 1, 1)
        assert abs(bound - 0.2) < 1e-12
        for pt in curve.points:
            sigma = (pt.ci_hi - pt.ci_lo) / (2 * 1.959963984540054)
            assert pt.p_hat <= bound + 3 * sigma


def lab_item_counts(arm, n_items, k, n_tests, trials, master_seed):
    """The per-item counts of `trials` lab trials of arm 0 at grid point T.

    Returns L and numpy arrays of the covered-test count and G, shape
    (trials,), and of W_{K\\i}, M_i and L_i, shape (trials, K), aligned by
    defective so that conditional laws are read off by boolean indexing.
    """
    stats = []
    for r in range(trials):
        inst = trial_instance(arm, n_items, k, n_tests, trial_seed(master_seed, 0, n_tests, r))
        stats.append(compute_item_stats(inst.design, inst.truth, inst.outcome))
    return SimpleNamespace(
        draws=arm.params(n_tests, k).draws,
        covered=np.array([st.covered_tests for st in stats]),
        intruders=np.array([st.masked_nondefectives for st in stats]),
        covered_without=np.array([st.covered_without for st in stats]),
        solo_defective=np.array([st.solo_defective_tests for st in stats]),
        solo_pd=np.array([st.solo_pd_tests for st in stats]),
    )


class TestCollectItemStats:
    """The lab's per-item counts follow the exact laws of `analysis`."""

    def test_k_one_reduces_to_plain_coupon_law(self):
        sample = lab_item_counts(DesignArm("ncc", LN2), 40, 1, 15, 4000, master_seed=11)
        assert (sample.covered_without == 0).all()
        counts = np.bincount(sample.solo_defective.ravel(), minlength=sample.draws + 1)
        probs = np.array(
            [distinct_coupon_pmf(sample.draws, 15, w) for w in range(sample.draws + 1)]
        )
        tv = 0.5 * np.abs(counts / counts.sum() - probs).sum()
        assert tv <= 0.02, tv

    def test_mean_covered_matches_expectation(self):
        sample = lab_item_counts(DesignArm("ncc", LN2), 60, 4, 25, 3000, master_seed=13)
        want = expected_distinct(4 * sample.draws, 25)
        se = sample.covered.std(ddof=1) / math.sqrt(sample.covered.size)
        assert abs(sample.covered.mean() - want) <= 3 * se + 1e-9

    def test_conditional_g_matches_binomial_law(self):
        sample = lab_item_counts(DesignArm("ncc", LN2), 50, 5, 20, 20_000, master_seed=17)
        x = int(np.bincount(sample.covered).argmax())  # most common coverage
        obs = sample.intruders[sample.covered == x]
        assert obs.size > 2000
        counts = np.bincount(obs, minlength=46)
        probs = np.array([g_conditional_pmf(g, x, 20, sample.draws, 50, 5) for g in range(46)])
        tv = 0.5 * np.abs(counts / counts.sum() - probs).sum()
        # ~4-6k conditioned samples: the 99th pct of TV under the true law is ~0.035
        assert tv <= 0.04, (x, tv)

    def test_conditional_mi_matches_pmf(self):
        sample = lab_item_counts(DesignArm("ncc", LN2), 50, 5, 20, 6000, master_seed=19)
        w = int(np.bincount(sample.covered_without.ravel()).argmax())
        obs = sample.solo_defective[sample.covered_without == w]
        assert obs.size > 500
        top = min(sample.draws, 20 - w)
        counts = np.bincount(obs, minlength=top + 1)
        probs = np.array([mi_pmf(j, w, sample.draws, 20) for j in range(top + 1)])
        tv = 0.5 * np.abs(counts / counts.sum() - probs).sum()
        assert tv <= 0.02, (w, tv)

    def test_conditional_li_zero_rate(self):
        sample = lab_item_counts(DesignArm("ncc", LN2), 30, 4, 12, 8000, master_seed=23)
        # pick the most frequent (g, w, j) cell with j >= 1
        best = None
        for w in range(13):
            for j in range(1, sample.draws + 1):
                for g in range(6):
                    match = (
                        (sample.covered_without == w)
                        & (sample.solo_defective == j)
                        & (sample.intruders[:, None] == g)
                    )
                    sel = sample.solo_pd[match]
                    zeros, total = int((sel == 0).sum()), int(sel.size)
                    if best is None or total > best[4]:
                        best = (g, w, j, zeros, total)
        g, w, j, zeros, total = best
        assert total > 300
        want = li_zero_prob(g, w, j, sample.draws)
        sigma = math.sqrt(max(want * (1 - want), 1e-12) / total)
        assert abs(zeros / total - want) <= 3 * sigma + 0.01


def _in_items(items):
    """Map positions of a design over `items` back to item indices."""
    return lambda positions: tuple(items[j] for j in positions)


def _trial_view(inst, items, node_budget):
    """What a decode reads of an instance, in item indices: the outcome, the
    truth, the PD items with their masks and rows, the per-item counts and
    every decoder's result (or SSS's incumbent and node count when it runs
    out of budget)."""
    back = _in_items(items)
    answer = inst.design.pd(inst.outcome)
    rows = inst.design.rows()
    stats = compute_item_stats(inst.design, inst.truth, inst.outcome)
    decoded = {}
    for alg in ALGORITHMS:
        try:
            res = decode(alg, inst.design, inst.outcome, node_budget)
        except UnresolvedSearchError as exc:
            decoded[alg] = ("unresolved", back(exc.best), exc.nodes)
        else:
            decoded[alg] = (back(res.estimate), back(res.pd_set), back(res.definite_defectives), res.search_nodes)
    return {
        "outcome": inst.outcome.bits,
        "truth": back(inst.truth.items),
        "pd": back(answer.items),
        "masks": (answer.masks, answer.all_positive),
        "pd_rows": [rows[j] for j in answer.items],
        "stats": replace(stats, pd_set=back(stats.pd_set)),
        "decoded": decoded,
    }


def pd_trial(kind, n_items, k, n_tests, params, seed):
    """A lab trial restricted to its PD items, and those items: a block of
    one trial."""
    block = model.PdBlock(kind, n_items, k, np.array([n_tests]), [params], np.array([seed], dtype=np.uint64))
    [trial] = block.instances()
    return trial


def assert_pd_trial_is_the_full_trial(arm, n_items, k, n_tests, seed, node_budget=DEFAULT_NODE_BUDGET):
    """The lab's PD-item trial reads exactly what the full trial reads, and
    its design's rows are the full design's rows of its items."""
    full = trial_instance(arm, n_items, k, n_tests, seed)
    reduced = pd_trial(arm.kind, n_items, k, n_tests, arm.params(n_tests, k), seed)
    return full, assert_reduces(full, *reduced, node_budget)


def assert_reduces(full, reduced, items, node_budget=DEFAULT_NODE_BUDGET):
    """`reduced` over `items` is `full` restricted to its PD items; returns
    what a decode reads of them."""
    assert list(items) == sorted(set(items))
    # it carries its PD answer, built with it, which a fresh PD pass repeats
    kept_bits, kept = reduced.design._pd
    assert kept_bits == reduced.outcome.bits
    fresh = model.possible_defectives(reduced.design, reduced.outcome)
    assert kept == fresh and kept.solo == fresh.solo and kept.explains
    assert reduced.design.rows() == [full.design.rows()[i] for i in items]
    want = _trial_view(full, range(full.design.n_items), node_budget)
    assert _trial_view(reduced, items, node_budget) == want
    # the items are the PD items, or item 0 alone when there are none
    assert items == (want["pd"] or (0,))
    return want


KINDS = ("ncc", "bernoulli", "ccw")


class TestPdTrial:
    """A block of one lab trial, the instance the lab decodes, against `trial_instance`."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_tests", [1, 8, 25, 60, 300])
    def test_matches_the_full_trial(self, kind, n_tests):
        for r in range(12):
            seed = trial_seed(5, 0, n_tests, r)
            assert_pd_trial_is_the_full_trial(DesignArm(kind, LN2), 120, 4, n_tests, seed)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("step", [1, 3])
    def test_every_cell_is_read(self, kind, step, monkeypatch):
        """Elimination blocks of 1 or 3 cells, doubling: many blocks per
        item, none of which may skip or repeat a cell."""
        monkeypatch.setattr(model, "_DROP_STEP", step)
        for r in range(12):
            seed = trial_seed(7, 0, 40, r)
            assert_pd_trial_is_the_full_trial(DesignArm(kind, 0.4), 80, 3, 40, seed)

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_defectives(self, kind):
        """K = 0: every test is negative; the PD items are the empty rows, and
        with none the design holds item 0 alone, which the PD step drops."""
        pads = 0
        for r in range(40):
            _, view = assert_pd_trial_is_the_full_trial(DesignArm(kind, 0.5), 6, 0, 3, trial_seed(1, 0, 3, r))
            pads += not view["pd"]
        assert pads > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_positive_outcomes(self, kind):
        """No negative test: every item is a PD item."""
        seen = 0
        for r in range(30):
            _, view = assert_pd_trial_is_the_full_trial(DesignArm(kind, 3.0), 14, 6, 4, trial_seed(2, 0, 4, r))
            seen += all(view["outcome"])
        assert seen > 0

    def test_empty_bernoulli_rows(self):
        """p = 0.05 over 4 tests: most rows are empty, so they are PD items."""
        empty = 0
        for r in range(30):
            full, _ = assert_pd_trial_is_the_full_trial(DesignArm("bernoulli", 0.1), 30, 2, 4, trial_seed(3, 0, 4, r))
            empty += sum(not row for row in full.design.rows())
        assert empty > 0

    def test_sss_out_of_budget(self):
        """A budget of 3 nodes: the unresolved searches keep their incumbent
        and node count."""
        unresolved = 0
        for r in range(30):
            seed = trial_seed(4, 0, 12, r)
            _, view = assert_pd_trial_is_the_full_trial(DesignArm("ncc", LN2), 60, 5, 12, seed, node_budget=3)
            unresolved += view["decoded"]["sss"][0] == "unresolved"
        assert unresolved > 0

    def test_near_constant_row_beyond_one_block(self):
        """L = _GEN_BLOCK + 5 draws per item: the rows are drawn in blocks and
        the elimination's step doubles up to its longest pass."""
        draws = model._GEN_BLOCK + 5
        params = model.DesignParams(draws=draws)
        for seed in range(3):
            truth = model.sample_defective_set(4, 1, seed)
            full = model.generate_design("near_constant", 4, 3, seed, params)
            reduced, items = pd_trial("near_constant", 4, truth.k, 3, params, seed)
            outcome = run_tests(full, truth)
            assert reduced.outcome == outcome
            assert items == full.pd(outcome).items
            assert reduced.design.rows() == [full.rows()[i] for i in items]

    @pytest.mark.parametrize(
        "kind,n_tests",
        [pytest.param(kind, 40, id=kind) for kind in KINDS]
        + [pytest.param(kind, 300, id=f"{kind}-300") for kind in ("bernoulli", "ncc")],
    )
    def test_blocks_stay_within_the_generation_block(self, kind, n_tests, monkeypatch):
        """With blocks of 64 cells, every draw of the PD trial (rows and
        elimination alike) holds at most 64 cells, and the trial still
        matches the full one, drawn in the same blocks. At T = 300 a
        Bernoulli row holds 300 cells and a near-constant one 69 draws, each
        drawn in column blocks. (An exact-constant row of 69 draws cannot
        be drawn in 64.)"""
        monkeypatch.setattr(model, "_GEN_BLOCK", 64)
        sizes = []
        for name in ("_bernoulli_cells", "_near_constant_draws"):
            real = getattr(model, name)

            def counted(keys, counters, param, real=real):
                sizes.append(np.broadcast(keys, counters, param).size)
                return real(keys, counters, param)

            monkeypatch.setattr(model, name, counted)
        real_rows = model._exact_constant_rows

        def counted_rows(keys, n_tests, draws):
            sizes.append(np.broadcast_to(draws, keys.shape).sum())
            return real_rows(keys, n_tests, draws)

        monkeypatch.setattr(model, "_exact_constant_rows", counted_rows)
        for r in range(6):
            assert_pd_trial_is_the_full_trial(DesignArm(kind, LN2), 90, 3, n_tests, trial_seed(6, 0, n_tests, r))
        assert sizes and max(sizes) <= 64

    @given(
        kind=st.sampled_from(KINDS),
        n_items=st.integers(1, 40),
        k=st.integers(0, 6),
        n_tests=st.integers(1, 30),
        nu=st.floats(0.05, 4.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_random_small_configs(self, kind, n_items, k, n_tests, nu, seed):
        arm = DesignArm(kind, nu)
        assert_pd_trial_is_the_full_trial(arm, n_items, min(k, n_items), n_tests, seed, node_budget=50)

    def test_the_lab_decodes_the_pd_trial(self, monkeypatch):
        """run_success_curve builds no full design."""
        def refuse(*args, **kwargs):
            raise AssertionError("the lab built a full design")

        monkeypatch.setattr(model, "generate_design", refuse)
        cfg = ExperimentConfig(
            n_items=40, k=3, t_grid=(6, 12), designs=tuple((kind, LN2) for kind in KINDS),
            decoders=ALGORITHMS, trials=5, master_seed=1,
        )
        run_success_curve(cfg)


class TestTrialBlocks:
    """Blocks of lab trials (`model.PdBlock`) and the COMP and DD counts
    the lab reads from them."""

    @staticmethod
    def _block(arm, k=3):
        """A block of `arm`'s trials across five grid points, T = 1
        included, N = 50: the block and each trial's T and seed."""
        cells = [(t, r) for t in (1, 5, 9, 17, 33) for r in range(4)]
        n_tests = [t for t, _ in cells]
        seeds = [trial_seed(8, 0, t, r) for t, r in cells]
        params = [arm.params(t, k) for t in n_tests]
        block = model.PdBlock(arm.kind, 50, k, np.array(n_tests), params, np.array(seeds, dtype=np.uint64))
        return block, n_tests, seeds

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_trial_of_a_block_is_its_full_trial(self, kind):
        """One block across five grid points, T = 1 included: each trial's
        instance reduces its full trial, and its COMP and DD successes are
        G = 0 and min L_i > 0 of the full trial's counts."""
        arm = DesignArm(kind, LN2)
        block, n_tests, seeds = self._block(arm)
        assert len(block) == len(n_tests)
        trials = block.instances()
        assert len(trials) == len(block)
        for b, (t, seed) in enumerate(zip(n_tests, seeds)):
            full = trial_instance(arm, 50, 3, t, seed)
            assert_reduces(full, *trials[b])
            stats = compute_item_stats(full.design, full.truth, full.outcome)
            assert block.comp_exact[b] == (stats.masked_nondefectives == 0)
            assert block.dd_exact[b] == all(stats.solo_pd_tests)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [0, 3])
    def test_a_block_draws_its_pd_rows_in_one_pass(self, kind, k, monkeypatch):
        """`instances` draws the PD rows of every trial, across grid points,
        with one `_csr_rows` call."""
        block = self._block(DesignArm(kind, LN2), k)[0]
        calls = []
        real = model._csr_rows
        monkeypatch.setattr(model, "_csr_rows", lambda *args: calls.append(args[1].shape[0]) or real(*args))
        trials = block.instances()
        assert calls == [sum(len(items) for _, items in trials)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_instances_carry_their_pd_answers(self, kind, monkeypatch):
        """Every decoder runs on a block's instances with no PD pass of its
        own: each design carries the answer `block_instances` gave it."""

        def refuse(*args):
            raise AssertionError("a decoder ran its own PD pass")

        block = self._block(DesignArm(kind, LN2))[0]
        monkeypatch.setattr(model, "possible_defectives", refuse)
        for inst, _ in block.instances():
            for alg in ALGORITHMS:
                try:
                    decode(alg, inst.design, inst.outcome, DEFAULT_NODE_BUDGET)
                except UnresolvedSearchError:
                    pass

    @pytest.mark.parametrize("trials", [1, 7])
    def test_blocks_across_grid_points(self, trials, monkeypatch):
        """Blocks of 4 trials (``_GEN_BLOCK`` = 256, N = 60), across grid
        points: the counts are those of whole-arm blocks, and no hashed array
        holds more than 256 words."""
        cfg = ExperimentConfig(
            n_items=60, k=4, t_grid=(3, 6, 10, 14, 18, 24, 30, 40),
            designs=tuple((kind, LN2) for kind in KINDS), decoders=("comp", "dd"),
            trials=trials, master_seed=12,
        )
        whole = run_success_curve(cfg)
        monkeypatch.setattr(model, "_GEN_BLOCK", 256)
        points = []

        class Recorded(model.PdBlock):
            def __init__(self, *args):
                super().__init__(*args)
                points.append(len(set(self.n_tests.tolist())))

        monkeypatch.setattr(model, "PdBlock", Recorded)
        sizes = []
        real_finalize = rng._finalize_np
        monkeypatch.setattr(rng, "_finalize_np", lambda z: sizes.append(z.size) or real_finalize(z))
        assert run_success_curve(cfg).points == whole.points
        assert max(sizes) <= 256
        assert max(points) > 1

    def test_an_arm_is_walked_one_block_at_a_time(self, monkeypatch):
        """With 10^14 trials per point the lab reaches its first block
        having allocated about one block's arrays, none for the whole arm."""

        class FirstBlock(Exception):
            pass

        def stop(*args):
            raise FirstBlock

        monkeypatch.setattr(model, "PdBlock", stop)
        cfg = ExperimentConfig(
            n_items=20, k=2, t_grid=(4, 8), designs=(("ncc", LN2),), decoders=("comp", "dd"),
            trials=10**14, master_seed=1,
        )
        tracemalloc.start()
        try:
            with pytest.raises(FirstBlock):
                run_success_curve(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
