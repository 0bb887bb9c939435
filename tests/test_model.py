"""Designs, defective sets, outcomes, and per-item counts."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grouptest import model, rng
from grouptest import (
    DefectiveSet,
    DesignParams,
    OutcomeVector,
    PossibleDefectives,
    TestDesign,
    compute_item_stats,
    design_from_json,
    design_to_json,
    distinct_coupon_pmf,
    expected_distinct,
    gen_bernoulli,
    gen_exact_constant,
    gen_near_constant,
    generate_design,
    params_from_nu,
    possible_defectives,
    regenerate_design,
    run_tests,
    sample_defective_set,
)
from grouptest.model import (
    KIND_BERNOULLI,
    KIND_EXACT_CONSTANT,
    KIND_NEAR_CONSTANT,
    MAX_ENTRIES,
)
from grouptest.verify import fuzz_instance

LN2 = math.log(2)


class TestSampleDefectiveSet:
    def test_k_zero_is_empty(self):
        for seed in (0, 1, 99):
            assert sample_defective_set(5, 0, seed).items == ()

    def test_k_equals_n_is_everything(self):
        for seed in (0, 7):
            assert sample_defective_set(3, 3, seed).items == (0, 1, 2)

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            sample_defective_set(4, 5, 0)

    @pytest.mark.parametrize(
        "n_items,k",
        # a float size gave float items ((2.0, 4.0) for 5.5, 2); True read as 1
        [(4, 5), (4, -1), (-1, 0), (5.5, 2), (5, 2.0), (5, 1.0), (True, 1), (3, True), (3, None)],
    )
    def test_rejects_a_bad_size(self, n_items, k):
        with pytest.raises(ValueError, match="need integers 0 <= k <= n_items"):
            sample_defective_set(n_items, k, 0)

    def test_numpy_sizes_give_python_items(self):
        items = sample_defective_set(np.int64(9), np.uint8(3), 4).items
        assert items == sample_defective_set(9, 3, 4).items
        assert all(type(i) is int for i in items)

    def test_deterministic(self):
        assert sample_defective_set(100, 10, 42) == sample_defective_set(100, 10, 42)

    def test_singleton_uniformity(self):
        """N=4, K=1 over 10^5 seeds: each singleton frequency 0.25 +/- 0.01."""
        counts = [0, 0, 0, 0]
        n_draws = 100_000
        for seed in range(n_draws):
            counts[sample_defective_set(4, 1, seed).items[0]] += 1
        for c in counts:
            assert abs(c / n_draws - 0.25) < 0.01

    def test_pair_uniformity(self):
        """All C(5,2)=10 pairs equally likely across 50k seeds."""
        from collections import Counter

        freq = Counter(sample_defective_set(5, 2, seed).items for seed in range(50_000))
        assert len(freq) == 10
        for pair, c in freq.items():
            assert abs(c / 50_000 - 0.1) < 0.01, pair


class TestGenBernoulli:
    def test_near_one_probability_fills_column(self):
        d = gen_bernoulli(1, 10, 1 - 1e-12, seed=3)
        assert d.rows()[0] == list(range(10))

    def test_cell_density(self):
        """N=T=100, p=0.5: mean density 0.5 +/- 0.02 over the 10^4 cells."""
        d = gen_bernoulli(100, 100, 0.5, seed=11)
        density = sum(len(c) for c in d.rows()) / 10_000
        assert abs(density - 0.5) < 0.02

    def test_determinism(self):
        assert gen_bernoulli(2, 3, 0.5, seed=9) == gen_bernoulli(2, 3, 0.5, seed=9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_degenerate_p(self, p):
        with pytest.raises(ValueError):
            gen_bernoulli(3, 3, p, seed=0)

    def test_cells_are_the_scalar_stream_below_p(self):
        d = gen_bernoulli(30, 40, 0.2, seed=17)
        for i, row in enumerate(d.rows()):
            key = rng.mix64(17, 1, i)  # stream tag 1: Bernoulli columns
            assert row == [t for t in range(40) if rng.unit_at(key, t) < 0.2]

    @pytest.mark.parametrize("block", [1, 29, 100, 29 * 37])
    def test_generation_blocks_do_not_change_the_design(self, monkeypatch, block):
        whole = gen_bernoulli(37, 29, 0.3, seed=6)
        monkeypatch.setattr(model, "_GEN_BLOCK", block)
        assert gen_bernoulli(37, 29, 0.3, seed=6) == whole

    def test_long_rows_are_drawn_in_column_blocks(self, monkeypatch):
        """Rows of 300 cells, with blocks of 64 cells: no draw holds more
        than 64 cells, and the rows do not change."""
        whole = gen_bernoulli(5, 300, 0.1, seed=4)
        monkeypatch.setattr(model, "_GEN_BLOCK", 64)
        sizes = []
        real = model._bernoulli_cells

        def counted(keys, tests, p):
            sizes.append(np.broadcast(keys, tests, p).size)
            return real(keys, tests, p)

        monkeypatch.setattr(model, "_bernoulli_cells", counted)
        assert gen_bernoulli(5, 300, 0.1, seed=4).rows() == whole.rows()
        assert sizes and max(sizes) <= 64


class TestGenNearConstant:
    def test_single_test_collapses(self):
        d = gen_near_constant(3, 1, 5, seed=4)
        assert d.rows() == [[0], [0], [0]]

    def test_weight_bounds(self):
        d = gen_near_constant(500, 20, 5, seed=2)
        assert all(1 <= len(c) <= 5 for c in d.rows())

    def test_full_weight_fraction_matches_birthday_product(self):
        """P(all 5 draws distinct among 20) = 20*19*18*17*16 / 20^5 = 0.5814."""
        d = gen_near_constant(10_000, 20, 5, seed=8)
        frac = sum(1 for c in d.rows() if len(c) == 5) / 10_000
        want = 20 * 19 * 18 * 17 * 16 / 20**5
        assert abs(frac - want) < 0.015

    def test_mean_distinct_weight(self):
        """E[distinct] = 100 (1 - (1 - 1/100)^3) = 2.9701."""
        d = gen_near_constant(10_000, 100, 3, seed=13)
        mean = sum(len(c) for c in d.rows()) / 10_000
        assert abs(mean - 2.9701) < 0.01

    def test_weight_pmf_total_variation(self):
        """Empirical column-weight pmf vs the exact distinct-coupon law, TV <= 0.01."""
        n_cols, n_tests, draws = 100_000, 12, 6
        d = gen_near_constant(n_cols, n_tests, draws, seed=21)
        counts = np.bincount([len(c) for c in d.rows()], minlength=draws + 1)
        probs = np.array(
            [distinct_coupon_pmf(draws, n_tests, w) for w in range(draws + 1)]
        )
        tv = 0.5 * float(np.abs(counts / n_cols - probs).sum())
        assert tv <= 0.01, tv

    def test_rows_are_the_sorted_distinct_scalar_draws(self):
        d = gen_near_constant(30, 12, 9, seed=17)
        for i, row in enumerate(d.rows()):
            key = rng.mix64(17, 2, i)  # stream tag 2: near-constant columns
            assert row == sorted({rng.bounded_at(key, c, 12) for c in range(9)})

    @pytest.mark.parametrize("block", [9, 30, 64])
    def test_row_blocks_do_not_change_the_design(self, monkeypatch, block):
        whole = gen_near_constant(41, 50, 9, seed=3)
        monkeypatch.setattr(model, "_GEN_BLOCK", block)
        assert gen_near_constant(41, 50, 9, seed=3) == whole

    def test_column_blocks_merge_into_the_distinct_set(self, monkeypatch):
        """Rows of 30 draws over 500 tests, drawn 8 at a time, never fill up."""
        whole = gen_near_constant(20, 500, 30, seed=5)
        monkeypatch.setattr(model, "_GEN_BLOCK", 8)
        assert gen_near_constant(20, 500, 30, seed=5) == whole

    def test_a_full_row_stops_drawing(self, monkeypatch):
        whole = gen_near_constant(6, 3, 400, seed=5)
        assert whole.rows() == [[0, 1, 2]] * 6
        drawn = []
        bounded_np = rng.bounded_np

        def spy(keys, counters, bound):
            drawn.append(np.size(counters))
            return bounded_np(keys, counters, bound)

        monkeypatch.setattr(model, "_GEN_BLOCK", 16)
        monkeypatch.setattr(rng, "bounded_np", spy)
        assert gen_near_constant(6, 3, 400, seed=5) == whole
        # 16 draws over 3 tests miss one with probability below 3 (2/3)^16
        assert sum(drawn) < 6 * 400 // 4

    def test_rejects_zero_draws_or_tests(self):
        with pytest.raises(ValueError):
            gen_near_constant(3, 5, 0, seed=0)
        with pytest.raises(ValueError):
            gen_near_constant(3, 0, 2, seed=0)


class TestGenExactConstant:
    def test_full_column_when_draws_equal_tests(self):
        d = gen_exact_constant(5, 4, 4, seed=5)
        assert all(c == [0, 1, 2, 3] for c in d.rows())

    def test_every_column_weighs_exactly_l(self):
        d = gen_exact_constant(200, 9, 4, seed=6)
        assert all(len(c) == 4 for c in d.rows())

    def test_pair_uniformity_chi_square(self):
        """T=6, L=2: each of the C(6,2)=15 pairs has frequency 1/15 +/- 0.01."""
        from collections import Counter

        d = gen_exact_constant(10_000, 6, 2, seed=14)
        freq = Counter(map(tuple, d.rows()))
        assert len(freq) == 15
        for pair, c in freq.items():
            assert abs(c / 10_000 - 1 / 15) < 0.01, pair

    def test_rejects_draws_above_tests(self):
        with pytest.raises(ValueError):
            gen_exact_constant(3, 4, 5, seed=0)

    @pytest.mark.parametrize("block", [1, 7, 37 * 7])
    def test_generation_blocks_do_not_change_the_design(self, monkeypatch, block):
        """A block of one draw and one of a row's 7 both hold one item; 37 * 7
        draws hold all 37 items."""
        whole = gen_exact_constant(37, 29, 7, seed=6)
        monkeypatch.setattr(model, "_GEN_BLOCK", block)
        d = gen_exact_constant(37, 29, 7, seed=6)
        assert d == whole and d.rows() == _ref_exact_constant(37, 29, 7, 6)

    def test_tests_beyond_a_generation_block(self):
        """T = 2**62 holds no permutation array: the rows are the scalar
        Fisher-Yates places."""
        d = gen_exact_constant(3, 2**62, 4, seed=8)
        assert d.indices.dtype == np.uint64
        assert d.rows() == _ref_exact_constant(3, 2**62, 4, 8)

    def test_memory_stays_near_the_index_arrays(self):
        """8 * 10^4 entries over T=1000 take 160 kB as uint16 indices. A block
        holds at most 2^16 draws, so the traced peak stays below 2 MB; a list
        of all N*L entries as Python ints peaked at 2.7 MB."""
        tracemalloc.start()
        try:
            d = gen_exact_constant(1600, 1000, 50, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.indices.shape == (80_000,) and d.indices.dtype == np.uint16
        assert peak < 2 << 20, peak


class TestBlockDraws:
    """The block draws equal their one-at-a-time definitions."""

    def test_uniform_subsets_with_n_and_k_per_key(self):
        cases = [(1, 0), (1, 1), (5, 0), (5, 5), (7, 3), (50, 8), (2**62, 4), (3, 1)]
        n = np.array([c[0] for c in cases])
        k = np.array([c[1] for c in cases])
        keys = rng.mix64_np(3, np.arange(len(cases), dtype=np.uint64))
        want = [model._uniform_subset(key, a, b) for key, (a, b) in zip(keys.tolist(), cases)]
        assert model._uniform_subsets(keys, n, k).tolist() == [v for row in want for v in row]

    @pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (6, 6), (500, 10), (2**63, 3)])
    def test_uniform_subsets_with_one_n_and_k(self, n, k):
        """Every key shares n and k, given per key (n = 2**63 as uint64)."""
        keys = rng.mix64_np(4, np.arange(20, dtype=np.uint64))
        got = model._uniform_subsets(keys, np.full(20, n, dtype=np.uint64), np.full(20, k))
        assert got.shape == (20 * k,)
        assert got.tolist() == [v for key in keys.tolist() for v in model._uniform_subset(key, n, k)]

    # blocks of (kind, N, T, p or L, seed): one of each kind alone, and a
    # mixed block, the kinds interleaved, with N = 1 and T = 1, index types
    # from uint8 to uint32, and designs of one kind that share T and the
    # parameter (the exact-constant ones) beside ones that do not
    DESIGN_BLOCKS = {
        KIND_BERNOULLI: [
            (KIND_BERNOULLI, 1, 1, 0.5, 0), (KIND_BERNOULLI, 7, 9, 0.05, 5),
            (KIND_BERNOULLI, 40, 300, 0.3, 2**64 - 1), (KIND_BERNOULLI, 3, 5, 1 - 2**-40, 5),
        ],
        KIND_NEAR_CONSTANT: [
            (KIND_NEAR_CONSTANT, 1, 1, 1, 0), (KIND_NEAR_CONSTANT, 7, 9, 9, 5),
            (KIND_NEAR_CONSTANT, 40, 300, 17, 2**64 - 1), (KIND_NEAR_CONSTANT, 3, 5, 2, 5),
        ],
        KIND_EXACT_CONSTANT: [
            (KIND_EXACT_CONSTANT, 1, 1, 1, 0), (KIND_EXACT_CONSTANT, 7, 9, 9, 5),
            (KIND_EXACT_CONSTANT, 40, 300, 17, 2**64 - 1), (KIND_EXACT_CONSTANT, 3, 5, 2, 5),
        ],
        "mixed": [
            (KIND_NEAR_CONSTANT, 1, 1, 1, 0),
            (KIND_EXACT_CONSTANT, 40, 300, 17, 2**64 - 1),
            (KIND_BERNOULLI, 7, 9, 0.05, 5),
            (KIND_NEAR_CONSTANT, 6, 20, 3, 5),
            (KIND_EXACT_CONSTANT, 1, 300, 17, 3),
            (KIND_BERNOULLI, 2, 70_000, 1e-4, 9),
            (KIND_NEAR_CONSTANT, 4, 20, 9, 7),
            (KIND_BERNOULLI, 1, 1, 1 - 2**-40, 0),
            (KIND_EXACT_CONSTANT, 5, 300, 17, 3),
            (KIND_BERNOULLI, 3, 9, 0.05, 6),
        ],
        # weight designs of one kind, one of T = 2**63 beside a small T
        "largest T": [
            (KIND_NEAR_CONSTANT, 3, 5, 3, 1), (KIND_NEAR_CONSTANT, 2, 2**63, 3, 2),
            (KIND_EXACT_CONSTANT, 3, 7, 3, 3), (KIND_EXACT_CONSTANT, 2, 2**63, 3, 4),
        ],
    }

    @staticmethod
    def _params(kind, param):
        return DesignParams(p=param) if kind == KIND_BERNOULLI else DesignParams(draws=param)

    @pytest.mark.parametrize("block", DESIGN_BLOCKS)
    def test_generate_designs_are_generate_design_s(self, block):
        kinds, n_items, n_tests, param, seeds = zip(*self.DESIGN_BLOCKS[block])
        params = list(map(self._params, kinds, param))
        got = model.generate_designs(kinds, n_items, n_tests, params, seeds)
        want = list(map(generate_design, kinds, n_items, n_tests, seeds, params))
        assert got == want
        assert [d.indices.dtype for d in got] == [d.indices.dtype for d in want]
        if block == "mixed":
            assert {d.indices.dtype.type for d in got} == {np.uint8, np.uint16, np.uint32}

    def test_generate_designs_refuse_before_any_draw(self):
        with pytest.raises(ValueError, match="draws must not exceed"):
            model.generate_designs(
                [KIND_NEAR_CONSTANT, KIND_EXACT_CONSTANT], [4, 4], [5, 3],
                [DesignParams(draws=3), DesignParams(draws=4)], [1, 2],
            )
        with pytest.raises(ValueError, match="one kind, N, T"):
            model.generate_designs([KIND_BERNOULLI], [4, 4], [5, 3], [DesignParams(p=0.5)] * 2, [1, 2])

    def test_sample_defective_sets_are_sample_defective_set_s(self):
        n_items = np.array([1, 1, 9, 50, 2**62])
        k = np.array([0, 1, 9, 8, 3])
        seeds = np.array([3, 0, 2**64 - 1, 7, 11], dtype=np.uint64)
        got = model.sample_defective_sets(n_items, k, seeds)
        assert got == [sample_defective_set(*args) for args in zip(n_items.tolist(), k.tolist(), seeds.tolist())]
        with pytest.raises(ValueError):
            model.sample_defective_sets(np.array([3]), np.array([4]), np.array([1], dtype=np.uint64))

    # a block of two designs, T = 10 and T = 5, three items each; the second
    # design's arrays carry one fault of each kind `from_csr` refuses
    BLOCK_FAULTS = {
        "unsorted row": ([0, 1, 2, 3, 5, 6, 7], [0, 4, 9, 3, 1, 2, 3], "strictly sorted"),
        "repeated index": ([0, 1, 2, 3, 5, 6, 7], [0, 4, 9, 1, 1, 2, 3], "strictly sorted"),
        "index at its own T": ([0, 1, 2, 3, 5, 6, 7], [0, 4, 9, 1, 2, 7, 3], "out of range"),
        "pointers stop short": ([0, 1, 2, 3, 5, 6, 6], [0, 4, 9, 1, 2, 3, 4], "rise from 0"),
    }

    @pytest.mark.parametrize("fault", BLOCK_FAULTS)
    def test_generate_designs_refuse_what_from_csr_refuses(self, monkeypatch, fault):
        indptr, indices, message = self.BLOCK_FAULTS[fault]
        indptr, indices = np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.uint8)
        monkeypatch.setattr(model, "_csr_rows", lambda *args: (indptr, indices))
        with pytest.raises(ValueError, match=message):
            model.generate_designs(
                [KIND_NEAR_CONSTANT] * 2, [3, 3], [10, 5], [DesignParams(draws=2), DesignParams(draws=2)], [1, 2]
            )
        with pytest.raises(ValueError, match=message):
            TestDesign.from_csr(KIND_NEAR_CONSTANT, 3, 5, DesignParams(draws=2), 2, indptr[3:] - 3, indices[3:])

    def test_generate_designs_check_params_once_per_design(self, monkeypatch):
        """`generate_designs`, `generate_design` and each `gen_*` check a
        design's parameters once."""
        calls = []
        checked_params = model._checked_params

        def counted(*args, **kwargs):
            calls.append(args[:3])
            return checked_params(*args, **kwargs)

        monkeypatch.setattr(model, "_checked_params", counted)
        model.generate_designs(
            [KIND_BERNOULLI, KIND_EXACT_CONSTANT, KIND_BERNOULLI], [4, 2, 9], [3, 8, 1],
            [DesignParams(p=0.5), DesignParams(draws=2), DesignParams(p=0.5)], [1, 2, 3],
        )
        assert calls == [(KIND_BERNOULLI, 4, 3), (KIND_EXACT_CONSTANT, 2, 8), (KIND_BERNOULLI, 9, 1)]
        calls.clear()
        generate_design(KIND_NEAR_CONSTANT, 5, 6, 1, DesignParams(draws=2))
        gen_bernoulli(6, 7, 0.5, 1)
        gen_near_constant(7, 8, 2, 1)
        gen_exact_constant(8, 9, 2, 1)
        assert calls == [
            (KIND_NEAR_CONSTANT, 5, 6), (KIND_BERNOULLI, 6, 7),
            (KIND_NEAR_CONSTANT, 7, 8), (KIND_EXACT_CONSTANT, 8, 9),
        ]

    @staticmethod
    def _assert_answers_are_their_own(insts):
        """Each instance's outcome and kept PD answer are those of a fresh
        `from_csr` copy of its design, every mask ranked among the design's
        own positive tests."""
        for inst in insts:
            d = inst.design
            copy = TestDesign.from_csr(d.kind, d.n_items, d.n_tests, d.params, d.seed, d.indptr, d.indices)
            assert inst.outcome == run_tests(copy, inst.truth)
            want = possible_defectives(copy, inst.outcome)
            answer = d.pd(inst.outcome)
            assert (answer, answer.solo, answer.explains) == (want, want.solo, want.explains)
            # bit b of a mask is the b-th positive test of its own design
            positive = [t for t, bit in enumerate(inst.outcome.bits) if bit]
            rows = d.rows()
            assert answer.masks == tuple(sum(1 << positive.index(t) for t in rows[i]) for i in answer.items)

    def test_block_instances_are_run_tests_and_possible_defectives(self):
        """Outcomes and PD answers of a block equal those of each design on
        its own: rows empty first, in the middle and last; a design with no
        entries; K = 0; every test positive; T = 1 and N = 2; and designs of
        different T and index types, each ranked among its own tests."""
        block = [
            (TestDesign(KIND_BERNOULLI, 5, 3, DesignParams(p=0.5), 0, ([], [0, 2], [], [1], [])), (1,)),
            (TestDesign(KIND_BERNOULLI, 3, 4, DesignParams(), 1, ([], [], [])), (0, 2)),
            (TestDesign(KIND_NEAR_CONSTANT, 3, 6, DesignParams(draws=2), 2, ([0, 5], [1, 2], [3])), ()),
            (TestDesign(KIND_EXACT_CONSTANT, 3, 4, DesignParams(draws=2), 3, ([0, 1], [2, 3], [1, 2])), (0, 1)),
            (TestDesign(KIND_NEAR_CONSTANT, 2, 1, DesignParams(draws=1), 4, ([0], [])), (0,)),
            (gen_near_constant(20, 300, 5, seed=3), sample_defective_set(20, 3, 1).items),
            (gen_bernoulli(9, 17, 0.4, seed=5), (2, 8)),
        ]
        designs = [d for d, _ in block]
        truths = [DefectiveSet(items) for _, items in block]
        got = model.block_instances(designs, truths)
        assert [(inst.design, inst.truth) for inst in got] == list(zip(designs, truths))
        assert all(inst.design is d for inst, d in zip(got, designs))
        outcomes = [inst.outcome.bits for inst in got]
        assert not any(outcomes[2]) and all(outcomes[3]) and outcomes[4] == (True,)
        self._assert_answers_are_their_own(got)
        assert [d.pd(inst.outcome).items for d, inst in zip(designs[:5], got)] == [
            (0, 1, 2, 4), (0, 1, 2), (), (0, 1, 2), (0, 1),
        ]
        assert model.block_instances([], []) == []
        with pytest.raises(ValueError, match="one defective set"):
            model.block_instances(designs, truths[1:])
        with pytest.raises(ValueError, match="out of range"):
            model.block_instances(designs[:2], [DefectiveSet((1,)), DefectiveSet((3,))])

    def test_block_instances_take_designs_of_any_origin(self):
        """Designs of two `generate_designs` calls of the same shapes
        (near-constant, N = 6, T = 8, L = 3), interleaved with hand-built and
        generated designs of other kinds, answered in one call: each answer
        is that of its own design."""
        shapes = ([KIND_NEAR_CONSTANT] * 2, [6, 6], [8, 8], [DesignParams(draws=3)] * 2)
        a = model.generate_designs(*shapes, [1, 2])
        b = model.generate_designs(*shapes, [3, 4])
        hand = TestDesign(KIND_EXACT_CONSTANT, 3, 4, DesignParams(draws=2), 3, ([0, 1], [2, 3], [1, 2]))
        designs = [b[1], hand, a[0], gen_bernoulli(9, 300, 0.02, seed=5), a[1], b[0]]
        truths = [DefectiveSet(items) for items in [(0, 4), (2,), (1, 5), (3, 8), (), (0, 1, 2)]]
        got = model.block_instances(designs, truths)
        assert [(inst.design, inst.truth) for inst in got] == list(zip(designs, truths))
        self._assert_answers_are_their_own(got)


# -- the CSR representation against per-item loops -----------------------------
# Stream tags 1, 2 and 3 key the Bernoulli, near-constant and exact-constant
# columns of a seed.


def _ref_bernoulli(n, t, p, seed):
    return [
        [c for c in range(t) if rng.unit_at(rng.mix64(seed, 1, i), c) < p] for i in range(n)
    ]


def _ref_near_constant(n, t, draws, seed):
    return [
        sorted({rng.bounded_at(rng.mix64(seed, 2, i), r, t) for r in range(draws)})
        for i in range(n)
    ]


def _ref_exact_constant(n, t, draws, seed):
    columns = []
    for i in range(n):
        key = rng.mix64(seed, 3, i)
        perm: dict[int, int] = {}
        chosen = []
        for r in range(draws):
            j = r + rng.bounded_at(key, r, t - r)
            vr, vj = perm.get(r, r), perm.get(j, j)
            perm[r], perm[j] = vj, vr
            chosen.append(vj)
        columns.append(sorted(chosen))
    return columns


def _ref_masks(columns):
    masks = []
    for col in columns:
        m = 0
        for t in col:
            m |= 1 << t
        masks.append(m)
    return tuple(masks)


class TestCsrDesigns:
    """Generators, views and outcomes equal their per-item scalar definitions."""

    @pytest.mark.parametrize("n,t", [(1, 1), (7, 9), (40, 64), (60, 65), (30, 300)])
    def test_generators_match_scalar_streams(self, n, t):
        for seed in (0, 12345):
            assert gen_bernoulli(n, t, 0.3, seed).rows() == _ref_bernoulli(n, t, 0.3, seed)
            draws = min(5, t)
            assert gen_near_constant(n, t, draws, seed).rows() == _ref_near_constant(
                n, t, draws, seed
            )
            assert gen_exact_constant(n, t, draws, seed).rows() == _ref_exact_constant(
                n, t, draws, seed
            )

    @pytest.mark.parametrize("t", [1, 8, 9, 63, 64, 65, 400, 2000])
    def test_item_masks_match_shift_loop(self, t):
        """The PD items and their masks over the positive tests, against a
        shift loop over ``rows()``, on a design with empty columns."""
        rows = gen_near_constant(1200, t, min(6, t), seed=t).rows()
        for i in range(0, 1200, 7):
            rows[i] = []
        d = TestDesign("near_constant", 1200, t, DesignParams(draws=min(6, t)), t, rows)
        truth = sample_defective_set(1200, 3, t)
        for y in (run_tests(d, truth), OutcomeVector(tuple(c % 3 > 0 for c in range(t)))):
            bit_of_test = {c: b for b, c in enumerate(c for c in range(t) if y.bits[c])}
            pd = [i for i, row in enumerate(rows) if all(y.bits[c] for c in row)]
            masks = []
            for i in pd:
                m = 0
                for c in rows[i]:
                    m |= 1 << bit_of_test[c]
                masks.append(m)
            want = PossibleDefectives(tuple(pd), tuple(masks), (1 << len(bit_of_test)) - 1)
            assert possible_defectives(d, y) == want

    def test_item_masks_with_empty_columns(self):
        # an empty column is a PD item with no test; bits 0, 1, 2 are tests 0, 3, 9
        d = TestDesign("bernoulli", 4, 10, DesignParams(p=0.5), 0, ((), (9,), (), (0, 3)))
        y = OutcomeVector(tuple(c in (0, 3, 9) for c in range(10)))
        assert possible_defectives(d, y) == PossibleDefectives((0, 1, 2, 3), (0, 0b100, 0, 0b11), 0b111)

    @pytest.mark.parametrize(
        "rows",
        [
            ((), (), (1,), (0, 2)),  # empty rows first
            ((0,), (), (), (1, 2), ()),  # in the middle and at the end
            ((2,), (1,), (), ()),  # a negative last entry before trailing empty rows
            ((), (), ()),  # no entries at all
            ((0, 1, 2), (2,)),
        ],
    )
    def test_pd_rows_match_the_count_definition(self, rows):
        """An item is PD iff none of its tests is negative; an empty row is PD."""
        d = TestDesign("bernoulli", len(rows), 3, DesignParams(p=0.5), 0, rows)
        for bits in range(8):
            y = OutcomeVector(tuple(bool(bits >> c & 1) for c in range(3)))
            negatives = [sum(not y.bits[c] for c in row) for row in rows]
            want = tuple(i for i, count in enumerate(negatives) if count == 0)
            assert possible_defectives(d, y).items == want

    def test_pd_rows_on_fuzz_designs_with_random_outcomes(self):
        gen = np.random.default_rng(8)
        for idx in range(300):
            d = fuzz_instance(13, idx, n_max=50, k_max=8, t_max=40).design
            rows = d.rows()
            for _ in range(2):
                y = OutcomeVector(tuple(gen.random(d.n_tests) < gen.random()))
                want = tuple(i for i, row in enumerate(rows) if all(y.bits[c] for c in row))
                assert possible_defectives(d, y).items == want

    @pytest.mark.parametrize("t,dtype", [(256, np.uint8), (257, np.uint16), (70_000, np.uint32)])
    def test_indices_use_narrowest_type(self, t, dtype):
        d = gen_near_constant(3, t, 2, seed=1)
        assert d.indices.dtype == dtype and d.indptr.dtype == np.int64

    def test_arrays_are_read_only(self):
        d = gen_near_constant(5, 9, 3, seed=1)
        with pytest.raises(ValueError):
            d.indices[0] = 1

    def test_from_csr_equals_columns_constructor(self):
        cols = ((0, 2), (), (1,))
        params = DesignParams(draws=2)
        by_cols = TestDesign("near_constant", 3, 3, params, 0, cols)
        by_csr = TestDesign.from_csr(
            "near_constant", 3, 3, params, 0, np.array([0, 2, 2, 3]), np.array([0, 2, 1])
        )
        assert by_cols == by_csr and by_csr.rows() == [[0, 2], [], [1]]

    @pytest.mark.parametrize(
        "columns",
        [
            ((0,), (3,)),  # index >= T
            ((0,), (-1,)),  # negative index
            ((1, 0), (2,)),  # unsorted row
            ((0, 0), (2,)),  # repeated index
            ((2,), (1, 1)),  # repeated index in the last row
            ((), (2, 1)),  # unsorted row after an empty one
            ((0,),),  # one column short
            ((0,), (1,), (2,)),  # one column too many
            ((0.5,), (1,)),  # fractional index
            ((1.0,), (2,)),  # integral float
            ((True,), (2,)),  # boolean
            ((0, True), (2,)),  # boolean beside an integer
            ((0,), ("1",)),  # string
            ((0,), (None,)),  # null
            ((0,), ((1,),)),  # nested list
            ((0,), 1),  # column that is not a list
            ((0,), (2**64,)),  # beyond every integer type
        ],
    )
    def test_columns_constructor_rejects(self, columns):
        with pytest.raises(ValueError):
            TestDesign("near_constant", 2, 3, DesignParams(draws=1), 0, columns)

    @pytest.mark.parametrize(
        "indptr,indices",
        [
            ([0, 1], [0]),  # one row pointer short
            ([1, 1, 2], [0, 1]),  # does not start at 0
            ([0, 1, 1], [0, 1]),  # does not end at the entry count
            ([0, 3, 2], [0, 1]),  # falls
            ([0.0, 1.0, 2.0], [0, 1]),  # float pointers
            ([0, 1, 2], [0.0, 1.0]),  # float indices
            ([0, 1, 2], [[0], [1]]),  # two-dimensional indices
        ],
    )
    def test_from_csr_rejects(self, indptr, indices):
        with pytest.raises(ValueError):
            TestDesign.from_csr(
                "near_constant", 2, 3, DesignParams(draws=1), 0, np.array(indptr), np.array(indices)
            )

    @pytest.mark.parametrize(
        "n_items,n_tests,seed",
        [(True, 3, 0), (2.0, 3, 0), (2, True, 0), (2, 3.0, 0), (2, 3, True), (2, 3, 0.0), (2, 3, -1)],
    )
    def test_rejects_non_integer_header(self, n_items, n_tests, seed):
        with pytest.raises(ValueError):
            TestDesign("near_constant", n_items, n_tests, DesignParams(draws=1), seed, ((0,), (1,)))

    @pytest.mark.parametrize(
        "kind,params",
        [
            (KIND_BERNOULLI, DesignParams(p=5.0, draws=7, nu=-1.0)),
            (KIND_BERNOULLI, DesignParams(p=0.3, draws=1)),  # the other kind's parameter
            (KIND_NEAR_CONSTANT, DesignParams(p=0.3)),
            (KIND_EXACT_CONSTANT, DesignParams(p=0.3, draws=1)),
            (KIND_BERNOULLI, DesignParams(p=5.0)),  # p outside (0, 1)
            (KIND_BERNOULLI, DesignParams(p=0.0)),
            (KIND_BERNOULLI, DesignParams(p=1.0)),
            (KIND_BERNOULLI, DesignParams(p=math.nan)),
            (KIND_NEAR_CONSTANT, DesignParams(draws=1, nu=-1.0)),  # nu <= 0
            (KIND_EXACT_CONSTANT, DesignParams(draws=1, nu=0.0)),
            (KIND_BERNOULLI, DesignParams(p=0.3, nu=-0.5)),
            (KIND_NEAR_CONSTANT, DesignParams(draws=0)),  # L out of range
            (KIND_EXACT_CONSTANT, DesignParams(draws=4)),  # L above T = 3
            (KIND_NEAR_CONSTANT, DesignParams(draws=2.5)),  # values of the wrong type
            (KIND_NEAR_CONSTANT, DesignParams(draws=True)),
            (KIND_BERNOULLI, DesignParams(p=0.3, nu=True)),
            ("poisson", DesignParams(draws=1)),
        ],
    )
    def test_constructors_refuse_what_the_loader_refuses(self, kind, params):
        """A design whose file the loader refuses cannot be built at all."""
        with pytest.raises(ValueError):
            TestDesign(kind, 2, 3, params, 0, [[0], [1]])
        with pytest.raises(ValueError):
            TestDesign.from_csr(kind, 2, 3, params, 0, np.array([0, 1, 2]), np.array([0, 1]))
        raw = {"p": params.p, "L": params.draws, "nu": params.nu}
        obj = {"kind": kind, "N": 2, "T": 3, "params": raw, "seed": 0, "columns": [[0], [1]]}
        with pytest.raises(ValueError):
            model.design_from_json_dict(obj)

    @pytest.mark.parametrize("params", [None, {"p": 0.3}, (0.3, None, None)])
    def test_constructors_refuse_params_of_another_type(self, params):
        """A ValueError naming the record, not an AttributeError on ``.p``."""
        with pytest.raises(ValueError, match="DesignParams"):
            TestDesign(KIND_BERNOULLI, 2, 3, params, 0, [[0], [1]])
        with pytest.raises(ValueError, match="DesignParams"):
            TestDesign.from_csr(KIND_BERNOULLI, 2, 3, params, 0, np.array([0, 1, 2]), np.array([0, 1]))

    @pytest.mark.parametrize("t", [1, 7, 8, 9, 130])
    def test_outcome_matches_shift_loop(self, t):
        for seed in range(5):
            d = gen_bernoulli(20, t, 0.2, seed)
            truth = sample_defective_set(20, 3, seed)
            y = run_tests(d, truth)
            m = 0
            for i in truth.items:
                m |= _ref_masks(d.rows())[i]
            assert y.bits == tuple(bool((m >> c) & 1) for c in range(t))
            assert all(type(b) is bool for b in y.bits)


class TestParamsFromNu:
    def test_ln2_example(self):
        assert params_from_nu(KIND_NEAR_CONSTANT, LN2, 100, 10).draws == 7

    def test_nu_one_t_equals_k(self):
        assert params_from_nu(KIND_NEAR_CONSTANT, 1.0, 10, 10).draws == 1

    def test_p_value(self):
        assert abs(params_from_nu(KIND_BERNOULLI, LN2, 100, 10).p - 0.06931471805599453) < 1e-15

    def test_p_clamped_below_one(self):
        assert params_from_nu(KIND_BERNOULLI, 50.0, 10, 2).p == 1 - 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            params_from_nu(KIND_NEAR_CONSTANT, 0.0, 10, 2)
        with pytest.raises(ValueError):
            params_from_nu(KIND_NEAR_CONSTANT, 1.0, 10, 0)

    def test_exact_constant_caps_draws_at_t(self):
        # exact-constant draws without replacement; near-constant may exceed T
        assert params_from_nu(KIND_EXACT_CONSTANT, 50.0, 10, 2).draws == 10
        assert params_from_nu(KIND_NEAR_CONSTANT, 50.0, 10, 2).draws == 250

    def test_bernoulli_record_has_no_draws(self):
        assert params_from_nu(KIND_BERNOULLI, LN2, 100, 10) == DesignParams(p=LN2 / 10, nu=LN2)

    @pytest.mark.parametrize("kind", [KIND_NEAR_CONSTANT, KIND_EXACT_CONSTANT])
    def test_weight_record_has_no_p(self, kind):
        assert params_from_nu(kind, LN2, 100, 10) == DesignParams(draws=7, nu=LN2)


class TestGenerateDesign:
    @pytest.mark.parametrize(
        "kind,params",
        [
            (KIND_BERNOULLI, DesignParams(p=0.3, draws=2)),
            (KIND_BERNOULLI, DesignParams(nu=LN2)),
            (KIND_NEAR_CONSTANT, DesignParams(p=0.3, draws=2)),
            (KIND_EXACT_CONSTANT, DesignParams(p=0.3)),
            ("poisson", DesignParams(draws=2)),
        ],
    )
    def test_rejects_a_record_its_kind_does_not_take(self, kind, params):
        with pytest.raises(ValueError):
            generate_design(kind, 5, 7, 0, params)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize(
        "kind,params",
        [
            (KIND_BERNOULLI, DesignParams(p=0.3)),
            (KIND_NEAR_CONSTANT, DesignParams(draws=2)),
            (KIND_EXACT_CONSTANT, DesignParams(draws=2)),
        ],
    )
    def test_rejects_a_nu_that_is_not_positive_and_finite(self, kind, params, nu):
        # nu is only recorded, but the record must stay valid JSON
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            generate_design(kind, 5, 7, 0, replace(params, nu=nu))

    @pytest.mark.parametrize("kind", [KIND_NEAR_CONSTANT, KIND_EXACT_CONSTANT, KIND_BERNOULLI])
    @pytest.mark.parametrize(
        "n_items,draws,n_tests",
        # N * min(L, T) just past 2**31, with L below and above T; Bernoulli
        # takes p = 0.5 instead of L, and its N * T cells pass 2**31 at each
        [(2**16, 2**15 + 1, 2**16), (2**16 + 1, 2**40, 2**15), (2, 2**62, 2**62)],
    )
    def test_refuses_a_weight_design_past_the_entry_cap(self, kind, n_items, draws, n_tests):
        if kind == KIND_BERNOULLI:
            params, shown, gen = DesignParams(p=0.5), "p=0.5", gen_bernoulli
        else:
            if kind == KIND_EXACT_CONSTANT:
                draws = min(draws, n_tests)
            gen = gen_near_constant if kind == KIND_NEAR_CONSTANT else gen_exact_constant
            params, shown = DesignParams(draws=draws), f"L={draws}"
        # refused before any draw, by the dispatch and by the kind's own
        # generator: nothing near the cap is allocated
        tracemalloc.start()
        try:
            match = f"N={n_items}, {shown}, T={n_tests}"
            with pytest.raises(ValueError, match=match):
                generate_design(kind, n_items, n_tests, 0, params)
            with pytest.raises(ValueError, match=match):
                gen(n_items, n_tests, params.p or params.draws, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_counts_entries_not_draws(self):
        # L far above T is fine at small N
        assert MAX_ENTRIES == 2**31
        d = generate_design(KIND_NEAR_CONSTANT, 3, 4, 0, DesignParams(draws=2**40))
        assert d.rows() == [[0, 1, 2, 3]] * 3


def _design_from_columns(n_tests, columns):
    return TestDesign(
        "near_constant",
        len(columns),
        n_tests,
        DesignParams(draws=max((len(c) for c in columns), default=1) or 1),
        0,
        tuple(tuple(c) for c in columns),
    )


class TestRunTests:
    def test_no_defectives_all_negative(self):
        d = _design_from_columns(3, [[0], [1, 2], [2]])
        y = run_tests(d, DefectiveSet(()))
        assert y.bits == (False, False, False)

    def test_hand_example(self):
        # item0={0}, item1={0,1}; truth={1} -> y=(1,1); truth={0} -> y=(1,0)
        d = _design_from_columns(2, [[0], [0, 1]])
        assert run_tests(d, DefectiveSet((1,))).bits == (True, True)
        assert run_tests(d, DefectiveSet((0,))).bits == (True, False)

    def test_rejects_out_of_range(self):
        d = _design_from_columns(2, [[0], [1]])
        with pytest.raises(ValueError):
            run_tests(d, DefectiveSet((5,)))

    @given(st.data())
    def test_monotone_in_truth(self, data):
        """Adding a defective can only flip tests negative -> positive."""
        n = data.draw(st.integers(2, 10))
        t = data.draw(st.integers(1, 8))
        seed = data.draw(st.integers(0, 2**32))
        d = gen_near_constant(n, t, 3, seed=seed)
        items = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        smaller = DefectiveSet(tuple(items[:-1]))
        larger = DefectiveSet(tuple(items))
        y_small = run_tests(d, smaller)
        y_large = run_tests(d, larger)
        assert all(not a or b for a, b in zip(y_small.bits, y_large.bits))


class TestComputeItemStats:
    def test_disjoint_singletons(self):
        # item0={0}, item1={1}, truth={0,1}: M=1 each, W=2, G=0, L=1 each
        d = _design_from_columns(2, [[0], [1]])
        truth = DefectiveSet((0, 1))
        st_ = compute_item_stats(d, truth, run_tests(d, truth))
        assert st_.covered_tests == 2
        assert st_.solo_defective_tests == (1, 1)
        assert st_.masked_nondefectives == 0
        assert st_.solo_pd_tests == (1, 1)

    def test_shared_single_test(self):
        # both defectives share the only test: no solo tests
        d = _design_from_columns(1, [[0], [0]])
        truth = DefectiveSet((0, 1))
        st_ = compute_item_stats(d, truth, run_tests(d, truth))
        assert st_.solo_defective_tests == (0, 0)

    def test_empty_truth_counts_empty_columns(self):
        d = TestDesign(
            "bernoulli", 4, 3, DesignParams(p=0.5), 0, ((0,), (), (1,), ())
        )
        truth = DefectiveSet(())
        st_ = compute_item_stats(d, truth, run_tests(d, truth))
        assert st_.masked_nondefectives == 2
        assert st_.pd_set == (1, 3)

    def test_rejects_inconsistent_outcome(self):
        d = _design_from_columns(2, [[0], [1]])
        with pytest.raises(ValueError):
            compute_item_stats(d, DefectiveSet((0,)), OutcomeVector((True, True)))

    def test_rejects_defective_beyond_design(self):
        d = _design_from_columns(1, [[0], [0]])
        with pytest.raises(ValueError, match="out of range"):
            compute_item_stats(d, DefectiveSet((0, 2)), OutcomeVector((True,)))

    def test_empty_column_vacuously_masked(self):
        # a defective in no test has no test to itself: M = 0
        d = _design_from_columns(1, [[], [0]])
        truth = DefectiveSet((0,))
        assert compute_item_stats(d, truth, run_tests(d, truth)).solo_defective_tests == (0,)

    def test_nonempty_column_never_masked_by_empty_set(self):
        # a lone defective holds each of its tests alone
        d = _design_from_columns(2, [[0], [0, 1]])
        truth = DefectiveSet((0,))
        assert compute_item_stats(d, truth, run_tests(d, truth)).solo_defective_tests == (1,)

    @given(st.integers(0, 2**32), st.integers(2, 25), st.integers(1, 12), st.integers(0, 5))
    def test_identities_on_fuzzed_instances(self, seed, n, t, k):
        k = min(k, n)
        d = gen_near_constant(n, t, 4, seed=seed)
        truth = sample_defective_set(n, k, seed)
        stats = compute_item_stats(d, truth, run_tests(d, truth))
        for w_i, m_i, l_i in zip(
            stats.covered_without, stats.solo_defective_tests, stats.solo_pd_tests
        ):
            assert w_i + m_i == stats.covered_tests
            assert 0 <= l_i <= m_i
        assert 0 <= stats.masked_nondefectives <= n - k

    def test_fields_match_per_test_counts(self):
        """Every field against per-test counts of defectives and PD items.

        The corpus mixes all three design kinds; its instances have masked
        and unmasked defectives, zero and positive L_i, and G = 0 and G > 0.
        """
        seen = set()
        for idx in range(300):
            inst = fuzz_instance(5, idx, n_max=30, k_max=6, t_max=40)
            d, truth, y = inst.design, inst.truth, inst.outcome
            rows = d.rows()
            stats = compute_item_stats(d, truth, y)
            pd = [i for i in range(d.n_items) if all(y.bits[t] for t in rows[i])]
            truth_at = [sum(t in rows[i] for i in truth.items) for t in range(d.n_tests)]
            pd_at = [sum(t in rows[i] for i in pd) for t in range(d.n_tests)]
            assert stats.pd_set == tuple(pd)
            assert stats.covered_tests == sum(c > 0 for c in truth_at)
            assert stats.masked_nondefectives == len(set(pd) - set(truth.items))
            assert stats.covered_without == tuple(
                sum(truth_at[t] - (t in rows[i]) > 0 for t in range(d.n_tests))
                for i in truth.items
            )
            assert stats.solo_defective_tests == tuple(
                sum(truth_at[t] == 1 for t in rows[i]) for i in truth.items
            )
            assert stats.solo_pd_tests == tuple(
                sum(pd_at[t] == 1 for t in rows[i]) for i in truth.items
            )
            seen.add(d.kind)
            seen.update(("M=0" if m == 0 else "M>0") for m in stats.solo_defective_tests)
            seen.update(("L=0" if l == 0 else "L>0") for l in stats.solo_pd_tests)
            seen.add("G=0" if stats.masked_nondefectives == 0 else "G>0")
        assert seen == {
            "bernoulli", "near_constant", "exact_constant",
            "M=0", "M>0", "L=0", "L>0", "G=0", "G>0",
        }


class TestSerialization:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: gen_bernoulli(7, 9, 0.25, seed=1, nu=0.5),
            lambda: gen_near_constant(7, 9, 3, seed=2, nu=LN2),
            lambda: gen_exact_constant(7, 9, 3, seed=3),
        ],
    )
    def test_json_round_trip(self, factory):
        d = factory()
        assert design_from_json(design_to_json(d)) == d

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: gen_bernoulli(20, 15, 0.3, seed=5),
            lambda: gen_near_constant(20, 15, 4, seed=5),
            lambda: gen_exact_constant(20, 15, 4, seed=5),
        ],
    )
    def test_regeneration_from_metadata(self, factory):
        d = factory()
        assert regenerate_design(d) == d

    @pytest.mark.parametrize(
        "kind,params",
        [
            (KIND_BERNOULLI, '{"p": null, "nu": null}'),
            (KIND_NEAR_CONSTANT, '{"L": null}'),
            (KIND_EXACT_CONSTANT, '{"L": 1, "nu": 0.5}'),
        ],
    )
    def test_load_save_load_returns_an_equal_design(self, kind, params):
        text = (
            f'{{"kind": "{kind}", "N": 2, "T": 3, "params": {params},'
            ' "seed": 0, "columns": [[0], [1]]}'
        )
        d = design_from_json(text)
        assert design_from_json(design_to_json(d)) == d

    @pytest.mark.parametrize(
        "kind,params",
        [
            (KIND_NEAR_CONSTANT, '{"p": 0.3, "L": null}'),
            (KIND_EXACT_CONSTANT, '{"p": 0.3, "L": 1}'),
            (KIND_BERNOULLI, '{"p": 0.3, "L": 1}'),
            (KIND_BERNOULLI, '{"L": 1}'),
        ],
    )
    def test_other_kind_parameter_rejected_on_load(self, kind, params):
        with pytest.raises(ValueError, match="designs take"):
            design_from_json(
                f'{{"kind": "{kind}", "N": 2, "T": 3, "params": {params},'
                ' "seed": 0, "columns": [[0], [1]]}'
            )

    @pytest.mark.parametrize("indent", [None, 0, 2, 4])
    def test_chunks_are_json_text(self, indent):
        """design_json_chunks joins to json's text byte for byte: on 300
        fuzz-corpus designs of all three kinds, and on rows that are empty
        first, last or everywhere, a one-item design, tests far past the entry
        count, and a design of more than three blocks."""
        blocks = 3 * model._JSON_BLOCK + 5
        designs = [fuzz_instance(11, idx, n_max=50, k_max=8, t_max=40).design for idx in range(300)]
        designs += [
            TestDesign(KIND_BERNOULLI, 4, 3, DesignParams(p=0.1 + 0.2), 0, ([], [0, 2], [1], [])),
            TestDesign(KIND_BERNOULLI, 3, 5, DesignParams(), 0, ([], [], [])),
            TestDesign(KIND_NEAR_CONSTANT, 1, 1, DesignParams(draws=1, nu=1e-300), 2**64 - 1, ([0],)),
            TestDesign(KIND_EXACT_CONSTANT, 2, 2**62, DesignParams(draws=2), 0, ([0, 2**62 - 1], [5, 9])),
            gen_near_constant(blocks, 30, 2, seed=1, nu=LN2),
        ]
        assert {d.kind for d in designs} == set(model.DESIGN_KINDS)
        for d in designs:
            want = json.dumps(model.design_to_json_dict(d), indent=indent)
            assert "".join(model.design_json_chunks(d, indent)) == want
            assert design_from_json(want) == d
        # a header, one chunk per block of rows, and the closing brackets
        assert len(list(model.design_json_chunks(designs[-1], indent))) == 4 + 2

    def test_columns_validated_on_load(self):
        with pytest.raises(ValueError):
            design_from_json(
                '{"kind": "near_constant", "N": 1, "T": 2,'
                ' "params": {"L": 1, "nu": null}, "seed": 0, "columns": [[3]]}'
            )


def test_mean_distinct_matches_closed_form_expectation():
    n_draws, n_tests = 3, 100
    assert abs(expected_distinct(n_draws, n_tests) - 2.9701) < 1e-10
