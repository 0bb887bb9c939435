"""COMP / DD / SCOMP / SSS decoding, satisfaction and masking predicates."""

import gc
import itertools
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grouptest import (
    ALGORITHMS,
    DefectiveSet,
    DesignParams,
    MalformedOutcomeError,
    OutcomeVector,
    TestDesign,
    UnresolvedSearchError,
    comp,
    compute_item_stats,
    dd,
    design_to_json,
    evaluate,
    gen_bernoulli,
    gen_exact_constant,
    gen_near_constant,
    is_satisfying,
    model,
    possible_defectives,
    run_tests,
    sample_defective_set,
    scomp,
    simlab,
    sss,
)
from grouptest.cli import main
from grouptest.decoders import (
    DEFAULT_NODE_BUDGET,
    DecodeResult,
    _definite_defectives,
    _explained_pd,
    _scomp_estimate,
    decode,
)
from grouptest.verify import exhaustive_smallest_satisfying, fuzz_instance


def design_of(n_tests, columns):
    return TestDesign(
        "near_constant",
        len(columns),
        n_tests,
        DesignParams(draws=max((len(c) for c in columns), default=1) or 1),
        0,
        tuple(tuple(c) for c in columns),
    )


class TestComp:
    def test_negative_test_excludes_items(self):
        # t0={0,1}, t1={1,2}, y=(1,0): items 1,2 hit the negative t1
        d = design_of(2, [[0], [0, 1], [1]])
        r = comp(d, OutcomeVector((True, False)))
        assert r.pd_set == (0,)
        assert r.estimate == (0,)

    def test_all_positive_keeps_everything(self):
        d = design_of(2, [[0], [1], []])
        r = comp(d, OutcomeVector((True, True)))
        assert r.estimate == (0, 1, 2)

    def test_all_negative_keeps_only_empty_columns(self):
        d = design_of(2, [[0], [1], []])
        r = comp(d, OutcomeVector((False, False)))
        assert r.estimate == (2,)

    def test_rejects_length_mismatch(self):
        d = design_of(2, [[0]])
        with pytest.raises(ValueError):
            comp(d, OutcomeVector((True,)))

    def test_malformed_outcome_rejected(self):
        # items 0 and 1 are in the negative t0, so the positive t1 has no PD member
        d = design_of(2, [[0, 1], [0, 1], [0]])
        with pytest.raises(MalformedOutcomeError):
            comp(d, OutcomeVector((False, True)))


class TestDd:
    def test_solo_pd_test_identifies_item(self):
        d = design_of(2, [[0], [0, 1], [1]])
        r = dd(d, OutcomeVector((True, False)))
        assert r.pd_set == (0,)
        assert r.estimate == (0,)

    def test_no_singleton_test_under_reaches(self):
        d = design_of(1, [[0], [0]])
        r = dd(d, OutcomeVector((True,)))
        assert r.pd_set == (0, 1)
        assert r.estimate == ()

    def test_all_negative_estimates_empty(self):
        d = design_of(2, [[0], [1]])
        assert dd(d, OutcomeVector((False, False))).estimate == ()

    def test_malformed_outcome_rejected(self):
        d = design_of(2, [[0, 1], [0, 1], [0]])
        with pytest.raises(MalformedOutcomeError):
            dd(d, OutcomeVector((False, True)))

    def test_matches_pd_count_definition(self):
        """DD = PD items in a test holding exactly one PD item, by direct count."""
        for seed in range(40):
            d = gen_near_constant(30, 12, 3, seed=seed)
            y = run_tests(d, sample_defective_set(30, 4, seed))
            pd = comp(d, y).pd_set
            rows = d.rows()
            counts = [sum(1 for i in pd if t in rows[i]) for t in range(d.n_tests)]
            want = tuple(i for i in pd if any(counts[t] == 1 for t in rows[i]))
            assert dd(d, y).estimate == want


class TestScomp:
    def test_greedy_covers_unexplained_test(self):
        # DD gives nothing; items 0,1 tie at 1 test; lowest index wins
        d = design_of(1, [[0], [0]])
        assert scomp(d, OutcomeVector((True,))).estimate == (0,)

    def test_noop_when_dd_explains_everything(self):
        d = design_of(3, [[0], [0, 1, 2], [1]])
        y = OutcomeVector((True, True, True))
        assert scomp(d, y).estimate == dd(d, y).estimate == (1,)

    def test_matches_dd_union_greedy_on_worked_instance(self):
        # t2={1} pins item 1, which explains all three positive tests
        d = design_of(3, [[0], [0, 1, 2], [1]])
        r = scomp(d, OutcomeVector((True, True, True)))
        assert r.estimate == (1,)
        assert r.definite_defectives == (1,)

    def test_malformed_outcome_rejected(self):
        # test 1 is positive but contains nobody
        d = design_of(2, [[0]])
        with pytest.raises(MalformedOutcomeError):
            scomp(d, OutcomeVector((False, True)))

    def test_estimate_is_satisfying(self):
        d = gen_near_constant(12, 6, 3, seed=3)
        truth = sample_defective_set(12, 3, 5)
        y = run_tests(d, truth)
        assert is_satisfying(d, y, scomp(d, y).estimate)


class TestSss:
    def test_size_one_tie_breaks_lexicographically(self):
        d = design_of(1, [[0], [0]])
        assert sss(d, OutcomeVector((True,))).estimate == (0,)

    def test_all_negative_returns_empty(self):
        d = design_of(2, [[0], [1]])
        res = sss(d, OutcomeVector((False, False)))
        assert (res.estimate, res.search_nodes) == ((), 0)

    def test_single_mask_incumbent_is_the_root(self):
        # items 0 and 1 each hold both tests: SCOMP's single mask is the
        # answer, and the search counts the root alone
        d = design_of(2, [[0, 1], [0, 1], [0]])
        res = sss(d, OutcomeVector((True, True)))
        assert (res.estimate, res.search_nodes) == ((0,), 1)

    def test_needs_both_items(self):
        # t0={0}, t1={1}, t2={0,1}: no singleton covers t0 and t1
        d = design_of(3, [[0, 2], [1, 2]])
        assert sss(d, OutcomeVector((True, True, True))).estimate == (0, 1)

    def test_malformed_outcome_rejected(self):
        d = design_of(2, [[0]])
        with pytest.raises(MalformedOutcomeError):
            sss(d, OutcomeVector((False, True)))

    def test_node_budget_exhaustion_carries_incumbent(self, tmp_path):
        d = gen_bernoulli(30, 12, 0.25, seed=9)
        truth = sample_defective_set(30, 4, 9)
        y = run_tests(d, truth)
        with pytest.raises(UnresolvedSearchError) as err:
            sss(d, y, node_budget=1)
        # the search stops at the node past the budget, still holding the
        # SCOMP incumbent; the solved search needs 6 nodes for (6, 23, 28)
        assert err.value.best == scomp(d, y).estimate == (7, 17, 27)
        assert err.value.nodes == 2
        assert is_satisfying(d, y, err.value.best)
        path, out = tmp_path / "d.json", tmp_path / "r.json"
        path.write_text(design_to_json(d))
        bits = "".join("1" if b else "0" for b in y.bits)
        argv = ["decode", "--design", str(path), "--outcome", bits, "--alg", "sss",
                "--node-budget", "1", "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "unresolved"
        assert payload["best_incumbent"] == list(err.value.best)
        assert payload["search_nodes"] == err.value.nodes

    @pytest.mark.parametrize("budget", [DEFAULT_NODE_BUDGET, 1])
    def test_leaves_no_cyclic_garbage(self, budget):
        # a decode's lists are freed on return, not left for the collector
        d = gen_bernoulli(30, 12, 0.25, seed=9)
        y = run_tests(d, sample_defective_set(30, 4, 9))
        gc.collect()
        gc.disable()
        try:
            try:
                sss(d, y, budget)
            except UnresolvedSearchError:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    # nan used to run unbounded (nodes > nan is never true), True as a
    # budget of 1, and "5" died in a TypeError
    @pytest.mark.parametrize("budget", [0, float("nan"), True, "5", 2.0])
    def test_rejects_bad_budget(self, budget):
        d = design_of(1, [[0]])
        with pytest.raises(ValueError, match="node_budget"):
            sss(d, OutcomeVector((True,)), node_budget=budget)

    @pytest.mark.parametrize(
        "seed,sizes",
        [(seed, dict(n_max=10, k_max=3, t_max=10)) for seed in range(4)]
        # 104 of these 150 instances have T > 64, up to 184 of them positive
        + [(4, dict(n_max=12, k_max=4, t_max=200))],
        ids=[str(seed) for seed in range(5)],
    )
    def test_matches_exhaustive_enumeration(self, seed, sizes):
        for idx in range(150):
            inst = fuzz_instance(seed, idx, **sizes)
            got = sss(inst.design, inst.outcome).estimate
            want = exhaustive_smallest_satisfying(inst.design, inst.outcome)
            assert got == want

    def test_masked_defective_forces_inexact_sss(self):
        found = 0
        for idx in range(400):
            inst = fuzz_instance(424242, idx, n_max=20, k_max=4, t_max=8)
            stats = compute_item_stats(inst.design, inst.truth, inst.outcome)
            if 0 not in stats.solo_defective_tests:
                continue
            found += 1
            est = sss(inst.design, inst.outcome).estimate
            assert set(est) != set(inst.truth.items)
        assert found > 0, "fuzz produced no masked instances"


def reference_sss(design, outcome, node_budget):
    """SSS with the lower bound from a full max-gain pass over every PD mask
    at every call, kept as the reference for the search's prune."""
    pd = _explained_pd(design, outcome).items
    pos_tests = [t for t, bit in enumerate(outcome.bits) if bit]
    bit_of_test = {t: b for b, t in enumerate(pos_tests)}
    target = (1 << len(pos_tests)) - 1
    cover = []
    items_of_bit = [[] for _ in pos_tests]
    for j, i in enumerate(pd):
        m = 0
        for t in design.indices[design.indptr[i] : design.indptr[i + 1]].tolist():
            m |= 1 << bit_of_test[t]
            items_of_bit[bit_of_test[t]].append(j)
        cover.append(m)
    solo = [m & ~o for m, o in zip(cover, model.others_unions(cover))]
    best = tuple(_scomp_estimate(cover, target, _definite_defectives(solo)))
    branch_order = [
        (1 << b, items_of_bit[b])
        for b in sorted(range(len(pos_tests)), key=lambda b: (len(items_of_bit[b]), b))
    ]
    nodes = 0

    def search(covered, chosen):
        nonlocal nodes, best
        if covered == target:
            cand = tuple(sorted(chosen))
            if (len(cand), cand) < (len(best), best):
                best = cand
            return
        uncovered = target & ~covered
        for bit, branch_items in branch_order:
            if uncovered & bit:
                break
        max_gain = max((m & uncovered).bit_count() for m in cover)
        lb = (uncovered.bit_count() + max_gain - 1) // max_gain
        if len(chosen) + lb > len(best):
            return
        nodes += 1
        if nodes > node_budget:
            raise UnresolvedSearchError("", tuple(pd[j] for j in best), nodes)
        order = sorted(branch_items, key=lambda j: (-(cover[j] & uncovered).bit_count(), j))
        for j in order:
            chosen.append(j)
            search(covered | cover[j], chosen)
            chosen.pop()

    search(0, [])
    return DecodeResult("sss", tuple(pd[j] for j in best), tuple(pd), search_nodes=nodes)


def sss_outcome(decoder, design, outcome, node_budget):
    """The decoder's result, or the incumbent and node count it stopped at."""
    try:
        return decoder(design, outcome, node_budget)
    except UnresolvedSearchError as exc:
        return "unresolved", exc.best, exc.nodes


class TestSssMatchesReference:
    # the lab's corpus sizes, and larger designs with deeper searches
    DRAWS = [(2024, dict(n_max=50, k_max=8, t_max=40))] * 200 + [
        (4, dict(n_max=60, k_max=8, t_max=120))
    ] * 200

    def test_estimates_nodes_and_budget_errors(self):
        kinds = set()
        uneven_bernoulli = deep = 0
        for idx, (seed, sizes) in enumerate(self.DRAWS):
            inst = fuzz_instance(seed, idx, **sizes)
            d, y = inst.design, inst.outcome
            kinds.add(d.kind)
            # a PD item's tests are all positive
            pd = possible_defectives(d, y).items
            row_sizes = {int(d.indptr[i + 1] - d.indptr[i]) for i in pd}
            if d.kind == "bernoulli" and len(row_sizes) > 1:
                uneven_bernoulli += 1
            for budget in (DEFAULT_NODE_BUDGET, 1, 5, 20):
                got = sss_outcome(sss, d, y, budget)
                assert got == sss_outcome(reference_sss, d, y, budget), (seed, idx, budget)
            deep += not isinstance(got, DecodeResult)
        assert kinds == {"bernoulli", "near_constant", "exact_constant"}
        assert uneven_bernoulli >= 50
        # draws whose search outlasts the largest budget
        assert deep >= 40


class TestSssMatchesReferenceDeep:
    """The sss-deep regime: N=500, K=10 below the DD threshold, where the
    searches run to thousands of nodes. Bernoulli's uneven mask sizes put
    many prunes below the largest mask size."""

    def test_budgeted_searches(self):
        kinds_deep = {"near_constant": 0, "bernoulli": 0}
        uneven_bernoulli = 0
        for kind in ("ncc", "bernoulli"):
            arm = simlab.DesignArm(kind, math.log(2))
            for n_tests in (50, 60):
                for r in range(3):
                    seed = simlab.trial_seed(13, 0, n_tests, r)
                    inst = simlab.trial_instance(arm, 500, 10, n_tests, seed)
                    d, y = inst.design, inst.outcome
                    pd = possible_defectives(d, y).items
                    row_sizes = {int(d.indptr[i + 1] - d.indptr[i]) for i in pd}
                    if d.kind == "bernoulli" and len(row_sizes) > 2:
                        uneven_bernoulli += 1
                    for budget in (1, 5, 20, 200):
                        got = sss_outcome(sss, d, y, budget)
                        assert got == sss_outcome(reference_sss, d, y, budget), (
                            kind, n_tests, r, budget
                        )
                    kinds_deep[d.kind] += not isinstance(got, DecodeResult)
        assert uneven_bernoulli == 6
        # draws of each kind whose search outlasts budget 200
        assert min(kinds_deep.values()) >= 3


def is_masked(design, item, others):
    """Reference: every test holding `item` also holds a member of `others`.

    An item in no test is vacuously masked by any set.
    """
    rows = design.rows()
    return set(rows[item]) <= {t for j in others for t in rows[j]}


class TestSomeDefectiveMasked:
    """The event that makes SSS fail, read from the per-item counts: some
    defective has no test to itself (M_i = 0)."""

    def test_matches_is_masked_loop(self):
        answers = set()
        for idx in range(300):
            inst = fuzz_instance(5, idx, n_max=30, k_max=6, t_max=40)
            items = inst.truth.items
            want = any(
                is_masked(inst.design, i, [j for j in items if j != i]) for i in items
            )
            stats = compute_item_stats(inst.design, inst.truth, inst.outcome)
            assert (0 in stats.solo_defective_tests) == want
            answers.add(want)
        assert answers == {False, True}


class TestIsSatisfying:
    def test_truth_always_satisfies(self):
        d = gen_exact_constant(10, 8, 3, seed=4)
        truth = sample_defective_set(10, 3, 7)
        y = run_tests(d, truth)
        assert is_satisfying(d, y, truth.items)

    def test_empty_set_fails_on_positive_outcome(self):
        d = design_of(1, [[0]])
        assert not is_satisfying(d, OutcomeVector((True,)), ())

    def test_candidate_in_negative_test_fails(self):
        d = design_of(1, [[0]])
        assert not is_satisfying(d, OutcomeVector((False,)), (0,))


class TestIsMasked:
    """Hand cases of the reference masking predicate; the library reads the
    same event from ``compute_item_stats`` (tests/test_model.py)."""

    def test_hand_examples(self):
        d = design_of(2, [[0], [0, 1]])
        assert is_masked(d, 0, {1})
        assert not is_masked(d, 1, {0})
        assert not is_masked(design_of(2, [[0], [1]]), 0, {1})

    def test_nonempty_column_never_masked_by_empty_set(self):
        d = design_of(2, [[0], [0, 1]])
        assert not is_masked(d, 0, set())

    def test_empty_column_vacuously_masked(self):
        d = design_of(1, [[], [0]])
        assert is_masked(d, 0, set())


class TestKeptPdAnswer:
    """The PD answer a design keeps for the last outcome it was asked about."""

    def test_truthy_entries_decode_as_booleans(self):
        # positive tests 0 and 2, also when given as the integers 2 and 1
        d = design_of(3, [[0], [1], [2], [0, 2]])
        want = {"comp": (0, 2, 3), "dd": (), "scomp": (3,), "sss": (3,)}
        for bits in ((2, 0, 1), (True, False, True), (2, 0, 1)):
            y = OutcomeVector(bits)
            assert {alg: decode(alg, d, y).estimate for alg in ALGORITHMS} == want

    def test_never_stale(self):
        d = gen_near_constant(30, 12, 3, seed=5)
        cases = [(t, run_tests(d, t)) for t in (DefectiveSet((3, 17)), DefectiveSet((1, 8, 22, 29)))]
        assert len({comp(d, y).estimate for _, y in cases}) == 2
        wrong = OutcomeVector(cases[0][1].bits[:-1])
        entries = [lambda y, alg=alg: decode(alg, d, y) for alg in ALGORITHMS] + [
            lambda y: compute_item_stats(d, cases[0][0], y),
            lambda y: is_satisfying(d, y, cases[0][0].items),
        ]
        for truth, y in cases + cases[::-1] + cases:
            for entry in entries:
                with pytest.raises(ValueError, match="outcome has"):
                    entry(wrong)
            fresh = TestDesign.from_csr(
                d.kind, d.n_items, d.n_tests, d.params, d.seed, d.indptr, d.indices
            )
            for alg in ALGORITHMS:
                assert decode(alg, d, y) == decode(alg, fresh, y)
            assert compute_item_stats(d, truth, y) == compute_item_stats(fresh, truth, y)
            for other, _ in cases:
                assert is_satisfying(d, y, other.items) == is_satisfying(fresh, y, other.items)
                assert is_satisfying(d, y, other.items) == (other == truth)

    def test_solo_tests_found_once_per_answer(self, monkeypatch):
        # the PD answer's solo tests serve DD, SCOMP, SSS and the item stats;
        # the stats' own pass over the defectives' masks is the one other call
        calls = []
        others_unions = model.others_unions

        def counted(masks):
            calls.append(len(masks))
            return others_unions(masks)

        monkeypatch.setattr(model, "others_unions", counted)
        for idx in range(40):
            inst = fuzz_instance(2024, idx, n_max=50, k_max=8, t_max=40)
            # a corpus design carries its answer from the draw; a copy of its
            # arrays finds it at the first decode
            kept, y = inst.design, inst.outcome
            d = TestDesign.from_csr(kept.kind, kept.n_items, kept.n_tests, kept.params, kept.seed,
                                    kept.indptr, kept.indices)
            calls.clear()
            for alg in ALGORITHMS:
                decode(alg, d, y)
            compute_item_stats(d, inst.truth, y)
            answer, want = d.pd(y), kept.pd(y)
            assert calls == [len(answer.masks), inst.truth.k]
            assert (answer, answer.solo, answer.explains) == (want, want.solo, want.explains)
            rows = d.rows()
            pd_at = [sum(t in rows[i] for i in answer.items) for t in range(d.n_tests)]
            positive = [t for t, bit in enumerate(y.bits) if bit]
            assert answer.solo == tuple(
                sum(1 << b for b, t in enumerate(positive) if t in rows[i] and pd_at[t] == 1)
                for i in answer.items
            )


class TestOutcomeLength:
    """Every entry point taking a design and an outcome rejects a wrong length."""

    ENTRY_POINTS = {
        "possible_defectives": possible_defectives,
        "compute_item_stats": lambda d, y: compute_item_stats(d, DefectiveSet((0, 1)), y),
        "is_satisfying": lambda d, y: is_satisfying(d, y, (0, 1)),
        "exhaustive_smallest_satisfying": exhaustive_smallest_satisfying,
        **{alg: lambda d, y, alg=alg: decode(alg, d, y) for alg in ALGORITHMS},
    }

    @pytest.mark.parametrize(
        "bits", [(True, True), (True, True, False, False)], ids=["short", "long"]
    )
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_wrong_length(self, entry, bits):
        d = design_of(3, [[0], [1], [2]])
        with pytest.raises(ValueError, match="outcome has"):
            self.ENTRY_POINTS[entry](d, OutcomeVector(bits))


class TestEvaluate:
    def test_exact(self):
        r = comp(design_of(1, [[0], []]), OutcomeVector((True,)))
        # estimate is (0, 1); compare against truth {0, 1}
        rec = evaluate(r, DefectiveSet((0, 1)))
        assert rec.exact and rec.false_positives == 0 and rec.false_negatives == 0

    def test_false_negative(self):
        r = dd(design_of(1, [[0], [0]]), OutcomeVector((True,)))
        rec = evaluate(r, DefectiveSet((0, 1)))
        assert not rec.exact
        assert (rec.false_positives, rec.false_negatives) == (0, 2)

    def test_mixed(self):
        rec = evaluate(
            comp(design_of(1, [[], [0], []]), OutcomeVector((True,))),
            DefectiveSet((1, 2)),
        )
        # estimate (0,1,2): one spurious item, none missed
        assert (rec.exact, rec.false_positives, rec.false_negatives) == (False, 1, 0)


class TestIdentityDesign:
    """T=N with one dedicated singleton test per item: every decoder is exact."""

    def test_all_decoders_exact(self):
        n = 8
        d = TestDesign(
            "exact_constant",
            n,
            n,
            DesignParams(draws=1),
            0,
            tuple((i,) for i in range(n)),
        )
        for k in (0, 1, 3, n):
            truth = sample_defective_set(n, k, seed=k)
            y = run_tests(d, truth)
            for decode in (comp, dd, scomp, sss):
                assert evaluate(decode(d, y), truth).exact


@given(st.integers(0, 2**32), st.integers(2, 16), st.integers(1, 10), st.integers(0, 4))
def test_containment_chain_on_fuzzed_instances(seed, n, t, k):
    """DD subset of truth subset of COMP; SCOMP/SSS satisfy; |SSS| <= K."""
    k = min(k, n)
    d = gen_near_constant(n, t, 3, seed=seed)
    truth = sample_defective_set(n, k, seed)
    y = run_tests(d, truth)
    truth_set = set(truth.items)
    assert set(dd(d, y).estimate) <= truth_set <= set(comp(d, y).estimate)
    assert is_satisfying(d, y, scomp(d, y).estimate)
    result = sss(d, y)
    assert is_satisfying(d, y, result.estimate)
    assert len(result.estimate) <= k


@given(st.integers(0, 2**32), st.integers(2, 16), st.integers(1, 10), st.integers(0, 4))
def test_success_conditions_on_fuzzed_instances(seed, n, t, k):
    """COMP exact iff no hidden nondefective; DD exact iff every L_i > 0."""
    k = min(k, n)
    d = gen_bernoulli(n, t, 0.3, seed=seed)
    truth = sample_defective_set(n, k, seed)
    y = run_tests(d, truth)
    stats = compute_item_stats(d, truth, y)
    comp_exact = evaluate(comp(d, y), truth).exact
    assert comp_exact == (stats.masked_nondefectives == 0)
    dd_exact = evaluate(dd(d, y), truth).exact
    assert dd_exact == all(l > 0 for l in stats.solo_pd_tests)


def test_sss_exhaustive_over_all_subsets_small():
    """Direct 2^N sweep (N<=10) double-checks the combinations-based oracle."""
    for idx in range(40):
        inst = fuzz_instance(606, idx, n_max=10, k_max=3, t_max=8)
        d, y = inst.design, inst.outcome
        best = None
        for size in range(d.n_items + 1):
            for combo in itertools.combinations(range(d.n_items), size):
                if is_satisfying(d, y, combo):
                    best = combo
                    break
            if best is not None:
                break
        assert sss(d, y).estimate == best
