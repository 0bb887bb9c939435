"""Planted faults fail the checks that should catch them, and the corpus
refuses arguments out of range."""

from dataclasses import replace

import numpy as np
import pytest

from grouptest import analysis as an
from grouptest import decoders as dec
from grouptest import model, verify
from grouptest.verify import (
    CorpusReport,
    check_coupon_pmf,
    check_determinism,
    check_pd_trials,
    check_structural_invariants,
    check_success_conditions,
    fuzz_instance,
    run_decoder_corpus,
)


@pytest.mark.parametrize("key", dec.INVARIANTS)
def test_one_planted_violation_fails_its_check(key):
    """Every identity the corpus tallies fails exactly one check: the two
    success conditions criterion 4's, every other criterion 3's."""
    checks = (check_structural_invariants, check_success_conditions)
    report = CorpusReport(instances=10)
    assert all(check(report).ok for check in checks)
    report.violations[key] = 1
    failed = [res for res in (check(report) for check in checks) if not res.ok]
    assert [res.name for res in failed] == [
        "success_condition_equivalences"
        if key in ("comp_iff_g_zero", "dd_iff_li_positive")
        else "decoder_structural_invariants"
    ]
    assert failed[0].detail == "10 instances, 1 violations"


def test_the_sss_check_draws_only_its_instances(monkeypatch):
    """200 instances at blocks of 256 draw 200, not the whole block."""
    drawn = []
    real = verify._fuzz_block

    def counted(seed, lo, hi, *sizes):
        drawn.append(hi - lo)
        return real(seed, lo, hi, *sizes)

    monkeypatch.setattr(verify, "_fuzz_block", counted)
    monkeypatch.setattr(verify, "_kept", ((), 0, []))
    assert verify.check_sss_enumeration(200).ok
    assert sum(drawn) == 200


@pytest.mark.parametrize("name", ["comp_success_exact", "comp_masked_mean"])
def test_coupon_check_catches_a_drift_in_the_comp_law(monkeypatch, name):
    """The COMP law is checked against the exact coupon law to 1e-12."""
    assert check_coupon_pmf().ok
    real = getattr(an, name)
    monkeypatch.setattr(an, name, lambda *args: real(*args) + 1e-9)
    res = check_coupon_pmf()
    assert not res.ok
    assert name in res.detail


def test_determinism_check_reads_the_indented_text(monkeypatch):
    """Indented text that still loads to the same design, but is not json's
    bytes (CRLF line ends), fails the check."""
    assert check_determinism().ok
    real = model.design_json_chunks

    def crlf(design, indent=None):
        for chunk in real(design, indent):
            yield chunk.replace("\n", "\r\n")

    monkeypatch.setattr(model, "design_json_chunks", crlf)
    assert not check_determinism().ok


def test_pd_trial_check_catches_a_trial_that_drops_a_pd_item(monkeypatch):
    """A block that loses each trial's last PD nondefective (when it has
    one) changes the counts, and the check names the cells."""
    assert check_pd_trials(10).ok
    real = model._drop_negative

    def lossy(kind, keys, trial, n_tests, param, positive):
        kept = real(kind, keys, trial, n_tests, param, positive)
        last = np.ones(kept.shape, dtype=bool)  # each trial's last survivor
        last[:-1] = trial[kept][1:] != trial[kept][:-1]
        return kept[~last]

    monkeypatch.setattr(model, "_drop_negative", lossy)
    res = check_pd_trials(10)
    assert not res.ok
    assert "/comp/T=" in res.detail


def test_pd_trial_check_catches_a_dd_count_that_disagrees(monkeypatch):
    """A block whose DD successes are flipped fails the check, which names
    a DD cell."""
    real = model.PdBlock.__init__

    def flipped(self, *args):
        real(self, *args)
        self.dd_exact = ~self.dd_exact

    monkeypatch.setattr(model.PdBlock, "__init__", flipped)
    res = check_pd_trials(10)
    assert not res.ok
    assert "/dd/T=" in res.detail


def test_pd_trial_check_names_a_broken_identity(monkeypatch):
    """An SSS estimate one item larger than K, on the lab's trials and the
    full ones alike, breaks ``sss_size``, and the check names it."""
    real = dec.sss

    def oversized(design, outcome, node_budget):
        res = real(design, outcome, node_budget)
        extra = min(set(range(design.n_items)) - set(res.estimate), default=None)
        if extra is None:
            return res
        return replace(res, estimate=tuple(sorted(res.estimate + (extra,))))

    monkeypatch.setattr(dec, "sss", oversized)
    res = check_pd_trials(10)
    assert not res.ok
    assert "sss_size" in res.detail


@pytest.mark.parametrize(
    "name,call",
    [
        ("n_max", lambda: fuzz_instance(1, 0, n_max=1, k_max=2, t_max=4)),
        ("n_max", lambda: fuzz_instance(1, 0, n_max=10.5, k_max=2, t_max=4)),
        ("k_max", lambda: fuzz_instance(1, 0, n_max=5, k_max=-1, t_max=4)),
        ("t_max", lambda: fuzz_instance(1, 0, n_max=5, k_max=2, t_max=0)),
        ("t_max", lambda: fuzz_instance(1, 0, n_max=5, k_max=2, t_max=True)),
        ("idx", lambda: fuzz_instance(1, -1, n_max=5, k_max=2, t_max=4)),
        ("idx", lambda: fuzz_instance(1, 2**64, n_max=5, k_max=2, t_max=4)),
        ("seed", lambda: fuzz_instance(-1, 0, n_max=5, k_max=2, t_max=4)),
        ("seed", lambda: fuzz_instance(2**64, 0, n_max=5, k_max=2, t_max=4)),
        ("stop", lambda: fuzz_instance(1, 5, n_max=5, k_max=2, t_max=4, stop=5)),
        ("stop", lambda: fuzz_instance(1, 5, n_max=5, k_max=2, t_max=4, stop=6.0)),
        ("instances", lambda: run_decoder_corpus(-3)),
        ("n_max", lambda: run_decoder_corpus(0, n_max=1)),
    ],
)
def test_corpus_refuses_arguments_out_of_range(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def _same_answer(got, want):
    """Equal PD answers, the fields that take no part in equality included."""
    assert (got.items, got.masks, got.all_positive) == (want.items, want.masks, want.all_positive)
    assert (got.solo, got.explains) == (want.solo, want.explains)


@pytest.mark.parametrize("seed,n_max,k_max,t_max", [(2024, 50, 8, 40), (5, 30, 6, 40), (424242, 20, 4, 8)])
def test_corpus_outcomes_and_pd_answers_are_one_instance_s(seed, n_max, k_max, t_max):
    """Each corpus instance's outcome is `run_tests`'s, and its design's PD
    answer is that of a fresh copy of the same arrays."""
    for idx in range(300):
        inst = fuzz_instance(seed, idx, n_max=n_max, k_max=k_max, t_max=t_max)
        d = inst.design
        assert inst.outcome == model.run_tests(d, inst.truth)
        copy = model.TestDesign.from_csr(d.kind, d.n_items, d.n_tests, d.params, d.seed, d.indptr, d.indices)
        _same_answer(d.pd(inst.outcome), model.possible_defectives(copy, inst.outcome))


def test_a_corpus_block_is_checked_once(monkeypatch):
    """A corpus block draws the designs of every kind as one block, checked
    by one `_checked_block` call, and reduces that block's arrays."""
    calls = []
    checked_block = model._checked_block

    def counted(n_items, *args):
        calls.append(len(n_items))
        return checked_block(n_items, *args)

    monkeypatch.setattr(model, "_checked_block", counted)
    insts = verify._fuzz_block(2024, 0, 32, 50, 8, 40)
    assert calls == [32]
    assert {inst.design.kind for inst in insts} == set(model.DESIGN_KINDS)


def test_a_pass_draws_only_the_instances_it_reads(monkeypatch):
    """A pass fetches each index by one `fuzz_instance` call and its last
    block ends where the pass does, so 200 instances draw 200; a read past
    a short pass's end, and a full pass after it, give each index the
    instance it has when drawn on its own."""
    real_fetch, real_block = verify.fuzz_instance, verify._fuzz_block
    fetched, drawn = [], []

    def fetch(seed, idx, **sizes):
        fetched.append((idx, real_fetch(seed, idx, **sizes)))
        return fetched[-1][1]

    def block(seed, lo, hi, *sizes):
        drawn.append(hi - lo)
        return real_block(seed, lo, hi, *sizes)

    monkeypatch.setattr(verify, "fuzz_instance", fetch)
    monkeypatch.setattr(verify, "_fuzz_block", block)
    monkeypatch.setattr(verify, "_kept", ((), 0, []))
    run_decoder_corpus(200)
    assert [idx for idx, _ in fetched] == list(range(200))
    assert sum(drawn) == 200

    fetched.clear()
    run_decoder_corpus(20)
    fetched.append((25, real_fetch(2024, 25, n_max=50, k_max=8, t_max=40)))
    run_decoder_corpus(200)
    assert [idx for idx, _ in fetched] == [*range(20), 25, *range(200)]
    for idx, inst in fetched:
        (alone,) = real_block(2024, idx, idx + 1, 50, 8, 40)
        assert (inst.design, inst.truth, inst.outcome) == (alone.design, alone.truth, alone.outcome)
        _same_answer(inst.design.pd(inst.outcome), alone.design.pd(alone.outcome))
