"""Decoding algorithms for noiseless group testing.

Four decoders over a shared first step (discard every item seen in a negative
test; survivors are the Possible Defectives, PD):

* ``comp``  -- declare the whole PD set defective. Never misses a true
               defective, so its estimate is a superset of the truth.
* ``dd``    -- declare only PD items that are the unique PD member of some
               positive test. Never accuses a nondefective, so its estimate
               is a subset of the truth.
* ``scomp`` -- DD, then greedily add PD items until every positive test
               contains a declared item.
* ``sss``   -- exact smallest satisfying set, by branch and bound.

A candidate set is *satisfying* when it touches no negative test and hits
every positive one. All decoders are pure functions of (design, outcome), and
all four raise :class:`MalformedOutcomeError` when a positive test contains
no PD item. :func:`decode` runs one of them by name, and
:func:`invariant_violations` lists the identities their estimates break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import model
from .model import DefectiveSet, Instance, OutcomeVector, TestDesign, possible_defectives

DEFAULT_NODE_BUDGET = 10**6


class MalformedOutcomeError(ValueError):
    """A positive test contains no possible-defective item.

    Impossible for outcomes produced by ``run_tests``; reported instead of
    being silently decoded when outcomes come from external input.
    """


class UnresolvedSearchError(RuntimeError):
    """SSS exceeded its node budget; carries the best incumbent found."""

    def __init__(self, message: str, best: tuple[int, ...], nodes: int):
        super().__init__(message)
        self.best = best
        self.nodes = nodes


@dataclass(frozen=True)
class DecodeResult:
    algorithm: str
    estimate: tuple[int, ...]
    pd_set: tuple[int, ...]
    definite_defectives: tuple[int, ...] = ()
    search_nodes: int | None = None

    @property
    def pd_count(self) -> int:
        return len(self.pd_set)


@dataclass(frozen=True)
class EvalRecord:
    exact: bool
    false_positives: int
    false_negatives: int


def _check_outcome(design: TestDesign, outcome: OutcomeVector) -> None:
    if outcome.n_tests != design.n_tests:
        raise ValueError(
            f"outcome has {outcome.n_tests} tests, design has {design.n_tests}"
        )


def _explained_pd(design: TestDesign, outcome: OutcomeVector) -> list[int]:
    """The PD set, after checking that it explains every positive test."""
    _check_outcome(design, outcome)
    pd = possible_defectives(design, outcome)
    masks = design.item_masks
    union = 0
    for i in pd:
        union |= masks[i]
    if outcome.positive_mask & ~union:
        raise MalformedOutcomeError("positive test with no possible-defective member")
    return pd


def comp(design: TestDesign, outcome: OutcomeVector) -> DecodeResult:
    """Declare every possible defective item defective."""
    pd = tuple(_explained_pd(design, outcome))
    return DecodeResult("comp", pd, pd)


def _definite_defectives(masks: tuple[int, ...], pd: list[int]) -> list[int]:
    """PD items in some test no other PD item is in.

    Every test containing a PD item is positive, so no positivity check is
    needed. The other PD items' union comes from prefix and suffix ORs.
    """
    suffix = [0] * (len(pd) + 1)
    for idx in range(len(pd) - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] | masks[pd[idx]]
    definite = []
    prefix = 0
    for idx, i in enumerate(pd):
        if masks[i] & ~(prefix | suffix[idx + 1]):
            definite.append(i)
        prefix |= masks[i]
    return definite


def dd(design: TestDesign, outcome: OutcomeVector) -> DecodeResult:
    """Declare PD items that are the sole PD member of some positive test."""
    pd = _explained_pd(design, outcome)
    definite = _definite_defectives(design.item_masks, pd)
    return DecodeResult("dd", tuple(definite), tuple(pd), tuple(definite))


def _scomp_estimate(
    masks: tuple[int, ...], positive_mask: int, pd: list[int], definite: list[int]
) -> tuple[int, ...]:
    """DD's set plus greedy picks from an explaining PD set, sorted.

    While some positive test contains no declared item, add the PD item
    covering the most unexplained tests (ties broken by lowest item index);
    one exists as long as the PD set explains every positive test.
    """
    estimate = list(definite)
    chosen = set(definite)
    covered = 0
    for i in estimate:
        covered |= masks[i]
    uncovered = positive_mask & ~covered
    while uncovered:
        best_item = -1
        best_gain = 0
        for i in pd:
            if i in chosen:
                continue
            gain = (masks[i] & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_item = i
        chosen.add(best_item)
        estimate.append(best_item)
        uncovered &= ~masks[best_item]
    return tuple(sorted(estimate))


def scomp(design: TestDesign, outcome: OutcomeVector) -> DecodeResult:
    """DD plus greedy cover of the positive tests DD leaves unexplained."""
    pd = _explained_pd(design, outcome)
    masks = design.item_masks
    definite = _definite_defectives(masks, pd)
    estimate = _scomp_estimate(masks, outcome.positive_mask, pd, definite)
    return DecodeResult("scomp", estimate, tuple(pd), tuple(definite))


def is_satisfying(
    design: TestDesign, outcome: OutcomeVector, candidate: Iterable[int]
) -> bool:
    """True iff `candidate` hits every positive test and no negative one."""
    _check_outcome(design, outcome)
    masks = design.item_masks
    union = 0
    for i in candidate:
        if not 0 <= i < design.n_items:
            raise ValueError(f"candidate item {i} out of range")
        union |= masks[i]
    pos = outcome.positive_mask
    neg = outcome.negative_mask(design.n_tests)
    return (union & neg) == 0 and (pos & ~union) == 0


def is_masked(design: TestDesign, item: int, others: Iterable[int]) -> bool:
    """True iff every test containing `item` also contains a member of `others`.

    An item appearing in no test is vacuously masked by any set.
    """
    others = set(others)
    if item in others:
        raise ValueError(f"item {item} must not belong to the masking set")
    if not 0 <= item < design.n_items:
        raise ValueError(f"item {item} out of range")
    masks = design.item_masks
    union = 0
    for j in others:
        if not 0 <= j < design.n_items:
            raise ValueError(f"item {j} out of range")
        union |= masks[j]
    return masks[item] & ~union == 0


def sss(
    design: TestDesign,
    outcome: OutcomeVector,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DecodeResult:
    """Exact smallest satisfying set by branch and bound.

    Returns the minimum-cardinality satisfying set; among minimum-size sets
    the lexicographically smallest sorted item tuple is returned, making the
    output deterministic. The search is restricted to PD items (no other item
    can belong to a satisfying set) and starts from the SCOMP estimate as
    incumbent. Expanding more than `node_budget` nodes raises
    :class:`UnresolvedSearchError` carrying the best incumbent.
    """
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    pd = _explained_pd(design, outcome)
    masks = design.item_masks
    pos = outcome.positive_mask
    if pos == 0:
        return DecodeResult("sss", (), tuple(pd), search_nodes=0)

    # re-index positive tests into a compact bitmask universe
    pos_tests = [t for t in range(design.n_tests) if (pos >> t) & 1]
    bit_of_test = {t: b for b, t in enumerate(pos_tests)}
    target = (1 << len(pos_tests)) - 1
    cover: dict[int, int] = {}
    for i in pd:
        m = 0
        for t in design.columns[i]:
            m |= 1 << bit_of_test[t]
        if m:
            cover[i] = m
    candidates = sorted(cover)

    best = _scomp_estimate(masks, pos, pd, _definite_defectives(masks, pd))
    best_size = len(best)

    # per-positive-test candidate lists, used to pick a branching test
    items_of_bit: list[list[int]] = [[] for _ in pos_tests]
    for i in candidates:
        m = cover[i]
        b = 0
        while m:
            if m & 1:
                items_of_bit[b].append(i)
            m >>= 1
            b += 1

    nodes = 0

    def search(covered: int, chosen: list[int]) -> None:
        nonlocal nodes, best, best_size
        if covered == target:
            cand = tuple(sorted(chosen))
            if (len(cand), cand) < (best_size, best):
                best, best_size = cand, len(cand)
            return
        uncovered = target & ~covered
        branch_count = -1
        branch_items: list[int] = []
        m = uncovered
        b = 0
        while m:
            if m & 1:
                live = [i for i in items_of_bit[b] if i not in chosen_set]
                if branch_count < 0 or len(live) < branch_count:
                    branch_count = len(live)
                    branch_items = live
            m >>= 1
            b += 1
        if branch_count == 0:
            return  # this branch cannot cover some test
        # lower bound: uncovered tests / best single-item coverage among ALL
        # live items (not just those covering the branch test), else the
        # bound overshoots and prunes optimal subtrees
        max_gain = 0
        for i in candidates:
            if i in chosen_set:
                continue
            gain = (cover[i] & uncovered).bit_count()
            if gain > max_gain:
                max_gain = gain
        lb = (uncovered.bit_count() + max_gain - 1) // max_gain
        if len(chosen) + lb > best_size:
            return
        nodes += 1
        if nodes > node_budget:
            raise UnresolvedSearchError(
                f"node budget {node_budget} exceeded", best, nodes
            )
        # branch over the items covering the most-constrained uncovered test,
        # trying larger coverage first (ties by item index)
        order = sorted(branch_items, key=lambda i: (-(cover[i] & uncovered).bit_count(), i))
        for i in order:
            chosen.append(i)
            chosen_set.add(i)
            search(covered | cover[i], chosen)
            chosen.pop()
            chosen_set.remove(i)

    chosen_set: set[int] = set()
    search(0, [])
    return DecodeResult("sss", best, tuple(pd), search_nodes=nodes)


# the decoders decode runs, by the names of their functions in this module
ALGORITHMS = ("comp", "dd", "scomp", "sss")


def decode(
    alg: str,
    design: TestDesign,
    outcome: OutcomeVector,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DecodeResult:
    """Run the decoder named `alg`; `node_budget` applies to SSS only.

    The decoder is looked up among the module's globals at call time, so a
    function patched onto this module (a tracer's wrapper) is the one run.
    """
    if alg not in ALGORITHMS:
        raise ValueError(f"unknown decoder {alg!r}; expected one of {ALGORITHMS}")
    if alg == "sss":
        return sss(design, outcome, node_budget)
    return globals()[alg](design, outcome)


def some_defective_masked(design: TestDesign, truth: DefectiveSet) -> bool:
    """True iff some defective is masked by the other defectives.

    The true set is then not the smallest satisfying set, so SSS fails.
    """
    items = truth.items
    return any(is_masked(design, i, [j for j in items if j != i]) for i in items)


# every identity invariant_violations checks
INVARIANTS = (
    "dd_subset_truth",
    "truth_subset_comp",
    "sss_size",
    "scomp_satisfying",
    "sss_satisfying",
    "comp_iff_g_zero",
    "dd_iff_li_positive",
    "dd_exact_implies_scomp",
    "stats_identity",
)


def invariant_violations(
    instance: Instance, estimates: dict[str, tuple[int, ...]]
) -> list[str]:
    """The keys of :data:`INVARIANTS` that `estimates` break on `instance`.

    `estimates` maps decoder names to their estimates; identities about a
    decoder it lacks are not checked. The per-item count identity
    ``stats_identity`` (W_{K\\i} + M_i = covered tests, L_i <= M_i) is
    listed once per defective that breaks it.
    """
    design, truth, outcome = instance.design, instance.truth, instance.outcome
    stats = model.compute_item_stats(design, truth, outcome)
    truth_set = set(truth.items)
    found = []
    if "comp" in estimates:
        comp_est = set(estimates["comp"])
        if not truth_set <= comp_est:
            found.append("truth_subset_comp")
        if (comp_est == truth_set) != (stats.masked_nondefectives == 0):
            found.append("comp_iff_g_zero")
    dd_exact = False
    if "dd" in estimates:
        dd_est = set(estimates["dd"])
        dd_exact = dd_est == truth_set
        if not dd_est <= truth_set:
            found.append("dd_subset_truth")
        if dd_exact != all(l > 0 for l in stats.solo_pd_tests):
            found.append("dd_iff_li_positive")
    if "scomp" in estimates:
        if not is_satisfying(design, outcome, estimates["scomp"]):
            found.append("scomp_satisfying")
        if dd_exact and set(estimates["scomp"]) != truth_set:
            found.append("dd_exact_implies_scomp")
    if "sss" in estimates:
        if len(estimates["sss"]) > truth.k:
            found.append("sss_size")
        if not is_satisfying(design, outcome, estimates["sss"]):
            found.append("sss_satisfying")
    for w_i, m_i, l_i in zip(
        stats.covered_without, stats.solo_defective_tests, stats.solo_pd_tests
    ):
        if w_i + m_i != stats.covered_tests or l_i > m_i:
            found.append("stats_identity")
    return found


def evaluate(result: DecodeResult, truth: DefectiveSet) -> EvalRecord:
    """Compare an estimate against the ground truth."""
    est = set(result.estimate)
    true = set(truth.items)
    fp = len(est - true)
    fn = len(true - est)
    return EvalRecord(exact=(fp == 0 and fn == 0), false_positives=fp, false_negatives=fn)
