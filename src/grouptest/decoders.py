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

Every decoder reads the PD masks the design keeps (``TestDesign.pd``). A
candidate set is *satisfying* when it touches no negative test and hits every
positive one. All decoders are pure functions of (design, outcome), and all
four raise :class:`MalformedOutcomeError` when a positive test contains no
PD item. :func:`decode` runs one of them by name, and
:func:`invariant_violations` lists the identities their estimates break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import model
from .model import DefectiveSet, Instance, OutcomeVector, TestDesign, is_satisfying

# not called here: bound on this module, as on model, for callers that wrap
# the PD step by name (the benchmark's tracer)
from .model import possible_defectives

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


def _explained_pd(design: TestDesign, outcome: OutcomeVector) -> model.PossibleDefectives:
    """The design's PD answer for `outcome`, checked to explain every positive test."""
    answer = design.pd(outcome)
    if not answer.explains:
        raise MalformedOutcomeError("positive test with no possible-defective member")
    return answer


def comp(design: TestDesign, outcome: OutcomeVector) -> DecodeResult:
    """Declare every possible defective item defective."""
    pd = _explained_pd(design, outcome).items
    return DecodeResult("comp", pd, pd)


def _definite_defectives(solo: Sequence[int]) -> list[int]:
    """Positions of the PD masks holding a test no other PD mask holds.

    `solo` holds each mask's tests that no other mask holds (a PD answer's
    :attr:`~model.PossibleDefectives.solo`). Every test containing a PD item
    is positive, so no positivity check is needed.
    """
    return [j for j, s in enumerate(solo) if s]


def dd(design: TestDesign, outcome: OutcomeVector) -> DecodeResult:
    """Declare PD items that are the sole PD member of some positive test."""
    answer = _explained_pd(design, outcome)
    pd = answer.items
    definite = tuple(pd[j] for j in _definite_defectives(answer.solo))
    return DecodeResult("dd", definite, pd, definite)


def _scomp_estimate(masks: Sequence[int], target: int, definite: list[int]) -> list[int]:
    """Positions of DD's set plus greedy picks covering `target`, sorted.

    While some test of `target` is uncovered, add the PD mask covering the
    most uncovered tests (ties broken by lowest position); one exists as long
    as the masks explain every test of `target`. A picked mask covers no
    uncovered test, so it is never picked again.
    """
    estimate = list(definite)
    uncovered = target
    for j in estimate:
        uncovered &= ~masks[j]
    while uncovered:
        best_pos = -1
        best_gain = 0
        for j, m in enumerate(masks):
            gain = (m & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_pos = j
        estimate.append(best_pos)
        uncovered &= ~masks[best_pos]
    return sorted(estimate)


def scomp(design: TestDesign, outcome: OutcomeVector) -> DecodeResult:
    """DD plus greedy cover of the positive tests DD leaves unexplained."""
    answer = _explained_pd(design, outcome)
    pd = answer.items
    definite = _definite_defectives(answer.solo)
    estimate = _scomp_estimate(answer.masks, answer.all_positive, definite)
    return DecodeResult(
        "scomp",
        tuple(pd[j] for j in estimate),
        pd,
        tuple(pd[j] for j in definite),
    )


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
    :class:`UnresolvedSearchError` carrying the best incumbent; ValueError
    unless `node_budget` is an integer (not a bool) of at least 1.
    """
    if not model.is_integer(node_budget) or node_budget < 1:
        raise ValueError(f"node_budget must be an integer >= 1, got {node_budget!r}")
    answer = _explained_pd(design, outcome)
    pd, cover = answer.items, answer.masks
    target = answer.all_positive
    best = tuple(_scomp_estimate(cover, target, _definite_defectives(answer.solo)))
    best_size = len(best)
    if best_size < 2:
        # no positive test, so no node; or the root alone, whose completion
        # is SCOMP's single mask: a DD item's solo test is in no other mask,
        # and the greedy pick is the lowest position among the masks holding
        # every test, so no single mask beats it in the tie-break
        return DecodeResult("sss", tuple(pd[j] for j in best), tuple(pd), search_nodes=best_size)

    # the candidates of each positive test, as positions in the PD list and
    # as a set of them (bit j for position j)
    items_of_bit: list[list[int]] = [[] for _ in range(target.bit_length())]
    holders = [0] * target.bit_length()
    for j, m in enumerate(cover):
        while m:
            low = m & -m
            b = low.bit_length() - 1
            items_of_bit[b].append(j)
            holders[b] |= 1 << j
            m ^= low
    complement = [~m for m in cover]
    # a child's sort key packs its negated gain above its position, so
    # that integer order is larger gain first, ties by position
    shift = len(cover).bit_length()
    position = (1 << shift) - 1

    # each node branches on its uncovered test with the fewest candidates,
    # ties by test: the lowest uncovered test of the first of these groups of
    # tests, one per candidate count in increasing count, that holds one
    by_count: dict[int, int] = {}
    for b, items in enumerate(items_of_bit):
        by_count[len(items)] = by_count.get(len(items), 0) | 1 << b
    groups = [by_count[c] for c in sorted(by_count)]

    # the masks with their own test counts, largest first, and at_least[s],
    # the set of positions whose masks hold at least s tests
    sizes = [m.bit_count() for m in cover]
    by_size = sorted(zip(sizes, cover), reverse=True)
    top = by_size[0][0]
    at_least = [0] * (top + 1)
    for j, size in enumerate(sizes):
        at_least[size] |= 1 << j
    for size in range(top - 1, -1, -1):
        at_least[size] |= at_least[size + 1]
    # a last entry of size 0 ends every scan of by_size below, since need > 1
    by_size.append((0, 0))
    # touch[j]: the set of positions whose masks share a test with mask j,
    # built on first use (0 until then; a nonempty mask touches itself)
    touch = [0] * len(cover)

    # the root: the incumbent covers target with best_size masks, so some
    # mask gains ceil(count / best_size) tests there and it is kept
    nodes = 1

    def search(uncovered: int, count: int, chosen: list[int], hit: int) -> None:
        # a kept node, already counted, whose slack best_size - len(chosen)
        # is at least 2: `count` tests are uncovered, and `hit` is the set of
        # positions whose masks meet a chosen one, so the masks outside it
        # gain their full size. Each child is decided here, before the call:
        # only kept children of slack >= 2 are searched.
        nonlocal nodes, best, best_size
        for group in groups:
            group &= uncovered
            if group:
                break
        # a chosen item covers no uncovered test, so the candidates of an
        # uncovered test are all unchosen, and there is at least one: the PD
        # set explains every positive test. Branch over the items covering
        # the branch test, trying larger coverage first (ties by position)
        branch = items_of_bit[(group & -group).bit_length() - 1]
        depth = len(chosen) + 1
        for key in sorted([-(cover[j] & uncovered).bit_count() << shift | j for j in branch]):
            left = count + (key >> shift)
            j = key & position
            if not left:
                # the first completion has fewer items than the incumbent;
                # the later ones are lexicographically larger, and the other
                # siblings need more items
                best = tuple(sorted([*chosen, j]))
                best_size = len(best)
                return
            # the child prunes if no mask gains ceil(left / slack); none
            # gains more than `top`, and the later siblings gain no more and
            # have no more slack, so they would prune too
            slack = best_size - depth
            if left > top * slack:
                return
            rest = uncovered & complement[j]
            if slack == 1:
                # only a mask holding every test of `rest` completes a cover;
                # it holds the lowest one, whose candidates are listed by
                # position, so the first such candidate gives the smallest
                # sorted tuple
                for last in items_of_bit[(rest & -rest).bit_length() - 1]:
                    if not rest & complement[last]:
                        break
                else:
                    continue
            else:
                if not touch[j]:
                    t = 0
                    m = cover[j]
                    while m:
                        low = m & -m
                        t |= holders[low.bit_length() - 1]
                        m ^= low
                    touch[j] = t
                child_hit = hit | touch[j]
                # lower bound: uncovered tests / best single-item gain among
                # ALL masks (not just those covering the branch test), else
                # the bound overshoots and prunes optimal subtrees. The child
                # is kept iff some mask gains `need`; every test of `rest`
                # has a candidate, so a mask gains 1. A mask outside
                # child_hit of size >= need is a witness; else the touched
                # masks gain less than their size, so only those larger than
                # `need` can be one
                need = -(-left // slack)
                if need > 1 and not at_least[need] & ~child_hit:
                    for size, m in by_size:
                        if size <= need or (m & rest).bit_count() >= need:
                            break
                    if size <= need:
                        continue
            nodes += 1
            if nodes > node_budget:
                raise UnresolvedSearchError(
                    f"node budget {node_budget} exceeded", tuple(pd[j] for j in best), nodes
                )
            if slack == 1:
                # the cover has best_size items, so it can only win the
                # tie-break
                cand = tuple(sorted([*chosen, j, last]))
                if cand < best:
                    best = cand
            else:
                chosen.append(j)
                search(rest, left, chosen, child_hit)
                chosen.pop()

    try:
        search(target, target.bit_count(), [], 0)
    finally:
        # search refers to itself through its closure; emptying that cell
        # frees the decode's lists on return instead of at the next cyclic
        # garbage collection
        del search
    return DecodeResult("sss", tuple(pd[j] for j in best), tuple(pd), search_nodes=nodes)


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
