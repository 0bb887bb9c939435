"""Byte-for-byte pins of the determinism contract.

A design depends only on (seed, kind, sizes, params), and trial r of arm a at
T runs with seed ``mix64(master_seed, a, T, r)``. A refactor of the design,
outcome or decoder plumbing must therefore leave the design JSON, the
``simulate`` CSV and the SSS search unchanged to the byte. The digests and the
CSV below were computed with the tuple-of-tuples design representation that
preceded the CSR arrays.
"""

import hashlib
import io
import math

import pytest

from grouptest import (
    DesignArm,
    ExperimentConfig,
    design_from_json,
    design_to_json,
    gen_bernoulli,
    gen_exact_constant,
    gen_near_constant,
    regenerate_design,
    run_success_curve,
    run_tests,
    sample_defective_set,
)
from grouptest import decoders, model, verify
from grouptest.rng import bounded_at, mix64, u64_at, unit_at
from grouptest.simlab import build_design, trial_seed

LN2 = math.log(2)
P_FIG2 = LN2 / 10  # nu = ln 2 at K = 10


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (factory, SHA-256 of design_to_json(design))
DESIGN_PINS = [
    (
        lambda: gen_bernoulli(20, 10, 0.2, 7),
        "45869fbd36babe33f3f372f2f75a2c6420f9eaf659b51bd74803dfaf8a07b6a3",
    ),
    (
        lambda: gen_bernoulli(500, 50, P_FIG2, 11, nu=LN2),
        "e50bdfcabb7e72937c42bc49eb501c1646ebff2c9662c74e2b37a75abb1f8867",
    ),
    (
        lambda: gen_bernoulli(500, 400, P_FIG2, 11, nu=LN2),
        "0b27b527bf8f4afffcd5f7d6e3b71a7b28eb69fe1a8b3199215a44fe4648e484",
    ),
    (
        lambda: gen_near_constant(20, 10, 3, 7),
        "b2483afe2cb2aeff76ed18ba94f4886de07c2af021610d24f11a5b15a000705d",
    ),
    (
        lambda: gen_near_constant(500, 50, 3, 11, nu=LN2),
        "93797dd12da0791df9abb7009af11d9e1376f7989bdba9831a8da6959a41da2a",
    ),
    (
        lambda: gen_near_constant(500, 400, 28, 11, nu=LN2),
        "8a8933796d7184e09163ece808e77ecfc09bc5672b736f1c3d286584be2843c4",
    ),
    (
        lambda: gen_exact_constant(20, 10, 3, 7),
        "d6210aad78fd5b370a57de0de53a2cf55536f2494188deac572bfb15be27230b",
    ),
    (
        lambda: gen_exact_constant(500, 50, 3, 11, nu=LN2),
        "9772365f723325a89a0716ad4ca4cad4936acf48340869fa156d670134d0bb37",
    ),
    (
        lambda: gen_exact_constant(500, 400, 28, 11, nu=LN2),
        "a66c59ad21d6f09c2a1848d26fc5b30f7441b0f1976a3c5ff0a2d11364a5668b",
    ),
    (
        lambda: gen_near_constant(10_000, 384, 17, 3, nu=LN2),
        "66106194e738c331e36810b3db67b6967f60307910a06766f3d59dc80b6c2c8c",
    ),
    # 3.84M cells: spans many generation blocks
    (
        lambda: gen_bernoulli(10_000, 384, LN2 / 16, 3, nu=LN2),
        "4be4e86691ff8c06f07c372ab1cc54c40c8d9e30bb856ce290b779a0ba806195",
    ),
    # 78k draws: spans many generation blocks
    (
        lambda: gen_exact_constant(3000, 384, 26, 5),
        "25ed26393235dd485abafac65b07a59d2441611a715bcf1b71dc53fbbc619fa2",
    ),
]


@pytest.mark.parametrize("factory,expected", DESIGN_PINS)
def test_design_json_digest(factory, expected):
    design = factory()
    text = design_to_json(design)
    assert _sha256(text) == expected
    assert design_from_json(text) == design
    assert regenerate_design(design) == design


def _reference_config(**overrides):
    kwargs = dict(
        n_items=60,
        k=4,
        t_grid=(8, 16, 24, 32),
        designs=(DesignArm("ncc", LN2), DesignArm("bernoulli", LN2)),
        decoders=("comp", "dd", "scomp", "sss"),
        trials=30,
        master_seed=2016,
        sss_node_budget=20,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# The small budget sends some SSS searches to the unresolved column, so the
# node count of each search is pinned too.
REFERENCE_CSV = """\
design,decoder,nu,N,K,T,trials,successes,unresolved,p_hat,ci_lo,ci_hi
near_constant,comp,0.693147,60,4,8,30,0,0,0.000000,0.000000,0.113513
near_constant,comp,0.693147,60,4,16,30,0,0,0.000000,0.000000,0.113513
near_constant,comp,0.693147,60,4,24,30,2,0,0.066667,0.018477,0.213235
near_constant,comp,0.693147,60,4,32,30,7,0,0.233333,0.117924,0.409283
near_constant,dd,0.693147,60,4,8,30,0,0,0.000000,0.000000,0.113513
near_constant,dd,0.693147,60,4,16,30,0,0,0.000000,0.000000,0.113513
near_constant,dd,0.693147,60,4,24,30,5,0,0.166667,0.073365,0.335644
near_constant,dd,0.693147,60,4,32,30,24,0,0.800000,0.626943,0.904949
near_constant,scomp,0.693147,60,4,8,30,0,0,0.000000,0.000000,0.113513
near_constant,scomp,0.693147,60,4,16,30,2,0,0.066667,0.018477,0.213235
near_constant,scomp,0.693147,60,4,24,30,14,0,0.466667,0.302324,0.638577
near_constant,scomp,0.693147,60,4,32,30,28,0,0.933333,0.786765,0.981523
near_constant,sss,0.693147,60,4,8,30,0,27,0.000000,0.000000,0.113513
near_constant,sss,0.693147,60,4,16,30,1,7,0.033333,0.005909,0.166704
near_constant,sss,0.693147,60,4,24,30,15,0,0.500000,0.331541,0.668459
near_constant,sss,0.693147,60,4,32,30,28,0,0.933333,0.786765,0.981523
bernoulli,comp,0.693147,60,4,8,30,0,0,0.000000,0.000000,0.113513
bernoulli,comp,0.693147,60,4,16,30,0,0,0.000000,0.000000,0.113513
bernoulli,comp,0.693147,60,4,24,30,1,0,0.033333,0.005909,0.166704
bernoulli,comp,0.693147,60,4,32,30,0,0,0.000000,0.000000,0.113513
bernoulli,dd,0.693147,60,4,8,30,0,0,0.000000,0.000000,0.113513
bernoulli,dd,0.693147,60,4,16,30,0,0,0.000000,0.000000,0.113513
bernoulli,dd,0.693147,60,4,24,30,1,0,0.033333,0.005909,0.166704
bernoulli,dd,0.693147,60,4,32,30,12,0,0.400000,0.245906,0.576796
bernoulli,scomp,0.693147,60,4,8,30,0,0,0.000000,0.000000,0.113513
bernoulli,scomp,0.693147,60,4,16,30,1,0,0.033333,0.005909,0.166704
bernoulli,scomp,0.693147,60,4,24,30,8,0,0.266667,0.141827,0.444480
bernoulli,scomp,0.693147,60,4,32,30,18,0,0.600000,0.423204,0.754094
bernoulli,sss,0.693147,60,4,8,30,0,3,0.000000,0.000000,0.113513
bernoulli,sss,0.693147,60,4,16,30,0,3,0.000000,0.000000,0.113513
bernoulli,sss,0.693147,60,4,24,30,8,0,0.266667,0.141827,0.444480
bernoulli,sss,0.693147,60,4,32,30,18,0,0.600000,0.423204,0.754094
"""


def test_reference_success_curve_csv():
    buf = io.StringIO()
    run_success_curve(_reference_config()).write_csv(buf)
    assert buf.getvalue().replace("\r\n", "\n") == REFERENCE_CSV


# The exact-constant arms at the reference sizes, at the COMP-optimal nu and
# at a denser one, through all four decoders: the elimination reads these
# rows in passes of their own (`model._drop_negative`).
EXACT_CONSTANT_CSV = """\
design,decoder,nu,N,K,T,trials,successes,unresolved,p_hat,ci_lo,ci_hi
exact_constant,comp,0.693147,60,4,8,30,0,0,0.000000,0.000000,0.113513
exact_constant,comp,0.693147,60,4,16,30,0,0,0.000000,0.000000,0.113513
exact_constant,comp,0.693147,60,4,24,30,0,0,0.000000,0.000000,0.113513
exact_constant,comp,0.693147,60,4,32,30,8,0,0.266667,0.141827,0.444480
exact_constant,dd,0.693147,60,4,8,30,0,0,0.000000,0.000000,0.113513
exact_constant,dd,0.693147,60,4,16,30,0,0,0.000000,0.000000,0.113513
exact_constant,dd,0.693147,60,4,24,30,1,0,0.033333,0.005909,0.166704
exact_constant,dd,0.693147,60,4,32,30,18,0,0.600000,0.423204,0.754094
exact_constant,scomp,0.693147,60,4,8,30,0,0,0.000000,0.000000,0.113513
exact_constant,scomp,0.693147,60,4,16,30,1,0,0.033333,0.005909,0.166704
exact_constant,scomp,0.693147,60,4,24,30,17,0,0.566667,0.391973,0.726225
exact_constant,scomp,0.693147,60,4,32,30,22,0,0.733333,0.555520,0.858173
exact_constant,sss,0.693147,60,4,8,30,0,29,0.000000,0.000000,0.113513
exact_constant,sss,0.693147,60,4,16,30,0,10,0.000000,0.000000,0.113513
exact_constant,sss,0.693147,60,4,24,30,22,1,0.733333,0.555520,0.858173
exact_constant,sss,0.693147,60,4,32,30,23,0,0.766667,0.590717,0.882076
exact_constant,comp,1.500000,60,4,8,30,0,0,0.000000,0.000000,0.113513
exact_constant,comp,1.500000,60,4,16,30,0,0,0.000000,0.000000,0.113513
exact_constant,comp,1.500000,60,4,24,30,2,0,0.066667,0.018477,0.213235
exact_constant,comp,1.500000,60,4,32,30,2,0,0.066667,0.018477,0.213235
exact_constant,dd,1.500000,60,4,8,30,0,0,0.000000,0.000000,0.113513
exact_constant,dd,1.500000,60,4,16,30,0,0,0.000000,0.000000,0.113513
exact_constant,dd,1.500000,60,4,24,30,2,0,0.066667,0.018477,0.213235
exact_constant,dd,1.500000,60,4,32,30,1,0,0.033333,0.005909,0.166704
exact_constant,scomp,1.500000,60,4,8,30,0,0,0.000000,0.000000,0.113513
exact_constant,scomp,1.500000,60,4,16,30,0,0,0.000000,0.000000,0.113513
exact_constant,scomp,1.500000,60,4,24,30,3,0,0.100000,0.034600,0.256211
exact_constant,scomp,1.500000,60,4,32,30,6,0,0.200000,0.095051,0.373057
exact_constant,sss,1.500000,60,4,8,30,0,19,0.000000,0.000000,0.113513
exact_constant,sss,1.500000,60,4,16,30,0,20,0.000000,0.000000,0.113513
exact_constant,sss,1.500000,60,4,24,30,3,12,0.100000,0.034600,0.256211
exact_constant,sss,1.500000,60,4,32,30,5,7,0.166667,0.073365,0.335644
"""


def test_exact_constant_success_curve_csv():
    config = _reference_config(designs=(DesignArm("ccw", LN2), DesignArm("ccw", 1.5)))
    buf = io.StringIO()
    run_success_curve(config).write_csv(buf)
    assert buf.getvalue().replace("\r\n", "\n") == EXACT_CONSTANT_CSV


def test_reference_sss_searches():
    """Estimate and node count of every full-budget SSS search in the
    reference config, as one digest (5818 nodes in all, 512 at most)."""
    config = _reference_config()
    rows = []
    for arm_id, arm in enumerate(config.designs):
        for t in config.t_grid:
            for r in range(config.trials):
                seed = trial_seed(config.master_seed, arm_id, t, r)
                design = build_design(arm, config.n_items, config.k, t, seed)
                truth = sample_defective_set(config.n_items, config.k, seed)
                res = decoders.sss(design, run_tests(design, truth))
                kind = "ncc" if arm_id == 0 else "bernoulli"
                estimate = " ".join(map(str, res.estimate))
                rows.append(f"{kind},{t},{r},{res.search_nodes},{estimate}")
    nodes = [int(row.split(",")[3]) for row in rows]
    assert (sum(nodes), max(nodes)) == (5818, 512)
    assert _sha256("\n".join(rows)) == (
        "46be3932688ec264258eb830be66321fed07c9d2bb3d2f997f9c56f55dd8e7cc"
    )


# The sss-deep benchmark pool: near-constant, nu = ln 2, N=500, K=10, T=50,
# below the DD threshold, where a search expands about 2000 nodes; the
# reference config's searches above never pass 512.
SSS_DEEP_PINS = [
    (0, 2002, (58, 81, 225, 330, 341, 367, 432)),
    (1, 1930, (6, 39, 49, 215, 328, 457, 476, 499)),
]


@pytest.mark.parametrize("r,nodes,estimate", SSS_DEEP_PINS)
def test_sss_deep_pool_search(r, nodes, estimate):
    seed = trial_seed(0, 0, 50, r)
    design = build_design(DesignArm("ncc", LN2), 500, 10, 50, seed)
    truth = sample_defective_set(500, 10, seed)
    res = decoders.sss(design, run_tests(design, truth))
    assert (res.search_nodes, res.estimate) == (nodes, estimate)


@pytest.mark.parametrize("r,nodes,estimate", SSS_DEEP_PINS)
def test_sss_deep_pool_budget_edge(r, nodes, estimate):
    """One node short of its budget the search stops at its last node, which
    it counts; the incumbent there is already the estimate. Given exactly its
    node count, it resolves."""
    seed = trial_seed(0, 0, 50, r)
    design = build_design(DesignArm("ncc", LN2), 500, 10, 50, seed)
    outcome = run_tests(design, sample_defective_set(500, 10, seed))
    with pytest.raises(decoders.UnresolvedSearchError) as err:
        decoders.sss(design, outcome, nodes - 1)
    assert (err.value.nodes, err.value.best) == (nodes, estimate)
    assert decoders.sss(design, outcome, nodes).estimate == estimate


def _scalar_fuzz_instance(seed, idx, *, n_max, k_max, t_max):
    """The corpus's instance rule drawn one instance at a time, through the
    public generators: instance idx of a corpus depends only on (seed, idx,
    sizes)."""
    h = mix64(seed, idx)
    n = 2 + bounded_at(h, 0, n_max - 1)
    t = 1 + bounded_at(h, 1, t_max)
    k = bounded_at(h, 2, min(k_max, n) + 1)
    kind = model.DESIGN_KINDS[bounded_at(h, 3, 3)]
    if kind == model.KIND_BERNOULLI:
        params = model.DesignParams(p=0.05 + 0.5 * unit_at(h, 4))
    else:
        params = model.DesignParams(draws=1 + bounded_at(h, 4, min(8, t)))
    design = model.generate_design(kind, n, t, u64_at(h, 5), params)
    truth = model.sample_defective_set(n, k, u64_at(h, 6))
    return model.Instance(design, truth, run_tests(design, truth))


def _assert_same_instance(got, want):
    """Equal designs, truths and outcomes, with the same index dtype and the
    same Python types of sizes, seed and params."""
    assert (got.design, got.truth, got.outcome) == (want.design, want.truth, want.outcome)
    assert got.design.indices.dtype == want.design.indices.dtype
    for design in (got.design, want.design):
        assert type(design.n_items) is type(design.n_tests) is type(design.seed) is int
    assert list(map(type, vars(got.design.params).values())) == list(
        map(type, vars(want.design.params).values())
    )


# (seed, n_max, k_max, t_max) of the corpora the tests, criteria and checks read
CORPUS_PINS = [(2024, 50, 8, 40), (5, 30, 6, 40), (424242, 20, 4, 8), (77, 14, 4, 16), (13, 50, 8, 40)]


@pytest.mark.parametrize("seed,n_max,k_max,t_max", CORPUS_PINS)
def test_corpus_instances_follow_the_scalar_rule(seed, n_max, k_max, t_max):
    sizes = dict(n_max=n_max, k_max=k_max, t_max=t_max)
    for idx in range(300):
        _assert_same_instance(
            verify.fuzz_instance(seed, idx, **sizes), _scalar_fuzz_instance(seed, idx, **sizes)
        )


def test_corpus_instances_in_any_order():
    """Out-of-order and repeated indices, and changes of seed or sizes
    between calls, give each index its own instance."""
    calls = [(2024, idx, 50, 8, 40) for idx in (40, 3, 40, 31, 32)]
    calls += [(5, 40, 50, 8, 40), (2024, 40, 30, 6, 40), (2024, 40, 50, 8, 40), (2024, 0, 50, 8, 41)]
    calls += [(7, 2**64 - 1, 50, 8, 40), (7, 2**64 - 2, 50, 8, 40), (7, 2**64 - 1, 50, 8, 40)]
    for seed, idx, n_max, k_max, t_max in calls:
        sizes = dict(n_max=n_max, k_max=k_max, t_max=t_max)
        _assert_same_instance(
            verify.fuzz_instance(seed, idx, **sizes), _scalar_fuzz_instance(seed, idx, **sizes)
        )


def _instance_record(inst):
    """Everything a corpus instance holds: the design's kind, sizes, params,
    seed and CSR arrays, the truth, the outcome, and the PD answer the
    design carries."""
    d = inst.design
    bits, pd = d._pd
    return (
        d.kind, d.n_items, d.n_tests, vars(d.params), d.seed, d.indptr.tolist(),
        d.indices.dtype, d.indices.tolist(), inst.truth.items, inst.outcome.bits,
        bits, pd.items, pd.masks, pd.all_positive, pd.solo, pd.explains,
    )


@pytest.mark.parametrize("seed,n_max,k_max,t_max", [(2024, 50, 8, 40), (606, 10, 3, 8)])
def test_corpus_instances_whatever_the_block_size(monkeypatch, seed, n_max, k_max, t_max):
    """Instances 0-599 are the same with blocks of at most 1, 7, 32 or 256
    instances, read with a stop at 200 (as a 200-instance pass reads them)
    or without one."""
    sizes = dict(n_max=n_max, k_max=k_max, t_max=t_max)
    runs = []
    for cap in (1, 7, 32, 256):
        monkeypatch.setattr(verify, "_BLOCK_INSTANCES", cap)
        for stop in (None, 200):
            monkeypatch.setattr(verify, "_kept", ((), 0, []))
            runs.append([
                _instance_record(verify.fuzz_instance(seed, idx, **sizes, stop=stop if idx < 200 else None))
                for idx in range(600)
            ])
    assert all(run == runs[0] for run in runs[1:])
