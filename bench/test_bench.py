"""Tests of the benchmark's own oracles and output contract.

    python3 -m pytest -q bench

The oracles are pinned against brute-force enumeration on tiny instances.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _comp_exact_by_enumeration(columns_law, n_items, k):
    """Sum of weight over all designs where COMP's estimate equals items 0..k-1."""
    total = 0.0
    for weight, cols in columns_law:
        positive = set().union(*cols[:k])
        masked = any(set(cols[i]) <= positive for i in range(k, n_items))
        total += 0.0 if masked else weight
    return total


@pytest.mark.parametrize("n_items,k,n_tests,draws", [(3, 1, 3, 2), (4, 2, 3, 1), (3, 1, 4, 2)])
def test_near_constant_comp_success_matches_enumeration(n_items, k, n_tests, draws):
    per_item = list(itertools.product(range(n_tests), repeat=draws))
    weight = 1.0 / len(per_item) ** n_items
    law = ((weight, cols) for cols in itertools.product(per_item, repeat=n_items))
    want = _comp_exact_by_enumeration(law, n_items, k)
    got = oracles.comp_success_near_constant(n_items, k, n_tests, draws)
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n_items,k,n_tests,p", [(3, 1, 3, 0.3), (3, 2, 3, 0.5), (4, 1, 2, 0.2)])
def test_bernoulli_comp_success_matches_enumeration(n_items, k, n_tests, p):
    subsets = [tuple(t for t in range(n_tests) if mask >> t & 1) for mask in range(1 << n_tests)]

    def law():
        for cols in itertools.product(subsets, repeat=n_items):
            ones = sum(map(len, cols))
            yield p**ones * (1 - p) ** (n_items * n_tests - ones), cols

    want = _comp_exact_by_enumeration(law(), n_items, k)
    got = oracles.comp_success_bernoulli(n_items, k, n_tests, p)
    assert got == pytest.approx(want, abs=1e-12)


def test_distinct_count_pmf_matches_enumeration():
    draws, n_tests = 4, 3
    counts = np.zeros(n_tests + 1)
    for seq in itertools.product(range(n_tests), repeat=draws):
        counts[len(set(seq))] += 1
    want = counts / counts.sum()
    assert oracles.distinct_count_pmf(draws, n_tests) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n,p", [(12, 0.3), (40, 0.9), (7, 0.0), (7, 1.0)])
def test_binom_tails_match_direct_sums(n, p):
    pmf = [math.comb(n, x) * p**x * (1 - p) ** (n - x) for x in range(n + 1)]
    for s in range(n + 1):
        lo, hi = oracles.binom_tails(s, n, p)
        assert lo == pytest.approx(sum(pmf[: s + 1]), abs=1e-12)
        assert hi == pytest.approx(sum(pmf[s:]), abs=1e-12)


def test_family_interval_flags_only_implausible_cells():
    cells = [(50, 100, 0.5), (0, 100, 0.5), (100, 100, 0.999), (100, 100, 0.9)]
    assert oracles.outside_family_interval(cells, 0.999) == [1, 3]


def test_sum_interval_flags_a_shift_no_single_cell_shows():
    cells = [(30, 100, 0.3)] * 10
    assert not oracles.sum_outside_interval(cells, 1 - 1e-6)
    shifted = [(40, 100, 0.3)] * 10
    assert oracles.outside_family_interval(shifted, 1 - 1e-6) == []
    assert oracles.sum_outside_interval(shifted, 1 - 1e-6)


def test_json_decoder_matches_set_definitions():
    gen = random.Random(5)
    for _ in range(300):
        n, t = gen.randint(1, 7), gen.randint(1, 6)
        cols = [sorted(gen.sample(range(t), gen.randint(0, t))) for _ in range(n)]
        design = oracles.JsonDesign({"N": n, "T": t, "columns": cols})
        truth = sorted(gen.sample(range(n), gen.randint(0, n)))
        positive_tests = set().union(*(cols[i] for i in truth)) if truth else set()
        positive = design.covered(truth)
        assert set(np.flatnonzero(positive)) == positive_tests

        pd = [i for i in range(n) if set(cols[i]) <= positive_tests]
        dd = [
            i for i in pd
            if any(sum(tt in cols[j] for j in pd) == 1 for tt in cols[i])
        ]
        assert design.decode(positive) == (pd, dd)

        for size in range(n + 1):
            for cand in itertools.combinations(range(n), size):
                union = set().union(*(cols[i] for i in cand)) if cand else set()
                assert design.is_satisfying(positive, cand) == (union == positive_tests)


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(["--workload", "fuzz-corpus", "--seed", "3", "--seconds", "0", "--trace", str(trace)], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "fig2-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
