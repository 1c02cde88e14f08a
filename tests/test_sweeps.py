"""Seeded sweeps against the per-case loop they must reproduce byte for byte.

``_reference_sweep`` is the sweep as one case at a time: one draw, one
joint or pair of laws, one witness search or convolution per case.
``run_sweep`` must give the same canonical bytes for every kind, count and
arity set, including the counts whose chunk boundaries fall on odd case
indices, where the product/random parity of the independence sweep has to
carry over from one chunk to the next.
"""

import numpy as np
import pytest

from qchar import kernels, scenarios, witnesses
from qchar.cli import canonical_json
from qchar.groups import FiniteAbelianGroup
from qchar.measures import (
    JointDistribution,
    char_fn,
    convolve,
    product_joint,
    random_distribution,
)
from qchar.polynomials import BLOCK_ENTRIES
from qchar.scenarios import _chunks, make_rng, run_sweep
from qchar.witnesses import extract_q_witness

COUNTS = (0, 1, 2, 3, 51)
ARITIES = ((2,), (3,), (2, 3))
# one case a chunk; chunks of 5 cases at order 12, arity 2, and of 29 at
# order 5, arity 2; and the default, 9 cases at order 12, arity 3
BLOCK_SIZES = (1, 5 * 144 + 7, BLOCK_ENTRIES)


def _report(kind, seed, cases, failures, extra):
    return {
        "schema": "qchar-report-1",
        "kind": f"sweep:{kind}",
        "name": f"sweep-{kind}-seed{seed}",
        "verdict": "pass" if not failures else "fail",
        "expected": "pass",
        "matched": not failures,
        "details": {"cases": cases, "failures": failures, **extra},
    }


def _witness_dict(w):
    if w is None:
        return None
    return {"degree": w.degree, "residual": float(w.residual),
            "coefficients": {",".join(map(str, k)): float(v)
                             for k, v in sorted(w.coefficients.items())}}


def _reference_sweep(kind, seed, count, max_order=12, arities=(2, 3)):
    rng = make_rng(seed)
    cases = 0
    failures = []
    if kind == "independence-collapse":
        for order in range(2, max_order + 1):
            group = FiniteAbelianGroup((order,))
            for arity in arities:
                for i in range(count):
                    is_product = i % 2 == 0
                    if is_product:
                        joint = product_joint(
                            [random_distribution(group, rng) for _ in range(arity)])
                    else:
                        probs = rng.random(group.order ** arity) + 1e-3
                        joint = JointDistribution((group,) * arity, probs / probs.sum())
                    witness = extract_q_witness(joint)
                    cases += 1
                    ok = (witness is not None) == is_product
                    if ok and witness is not None:
                        ok = float(np.abs(np.asarray(witness.q.values)).max(initial=0.0)) == 0.0
                    if not ok:
                        failures.append({"order": order, "arity": arity, "case": i,
                                         "product": is_product,
                                         "witness": _witness_dict(witness)})
        return _report(kind, seed, cases, failures, {})
    worst = 0.0
    for order in range(2, max_order + 1):
        group = FiniteAbelianGroup((order,))
        for i in range(count):
            a = random_distribution(group, rng)
            b = random_distribution(group, rng)
            c = convolve(a, b)
            lhs = np.asarray(char_fn(c).values)
            rhs = np.asarray(char_fn(a).values) * np.asarray(char_fn(b).values)
            resid = float(np.abs(lhs - rhs).max())
            worst = max(worst, resid)
            cases += 1
            if resid > 1e-12:
                failures.append({"order": order, "case": i, "residual": resid})
    return _report(kind, seed, cases, failures, {"worst_residual": worst})


@pytest.mark.parametrize("block_entries", BLOCK_SIZES)
@pytest.mark.parametrize("arities", ARITIES)
@pytest.mark.parametrize("count", COUNTS)
def test_independence_sweep_matches_the_per_case_loop(monkeypatch, count, arities, block_entries):
    want = _reference_sweep("independence-collapse", 3, count, arities=arities)
    monkeypatch.setattr(scenarios, "BLOCK_ENTRIES", block_entries)
    got = run_sweep("independence-collapse", seed=3, count=count, arities=arities)
    assert canonical_json(got) == canonical_json(want)
    assert got["details"]["cases"] == 11 * len(arities) * count


@pytest.mark.parametrize("block_entries", BLOCK_SIZES)
@pytest.mark.parametrize("count", COUNTS)
def test_convolution_sweep_matches_the_per_case_loop(monkeypatch, count, block_entries):
    want = _reference_sweep("convolution", 3, count)
    monkeypatch.setattr(scenarios, "BLOCK_ENTRIES", block_entries)
    got = run_sweep("convolution", seed=3, count=count)
    assert canonical_json(got) == canonical_json(want)
    assert got["details"]["cases"] == 11 * count


@pytest.mark.parametrize("tol", [-1.0, 1e300])
def test_independence_failures_match_the_per_case_loop(monkeypatch, tol):
    # below every residual each product case fails without a witness; above
    # every residual each random joint fails with the witness it was given
    monkeypatch.setattr(witnesses, "GROUP_Q_TOL", tol)
    monkeypatch.setattr(scenarios, "GROUP_Q_TOL", tol)
    want = _reference_sweep("independence-collapse", 5, 7, max_order=6)
    got = run_sweep("independence-collapse", seed=5, count=7, max_order=6)
    assert canonical_json(got) == canonical_json(want)
    failures = got["details"]["failures"]
    assert len(failures) == 5 * 2 * (4 if tol < 0 else 3)
    assert all((f["witness"] is None) == (tol < 0) for f in failures)


def test_convolution_failures_match_the_per_case_loop(monkeypatch):
    # a convolution shifted by one place is still a law, but not a * b
    plain = kernels.convolve
    monkeypatch.setattr(kernels, "convolve",
                        lambda group, p, q: np.roll(plain(group, p, q), 1, axis=-1))
    want = _reference_sweep("convolution", 5, 7, max_order=6)
    got = run_sweep("convolution", seed=5, count=7, max_order=6)
    assert canonical_json(got) == canonical_json(want)
    assert len(got["details"]["failures"]) == 5 * 7


def test_a_chunk_holds_at_most_block_entries():
    def rows(entries):
        # chunks are made as they are needed, so a huge count costs no memory up front
        return len(next(iter(_chunks(10 ** 8, entries))))

    assert rows(12 ** 3) == 9
    assert rows(2 ** 2) == BLOCK_ENTRIES // 4 == 4096
    assert rows(BLOCK_ENTRIES + 1) == 1
    for entries in (2 ** 2, 12 ** 2, 12 ** 3, 2 * 12, 64 ** 2):
        assert rows(entries) * entries <= BLOCK_ENTRIES
    assert list(_chunks(20, 12 ** 3)) == [range(0, 9), range(9, 18), range(18, 20)]
