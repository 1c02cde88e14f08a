import numpy as np
import pytest

from qchar.circle import gaussian_distribution, sum_difference_joint
from qchar.groups import FiniteAbelianGroup
from qchar.measures import JointDistribution, product_joint, random_distribution
from qchar.witnesses import _q_gaps, extract_q_witness


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(99))


def test_product_joint_yields_zero_witness(rng):
    g = FiniteAbelianGroup((6,))
    j = product_joint([random_distribution(g, rng), random_distribution(g, rng)])
    w = extract_q_witness(j)
    assert w is not None
    assert w.degree == 0
    assert np.max(np.abs(np.asarray(w.q.values))) < 1e-9
    identity = j.joint_cf().values - j.marginal_cf_product() * np.exp(w.q.values)
    assert np.abs(identity).max() < 1e-9


def test_correlated_joint_yields_no_witness():
    g = FiniteAbelianGroup((3,))
    probs = np.array([0.3, 0.05, 0.05, 0.05, 0.3, 0.05, 0.05, 0.05, 0.1])
    j = JointDistribution((g, g), probs)
    assert extract_q_witness(j) is None


@pytest.mark.parametrize("orders", [[(5,), (5,)], [(2, 3), (4,)], [(3,), (3,), (3,)],
                                    [(2,), (2, 2), (2,)], [(12,), (12,)]])
def test_stacked_q_gaps_are_bitwise_the_one_row_calls(orders, rng):
    groups = tuple(FiniteAbelianGroup(o) for o in orders)
    size = int(np.prod([g.order for g in groups]))
    rows = []
    for i in range(50):
        if i % 2:
            p = rng.random(size) + 1e-3
            rows.append(p / p.sum())
        else:
            rows.append(product_joint([random_distribution(g, rng) for g in groups]).probs)
    rows = np.stack(rows)
    gaps = _q_gaps(groups, rows)
    for r in range(50):
        assert np.array_equal(gaps[r:r + 1], _q_gaps(groups, rows[r:r + 1]))
        w = extract_q_witness(JointDistribution(groups, rows[r]))
        assert (w is not None) == (r % 2 == 0)
        if w is not None:
            assert w.residual == gaps[r]


def test_joint_with_nan_mass_gets_no_witness():
    g = FiniteAbelianGroup((3,))
    probs = np.full(9, 1.0 / 8)
    probs[4] = np.nan
    with pytest.raises(ValueError):
        extract_q_witness(JointDistribution((g, g), probs))


def test_three_factor_product(rng):
    g = FiniteAbelianGroup((2, 2))
    dists = [random_distribution(g, rng) for _ in range(3)]
    w = extract_q_witness(product_joint(dists))
    assert w is not None and w.degree == 0


def test_gaussian_sum_difference_witness_quadratic():
    d1 = gaussian_distribution(0.0, 0.5, min_truncation=12)
    d2 = gaussian_distribution(0.0, 2.0, min_truncation=12)
    sj = sum_difference_joint(d1, d2, radius=6)
    w = extract_q_witness(sj)
    assert w is not None
    assert w.degree == 2
    # q(u, v) = 2 (sigma2 - sigma1) u v = 3 u v for this pair
    assert w.coefficients[(1, 1)] == pytest.approx(3.0, abs=1e-8)
    product = np.multiply.outer(sj.marginals[0].values, sj.marginals[1].values)
    assert np.abs(sj.joint.values - product * np.exp(w.q.values)).max() < 1e-8


def test_equal_sigmas_make_witness_vanish():
    d = gaussian_distribution(0.0, 1.0, min_truncation=12)
    sj = sum_difference_joint(d, d, radius=6)
    w = extract_q_witness(sj)
    assert w is not None
    for exps, c in w.coefficients.items():
        if exps != (0, 0):
            assert abs(c) < 1e-10


def test_witness_evaluate_matches_samples():
    d1 = gaussian_distribution(0.0, 0.5, min_truncation=12)
    d2 = gaussian_distribution(0.0, 2.0, min_truncation=12)
    sj = sum_difference_joint(d1, d2, radius=6)
    w = extract_q_witness(sj)
    assert w.evaluate((1, 1)) == pytest.approx(3.0, abs=1e-8)
    assert w.evaluate((2, -1)) == pytest.approx(-6.0, abs=1e-8)
