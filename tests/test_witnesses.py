import numpy as np
import pytest

from qchar.circle import gaussian_distribution, sum_difference_joint
from qchar.groups import FiniteAbelianGroup
from qchar.measures import JointDistribution, product_joint, random_distribution
from qchar.polynomials import GroupFunction
from qchar.witnesses import _q_gaps, extract_q_witness, q_identical_witness, verify_q_independence


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
    assert verify_q_independence(j, w.q) < 1e-9


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


def test_verify_rejects_wrong_domain(rng):
    g = FiniteAbelianGroup((3,))
    j = product_joint([random_distribution(g, rng), random_distribution(g, rng)])
    bad = GroupFunction(g, np.zeros(3))
    with pytest.raises(Exception):
        verify_q_independence(j, bad)


def test_gaussian_sum_difference_witness_quadratic():
    d1 = gaussian_distribution(0.0, 0.5, min_truncation=12)
    d2 = gaussian_distribution(0.0, 2.0, min_truncation=12)
    sj = sum_difference_joint(d1, d2, radius=6)
    w = extract_q_witness(sj)
    assert w is not None
    assert w.degree == 2
    # q(u, v) = 2 (sigma2 - sigma1) u v = 3 u v for this pair
    assert w.coefficients[(1, 1)] == pytest.approx(3.0, abs=1e-8)
    assert verify_q_independence(sj, w.q) < 1e-8


def test_equal_sigmas_make_witness_vanish():
    d = gaussian_distribution(0.0, 1.0, min_truncation=12)
    sj = sum_difference_joint(d, d, radius=6)
    w = extract_q_witness(sj)
    assert w is not None
    for exps, c in w.coefficients.items():
        if exps != (0, 0):
            assert abs(c) < 1e-10


def test_q_identical_witness_gaussians():
    f1 = gaussian_distribution(0.0, 0.5, min_truncation=12)
    f2 = gaussian_distribution(0.0, 2.0, min_truncation=12)
    radius = 6
    w = q_identical_witness(
        (f1.cf_window(radius), f1.log_window(radius)),
        (f2.cf_window(radius), f2.log_window(radius)),
    )
    assert w is not None
    assert w.degree <= 2
    # log f1 - log f2 = (sigma2 - sigma1) u^2 for this spectral convention
    nonzero = {e: c for e, c in w.coefficients.items() if abs(c) > 1e-10}
    assert set(nonzero) == {(2,)}
    assert nonzero[(2,)] == pytest.approx(1.5, abs=1e-8)


def test_witness_evaluate_matches_samples():
    d1 = gaussian_distribution(0.0, 0.5, min_truncation=12)
    d2 = gaussian_distribution(0.0, 2.0, min_truncation=12)
    sj = sum_difference_joint(d1, d2, radius=6)
    w = extract_q_witness(sj)
    assert w.evaluate((1, 1)) == pytest.approx(3.0, abs=1e-8)
    assert w.evaluate((2, -1)) == pytest.approx(-6.0, abs=1e-8)


# -- non-finite witnesses never validate --------------------------------------------


def test_validate_q_rejects_a_nan_origin_on_group_and_window():
    from qchar.polynomials import IntegerWindow, WindowFunction
    from qchar.witnesses import _validate_q

    g = FiniteAbelianGroup((5, 5))
    q = np.zeros(25)
    q[0] = np.nan
    with pytest.raises(ValueError, match="vanish at zero"):
        _validate_q(GroupFunction(g, q))
    w = np.zeros((9, 9))
    w[4, 4] = np.nan
    with pytest.raises(ValueError, match="vanish at zero"):
        _validate_q(WindowFunction(IntegerWindow(4, 2), w))


def test_validate_q_rejects_nan_away_from_the_origin_on_a_group():
    from qchar.witnesses import _validate_q

    g = FiniteAbelianGroup((5, 5))
    q = np.full(25, np.nan)
    q[0] = 0.0
    with pytest.raises(ValueError, match="identically zero"):
        _validate_q(GroupFunction(g, q))
    _validate_q(GroupFunction(g, np.zeros(25)))
