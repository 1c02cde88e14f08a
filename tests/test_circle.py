import time

import numpy as np
import pytest

from qchar.circle import (
    CircleDistribution,
    EvenPolynomial,
    density_grid,
    exp_poly_distribution,
    gate_sum,
    gaussian_check,
    gaussian_distribution,
    sum_difference_joint,
    sum_difference_q,
)
from qchar.errors import ConstructionRejectedError
from qchar.witnesses import extract_q_witness


QUARTIC = EvenPolynomial({4: 1.0})
SLOW_QUADRATIC = EvenPolynomial({2: 0.01})


def test_even_polynomial_rejects_odd_terms():
    with pytest.raises(Exception):
        EvenPolynomial({3: 1.0})


def test_gate_sum_quartic():
    total, tail, stop = gate_sum(QUARTIC)
    assert total == pytest.approx(1.7357591074132341, abs=1e-12)
    assert total + tail < 2.0
    assert stop >= 2


def test_gate_sum_slow_quadratic_exceeds_limit():
    total, _, _ = gate_sum(SLOW_QUADRATIC)
    assert total == pytest.approx(17.724538509055144, rel=1e-10)
    assert total > 2.0


def test_exp_poly_distribution_accepts_quartic():
    d = exp_poly_distribution(QUARTIC, min_truncation=12)
    assert d.coeff(0) == pytest.approx(1.0)
    # spectrum decays like exp(-n^4)
    assert abs(d.coeff(1)) == pytest.approx(np.exp(-1.0), rel=1e-10)
    assert abs(d.coeff(2)) == pytest.approx(np.exp(-16.0), rel=1e-10)


def test_exp_poly_distribution_rejects_heavy_spectrum():
    with pytest.raises(ConstructionRejectedError) as err:
        exp_poly_distribution(SLOW_QUADRATIC)
    assert err.value.computed_sum > 2.0


def test_density_positive_for_quartic():
    d = exp_poly_distribution(QUARTIC, min_truncation=12)
    _, dens = density_grid(d)
    assert float(np.min(dens)) == pytest.approx(0.2642413427274648, abs=1e-9)
    assert float(np.min(dens)) > 0.0


def test_quartic_pair_witness_coefficients():
    q = sum_difference_q(QUARTIC, QUARTIC)
    # -(u+v)^4 - (u-v)^4 + 2u^4 + 2v^4 = -12 u^2 v^2
    assert q == {(2, 2): -12.0}


def test_quartic_pair_spectral_witness():
    d = exp_poly_distribution(QUARTIC, min_truncation=12)
    sj = sum_difference_joint(d, d, radius=6)
    w = extract_q_witness(sj)
    assert w is not None
    assert w.coefficients[(2, 2)] == pytest.approx(-12.0, abs=1e-8)
    assert w.evaluate((1, 1)) == pytest.approx(-12.0, abs=1e-8)


def test_gaussian_distribution_and_check():
    d = gaussian_distribution(0.25, 1.5, min_truncation=12)
    spec = gaussian_check(d.cf_window(6), d.log_window(6))
    assert spec is not None
    assert spec.shift == pytest.approx(0.25, abs=1e-10)
    assert spec.sigma == pytest.approx(1.5, abs=1e-10)


def test_gaussian_check_refuses_quartic_law():
    d = exp_poly_distribution(QUARTIC, min_truncation=12)
    assert gaussian_check(d.cf_window(6), d.log_window(6)) is None


def test_log_window_survives_underflow():
    # exp(-n^4) underflows past n = 6 but the stored exponents do not
    d = exp_poly_distribution(QUARTIC, min_truncation=12)
    logs = d.log_window(10)
    assert logs is not None
    assert np.isfinite(np.asarray(logs.values)).all()
    assert logs.value((10,)) == pytest.approx(-10_000.0)


def test_sum_difference_joint_consistency():
    d1 = gaussian_distribution(0.0, 0.5, min_truncation=12)
    d2 = gaussian_distribution(0.0, 1.0, min_truncation=12)
    sj = sum_difference_joint(d1, d2, radius=5)
    # joint coefficient at (u, v) is cf1(u+v) * cf2(u-v)
    got = sj.joint.value((2, 1))
    expect = d1.coeff(3) * d2.coeff(1)
    assert got == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("coeffs, stop, verdict", [
    ({2: -1e308, 4: 1e308}, 2, "fail"),  # phi(2) = -inf + inf = nan
    ({2: -1e300, 4: 1.0}, 1, "fail"),  # exp(-phi(1)) overflows
    ({2: -2e307, 4: 2e307}, 2, "hypothesis-violated"),  # phi(2) = inf
])
def test_gate_sum_rejects_the_first_non_finite_term(coeffs, stop, verdict):
    from qchar.scenarios import run_construct

    with pytest.raises(ConstructionRejectedError, match=f"term {stop} of the coefficient sum"):
        gate_sum(EvenPolynomial(coeffs))
    started = time.perf_counter()
    report = run_construct({"even_coeffs": {str(k): v for k, v in coeffs.items()}})
    assert time.perf_counter() - started < 0.5
    assert report["verdict"] == verdict
    assert report["details"]["reason"].startswith(f"term {stop} of the coefficient sum")
