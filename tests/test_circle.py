import time

import numpy as np
import pytest

from qchar import circle, scenarios
from qchar.circle import (
    DENSITY_GRID,
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
from qchar.characterizers import cramer_check
from qchar.errors import ConstructionRejectedError, HypothesisError
from qchar.polynomials import WindowFunction
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


def _direct_density(coeffs, sign=-1):
    """Real part of sum_n c_n exp(sign 2 pi i ((k n) mod grid) / grid), row block by row block.

    The phase k n is reduced in integers before it is scaled, so the
    reference carries no rounding from large float phases.
    """
    N = len(coeffs) // 2
    n = np.arange(-N, N + 1)
    roots = np.exp(sign * 2j * np.pi * np.arange(DENSITY_GRID) / DENSITY_GRID)
    return np.concatenate([(roots[np.multiply.outer(k, n) % DENSITY_GRID] @ coeffs).real
                           for k in np.array_split(np.arange(DENSITY_GRID), 16)])


@pytest.mark.parametrize("N", [1, 12, 256, 1024])
def test_grid_density_matches_the_direct_sum(N):
    rng = np.random.Generator(np.random.Philox(N))
    coeffs = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
    dev = np.abs(circle._grid_density(coeffs) - _direct_density(coeffs)).max()
    assert dev <= 1e-12 * np.abs(coeffs).sum()


def test_grid_density_minimum_is_that_of_the_plus_sign_sum():
    # cramer_check screened exp(+i t n) sums; the grid is symmetric, so the minimum is the same
    rng = np.random.Generator(np.random.Philox(3))
    coeffs = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    got = circle._grid_density(coeffs).min()
    assert got == pytest.approx(_direct_density(coeffs, sign=+1).min(), abs=1e-12 * np.abs(coeffs).sum())


def test_density_grid_and_cramer_screen_share_one_evaluator():
    d = exp_poly_distribution(QUARTIC, min_truncation=12)
    _, dens = density_grid(d)
    assert np.array_equal(dens, circle._grid_density(d.coeffs))
    good = d.cf_window(3)
    vals = np.asarray(good.values).copy()
    vals[[2, 4]] += 0.9
    bad = WindowFunction(good.window, vals)
    with pytest.raises(HypothesisError, match="density minimum") as err:
        cramer_check(bad, bad, good)
    assert err.value.residual == circle._grid_density(vals).min()


def test_density_grid_keeps_the_oversampling_check():
    d = exp_poly_distribution(QUARTIC, min_truncation=12)
    with pytest.raises(ValueError, match="must be at least 4 \\* truncation = 48"):
        density_grid(d, 47)


def test_run_construct_sums_the_gate_once(monkeypatch):
    calls = []

    def counting(phi):
        calls.append(phi)
        return gate_sum(phi)

    for module in (circle, scenarios):
        monkeypatch.setattr(module, "gate_sum", counting, raising=False)
    doc = scenarios.run_construct({"even_coeffs": {"4": 1.0}})
    assert len(calls) == 1
    total, tail, stop = gate_sum(QUARTIC)
    assert (doc["details"]["gate_sum"], doc["details"]["gate_tail_bound"],
            doc["details"]["gate_terms"]) == (total, tail, stop)


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
