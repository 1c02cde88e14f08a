import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qchar.polynomials as polynomials
from qchar.elimination import EliminationProblem, run_pexider_chain
from qchar.errors import FactorizationError
from qchar.groups import Automorphism, FiniteAbelianGroup, _add, _neg_table, groups_up_to_order
from qchar.polynomials import (
    GROUP_POLY_TOL,
    WINDOW_POLY_TOL,
    GroupFunction,
    PolynomialCertificate,
    IntegerWindow,
    WindowFunction,
    constancy_check,
    difference,
    fit_polynomial_window,
    is_polynomial,
    min_degree,
    monomials_up_to,
    poly_eval,
    quadratic_check,
    tabulate,
)
from qchar.scenarios import make_rng


def test_window_geometry():
    w = IntegerWindow(radius=3, dim=2)
    assert w.side == 7
    pts = w.points()
    assert pts.shape == (49, 2)
    assert pts.min() == -3 and pts.max() == 3


def test_tabulate_and_value():
    f = tabulate(4, 1, lambda x: x ** 2)
    assert f.value((3,)) == 9
    assert f.value((-4,)) == 16


def test_delta_shrinks_window():
    f = tabulate(5, 1, lambda x: x ** 3)
    d = difference(f.values, (2,))
    assert d.shape == (2 * 3 + 1,)
    # difference of cubes: (x+2)^3 - x^3 = 6x^2 + 12x + 8
    assert d[3 + 1] == 6 + 12 + 8


def test_iterated_delta_kills_degree():
    out = tabulate(8, 1, lambda x: 2 * x ** 3 - x + 4).values
    for _ in range(4):
        out = difference(out, (1,))
    assert np.max(np.abs(out)) == 0.0


def test_cubic_passes_exactly_at_its_degree():
    f = tabulate(10, 1, lambda x: x ** 3)
    assert not is_polynomial(f, 2)
    assert is_polynomial(f, 3)
    cert = min_degree(f)
    assert cert.degree == 3
    assert cert.residual == 0.0
    assert cert.coefficients.get((3,)) == pytest.approx(1.0)


def test_two_dim_mixed_monomial():
    f = tabulate(6, 2, lambda x, y: x ** 2 * y)
    cert = min_degree(f)
    assert cert.degree == 3
    assert cert.coefficients.get((2, 1)) == pytest.approx(1.0)


def test_non_polynomial_has_no_certificate():
    f = tabulate(6, 1, lambda x: 2.0 ** x)
    assert min_degree(f, n_max=4) is None


def test_group_polynomial_iff_constant():
    g = FiniteAbelianGroup((5,))
    const = GroupFunction(g, np.full(5, 2.5))
    rep = constancy_check(const)
    assert rep == {"constant": True, "polynomial": True, "degree": 0}
    varying = GroupFunction(g, np.arange(5, dtype=float))
    rep = constancy_check(varying)
    assert rep == {"constant": False, "polynomial": False, "degree": None}


def test_group_delta_wraps():
    g = FiniteAbelianGroup((4,))
    f = GroupFunction(g, np.array([1.0, 2.0, 4.0, 8.0]))
    d = difference(f.values, (np.arange(4) + 1) % 4)  # x + 1 on Z_4
    assert d[3] == pytest.approx(1.0 - 8.0)


def test_quadratic_check_zero_for_true_quadratic():
    f = tabulate(10, 1, lambda x: 1.5 * x ** 2)
    assert quadratic_check(f) == 0.0


def test_quadratic_check_positive_for_quartic():
    f = tabulate(10, 1, lambda x: float(x ** 4))
    r = quadratic_check(f)
    # combination at u = v = 1 gives 2^4 + 0 - 2 - 2 = 12
    assert r >= 12.0


def test_quadratic_check_requires_even():
    f = tabulate(5, 1, lambda x: float(x ** 3))
    with pytest.raises(ValueError):
        quadratic_check(f)


def test_quadratic_check_refuses_group_functions():
    g = FiniteAbelianGroup((5,))
    with pytest.raises(TypeError):
        quadratic_check(GroupFunction(g, np.zeros(5)))


def _dense_quadratic_residual(f):
    """The parallelogram defect on every admissible pair at once, as one array."""
    vals = np.asarray(f.values, dtype=np.float64)
    N, pts, flat = f.window.radius, f.window.points(), vals.ravel()
    s = pts[:, None, :] + pts[None, :, :]
    d = pts[:, None, :] - pts[None, :, :]
    iu, iv = np.where((np.abs(s) <= N).all(axis=2) & (np.abs(d) <= N).all(axis=2))
    strides = np.array([f.window.side ** k for k in range(f.window.dim - 1, -1, -1)])
    resid = (flat[(s[iu, iv] + N) @ strides] + flat[(d[iu, iv] + N) @ strides]
             - 2.0 * flat[(pts[iu] + N) @ strides] - 2.0 * flat[(pts[iv] + N) @ strides])
    return float(np.abs(resid).max())


@pytest.mark.parametrize("case", ["radius-300", "radius-12-dim-2"])
def test_blocked_quadratic_check_is_bitwise_the_dense_one(case):
    # 361201 and 390625 pairs: several blocks of BLOCK_ENTRIES
    rng = np.random.default_rng(7)
    radius, dim = {"radius-300": (300, 1), "radius-12-dim-2": (12, 2)}[case]
    vals = rng.random((2 * radius + 1,) * dim)
    vals = vals + vals[(slice(None, None, -1),) * dim]  # even
    vals[(radius,) * dim] = 0.0
    f = WindowFunction(IntegerWindow(radius, dim), vals)
    assert quadratic_check(f) == _dense_quadratic_residual(f) > 0.0


def test_monomials_and_eval():
    mons = monomials_up_to(2, 2)
    assert (0, 0) in mons and (1, 1) in mons and (2, 0) in mons
    pts = np.array([[1, 2], [3, -1]])
    vals = poly_eval({(1, 1): 2.0, (0, 0): 1.0}, pts)
    assert vals[0] == pytest.approx(5.0)
    assert vals[1] == pytest.approx(-5.0)


def test_fit_recovers_integer_coefficients():
    f = tabulate(6, 2, lambda x, y: 3 * x ** 2 - x * y + 7)
    cert = fit_polynomial_window(f, d_max=2)
    assert cert.degree == 2
    assert cert.coefficients[(2, 0)] == pytest.approx(3.0)
    assert cert.coefficients[(1, 1)] == pytest.approx(-1.0)
    assert cert.coefficients[(0, 0)] == pytest.approx(7.0)


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
)
def test_degree_detection_matches_leading_term(coeffs):
    arr = np.array(coeffs, dtype=float)
    true_deg = max([i for i, c in enumerate(arr) if c != 0], default=0)
    f = tabulate(9, 1, lambda x: float(np.polyval(arr[::-1], x)))
    cert = min_degree(f)
    assert cert is not None
    assert cert.degree == true_deg
    assert cert.residual <= 1e-8


# -- degree certification without unread work ---------------------------------


def _shift_scan(f):
    """Degree-0 residual the long way: max |f(x + h) - f(x)| over every shift h.

    f(x + h) is read by rolling the values on the group's coordinate grid.  A
    NaN difference makes the result NaN, as in ``polynomials.peak``.
    """
    g = f.group
    grid = np.asarray(f.values).reshape(g.orders)
    peaks = []
    for h in range(1, g.order):
        moved = np.roll(grid, [-c for c in g.coords(h)], axis=tuple(range(g.rank))).ravel()
        peaks.append(float(np.abs(moved - f.values).max(initial=0.0)))
    return float(np.max(peaks, initial=0.0))


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _group_residual(f):
    """The residual of a group certificate, read with no tolerance to fail."""
    return min_degree(f, tol=np.inf).residual


def test_group_degree_zero_residual_equals_shift_scan():
    rng = make_rng(20)
    for g in groups_up_to_order(32):
        n = g.order
        cases = [
            rng.standard_normal(n),
            1e6 * rng.standard_normal(n),
            np.full(n, rng.standard_normal()),
            0.3 + GROUP_POLY_TOL * rng.uniform(-0.5, 0.5, n),
            rng.integers(-2, 3, n).astype(np.float64),
            rng.standard_normal(n).astype(np.float32),
        ]
        for vals in cases:
            f = GroupFunction(g, vals)
            assert _same_float(_group_residual(f), _shift_scan(f)), (g, vals)


def test_group_degree_zero_residual_keeps_scan_for_complex_and_non_finite():
    rng = make_rng(21)
    g = FiniteAbelianGroup((2, 6))
    complex_vals = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    for vals in (complex_vals, np.full(12, 1.0 + 2.0j), rng.integers(-9, 9, 12)):
        f = GroupFunction(g, vals)
        assert _same_float(_group_residual(f), _shift_scan(f)), vals
    for bad in (np.nan, np.inf, -np.inf):
        vals = rng.standard_normal(12)
        vals[5] = bad
        f = GroupFunction(g, vals)
        with np.errstate(invalid="ignore"):  # inf - inf
            assert min_degree(f, tol=np.inf) is None
            assert not is_polynomial(f, 3, tol=np.inf)


def test_min_degree_on_a_group_takes_no_difference(monkeypatch):
    calls = []
    real = polynomials.difference
    monkeypatch.setattr(polynomials, "difference", lambda *a: calls.append(a) or real(*a))
    rng = make_rng(22)
    g = FiniteAbelianGroup((3, 6))
    near = 0.5 + 3e-10 * rng.random(18)
    for vals in (np.full(18, 0.5), near, near + 1j * near, rng.standard_normal(18)):
        f = GroupFunction(g, vals)
        for n in (None, 0, 1, 8, 16):
            min_degree(f, n_max=n)
            is_polynomial(f, n or 0)
    assert calls == []


@pytest.mark.parametrize("spread, want", [
    (0.5e-10, {"constant": True, "polynomial": True, "degree": 0}),
    (3e-10, {"constant": False, "polynomial": False, "degree": None}),
])
def test_constancy_check_on_either_side_of_its_disagreement_band(spread, want):
    g = FiniteAbelianGroup((5,))
    vals = 0.3 + np.array([0.0, 0.5, -0.5, 0.0, 0.0]) * spread
    assert constancy_check(GroupFunction(g, vals)) == want


def test_constancy_check_raises_where_its_two_routes_disagree():
    # every value is within 0.6e-10 of the first, but max - min is 1.2e-10
    g = FiniteAbelianGroup((5,))
    vals = 0.3 + np.array([0.0, 0.6e-10, -0.6e-10, 0.0, 0.0])
    with pytest.raises(FactorizationError,
                       match=r"constancy \(True\) and polynomiality \(False\) disagree"):
        constancy_check(GroupFunction(g, vals))


def test_min_degree_fits_window_coefficients_on_first_read(monkeypatch):
    fit = polynomials.fit_polynomial_window
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(polynomials, "fit_polynomial_window", counting_fit)
    for f in (tabulate(7, 2, lambda x, y: 3 * x ** 2 - x * y + 7),
              tabulate(9, 1, lambda x: 0.25 * x ** 3 - 0.5 * x + 0.125)):
        calls.clear()
        cert = min_degree(f)
        assert calls == []
        coeffs = cert.coefficients
        assert len(calls) == 1
        assert cert.coefficients is coeffs
        assert len(calls) == 1
        assert coeffs == fit(f, d_max=cert.degree, tol=WINDOW_POLY_TOL).coefficients


def test_certificate_constructor_keeps_given_coefficients():
    cert = PolynomialCertificate(degree=1, residual=0.0, coefficients={(1,): 2.0})
    assert cert.coefficients == {(1,): 2.0}
    assert PolynomialCertificate(degree=0, residual=0.5).coefficients is None


def test_constant_group_chain_builds_no_square_add_table():
    g = FiniteAbelianGroup((64,))
    problem = EliminationProblem(
        terms=[(GroupFunction(g, np.full(64, 0.7)), Automorphism.multiplication(g, 1)),
               (GroupFunction(g, np.full(64, -0.2)), Automorphism.multiplication(g, 3))],
        r_degree=0,
    )
    tracemalloc.start()
    try:
        trace = run_pexider_chain(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.cross_degree == 0 and trace.p_degree == 0
    # an addition table of G x G (order 4096) takes at least 4096^2 bytes
    square = 64 * 64
    assert peak < square * square // 16


# -- non-finite data never certify ----------------------------------------------


def test_group_values_with_nan_get_no_degree():
    g = FiniteAbelianGroup((7,))
    one_nan = np.full(7, 0.25)
    one_nan[3] = np.nan
    for vals in (one_nan, np.full(7, np.nan)):
        f = GroupFunction(g, vals)
        assert min_degree(f) is None
        assert not is_polynomial(f, 0)
        assert constancy_check(f) == {"constant": False, "polynomial": False, "degree": None}


def test_window_cubic_with_one_nan_gets_no_degree():
    f = tabulate(10, 1, lambda x: float(x**3 - 2 * x))
    assert min_degree(f).degree == 3
    vals = np.asarray(f.values).copy()
    vals[4] = np.nan
    assert min_degree(WindowFunction(f.window, vals)) is None


def test_all_infinite_window_gets_no_degree():
    f = WindowFunction(IntegerWindow(6, 1), np.full(13, np.inf))
    with np.errstate(invalid="ignore"):  # inf - inf
        assert min_degree(f) is None
        assert not is_polynomial(f, 0)


# -- blocked certificates against the per-shift loop ------------------------------


def _ref_delta(vals, f, h):
    """One forward difference the unbatched way: a gather on a group, slices on a window."""
    if isinstance(f, GroupFunction):
        g = f.group
        return vals[_add(g, np.arange(g.order), g.as_index(h))] - vals
    N = (vals.shape[0] - 1) // 2
    r = N - max(abs(c) for c in h)
    base = tuple(slice(N - r, N + r + 1) for _ in h)
    moved = tuple(slice(N - r + c, N + r + 1 + c) for c in h)
    return vals[moved] - vals[base]


def _ref_shifts(f, n):
    if isinstance(f, GroupFunction):
        return [f.group.coords(h) for h in range(1, f.group.order)]
    reach = f.window.radius // (n + 1)
    return [h for h in itertools.product(range(-reach, reach + 1), repeat=f.window.dim) if any(h)]


def _ref_peaks(f, n):
    """Per-shift peaks of the (n+1)-fold difference, one shift at a time."""
    out = []
    for h in _ref_shifts(f, n):
        d = np.asarray(f.values)
        for _ in range(n + 1):
            d = _ref_delta(d, f, h)
        out.append(polynomials.peak(d))
    return out


def _ref_residual(f, n, tol=None):
    if n == 0 and isinstance(f, GroupFunction):
        vals = f.values
        if vals.dtype.kind == "f" and np.isfinite(vals).all():
            return float(abs(vals.max() - vals.min()))
    peaks = _ref_peaks(f, n)
    if tol is not None:
        failing = [p for p in peaks if not polynomials.within(p, tol)]
        if failing:
            return failing[0]
    return polynomials.peak(peaks)


def _same_bits(a, b):
    return _same_float(a, b) or (np.isnan(a) and np.isnan(b))


def _oracle_cases():
    rng = make_rng(31)
    cases = []
    for m, N in [(1, 2), (1, 9), (1, 40), (2, 3), (2, 8)]:
        x = np.indices((2 * N + 1,) * m) - N
        for degree in range(4):
            vals = sum(float(rng.integers(-3, 4)) * x[0] ** k for k in range(degree + 1))
            vals = np.asarray(vals + float(rng.integers(-2, 3)) * x[-1] * x[0], dtype=float)
            cases.append(WindowFunction(IntegerWindow(N, m), vals))
        noisy = vals + 1e-9 * rng.standard_normal(vals.shape)
        cases.append(WindowFunction(IntegerWindow(N, m), noisy))
        cases.append(WindowFunction(IntegerWindow(N, m), rng.standard_normal(vals.shape)
                                    + 1j * rng.standard_normal(vals.shape)))
        for bad in (np.nan, np.inf, -np.inf):
            hit = vals.copy()
            hit.flat[int(rng.integers(hit.size))] = bad
            cases.append(WindowFunction(IntegerWindow(N, m), hit))
    for N in (12, 16, 20):  # the radii of the cross-term crops in the chains
        x, y = np.indices((2 * N + 1,) * 2) - N
        cubic = float(rng.integers(1, 4)) * x ** 3 - 2.0 * x * y ** 2 + y
        for vals in (np.full(x.shape, 2.5), 3.0 * x ** 2 - x * y + 2.0 * y - 1.0, cubic,
                     cubic + 1e-9 * rng.standard_normal(x.shape)):
            cases.append(WindowFunction(IntegerWindow(N, 2), np.asarray(vals, dtype=float)))
    x, y, z = np.indices((13,) * 3) - 6
    cases.append(WindowFunction(IntegerWindow(6, 3), (x * y * z + x ** 2 - 3.0 * z).astype(float)))
    # at n = 0 the first shift (-N, -N) reads only the centre, so x y - y^2 passes it
    x, y = np.indices((9, 9)) - 4
    cases.append(WindowFunction(IntegerWindow(4, 2), (x * y - y ** 2).astype(float)))
    for orders in [(1,), (5,), (2, 6), (7, 7), (2, 2, 4), (3, 9)]:
        g = FiniteAbelianGroup(orders)
        base = [rng.standard_normal(g.order), np.full(g.order, 0.5),
                0.5 + 1e-11 * rng.standard_normal(g.order),
                rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)]
        for bad in (np.nan, np.inf):
            hit = rng.standard_normal(g.order)
            hit[int(rng.integers(g.order))] = bad
            base.append(hit)
        cases.extend(GroupFunction(g, v) for v in base)
    return cases


@pytest.fixture(scope="module")
def oracle():
    """Each case with its top degree and the per-shift loop's residuals (n, tol) -> r."""
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for f in _oracle_cases():
            top = 3 if isinstance(f, GroupFunction) else min(4, f.window.radius - 2)
            out.append((f, top, {(n, tol): _ref_residual(f, n, tol)
                                 for n in range(top + 1) for tol in (None, 1e-8, 1e-12)}))
    return out


# a few of the largest boxes of the radius 12-20 two-dimensional oracle windows, and a remainder
WIDE_BLOCK = 3 * 41 ** 2 + 7


@pytest.mark.parametrize("block_entries", [1, 2 * 81 + 5, WIDE_BLOCK, polynomials.BLOCK_ENTRIES])
def test_blocked_residuals_match_the_per_shift_loop(monkeypatch, oracle, block_entries):
    # one shift per block, then block sizes that leave a partial last block
    monkeypatch.setattr(polynomials, "BLOCK_ENTRIES", block_entries)
    for f, top, ref in oracle:
        if isinstance(f, GroupFunction):
            continue  # a group certificate scans no shifts: see the group oracle below
        with np.errstate(over="ignore", invalid="ignore"):
            for (n, tol), want in ref.items():
                assert _same_bits(polynomials._poly_residual(f, n, tol), want), (f, n, tol)
                if tol is not None:
                    assert is_polynomial(f, n, tol) == polynomials.within(ref[n, None], tol)
            cert = min_degree(f, n_max=top)
        passing = [n for n in range(top + 1) if polynomials.within(ref[n, None], WINDOW_POLY_TOL)]
        if not passing:
            assert cert is None, f
        else:
            assert cert.degree == passing[0]
            assert _same_bits(cert.residual, ref[passing[0], None])


def test_wide_block_packs_several_innermost_shifts_of_the_two_dimensional_windows(monkeypatch):
    blocks = []
    real = polynomials._window_peaks

    def recording(f, n, shifts, rings):
        blocks.append((len(shifts), min(rings)))
        return real(f, n, shifts, rings)

    monkeypatch.setattr(polynomials, "BLOCK_ENTRIES", WIDE_BLOCK)
    monkeypatch.setattr(polynomials, "_window_peaks", recording)
    for N in (12, 16, 20):
        blocks.clear()
        f = WindowFunction(IntegerWindow(N, 2), np.zeros((2 * N + 1,) * 2))
        for n in range(4):
            polynomials._poly_residual(f, n)
        # the ring-1 boxes are the largest a scan differences: (2N - 1)^2 entries
        assert any(size > 1 and ring == 1 for size, ring in blocks), N


def test_failing_degree_stops_at_its_first_failing_shift(monkeypatch):
    f = tabulate(30, 1, lambda x: float(x ** 3))
    seen = []
    real = polynomials.difference

    def counting(values, move):
        seen.append(np.shape(move))
        return real(values, move)

    monkeypatch.setattr(polynomials, "difference", counting)
    assert polynomials._poly_residual(f, 1, WINDOW_POLY_TOL) > WINDOW_POLY_TOL
    # one block of one shift, differenced twice
    assert [s[0] for s in seen] == [1, 1]


@pytest.mark.parametrize("block_entries", [1, polynomials.BLOCK_ENTRIES])
def test_first_failing_shift_in_product_order_decides_a_later_block(monkeypatch, block_entries):
    # n = 0 on [-4, 4]^2: ring 4 is scanned first and fails only at (4, 4),
    # with peak 5; the first failing shift in product order is (-3, -3) in
    # ring 3, with peak 1
    monkeypatch.setattr(polynomials, "BLOCK_ENTRIES", block_entries)
    vals = np.zeros((9, 9))
    vals[1, 1], vals[8, 8] = 1.0, 5.0
    f = WindowFunction(IntegerWindow(4, 2), vals)
    want = _ref_residual(f, 0, WINDOW_POLY_TOL)
    assert want == 1.0 and polynomials.peak(_ref_peaks(f, 0)) == 5.0
    assert _same_bits(polynomials._poly_residual(f, 0, WINDOW_POLY_TOL), want)


def test_window_scan_differences_only_the_boxes_its_peaks_read(monkeypatch):
    # the radius-20 crop of a degree-3 cross term, as the chains certify it
    N = 20
    x, y = np.indices((2 * N + 1,) * 2) - N
    f = WindowFunction(IntegerWindow(N, 2), (x ** 3 - 2.0 * x * y ** 2 + y).astype(float))
    seen = []
    real = polynomials.difference

    def counting(values, move):
        seen.append(np.shape(move))
        return real(values, move)

    monkeypatch.setattr(polynomials, "difference", counting)
    assert polynomials._poly_residual(f, 3, WINDOW_POLY_TOL) <= WINDOW_POLY_TOL
    # differencing all 120 shifts on the whole window, 4 rounds each, takes
    # 806880 entries; the boxes the peaks read hold 301280
    assert sum(int(np.prod(s)) for s in seen) <= 806880 // 2
    seen.clear()
    assert polynomials._poly_residual(f, 0, WINDOW_POLY_TOL) > WINDOW_POLY_TOL
    assert [s[0] for s in seen] == [1]


# -- one shift of each pair {h, -h} on a group ---------------------------------


def _special_values(n, rng):
    """Normal values with +-0.0, NaN, +-inf and repeats, so that differences hold
    both zeros, NaN from inf - inf and infinities."""
    vals = rng.standard_normal(n)
    vals[rng.permutation(n)[:9]] = [0.0, -0.0, np.nan, np.inf, -np.inf, 0.0, -0.0, np.inf, 1.5]
    vals[rng.permutation(n)[:4]] = 1.5
    return vals


def _same_up_to_zero_and_nan_sign(got, want):
    """Bit equality of every float (the parts of a complex value), except the
    sign of a zero or a NaN: the magnitudes, which peaks read, are equal bits."""
    got, want = got.view(np.float64), want.view(np.float64)
    signed = (want != 0.0) & ~np.isnan(want)
    return (np.array_equal(np.abs(got).view(np.int64), np.abs(want).view(np.int64))
            and np.array_equal(got[signed].view(np.int64), want[signed].view(np.int64)))


@pytest.mark.parametrize("orders", [(2, 4, 3), (64,)])
def test_difference_along_minus_h_is_the_negated_translate_along_h(orders):
    g = FiniteAbelianGroup(orders)
    n, x, neg = g.order, np.arange(g.order), _neg_table(g)
    rng = make_rng(41)
    real, mixed = _special_values(n, rng), np.empty(n, dtype=complex)
    mixed.real, mixed.imag = real, _special_values(n, rng)  # 1j * inf would make a NaN
    cases = [real, mixed, np.flip(mixed)]
    with np.errstate(invalid="ignore"):
        for vals in cases:
            for h in range(1, n):
                plus, minus, kh = vals, vals, 0
                for k in range(1, 4):
                    plus = polynomials.difference(plus, _add(g, x, h))
                    minus = polynomials.difference(minus, _add(g, x, neg[h]))
                    kh = int(_add(g, kh, h))
                    # D_-h^k f(x) = (-1)^k D_h^k f(x - k h)
                    want = plus[_add(g, x, neg[kh])]
                    want = -want if k % 2 else want
                    assert _same_up_to_zero_and_nan_sign(minus, want), (orders, h, k)


# -- a group degree certificate against the per-shift scan ----------------------


def _near_constant_group_functions():
    """Random, one-point and two-character functions on Z_2, ..., Z_63 and Z_2^3,
    each with max - min between 1 and 3 times the group degree tolerance."""
    rng = make_rng(45)
    out = []
    for g in [FiniteAbelianGroup((m,)) for m in range(2, 64)] + [FiniteAbelianGroup((2, 2, 2))]:
        coords = np.array([g.coords(x) for x in range(g.order)])
        one_point = np.zeros(g.order)
        one_point[rng.integers(g.order)] = 1.0
        # real parts of two non-trivial characters, weighted
        y = coords[rng.integers(1, g.order, 2)]
        phases = 2 * np.pi * (coords / np.asarray(g.orders)) @ y.T
        two_characters = np.cos(phases) @ rng.uniform(0.2, 1.0, 2)
        for shape in (rng.random(g.order), one_point, two_characters):
            shape = (shape - shape.min()) / (shape.max() - shape.min())
            out.append(GroupFunction(g, 0.3 + GROUP_POLY_TOL * rng.uniform(1.0, 3.0) * shape))
    return out


def test_group_certificate_is_the_first_degree_the_per_shift_scan_passes(oracle):
    # a polynomial on a finite group is constant: no degree 1 to 3 may pass
    # where degree 0 fails, and min_degree must give the scan's degree-0 residual
    cases = [f for f, _, _ in oracle if isinstance(f, GroupFunction)]
    cases += _near_constant_group_functions()
    tol = GROUP_POLY_TOL
    with np.errstate(invalid="ignore"):
        for f in cases:
            ref = [_ref_residual(f, n, tol) for n in range(4)]
            passing = [n for n, r in enumerate(ref) if polynomials.within(r, tol)]
            assert passing[:1] in ([], [0]), (f, ref)
            cert = min_degree(f, n_max=3)
            if not np.isfinite(f.values).all():
                # on Z_1 the scan reads no pair and passes; f(0) - f(0) is NaN
                assert cert is None, f
            elif passing:
                assert cert.degree == 0 and _same_bits(cert.residual, ref[0]), (f, ref)
            else:
                assert cert is None, (f, ref)
