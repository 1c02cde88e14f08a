"""Finite-difference polynomial tests on groups and integer windows.

A function is a polynomial of degree <= n when the (n+1)-fold iterated
difference with the same shift h vanishes for every admissible h.  On a
finite group the shifts range over the whole group, and a polynomial of any
degree is necessarily constant; on an integer window [-N, N]^m each
difference shrinks the window, so shifts are limited to those keeping every
iterate inside.

The degree-0 residual of real, finite values on a group is max - min, which
is the same float as the largest |f(x + h) - f(x)| over all shifts (rounded
subtraction is monotone), found in O(|G|) without an addition table.
``min_degree`` certifies a window function's degree without fitting it; the
certificate's ``coefficients`` are fitted on first read and cached.

Residuals are taken with ``peak``, which propagates NaN, and compared with
``within``, which is False for NaN, so non-finite data never certify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FactorizationError, GroupMismatchError, WindowExhaustedError
from .groups import FiniteAbelianGroup, _add, _neg_table

__all__ = [
    "IntegerWindow",
    "WindowFunction",
    "GroupFunction",
    "PolynomialCertificate",
    "tabulate",
    "delta",
    "iterated_delta",
    "is_polynomial",
    "min_degree",
    "constancy_check",
    "quadratic_check",
    "fit_polynomial_window",
    "poly_eval",
    "monomials_up_to",
    "peak",
    "within",
]

GROUP_POLY_TOL = 1e-10
WINDOW_POLY_TOL = 1e-8
DEGREE_CAP = 8


@dataclass(frozen=True)
class IntegerWindow:
    """Centered box [-radius, radius]^dim in Z^dim."""

    radius: int
    dim: int

    def __post_init__(self):
        if self.radius < 0 or self.dim < 1:
            raise WindowExhaustedError(f"invalid window radius={self.radius} dim={self.dim}")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    def points(self) -> np.ndarray:
        """(count, dim) integer coordinates in row-major order."""
        axes = [np.arange(-self.radius, self.radius + 1)] * self.dim
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=1)


@dataclass(frozen=True, eq=False)
class WindowFunction:
    """Values on an integer window, stored as a dense dim-d array."""

    window: IntegerWindow
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        expected = (self.window.side,) * self.window.dim
        if values.shape != expected:
            raise GroupMismatchError(f"value shape {values.shape} != window shape {expected}")
        object.__setattr__(self, "values", values)

    def value(self, point) -> complex | float:
        idx = tuple(int(p) + self.window.radius for p in np.atleast_1d(point))
        return self.values[idx]


@dataclass(frozen=True, eq=False)
class GroupFunction:
    """Values indexed by the flat element order of a finite group."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (self.group.order,):
            raise GroupMismatchError("value vector length does not match group order")
        object.__setattr__(self, "values", values)

    def value(self, x) -> complex | float:
        return self.values[self.group.as_index(x)]


def peak(values) -> float:
    """Largest absolute value, 0.0 when empty, NaN when any value is NaN."""
    return float(np.abs(np.asarray(values)).max(initial=0.0))


def within(residual, tol) -> bool:
    """residual <= tol; False for NaN, so a non-finite residual never passes."""
    return bool(residual <= tol)


class PolynomialCertificate:
    """A certified degree and the residual that decided it.

    ``coefficients`` maps exponent tuples to the fitted polynomial, or is
    None.  A certificate from ``min_degree`` on a window function fits them
    from that function on first read.
    """

    def __init__(self, degree: int, residual: float, coefficients: dict | None = None):
        self.degree = degree
        self.residual = residual
        self._coefficients = coefficients
        self._unfitted = None  # (window function, tol) until coefficients are read

    def __repr__(self) -> str:
        return f"PolynomialCertificate(degree={self.degree}, residual={self.residual!r})"

    @property
    def coefficients(self) -> dict | None:
        if self._unfitted is not None:
            f, tol = self._unfitted
            fit = fit_polynomial_window(f, d_max=self.degree, tol=tol)
            self._coefficients = fit.coefficients if fit is not None else None
            self._unfitted = None
        return self._coefficients


def tabulate(radius: int, dim: int, fn) -> WindowFunction:
    """Sample a callable on the window lattice."""
    w = IntegerWindow(radius, dim)
    pts = w.points()
    vals = np.asarray([fn(*p) for p in pts])
    return WindowFunction(w, vals.reshape((w.side,) * dim))


def _shift_spec(f, h):
    if isinstance(f, GroupFunction):
        return int(f.group.as_index(h))
    return tuple(int(c) for c in np.atleast_1d(h))


def delta(f, h):
    """Forward difference D_h f(y) = f(y + h) - f(y)."""
    if isinstance(f, GroupFunction):
        moved = _add(f.group, np.arange(f.group.order), f.group.as_index(h))
        return GroupFunction(f.group, f.values[moved] - f.values)
    h = _shift_spec(f, h)
    if len(h) != f.window.dim:
        raise GroupMismatchError("shift dimension does not match window")
    N = f.window.radius
    reach = max((abs(c) for c in h), default=0)
    new_r = N - reach
    if new_r < 0:
        raise WindowExhaustedError(f"shift {h} exhausts window of radius {N}")
    base = tuple(slice(N - new_r, N + new_r + 1) for _ in range(f.window.dim))
    moved = tuple(slice(N - new_r + c, N + new_r + 1 + c) for c in h)
    return WindowFunction(IntegerWindow(new_r, f.window.dim), f.values[moved] - f.values[base])


def iterated_delta(f, h, times: int):
    for _ in range(times):
        f = delta(f, h)
    return f


def _admissible_shifts(f, n: int):
    if isinstance(f, GroupFunction):
        return range(1, f.group.order)
    N, m = f.window.radius, f.window.dim
    if N < n + 2:
        raise WindowExhaustedError(f"radius {N} too small for degree-{n} test (needs >= {n + 2})")
    reach = N // (n + 1)
    shifts = [h for h in itertools.product(range(-reach, reach + 1), repeat=m) if any(h)]
    return shifts


def _poly_residual(f, n: int) -> float:
    if n == 0 and isinstance(f, GroupFunction):
        vals = f.values
        if vals.dtype.kind == "f" and np.isfinite(vals).all():
            return float(abs(vals.max() - vals.min()))
    return peak([peak(iterated_delta(f, h, n + 1).values) for h in _admissible_shifts(f, n)])


def is_polynomial(f, n: int, tol: float | None = None) -> bool:
    """Degree <= n in the repeated-shift sense, over all admissible shifts."""
    if tol is None:
        tol = GROUP_POLY_TOL if isinstance(f, GroupFunction) else WINDOW_POLY_TOL
    return within(_poly_residual(f, n), tol)


def min_degree(f, n_max: int | None = None, tol: float | None = None) -> PolynomialCertificate | None:
    """Smallest certified degree, or None when no degree up to n_max passes."""
    if isinstance(f, GroupFunction):
        if tol is None:
            tol = GROUP_POLY_TOL
        if n_max is None:
            n_max = min(f.group.order, 16)
    else:
        if tol is None:
            tol = WINDOW_POLY_TOL
        if n_max is None:
            n_max = min(DEGREE_CAP, f.window.radius - 2)
    for n in range(n_max + 1):
        r = _poly_residual(f, n)
        if within(r, tol):
            cert = PolynomialCertificate(degree=n, residual=r)
            if isinstance(f, WindowFunction):
                cert._unfitted = (f, max(tol, WINDOW_POLY_TOL))
            return cert
    return None


def constancy_check(f: GroupFunction, n_max: int = 8, tol: float = GROUP_POLY_TOL) -> dict:
    """Constancy and polynomiality must agree on a finite group.

    Returns {"constant", "polynomial", "degree"}; a mismatch between the two
    routes signals a numerical inconsistency and raises.
    """
    if not isinstance(f, GroupFunction):
        raise TypeError("constancy check applies to functions on finite groups")
    vals = np.asarray(f.values)
    constant = within(peak(vals - vals.flat[0]), tol)
    cert = min_degree(f, n_max=n_max, tol=tol)
    polynomial = cert is not None
    if polynomial != constant:
        raise FactorizationError(
            f"constancy ({constant}) and polynomiality ({polynomial}) disagree"
        )
    return {"constant": constant, "polynomial": polynomial,
            "degree": cert.degree if cert else None}


def quadratic_check(f, tol: float = 1e-12) -> float:
    """Residual of f(u+v) + f(u-v) - 2 f(u) - 2 f(v) over admissible pairs.

    Requires real values, f(0) = 0 and evenness.
    """
    vals = np.asarray(f.values)
    if np.iscomplexobj(vals) and not within(peak(vals.imag), tol):
        raise ValueError("quadratic check requires real values")
    vals = vals.real.astype(np.float64)
    if isinstance(f, GroupFunction):
        g = f.group
        if not within(abs(vals[0]), tol):
            raise ValueError("f(0) must vanish")
        neg = _neg_table(g)
        if not within(peak(vals[neg] - vals), tol):
            raise ValueError("f must be even")
        u = np.arange(g.order)[:, None]
        resid = (vals[_add(g, u, u.T)] + vals[_add(g, u, neg[None, :])]
                 - 2.0 * vals[:, None] - 2.0 * vals[None, :])
        return peak(resid)
    w = f.window
    N = w.radius
    centre = (N,) * w.dim
    if not within(abs(vals[centre]), tol):
        raise ValueError("f(0) must vanish")
    if not within(peak(vals[tuple(slice(None, None, -1) for _ in range(w.dim))] - vals), tol):
        raise ValueError("f must be even")
    pts = w.points()
    flat = vals.ravel()
    s = pts[:, None, :] + pts[None, :, :]
    d = pts[:, None, :] - pts[None, :, :]
    ok = (np.abs(s) <= N).all(axis=2) & (np.abs(d) <= N).all(axis=2)
    iu, iv = np.where(ok)
    side = w.side
    strides = np.array([side**k for k in range(w.dim - 1, -1, -1)])
    def flat_idx(arr):
        return (arr + N) @ strides
    resid = (
        flat[flat_idx(s[iu, iv])]
        + flat[flat_idx(d[iu, iv])]
        - 2.0 * flat[flat_idx(pts[iu])]
        - 2.0 * flat[flat_idx(pts[iv])]
    )
    return peak(resid)


def monomials_up_to(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples with total degree <= degree, by (total, lex) order."""
    out = [e for e in itertools.product(range(degree + 1), repeat=dim) if sum(e) <= degree]
    out.sort(key=lambda e: (sum(e), e))
    return out


def poly_eval(coefficients: dict, points: np.ndarray) -> np.ndarray:
    """Evaluate an exponent-keyed polynomial on (count, dim) integer points."""
    pts = np.asarray(points, dtype=np.float64)
    out = np.zeros(pts.shape[0], dtype=complex)
    for expo, c in coefficients.items():
        term = np.ones(pts.shape[0])
        for j, e in enumerate(expo):
            if e:
                term = term * pts[:, j] ** e
        out = out + c * term
    if np.abs(out.imag).max(initial=0.0) == 0.0:
        return out.real
    return out


def _exact_fit(pts, vals_int, exponents, tol):
    """Least squares over the rationals via normal equations, or None."""
    V = [[int(np.prod([int(p[j]) ** e for j, e in enumerate(expo)])) for expo in exponents]
         for p in pts]
    k = len(exponents)
    G = [[sum(row[i] * row[j] for row in V) for j in range(k)] for i in range(k)]
    rhs = [sum(row[i] * b for row, b in zip(V, vals_int)) for i in range(k)]
    A = [[Fraction(G[i][j]) for j in range(k)] + [Fraction(rhs[i])] for i in range(k)]
    for col in range(k):
        piv = next((r for r in range(col, k) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [a / pv for a in A[col]]
        for r in range(k):
            if r != col and A[r][col] != 0:
                fac = A[r][col]
                A[r] = [a - fac * b for a, b in zip(A[r], A[col])]
    coeffs = [A[i][k] for i in range(k)]
    worst = Fraction(0)
    for row, b in zip(V, vals_int):
        err = abs(sum(c * v for c, v in zip(coeffs, row)) - b)
        worst = max(worst, err)
    if float(worst) > tol:
        return None
    return [float(c) for c in coeffs], float(worst)


def fit_polynomial_window(f: WindowFunction, d_max: int = DEGREE_CAP,
                          tol: float = WINDOW_POLY_TOL) -> PolynomialCertificate | None:
    """Minimal-degree polynomial fit on the window lattice.

    Integer-valued samples go through exact rational normal equations, so a
    function that is exactly polynomial gets exact coefficients; everything
    else falls back to floating least squares.  Fails (None) when no degree
    up to d_max fits within tol.
    """
    if f.window.radius < d_max + 2:
        raise WindowExhaustedError(
            f"radius {f.window.radius} below fit requirement d_max + 2 = {d_max + 2}"
        )
    vals = np.asarray(f.values, dtype=np.float64).ravel()
    pts = f.window.points()
    integral = bool(np.all(vals == np.round(vals)) and np.abs(vals).max(initial=0.0) < 2**53)
    for d in range(d_max + 1):
        exponents = monomials_up_to(f.window.dim, d)
        if integral:
            got = _exact_fit(pts, [int(v) for v in vals], exponents, tol)
            if got is not None:
                coeffs, resid = got
                out = {e: c for e, c in zip(exponents, coeffs) if c != 0.0}
                return PolynomialCertificate(degree=d, residual=resid, coefficients=out)
            continue
        V = np.ones((pts.shape[0], len(exponents)))
        for i, expo in enumerate(exponents):
            for j, e in enumerate(expo):
                if e:
                    V[:, i] = V[:, i] * pts[:, j].astype(np.float64) ** e
        sol, *_ = np.linalg.lstsq(V, vals, rcond=None)
        resid = float(np.abs(V @ sol - vals).max(initial=0.0))
        if resid <= tol:
            out = {e: float(c) for e, c in zip(exponents, sol) if abs(c) > 1e-12}
            return PolynomialCertificate(degree=d, residual=resid, coefficients=out)
    return None
