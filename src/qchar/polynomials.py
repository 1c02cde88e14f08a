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

``difference`` is the one shifted difference, on plain arrays; the degree
scans and the elimination chains both use it.  A scan runs its shifts in
blocks along a leading batch axis, at most ``BLOCK_ENTRIES`` entries an
array, and each entry is the same subtraction as one shift at a time.  A
window scan runs its shifts by ring max |h|, largest first, and takes the
k-th difference of a block only on the box of radius N - k m (m its
smallest ring) that the peaks read.  A failing degree's residual is never
reported, so a scan returns the first failing peak in product order once
every shift before it is in: on a window almost always at the first shift.

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
    "difference",
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
# Shifts are differenced in blocks of at most this many array entries: 128 KB
# of floats stays in cache, and keeps a chain on Z_64 under 1 MiB.
BLOCK_ENTRIES = 1 << 14


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


def _pair_peak(count: int, width: int, defect) -> float:
    """``peak`` of defect(u) over u in range(count), for a column u of rows at a time.

    A row holds the ``width`` defects of u against all v, a block at most
    ``BLOCK_ENTRIES``.  The max is exact and ``np.max`` keeps a block's NaN.
    """
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    return float(np.max([peak(defect(np.arange(a, min(a + step, count))[:, None]))
                         for a in range(0, count, step)], initial=0.0))


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


def _radius(values) -> int:
    return (values.shape[-1] - 1) // 2


def _centre(values, r):
    """The middle [-r, r] (on every axis) of a centred window array."""
    off = _radius(values) - r
    return values[tuple(slice(off, off + 2 * r + 1) for _ in values.shape)]


def difference(values, move):
    """f(x + h) - f(x) on a plain array of values.

    With an index array, ``move`` holds the flat index in ``values`` of x + h
    for every entry x of the result, which has its shape, and an index past
    either end reads that end.  f(x) is ``values`` (on a window, its centred
    box of the result's side), broadcast along leading axes.  On a centred
    window, ``move`` may instead be the shift h, one integer per axis, and the
    window shrinks by max |h| at each end.
    """
    if isinstance(move, np.ndarray):
        moved = values.reshape(-1).take(move, mode="clip")
        c = (values.shape[-1] - move.shape[-1]) // 2  # 0 on a group
        moved -= values[(..., *[slice(c, values.shape[-1] - c)] * (move.ndim - 1))] if c else values
        return moved
    r = _radius(values) - max(abs(c) for c in move)
    if r < 0:
        raise WindowExhaustedError(f"shift {move} exhausts window of radius {_radius(values)}")
    off = _radius(values) - r
    return values[tuple(slice(off + c, off + c + 2 * r + 1) for c in move)] - _centre(values, r)


def _blocks(count: int, size: int):
    """Slices of a group degree scan's range(count): the first shift alone,
    where a failing degree almost always fails, then up to ``size`` shifts each."""
    edges = [0, *range(1, count, max(size, 1)), count] if count else []
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _window_peaks(f, n: int, shifts, rings):
    """Peaks of the (n+1)-fold difference at a block of shifts, rings descending.

    The k-th difference covers the box of radius N - k m, m the smallest ring.
    Entries of a larger ring beyond its own box come out wrong and are left out.
    """
    N, dim, low, d = f.window.radius, f.window.dim, int(rings[-1]), f.values
    sides = np.arange(2 * N + 1, 2 * (N - n * low), -2 * low)  # of d, round by round
    # the flat offset of h; after the first round, row b of the block reads row b of d
    scale = sides[:, None] ** np.arange(dim - 1, -1, -1)
    starts = scale @ shifts.T
    starts[1:] += np.outer(scale[1:, 0] * sides[1:], np.arange(len(shifts)))
    for side, start in zip(sides.tolist(), starts):
        box = np.arange(side ** dim).reshape((side,) * dim)[(slice(low, side - low),) * dim]
        d = difference(d, box.copy() + start.reshape(-1, *(1,) * dim))
    peaks = np.abs(d).reshape(len(shifts), -1)
    if rings[0] > low:
        from_centre = np.abs(np.indices(d.shape[1:]) - (N - (n + 1) * low)).max(axis=0).ravel()
        peaks = np.where(from_centre <= N - (n + 1) * rings[:, None], peaks, 0.0)
    return peaks.max(axis=1)


def _shift_peaks(f, n: int):
    """(places, peaks) of the (n+1)-fold difference, a block of shifts at a time.

    places are the shifts' positions in product order.  A group runs min(h, -h)
    of each pair {h, -h}, in product order, and yields the places of both with
    one peak: D_-h^(n+1) f(x) is +-D_h^(n+1) f(x - (n+1)h) up to the sign of a
    zero, so the two peaks are one float.  A window's centred boxes break that
    mirror: it runs (-reach, ..., -reach) alone, then makes the rest and runs
    them by ring |h|, largest first and in product order within a ring, each
    block holding at most ``BLOCK_ENTRIES`` entries of the box its first
    difference covers.
    """
    if isinstance(f, GroupFunction):
        vals, neg = np.asarray(f.values), _neg_table(f.group)
        reps = np.flatnonzero(np.arange(vals.size) <= neg)[1:]
        for block in _blocks(len(reps), BLOCK_ENTRIES // vals.size):
            h = reps[block]
            move = _add(f.group, np.arange(vals.size), h[:, None])
            d = difference(vals, move)
            move += np.arange(0, move.size, vals.size)[:, None]  # later rounds read their own row
            for _ in range(n):
                d = difference(d, move)
            peaks, pair = np.abs(d).max(axis=1), neg[h] != h
            yield np.concatenate([h, neg[h][pair]]) - 1, np.concatenate([peaks, peaks[pair]])
        return
    N, dim = f.window.radius, f.window.dim
    if N < n + 2:
        raise WindowExhaustedError(f"radius {N} too small for degree-{n} test (needs >= {n + 2})")
    reach = N // (n + 1)
    yield np.zeros(1, dtype=np.int64), _window_peaks(f, n, np.full((1, dim), -reach), [reach])
    grid = np.indices((2 * reach + 1,) * dim).reshape(dim, -1).T - reach
    order = np.argsort(-np.abs(grid).max(axis=1), kind="stable")[1:-1]  # skip (-reach, ...) and 0
    places, shifts = order - (order > len(grid) // 2), grid[order]
    rings = np.abs(shifts).max(axis=1)
    # shift j fits a block from a when j - a < its fit, and j - fit increases with j
    last = np.arange(len(order)) - BLOCK_ENTRIES // (2 * (N - rings) + 1) ** dim
    a = 0
    while a < len(order):
        b = max(a + 1, int(np.searchsorted(last, a)))
        yield places[a:b], _window_peaks(f, n, shifts[a:b], rings[a:b])
        a = b


def _poly_residual(f, n: int, tol=None) -> float:
    """Largest (n+1)-fold difference over all admissible shifts.

    With ``tol`` it returns the peak of the first shift in product order that
    fails ``within``: a failing degree is decided there, and its residual is
    never reported.  The scan stops once every shift before that one is in.
    """
    if n == 0 and isinstance(f, GroupFunction):
        vals = f.values
        if vals.dtype.kind == "f" and np.isfinite(vals).all():
            return float(abs(vals.max() - vals.min()))
    seen, places, failed = [], [], False
    for at, peaks in _shift_peaks(f, n):
        seen.append(peaks)
        places.append(at)
        failed = failed or (tol is not None and not (peaks <= tol).all())
        if failed:
            at, peaks = np.concatenate(places), np.concatenate(seen)
            first = at[~(peaks <= tol)].min()
            if np.count_nonzero(at < first) == first:  # every earlier shift is in, and passed
                return float(peaks[at == first][0])
    return peak(np.concatenate(seen or [[]]))


def is_polynomial(f, n: int, tol: float | None = None) -> bool:
    """Degree <= n in the repeated-shift sense, over all admissible shifts."""
    if tol is None:
        tol = GROUP_POLY_TOL if isinstance(f, GroupFunction) else WINDOW_POLY_TOL
    return within(_poly_residual(f, n, tol), tol)


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
        r = _poly_residual(f, n, tol)
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
        return _pair_peak(g.order, g.order, lambda u: (
            vals[_add(g, u, np.arange(g.order))] + vals[_add(g, u, neg)]
            - 2.0 * vals[u] - 2.0 * vals))
    w = f.window
    N = w.radius
    centre = (N,) * w.dim
    if not within(abs(vals[centre]), tol):
        raise ValueError("f(0) must vanish")
    if not within(peak(vals[tuple(slice(None, None, -1) for _ in range(w.dim))] - vals), tol):
        raise ValueError("f must be even")
    mag, flat = np.abs(w.points()), vals.ravel()
    # (u, v) is admissible when |v| <= N - |u| on every axis; then the flat
    # indices of u + v and u - v are u + v - c and u - v + c, c that of 0
    c, v = flat.size // 2, np.arange(flat.size)

    def defect(u):
        ok = (mag <= N - mag[u]).all(axis=2)
        resid = (flat[np.where(ok, u + v - c, c)] + flat[np.where(ok, u - v + c, c)]
                 - 2.0 * flat[u] - 2.0 * flat)
        return np.where(ok, resid, 0.0)
    return _pair_peak(flat.size, flat.size, defect)


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
