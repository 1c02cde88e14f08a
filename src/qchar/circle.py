"""Distributions on the circle group via truncated Fourier coefficients.

The dual of the circle is Z, so spectral data lives on integer windows.
Constructions keep exact logarithms of their coefficients alongside the
(possibly underflowing) values; witness extraction feeds on those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionRejectedError, SizeLimitError, UndefinedLogError
from .polynomials import IntegerWindow, WindowFunction, peak, quadratic_check, within
from .witnesses import SpectralJoint

__all__ = [
    "EvenPolynomial",
    "CircleDistribution",
    "GaussianSpec",
    "gate_sum",
    "exp_poly_distribution",
    "gaussian_distribution",
    "sum_difference_q",
    "sum_difference_joint",
    "gaussian_check",
    "density_grid",
]

GATE_LIMIT = 2.0
COEFF_FLOOR = 1e-15
TAIL_TOL = 1e-12
DENSITY_GRID = 4096
DENSITY_TOL = 1e-9
# density_grid oversamples the coefficients 4x, so truncations stop here
TRUNCATION_CAP = DENSITY_GRID // 4


@dataclass(frozen=True)
class EvenPolynomial:
    """Polynomial in even powers of n, vanishing at zero: {exponent: coeff}."""

    coeffs: dict

    def __post_init__(self):
        clean = {}
        for k, v in self.coeffs.items():
            k = int(k)
            if k <= 0 or k % 2:
                raise ValueError(f"exponents must be positive and even, got {k}")
            clean[k] = float(v)
        if not clean:
            raise ValueError("empty polynomial")
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def __call__(self, n) -> float:
        n = float(n)
        return float(sum(c * n**k for k, c in self.coeffs.items()))

    @property
    def degree(self) -> int:
        return max(self.coeffs)

    @property
    def leading(self) -> float:
        return self.coeffs[self.degree]


def gate_sum(phi: EvenPolynomial) -> tuple[float, float, int]:
    """Certified sum over Z of exp(-phi(n)): (sum, tail bound, stop index).

    Terms are accumulated until they drop below 1e-30 while the increments
    phi(n+1) - phi(n) are at least 1 and growing; past that point the tail
    is dominated by a geometric series with ratio 1/e.  A non-finite phi(n)
    or sum is rejected at once.
    """
    if phi.leading <= 0:
        raise ConstructionRejectedError(
            "phi does not grow at infinity; the coefficient sum diverges",
            computed_sum=math.inf,
        )
    total = 1.0
    n = 0
    prev_step = -math.inf
    while True:
        n += 1
        value = phi(n)
        try:
            term = math.exp(-value)
        except OverflowError:
            term = math.inf
        total += 2.0 * term
        if not (math.isfinite(value) and math.isfinite(total)):
            raise ConstructionRejectedError(
                f"term {n} of the coefficient sum is not finite (phi({n}) = {value!r})",
                computed_sum=total)
        step = phi(n + 1) - phi(n)
        if term < 1e-30 and step >= 1.0 and step >= prev_step:
            break
        prev_step = step
        if n > 10**6:
            raise ConstructionRejectedError(
                "coefficient sum did not settle within 10^6 terms",
                computed_sum=total,
            )
    tail = 2.0 * math.exp(-phi(n + 1)) / (1.0 - math.exp(-1.0))
    return total, tail, n


@dataclass(frozen=True, eq=False)
class CircleDistribution:
    """Truncated spectral data of a circle-valued distribution.

    ``coeffs`` holds c_n for |n| <= truncation (index offset by truncation);
    ``log_coeffs`` the exact logarithms when the constructor knows them.
    Validation: c_0 = 1, Hermitian symmetry, certified tail below 1e-12,
    density non-negative on the 4096-point grid with unit mean.
    """

    truncation: int
    coeffs: np.ndarray
    tail_bound: float
    log_coeffs: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        N = self.truncation
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (2 * N + 1,):
            raise ValueError(f"expected {2 * N + 1} coefficients, got {coeffs.shape}")
        if not within(abs(coeffs[N] - 1.0), 1e-12):
            raise ValueError(f"c_0 must be 1, got {coeffs[N]!r}")
        if not within(peak(coeffs[::-1] - coeffs.conj()), 1e-12):
            raise ValueError("coefficients must be Hermitian")
        if not self.tail_bound < TAIL_TOL:
            raise ValueError(f"tail bound {self.tail_bound:.3e} not certified below {TAIL_TOL}")
        object.__setattr__(self, "coeffs", coeffs)
        if self.log_coeffs is not None:
            logs = np.asarray(self.log_coeffs, dtype=np.complex128)
            if logs.shape != coeffs.shape:
                raise ValueError("log coefficient shape mismatch")
            object.__setattr__(self, "log_coeffs", logs)
        _, dens = density_grid(self, DENSITY_GRID)
        if not within(-dens.min(), DENSITY_TOL):
            raise ValueError(f"density reaches {dens.min():.3e} on the grid")
        if not within(abs(dens.mean() - 1.0), DENSITY_TOL):
            raise ValueError("grid mean of the density is not 1")

    def coeff(self, n: int) -> complex:
        if abs(n) > self.truncation:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.truncation])

    def cf_window(self, radius: int) -> WindowFunction:
        if radius > self.truncation:
            raise ValueError(f"radius {radius} beyond truncation {self.truncation}")
        N = self.truncation
        return WindowFunction(IntegerWindow(radius, 1),
                              self.coeffs[N - radius : N + radius + 1])

    def log_window(self, radius: int) -> WindowFunction | None:
        if self.log_coeffs is None:
            return None
        N = self.truncation
        return WindowFunction(IntegerWindow(radius, 1),
                              self.log_coeffs[N - radius : N + radius + 1])


def density_grid(dist: CircleDistribution, grid: int = DENSITY_GRID):
    """Density values on a uniform grid; grid must oversample 4x."""
    N = dist.truncation
    if grid < 4 * max(N, 1):
        raise ValueError(f"grid {grid} must be at least 4 * truncation = {4 * N}")
    return 2.0 * np.pi * np.arange(grid) / grid, _grid_density(dist.coeffs, grid)


def _grid_density(coeffs, grid: int = DENSITY_GRID) -> np.ndarray:
    """Real part of sum_n c_n exp(-2 pi i k n / grid) for k < grid, by one FFT.

    ``coeffs`` holds c_n for |n| <= N, centred on index N.  Each c_n lands
    at index n mod grid, which is exact at the grid points, so any N works.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    N = len(coeffs) // 2
    buf = np.zeros(grid, dtype=np.complex128)
    np.add.at(buf, np.arange(-N, N + 1) % grid, coeffs)
    return np.fft.fft(buf).real


def exp_poly_distribution(phi: EvenPolynomial, min_truncation: int | None = None) -> CircleDistribution:
    """Distribution with spectrum exp(-phi(n)); needs coefficient sum < 2.

    The positivity of the density follows from the gate: the n = 0 term
    contributes 1 while all others are bounded by sum - 1 < 1 in modulus.
    """
    total, tail_stop, n_stop = gate_sum(phi)
    if not total < GATE_LIMIT:
        raise ConstructionRejectedError(
            f"coefficient sum {total:.6f} is not below {GATE_LIMIT}", computed_sum=total
        )
    N = 1
    while math.exp(-phi(N)) >= COEFF_FLOOR:
        N += 1
    if min_truncation is not None:
        N = max(N, int(min_truncation))
    N = max(N, 1)
    tail = 0.0
    for n in range(N + 1, n_stop + 2):
        tail += 2.0 * math.exp(-phi(n))
    tail += tail_stop
    while not tail < TAIL_TOL:
        N += 1
        tail -= 2.0 * math.exp(-phi(N))
    n_axis = np.arange(-N, N + 1)
    logs = np.asarray([-phi(abs(n)) for n in n_axis], dtype=np.complex128)
    coeffs = np.exp(logs.real)
    return CircleDistribution(
        truncation=N, coeffs=coeffs, tail_bound=tail, log_coeffs=logs,
        provenance={"kind": "exp-poly", "even_coeffs": dict(phi.coeffs),
                    "gate": (total, tail_stop, n_stop)},
    )


def gaussian_distribution(shift: float, sigma: float,
                          min_truncation: int | None = None) -> CircleDistribution:
    """Gaussian spectral data c_n = exp(i n shift - sigma n^2), truncated at the
    least N >= 1 with exp(-sigma N^2) < COEFF_FLOOR, raised to min_truncation.

    SizeLimitError, before any loop runs, for a sigma whose coefficients stay
    above the floor past TRUNCATION_CAP: a tiny one, or one that is not positive.
    """
    if not (sigma > 0 and math.sqrt(-math.log(COEFF_FLOOR) / sigma) <= TRUNCATION_CAP):
        raise SizeLimitError(f"sigma {sigma!r} keeps exp(-sigma n^2) above {COEFF_FLOOR} "
                             f"past the truncation cap {TRUNCATION_CAP}")
    N = 1
    while math.exp(-sigma * N * N) >= COEFF_FLOOR:
        N += 1
    if min_truncation is not None:
        N = max(N, int(min_truncation))
    if N > TRUNCATION_CAP:
        raise ValueError(f"truncation {N} is above {TRUNCATION_CAP}")
    tail = 0.0
    m = N + 1
    while True:
        term = 2.0 * math.exp(-sigma * m * m)
        tail += term
        if term < 1e-30:
            break
        m += 1
    tail += 2.0 * math.exp(-sigma * m * m) / (1.0 - math.exp(-sigma * (2 * m + 1)))
    n_axis = np.arange(-N, N + 1)
    logs = 1j * n_axis * shift - sigma * n_axis.astype(np.float64) ** 2
    return CircleDistribution(
        truncation=N, coeffs=np.exp(logs), tail_bound=tail, log_coeffs=logs,
        provenance={"kind": "gaussian", "shift": float(shift), "sigma": float(sigma)},
    )


def sum_difference_q(phi1: EvenPolynomial, phi2: EvenPolynomial) -> dict:
    """Witness polynomial of the sum/difference pair, by direct expansion.

    q(u, v) = -phi1(u+v) - phi2(u-v) + phi1(u) + phi2(u) + phi1(v) + phi2(v),
    returned as {(i, j): coefficient} with zero terms dropped.
    """
    acc: dict[tuple[int, int], float] = {}

    def add_term(i, j, c):
        if c:
            acc[(i, j)] = acc.get((i, j), 0.0) + c
            if acc[(i, j)] == 0.0:
                del acc[(i, j)]

    for k, c in phi1.coeffs.items():
        for t in range(k + 1):
            add_term(t, k - t, -c * math.comb(k, t))
        add_term(k, 0, c)
        add_term(0, k, c)
    for k, c in phi2.coeffs.items():
        for t in range(k + 1):
            add_term(t, k - t, -c * math.comb(k, t) * (-1) ** (k - t))
        add_term(k, 0, c)
        add_term(0, k, c)
    return dict(sorted(acc.items()))


def sum_difference_joint(d1: CircleDistribution, d2: CircleDistribution,
                         radius: int | None = None) -> SpectralJoint:
    """Transform data of (xi1 + xi2, xi1 - xi2) on a square window.

    The joint transform at (u, v) is c1(u+v) c2(u-v); both marginals are
    products of the input spectra.  The window may reach at most half the
    smaller truncation so every lookup stays inside certified data.
    """
    half = min(d1.truncation, d2.truncation) // 2
    W = half if radius is None else int(radius)
    if W < 1 or W > half:
        raise ValueError(f"window radius {W} outside [1, {half}]")
    u = np.arange(-W, W + 1)
    N1, N2 = d1.truncation, d2.truncation
    joint = d1.coeffs[np.add.outer(u, u) + N1] * d2.coeffs[np.subtract.outer(u, u) + N2]
    m1 = d1.coeffs[u + N1] * d2.coeffs[u + N2]
    m2 = d1.coeffs[u + N1] * d2.coeffs[-u + N2]
    win2, win1 = IntegerWindow(W, 2), IntegerWindow(W, 1)
    log_joint = log_marg = None
    if d1.log_coeffs is not None and d2.log_coeffs is not None:
        lj = d1.log_coeffs[np.add.outer(u, u) + N1] + d2.log_coeffs[np.subtract.outer(u, u) + N2]
        l1 = d1.log_coeffs[u + N1] + d2.log_coeffs[u + N2]
        l2 = d1.log_coeffs[u + N1] + d2.log_coeffs[-u + N2]
        log_joint = WindowFunction(win2, lj)
        log_marg = (WindowFunction(win1, l1), WindowFunction(win1, l2))
    return SpectralJoint(
        joint=WindowFunction(win2, joint),
        marginals=(WindowFunction(win1, m1), WindowFunction(win1, m2)),
        log_joint=log_joint,
        log_marginals=log_marg,
    )


@dataclass(frozen=True)
class GaussianSpec:
    """Fitted Gaussian spectral parameters c_n = exp(i n shift - sigma n^2)."""

    shift: float
    sigma: float


def gaussian_check(f: WindowFunction, logs: WindowFunction | None = None,
                   tol: float = 1e-8) -> GaussianSpec | None:
    """Fit Gaussian form to dim-1 spectral data; None when it is not one.

    The modulus must satisfy the quadratic functional equation and the
    phase must be linear in n.
    """
    if f.window.dim != 1:
        raise ValueError("expected dim-1 spectral data")
    N = f.window.radius
    if logs is not None:
        lv = np.asarray(logs.values, dtype=np.complex128)
        mag = -lv.real
        theta = lv.imag
    else:
        vals = np.asarray(f.values, dtype=np.complex128)
        if not np.abs(vals).min() > 1e-12:
            raise UndefinedLogError("spectral values vanish on the window")
        from .witnesses import _continuous_log

        lv = _continuous_log(vals)
        mag = -lv.real
        theta = lv.imag
    mag = mag - mag[N]
    theta = theta - theta[N]
    try:
        resid = quadratic_check(WindowFunction(f.window, mag), tol=tol)
    except ValueError:
        return None
    if not within(resid, tol):
        return None
    sigma = float(mag[N + 1]) if N >= 1 else 0.0
    if not within(-sigma, tol):
        return None
    x = float(theta[N + 1]) if N >= 1 else 0.0
    n_axis = np.arange(-N, N + 1)
    if not within(peak(theta - x * n_axis), max(tol, tol * N)):
        return None
    return GaussianSpec(shift=float(np.mod(x, 2.0 * np.pi)), sigma=max(sigma, 0.0))
