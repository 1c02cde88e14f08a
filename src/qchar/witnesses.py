"""Q-independence witnesses: joint transforms versus marginal products.

A joint law is Q-independent when its transform equals the product of the
marginal transforms times exp(q) for a polynomial q vanishing at zero.  On
finite groups any such q is constant, hence zero, so witness extraction
collapses to a factorization test.  On integer windows (spectral data from
the circle) q is fitted from the logarithm of the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupMismatchError, UndefinedLogError
from .groups import FiniteAbelianGroup
from .measures import (
    JointDistribution,
    _char_fn_rows,
    _marginal_cf_product,
    _product_group,
)
from .polynomials import (
    DEGREE_CAP,
    GroupFunction,
    IntegerWindow,
    WindowFunction,
    fit_polynomial_window,
    poly_eval,
    within,
)

__all__ = [
    "QWitness",
    "SpectralJoint",
    "extract_q_witness",
]

GROUP_Q_TOL = 1e-9
WINDOW_Q_TOL = 1e-8
_LOG_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class QWitness:
    """Polynomial witness q with q(0) = 0 plus the certified residual."""

    q: GroupFunction | WindowFunction
    degree: int
    residual: float
    coefficients: dict | None = None

    def evaluate(self, point):
        return self.q.value(point)


@dataclass(frozen=True, eq=False)
class SpectralJoint:
    """Transform data of a pair of circle-valued variables on a window.

    ``joint`` holds the joint transform on [-W, W]^2, ``marginals`` the two
    marginal transforms on [-W, W].  When the construction knows exact
    logarithms of the coefficients it passes them along; they survive the
    underflow that kills the raw values on wide windows.
    """

    joint: WindowFunction
    marginals: tuple[WindowFunction, WindowFunction]
    log_joint: WindowFunction | None = None
    log_marginals: tuple[WindowFunction, WindowFunction] | None = None

    def __post_init__(self):
        W = self.joint.window.radius
        if self.joint.window.dim != 2:
            raise GroupMismatchError("joint transform must live on a dim-2 window")
        for m in self.marginals:
            if m.window != IntegerWindow(W, 1):
                raise GroupMismatchError("marginal window does not match joint window")

    @property
    def radius(self) -> int:
        return self.joint.window.radius


def _marginal_product_grid(sj: SpectralJoint) -> np.ndarray:
    a = sj.marginals[0].values
    b = sj.marginals[1].values
    return np.multiply.outer(a, b)


def _unwrap_axis(values: np.ndarray, start_phase: np.ndarray, axis: int) -> np.ndarray:
    """Continuous phases along one axis given the phase on the first slice."""
    moved = np.moveaxis(values, axis, 0)
    steps = np.angle(moved[1:] * np.conj(moved[:-1]))
    phases = np.concatenate([start_phase[None], start_phase[None] + np.cumsum(steps, axis=0)])
    return np.moveaxis(phases, 0, axis)


def _continuous_log(values: np.ndarray) -> np.ndarray:
    """Branch-continuous log on a centered window, zero branch at the origin.

    Phases are unwrapped along axis-parallel paths from the centre with
    principal increments per unit step; a modulus at or below 1e-12 anywhere
    makes the branch ill-defined and raises.
    """
    mods = np.abs(values)
    if mods.min(initial=1.0) <= _LOG_FLOOR:
        raise UndefinedLogError(
            f"modulus {mods.min():.3e} below {_LOG_FLOOR} on the unwrap grid"
        )
    c = values.shape[0] // 2
    if values.ndim == 1:
        base = np.angle(values[c])
        idx = np.arange(values.size)
        fwd = _unwrap_axis(values[c:], np.asarray(base), 0)
        bwd = _unwrap_axis(values[c::-1], np.asarray(base), 0)[::-1]
        phases = np.concatenate([bwd[:-1], fwd])
        return np.log(mods) + 1j * phases
    if values.ndim == 2:
        row = _continuous_log(values[c, :]).imag
        upper = _unwrap_axis(values[c:, :], row, 0)
        lower = _unwrap_axis(values[c::-1, :], row, 0)[::-1]
        phases = np.concatenate([lower[:-1], upper], axis=0)
        return np.log(mods) + 1j * phases
    raise GroupMismatchError("unwrapping supports dim 1 and 2 only")


def _fit_complex(win: IntegerWindow, vals: np.ndarray, d_max: int, tol: float):
    """Fit real and imaginary parts; returns (coeffs, degree, fit residual)."""
    shape = (win.side,) * win.dim
    re = fit_polynomial_window(WindowFunction(win, vals.real.reshape(shape)), d_max, tol)
    if re is None:
        return None
    if np.abs(vals.imag).max(initial=0.0) <= tol:
        return re.coefficients, re.degree, re.residual
    im = fit_polynomial_window(WindowFunction(win, vals.imag.reshape(shape)), d_max, tol)
    if im is None:
        return None
    coeffs = dict(re.coefficients)
    for e, c in im.coefficients.items():
        coeffs[e] = coeffs.get(e, 0.0) + 1j * c
    return coeffs, max(re.degree, im.degree), max(re.residual, im.residual)


def _window_witness(win: IntegerWindow, q_vals: np.ndarray, value_residual, d_max, tol):
    got = _fit_complex(win, q_vals.astype(np.complex128), d_max, tol)
    if got is None:
        return None
    coeffs, degree, _ = got
    fitted = poly_eval(coeffs, win.points()).reshape((win.side,) * win.dim)
    q_fn = WindowFunction(win, fitted)
    residual = float(value_residual(q_fn))
    if not np.isfinite(residual):
        # the values overflow, so nothing confirms the fitted witness
        return None
    return QWitness(q=q_fn, degree=degree, residual=residual, coefficients=coeffs)


def _q_gaps(groups: tuple, rows: np.ndarray) -> np.ndarray:
    """max |joint transform - product of marginal transforms| of each row of a
    stack of joint laws on the product of ``groups``; NaN stays NaN."""
    joint = _char_fn_rows(_product_group(groups), rows)
    return np.abs(joint - _marginal_cf_product(groups, rows)).max(axis=1)


def _zero_witness(group: FiniteAbelianGroup, resid: float) -> QWitness:
    """The witness q = 0 that every Q-independence on a finite group collapses to."""
    return QWitness(q=GroupFunction(group, np.zeros(group.order)), degree=0,
                    residual=resid, coefficients={})


def extract_q_witness(joint, d_max: int = DEGREE_CAP, tol: float | None = None):
    """Search for a Q-independence witness; None when there is none.

    Finite groups: succeeds exactly when the joint transform equals the
    product of marginal transforms within tol (the witness is then zero).
    Windows: fits a polynomial to the branch-continuous log of the ratio,
    preferring exact log data when the spectral construction provides it;
    points where the product vanishes require the joint to vanish too.
    """
    if isinstance(joint, JointDistribution):
        tol = GROUP_Q_TOL if tol is None else tol
        resid = float(_q_gaps(joint.groups, joint.probs[None])[0])
        return _zero_witness(joint.product_group, resid) if within(resid, tol) else None
    if not isinstance(joint, SpectralJoint):
        raise TypeError(f"unsupported joint data {type(joint).__name__}")
    tol = WINDOW_Q_TOL if tol is None else tol
    win = joint.joint.window
    d_cap = min(d_max, win.radius - 2)
    prod = _marginal_product_grid(joint)

    def value_residual(q_fn):
        return np.abs(joint.joint.values - prod * np.exp(np.asarray(q_fn.values))).max()

    if joint.log_joint is not None and joint.log_marginals is not None:
        log_prod = np.add.outer(
            np.asarray(joint.log_marginals[0].values),
            np.asarray(joint.log_marginals[1].values),
        )
        q_vals = np.asarray(joint.log_joint.values) - log_prod
        return _window_witness(win, q_vals, value_residual, d_cap, tol)
    dead = np.abs(prod) <= _LOG_FLOOR
    if dead.any():
        if (np.abs(joint.joint.values)[dead] > _LOG_FLOOR).any():
            return None
        raise UndefinedLogError(
            "marginal product vanishes on the window and no exact logs are available"
        )
    q_vals = _continuous_log(joint.joint.values) - _continuous_log(prod)
    return _window_witness(win, q_vals, value_residual, d_cap, tol)
