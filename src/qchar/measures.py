"""Probability distributions and characteristic functions on finite groups.

The characteristic function of mu is f(y) = sum_x <x, y> mu(x) over the
dual (identified with the group); transforms go through the kernels module.
Validators test `not (residual <= tol)`, so NaN fails them as it fails
``polynomials.within``.  They check stacks of rows, so a sweep checks a
block of laws at once, and a constructor makes the one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import (
    FactorizationError,
    GroupMismatchError,
    NotPositiveDefiniteError,
)
from .groups import (
    FiniteAbelianGroup,
    GroupElement,
    GroupHom,
    Subgroup,
    _add,
    _characters,
    _neg_table,
    annihilator,
)

__all__ = [
    "Distribution",
    "CharacteristicFunction",
    "JointDistribution",
    "char_fn",
    "inverse_char_fn",
    "convolve",
    "haar",
    "haar_cf",
    "degenerate",
    "shifted_haar",
    "support_bound",
    "idempotent_shift_factor",
    "push_forward",
    "product_joint",
    "linear_form_joint",
    "random_distribution",
]

_MASS_TOL = 1e-12
_CF_TOL = 1e-12
_PD_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector indexed by the flat element order of the group."""

    group: FiniteAbelianGroup
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (self.group.order,):
            raise GroupMismatchError(
                f"probability vector length {probs.shape} != group order {self.group.order}"
            )
        _check_masses(self.group, probs[None])
        object.__setattr__(self, "probs", probs)

    def mass(self, x) -> float:
        return float(self.probs[self.group.as_index(x)])

    def support(self, tol: float = _MASS_TOL) -> list[tuple[int, ...]]:
        return [self.group.coords(i) for i in np.where(self.probs > tol)[0]]


@dataclass(frozen=True, eq=False)
class CharacteristicFunction:
    """Function on the dual group; normalized, Hermitian, bounded by one."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.group.order,):
            raise GroupMismatchError("value vector length does not match group order")
        _check_cf(self.group, values[None])
        object.__setattr__(self, "values", values)

    def is_positive_definite(self, tol: float = _PD_TOL) -> bool:
        masses = kernels.dft(self.group, self.values, sign=-1).real / self.group.order
        return float(masses.min()) >= -tol


def _check_masses(group: FiniteAbelianGroup, rows: np.ndarray) -> None:
    """Distribution's checks on each row of a (rows, |G|) stack; the first
    failing row raises what its 1-d constructor raises."""
    if (rows.min(initial=0.0) >= -_MASS_TOL
            and abs(rows.sum(axis=1) - 1.0).max(initial=0.0) <= _MASS_TOL):
        return
    for probs in rows:
        if not (probs.min(initial=0.0) >= -_MASS_TOL):
            i = int(probs.argmin())
            raise NotPositiveDefiniteError(f"negative mass {probs[i]:.3e} at {group.coords(i)}",
                                           worst_mass=float(probs[i]), location=group.coords(i))
        if not (abs(probs.sum() - 1.0) <= _MASS_TOL):
            raise ValueError(f"total mass {probs.sum()!r} is not 1")


def _check_cf(group: FiniteAbelianGroup, rows: np.ndarray) -> None:
    """CharacteristicFunction's checks on each row of a (rows, |G|) stack; the
    first failing row raises what its 1-d constructor raises."""
    neg = _neg_table(group)
    if (abs(rows[:, 0] - 1.0).max(initial=0.0) <= _CF_TOL
            and abs(rows.take(neg, axis=1) - rows.conj()).max(initial=0.0) <= _CF_TOL
            and abs(rows).max(initial=0.0) <= 1.0 + _CF_TOL):
        return
    for values in rows:
        if not (abs(values[0] - 1.0) <= _CF_TOL):
            raise ValueError(f"value at zero is {values[0]!r}, expected 1")
        if not (np.abs(values[neg] - values.conj()).max(initial=0.0) <= _CF_TOL):
            raise ValueError("Hermitian symmetry f(-y) = conj f(y) fails")
        if not (np.abs(values).max(initial=0.0) <= 1.0 + _CF_TOL):
            raise ValueError("characteristic function exceeds modulus 1")


def _char_fn_rows(group: FiniteAbelianGroup, rows: np.ndarray) -> np.ndarray:
    """The checked transform of each row of a (rows, |G|) stack of laws."""
    values = kernels.dft_many(group, rows)
    _check_cf(group, values)
    return values


def char_fn(dist: Distribution) -> CharacteristicFunction:
    """Fourier transform of the distribution."""
    values = kernels.dft(dist.group, dist.probs.astype(np.complex128))
    return CharacteristicFunction(dist.group, values)


def inverse_char_fn(cf: CharacteristicFunction, tol: float = _PD_TOL) -> Distribution:
    """Inverse transform; rejects spectra without a non-negative preimage.

    Masses within float noise below zero are clipped to keep the
    Distribution validator happy; genuine negativity past ``tol``, or a
    mass that is not finite, raises.
    """
    masses = kernels.dft(cf.group, cf.values, sign=-1).real / cf.group.order
    worst = float(masses.min())
    if not (worst >= -tol):
        i = int(masses.argmin())
        raise NotPositiveDefiniteError(
            f"no non-negative preimage: mass {worst:.3e} at {cf.group.coords(i)}",
            worst_mass=worst,
            location=cf.group.coords(i),
        )
    return Distribution(cf.group, np.clip(masses, 0.0, None))


def convolve(a: Distribution, b: Distribution) -> Distribution:
    if a.group != b.group:
        raise GroupMismatchError("convolution operands on different groups")
    return Distribution(a.group, kernels.convolve(a.group, a.probs, b.probs))


def haar(sub: Subgroup) -> Distribution:
    """Uniform distribution on a subgroup."""
    probs = np.zeros(sub.group.order)
    probs[np.asarray(sub.elements)] = 1.0 / sub.order
    return Distribution(sub.group, probs)


def haar_cf(sub: Subgroup) -> CharacteristicFunction:
    """Indicator of the annihilator; exact by integer phases."""
    values = np.zeros(sub.group.order, dtype=np.complex128)
    values[np.asarray(annihilator(sub.group, sub).elements)] = 1.0
    return CharacteristicFunction(sub.group, values)


def degenerate(group: FiniteAbelianGroup, x) -> Distribution:
    probs = np.zeros(group.order)
    probs[group.as_index(x)] = 1.0
    return Distribution(group, probs)


def shifted_haar(group: FiniteAbelianGroup, x, sub: Subgroup) -> Distribution:
    """Uniform distribution on the coset x + K."""
    if sub.group != group:
        raise GroupMismatchError("subgroup lives on a different group")
    probs = np.zeros(group.order)
    probs[_add(group, group.as_index(x), np.asarray(sub.elements))] = 1.0 / sub.order
    return Distribution(group, probs)


def support_bound(dist: Distribution, tol: float = _PD_TOL) -> Subgroup:
    """Coset-free support bound from the level set {f = 1} of the transform.

    Returns A(X, E) for E = {y : |f(y) - 1| <= tol} and asserts the support
    of the distribution actually lies inside it.
    """
    f = char_fn(dist).values
    E = np.where(np.abs(f - 1.0) <= tol)[0]
    bound = annihilator(dist.group, [int(i) for i in E])
    inside = np.zeros(dist.group.order, dtype=bool)
    inside[np.asarray(bound.elements)] = True
    stray = np.where(~inside & (dist.probs > _MASS_TOL))[0]
    if stray.size:
        raise FactorizationError(
            f"support escapes its annihilator bound at {dist.group.coords(int(stray[0]))}"
        )
    return bound


def idempotent_shift_factor(dist: Distribution, tol: float = _PD_TOL):
    """Recognize mu = E_x * m_K from its transform, if possible.

    Requires |f| valued in {0, 1} within tol, the set N = {f != 0} a
    subgroup, and f restricted to N a character <x, .>.  Returns the
    lexicographically smallest shift and the subgroup K = A(X, N), or None.
    """
    return _idempotent_shift_factor(dist, char_fn(dist).values, tol)


def _idempotent_shift_factor(dist: Distribution, f: np.ndarray, tol: float = _PD_TOL):
    """``idempotent_shift_factor`` for a caller that already holds f = char_fn(dist)."""
    group = dist.group
    mods = np.abs(f)
    if not ((mods <= tol) | (np.abs(mods - 1.0) <= tol)).all():
        return None
    N_idx = np.where(mods > 0.5)[0]
    try:
        N = Subgroup(group, tuple(int(i) for i in N_idx))
    except Exception:
        return None
    # A matching x has |inverse transform of f on N| near |N| at x; by
    # Parseval at most 4 |G| / |N| rows clear |N| / 2, so only those are built.
    spec = np.abs(kernels.dft(group, np.where(mods > 0.5, f, 0), sign=-1))
    rows = np.where(spec > N.order / 2)[0]
    errs = np.abs(_characters(group, rows, N_idx) - f[N_idx]).max(axis=1)
    hits = rows[errs <= tol]
    if hits.size == 0:
        return None
    x = int(hits[0])
    K = annihilator(group, N)
    recon = shifted_haar(group, x, K)
    if np.abs(recon.probs - dist.probs).max() > _MASS_TOL:
        return None
    return GroupElement(group.coords(x)), K


def push_forward(dist: Distribution, hom: GroupHom) -> Distribution:
    if hom.source != dist.group:
        raise GroupMismatchError("homomorphism source does not match distribution")
    probs = np.zeros(hom.target.order)
    np.add.at(probs, hom.table, dist.probs)
    return Distribution(hom.target, probs)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint law of several group-valued variables, over the product group."""

    groups: tuple[FiniteAbelianGroup, ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        probs = np.asarray(self.probs, dtype=np.float64)
        order = math.prod(g.order for g in self.groups)
        if probs.shape != (order,):
            raise GroupMismatchError(
                f"joint vector length {probs.shape} != product order {order}"
            )
        _check_masses(self.product_group, probs[None])
        object.__setattr__(self, "probs", probs)

    @property
    def product_group(self) -> FiniteAbelianGroup:
        return _product_group(self.groups)

    @property
    def arity(self) -> int:
        return len(self.groups)

    def marginal(self, i: int) -> Distribution:
        return Distribution(self.groups[i], _marginal_rows(self.groups, self.probs[None], i)[0])

    def joint_cf(self) -> CharacteristicFunction:
        return char_fn(Distribution(self.product_group, self.probs))

    def marginal_cf_product(self) -> np.ndarray:
        """Flattened outer product of the marginal transforms."""
        return _marginal_cf_product(self.groups, self.probs[None])[0]


@lru_cache(maxsize=256)
def _product_group(groups: tuple) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(tuple(n for g in groups for n in g.orders))


def _marginal_rows(groups: tuple, rows: np.ndarray, i: int) -> np.ndarray:
    """The i-th marginal of each row of a stack of joint laws on the product of ``groups``."""
    cube = rows.reshape((len(rows),) + tuple(g.order for g in groups))
    return cube.sum(axis=tuple(j + 1 for j in range(len(groups)) if j != i))


def _marginal_cf_product(groups: tuple, rows: np.ndarray) -> np.ndarray:
    """Flattened outer product of the marginal transforms of each row of a
    stack of joint laws; every marginal and transform is checked."""
    out = np.ones((len(rows), 1), dtype=np.complex128)
    for i, group in enumerate(groups):
        marginal = _marginal_rows(groups, rows, i)
        _check_masses(group, marginal)
        values = _char_fn_rows(group, marginal)
        out = (out[:, :, None] * values[:, None, :]).reshape(len(rows), out.shape[1] * group.order)
    return out


def product_joint(dists: list[Distribution] | tuple[Distribution, ...]) -> JointDistribution:
    probs = np.ones(1)
    for d in dists:
        probs = np.multiply.outer(probs, d.probs).ravel()
    return JointDistribution(tuple(d.group for d in dists), probs)


def linear_form_joint(joint: JointDistribution, rows) -> JointDistribution:
    """Joint law of the linear forms L_i = sum_j rows[i][j](xi_j).

    Each rows[i][j] is a GroupHom from the j-th component group into one
    common target group.
    """
    targets = {h.target for row in rows for h in row}
    if len(targets) != 1:
        raise GroupMismatchError("all linear-form coefficients need one common target")
    target = targets.pop()
    for row in rows:
        if len(row) != joint.arity:
            raise GroupMismatchError("coefficient row length does not match arity")
        for j, h in enumerate(row):
            if h.source != joint.groups[j]:
                raise GroupMismatchError(f"coefficient source mismatch at position {j}")
    m = len(rows)
    shape = tuple(g.order for g in joint.groups)
    per_factor = np.unravel_index(np.arange(joint.probs.size), shape)
    out_idx = np.zeros(joint.probs.size, dtype=np.int64)
    t_order = target.order
    for i, row in enumerate(rows):
        acc = np.zeros(joint.probs.size, dtype=np.int64)
        for j, h in enumerate(row):
            acc = _add(target, acc, h.table[per_factor[j]])
        out_idx = out_idx * t_order + acc
    probs = np.zeros(t_order**m)
    np.add.at(probs, out_idx, joint.probs)
    return JointDistribution((target,) * m, probs)


def random_distribution(group: FiniteAbelianGroup, rng: np.random.Generator) -> Distribution:
    """Strictly positive random probability vector (sweep helper)."""
    probs = rng.random(group.order) + 1e-3
    return Distribution(group, probs / probs.sum())
