"""Finite abelian groups presented as explicit products of cyclic factors.

A group is Z_{n_1} x ... x Z_{n_k}; elements are coordinate tuples stored
row-major as flat indices.  Sums of indices are formed by ``_add`` from
the cached coordinate table, so no |G| x |G| table is kept.  The dual group
is identified with the group itself coordinate-wise, and the pairing
<x, y> = exp(2 pi i sum_j x_j y_j / n_j) is manipulated through exact
integer phases (units of 1/L, L the exponent lcm) so that membership
questions -- annihilators, kernels, adjoints -- never depend on floating
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    GroupMismatchError,
    InvalidElementError,
    InvalidSubgroupError,
    NotAHomomorphismError,
    NotAnAutomorphismError,
    SizeLimitError,
)

__all__ = [
    "ORDER_CAP",
    "FiniteAbelianGroup",
    "GroupElement",
    "Subgroup",
    "GroupHom",
    "Automorphism",
    "pairing",
    "pairing_is_one",
    "phase_matrix",
    "annihilator",
    "adjoint",
    "multiplication_map",
    "is_corwin",
    "structural_predicates",
    "element_order",
    "primary_component",
    "generating_set",
    "all_subgroups",
    "groups_up_to_order",
]

# Exhaustive O(|G|^2) tables stop being desk-scale beyond this.
ORDER_CAP = 4096


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups with the given factor orders."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(n) for n in self.orders)
        if any(n < 1 for n in orders):
            raise InvalidElementError(f"cyclic orders must be >= 1, got {orders}")
        object.__setattr__(self, "orders", orders)
        if self.order > ORDER_CAP:
            raise SizeLimitError(
                f"group order {self.order} exceeds the exhaustive-operation cap {ORDER_CAP}"
            )

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def exponent(self) -> int:
        """lcm of the factor orders; the common phase denominator L."""
        return math.lcm(*self.orders) if self.orders else 1

    def index(self, coords: Sequence[int]) -> int:
        """Flat row-major index of an element given by coordinates."""
        coords = self.reduce_coords(coords)
        idx = 0
        for c, n in zip(coords, self.orders):
            idx = idx * n + c
        return idx

    def coords(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise InvalidElementError(f"index {index} out of range for order {self.order}")
        return tuple(int(c) for c in _coords_table(self)[index])

    def reduce_coords(self, coords) -> tuple[int, ...]:
        if isinstance(coords, GroupElement):
            coords = coords.coords
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise InvalidElementError(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        return tuple(c % n for c, n in zip(coords, self.orders))

    def as_index(self, x) -> int:
        """Accept a flat index, coordinate sequence or GroupElement."""
        if isinstance(x, (int, np.integer)):
            if not 0 <= x < self.order:
                raise InvalidElementError(f"index {x} out of range for order {self.order}")
            return int(x)
        return self.index(x)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self.reduce_coords(coords))

    def add(self, x, y) -> tuple[int, ...]:
        a, b = self.reduce_coords(x), self.reduce_coords(y)
        return tuple((i + j) % n for i, j, n in zip(a, b, self.orders))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-c) % n for c, n in zip(self.reduce_coords(x), self.orders))

    def elements(self) -> Iterable[tuple[int, ...]]:
        for idx in range(self.order):
            yield self.coords(idx)


@dataclass(frozen=True)
class GroupElement:
    """Coordinate tuple of a group element."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))


@lru_cache(maxsize=256)
def _coords_table(group: FiniteAbelianGroup) -> np.ndarray:
    """(order, rank) int64 matrix of all coordinate tuples, row-major."""
    if group.rank == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.unravel_index(np.arange(group.order), group.orders)
    return np.stack(grids, axis=1).astype(np.int64)


@lru_cache(maxsize=256)
def _strides(group: FiniteAbelianGroup) -> np.ndarray:
    s = np.ones(group.rank, dtype=np.int64)
    for j in range(group.rank - 2, -1, -1):
        s[j] = s[j + 1] * group.orders[j + 1]
    return s


def _index_of_coords(group: FiniteAbelianGroup, coords: np.ndarray) -> np.ndarray:
    """Vectorized row-major index of reduced coordinate rows."""
    if group.rank == 0:
        return np.zeros(coords.shape[:-1], dtype=np.int64)
    return coords @ _strides(group)


def _add(group: FiniteAbelianGroup, x, y) -> np.ndarray:
    """Flat indices of x + y for broadcastable flat-index arrays x and y.

    Exact, one axis at a time: start from the flat sum x + y and, wherever the
    coordinates on axis j sum to n_j or more, subtract n_j times that axis's
    stride.  Forms no (..., rank) array.
    """
    out = np.asarray(np.add(x, y), dtype=np.int64)
    for n, stride, col in zip(group.orders, _strides(group).tolist(), _coords_table(group).T):
        np.subtract(out, n * stride, out=out, where=col[x] + col[y] >= n)
    return out


def _unit_indices(group: FiniteAbelianGroup) -> np.ndarray:
    """Flat indices of the coordinate generators e_j (0 on an axis of order 1)."""
    return (1 % np.asarray(group.orders, dtype=np.int64)) * _strides(group)


def _translates(group: FiniteAbelianGroup, values: np.ndarray):
    """Map a column of indices s to the rows values[s + x] over all x.

    The rows are windows of one wrapped-around copy of the values, so no sum
    of indices is formed.
    """
    wrapped = np.reshape(values, group.orders or (1,))
    for axis in range(wrapped.ndim):
        wrapped = np.concatenate((wrapped, wrapped), axis=axis)
    shape = tuple(n // 2 for n in wrapped.shape)
    windows = np.ndarray(shape * 2, wrapped.dtype, wrapped, strides=wrapped.strides * 2)
    return lambda s: windows[tuple(_coords_table(group)[s[:, 0]].T)].reshape(len(s), -1)


def _linear_table(source: FiniteAbelianGroup, target: FiniteAbelianGroup, mat) -> np.ndarray:
    """Index table of the coordinate map x -> mat x, reduced mod the target orders."""
    img = _coords_table(source) @ np.asarray(mat, dtype=np.int64).T
    img %= np.asarray(target.orders, dtype=np.int64)
    return _index_of_coords(target, img)


@lru_cache(maxsize=256)
def _neg_table(group: FiniteAbelianGroup) -> np.ndarray:
    return _linear_table(group, group, -np.eye(group.rank, dtype=np.int64))


@lru_cache(maxsize=256)
def _phase_weights(group: FiniteAbelianGroup) -> np.ndarray:
    """w_j = L / n_j so that <x,y> = exp(2 pi i (sum x_j y_j w_j) / L)."""
    L = group.exponent
    return np.asarray([L // n for n in group.orders], dtype=np.int64)


def phase_matrix(group: FiniteAbelianGroup, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Integer pairing phases (units of 1/exponent) for index arrays xs, ys."""
    coords = _coords_table(group)
    w = _phase_weights(group)
    a = coords[np.asarray(xs, dtype=np.int64)] * w
    b = coords[np.asarray(ys, dtype=np.int64)]
    return (a @ b.T) % group.exponent


def _characters(group: FiniteAbelianGroup, xs, ys) -> np.ndarray:
    """Pairing values <x, y> for index arrays xs, ys, from exact integer phases."""
    return np.exp(2j * np.pi * phase_matrix(group, xs, ys) / group.exponent)


def pairing(group: FiniteAbelianGroup, x, y) -> complex:
    """Value of the duality pairing <x, y> on the unit circle."""
    p = phase_matrix(group, np.array([group.as_index(x)]), np.array([group.as_index(y)]))
    return complex(np.exp(2j * np.pi * p[0, 0] / group.exponent))

def pairing_is_one(group: FiniteAbelianGroup, x, y) -> bool:
    """Exact test <x, y> = 1 via integer phases."""
    p = phase_matrix(group, np.array([group.as_index(x)]), np.array([group.as_index(y)]))
    return int(p[0, 0]) == 0


@dataclass(frozen=True)
class Subgroup:
    """Subgroup stored as the sorted tuple of its member indices."""

    group: FiniteAbelianGroup
    elements: tuple[int, ...]
    _generators: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        el = tuple(sorted(int(i) for i in set(self.elements)))
        object.__setattr__(self, "elements", el)
        if not el or el[0] != 0:
            raise InvalidSubgroupError("subgroup must contain the zero element")
        arr = np.asarray(el, dtype=np.int64)
        if arr[-1] >= self.group.order or arr[0] < 0:
            raise InvalidSubgroupError("subgroup element index out of range")
        member = np.zeros(self.group.order, dtype=bool)
        member[arr] = True
        # the last span holds every element, so a set no span leaves is that subgroup
        gens = []
        for g, span in _spans(self.group, arr):
            if not member[span].all():
                raise InvalidSubgroupError("element set is not closed under addition")
            gens.append(g)
        object.__setattr__(self, "_generators", tuple(gens))

    @classmethod
    def from_generators(cls, group: FiniteAbelianGroup, gens) -> "Subgroup":
        idx = np.asarray([group.as_index(g) for g in gens], dtype=np.int64)
        spans = [np.zeros(1, dtype=np.int64)] + [span for _, span in _spans(group, idx)]
        return cls(group, tuple(spans[-1].tolist()))

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup) -> "Subgroup":
        return cls(group, (0,))

    @classmethod
    def full(cls, group: FiniteAbelianGroup) -> "Subgroup":
        return cls(group, tuple(range(group.order)))

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x) -> bool:
        return self.group.as_index(x) in set(self.elements)

    def coords_list(self) -> list[tuple[int, ...]]:
        return [self.group.coords(i) for i in self.elements]


def _cosets(group: FiniteAbelianGroup, K: np.ndarray, g: int, member: np.ndarray) -> np.ndarray:
    """(|K|, m) indices of K + i g, 0 <= i < m, for K the index array of a subgroup.

    ``member`` marks K.  i g is the image of i under Z_L -> G, 1 -> g (L the
    exponent).  For the least m > 0 with m g in K, the columns are disjoint
    cosets making up K + <g>.
    """
    coords, orders = _coords_table(group), np.asarray(group.orders, dtype=np.int64)
    steps = np.arange(group.exponent + 1)[:, None] * coords[g] % orders  # L g = 0 is in K
    m = 1 + int(np.argmax(member[_index_of_coords(group, steps[1:])]))
    return _index_of_coords(group, (coords[K][:, None] + steps[:m]) % orders)


def _spans(group: FiniteAbelianGroup, idx: np.ndarray):
    """Yield (g, span) with g the first element of idx outside the last span.

    Each span is the last one plus <g>, at least twice its size, so the last
    of at most log2 |G| spans is the subgroup generated by idx.
    """
    span, spanned = np.zeros(1, dtype=np.int64), np.zeros(group.order, dtype=bool)
    spanned[0] = True
    while (rest := idx[~spanned[idx]]).size:
        span = _cosets(group, span, int(rest[0]), spanned).ravel()
        spanned[span] = True
        yield int(rest[0]), span


def annihilator(group: FiniteAbelianGroup, subset) -> Subgroup:
    """All dual elements pairing to 1 with every element of the set, so with its generators."""
    if isinstance(subset, Subgroup):
        if subset.group != group:
            raise GroupMismatchError("subgroup lives on a different group")
        gens = subset._generators
    else:
        idx = np.asarray([group.as_index(x) for x in subset], dtype=np.int64)
        gens = [g for g, _ in _spans(group, idx)]
    phases = phase_matrix(group, np.asarray(gens, dtype=np.int64), np.arange(group.order))
    ann = np.flatnonzero((phases == 0).all(axis=0))
    return Subgroup(group, tuple(ann.tolist()))


@dataclass(eq=False)
class GroupHom:
    """Homomorphism stored as a full index table, validated on generators.

    A table is additive exactly when table[x] = sum_j x_j table[e_j] for all
    x and n_j table[e_j] = 0 for each coordinate generator e_j.
    """

    source: FiniteAbelianGroup
    target: FiniteAbelianGroup
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int64)
        if table.shape != (self.source.order,):
            raise NotAHomomorphismError(
                f"table length {table.shape} does not match source order {self.source.order}"
            )
        if table.min(initial=0) < 0 or table.max(initial=0) >= self.target.order:
            raise NotAHomomorphismError("table value out of target range")
        self.table = table
        if table[0] != 0:
            raise NotAHomomorphismError("zero must map to zero", witness=(0, 0))
        src, tgt = self.source, self.target
        orders = np.asarray(src.orders, dtype=np.int64)
        gens = _unit_indices(src)
        images = _coords_table(tgt)[table[gens]]
        bad = np.flatnonzero(table != _linear_table(src, tgt, images.T))
        torsion = (images * orders[:, None]) % np.asarray(tgt.orders, dtype=np.int64)
        # Witnesses: at the first bad x, j its last non-zero axis, the table is
        # right at x - e_j, so (x - e_j, e_j) fails; ((n_j - 1) e_j, e_j) sums to 0.
        if bad.size:
            j = int(np.flatnonzero(_coords_table(src)[bad[0]])[-1])
            a = int(bad[0] - gens[j])
        elif torsion.any():
            j = int(np.flatnonzero(torsion.any(axis=1))[0])
            a = int(gens[j] * (orders[j] - 1))
        else:
            return
        b = int(gens[j])
        raise NotAHomomorphismError(
            f"additivity fails at ({src.coords(a)}, {src.coords(b)})", witness=(a, b)
        )

    @classmethod
    def from_matrix(cls, source, target, rows) -> "GroupHom":
        """Build from an integer matrix acting on coordinates, then validate."""
        mat = np.asarray(rows, dtype=np.int64)
        if mat.shape != (target.rank, source.rank):
            raise NotAHomomorphismError(
                f"matrix shape {mat.shape} does not match ranks "
                f"({target.rank}, {source.rank})"
            )
        return cls(source, target, _linear_table(source, target, mat))

    @classmethod
    def identity(cls, group) -> "GroupHom":
        return cls(group, group, np.arange(group.order, dtype=np.int64))

    @classmethod
    def negation(cls, group) -> "GroupHom":
        return cls(group, group, _neg_table(group).copy())

    @classmethod
    def multiplication(cls, group, n: int) -> "GroupHom":
        scale = int(n) * np.eye(group.rank, dtype=np.int64)
        return cls(group, group, _linear_table(group, group, scale))

    def __call__(self, x):
        return self.target.coords(int(self.table[self.source.as_index(x)]))

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, tuple(int(i) for i in np.where(self.table == 0)[0]))

    def image(self) -> Subgroup:
        return Subgroup(self.target, tuple(int(i) for i in np.unique(self.table)))

    @property
    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and bool(
            (np.sort(self.table) == np.arange(self.target.order)).all()
        )


@dataclass(eq=False)
class Automorphism(GroupHom):
    """Bijective homomorphism of a group onto itself."""

    def __post_init__(self):
        if self.source != self.target:
            raise NotAnAutomorphismError("automorphism requires source == target")
        super().__post_init__()
        if not self.is_bijective:
            raise NotAnAutomorphismError("table is not a bijection")

    def inverse(self) -> "Automorphism":
        inv = np.empty_like(self.table)
        inv[self.table] = np.arange(self.source.order)
        return Automorphism(self.source, self.target, inv)


_ADJOINT_CHECK_CAP = 64


def adjoint(hom: GroupHom) -> GroupHom:
    """Dual map: <x, adjoint(h)(y)> = <h(x), y> for all x, y.

    Coordinates of the image are recovered exactly by evaluating the pairing
    phase on the coordinate generators of the source.
    """
    src, tgt = hom.source, hom.target
    Lt = tgt.exponent
    # phases of <h(e_j), y> for every y, in units of 1/Lt
    phases = phase_matrix(tgt, hom.table[_unit_indices(src)], np.arange(tgt.order))
    adj_coords = np.zeros((tgt.order, src.rank), dtype=np.int64)
    for j in range(src.rank):
        n_j = src.orders[j]
        t = phases[j] * n_j
        if (t % Lt).any():
            raise NotAHomomorphismError("pairing phase not divisible; invalid table")
        adj_coords[:, j] = (t // Lt) % n_j
    table = _index_of_coords(src, adj_coords)
    out_cls = Automorphism if isinstance(hom, Automorphism) else GroupHom
    out = out_cls(tgt, src, table)
    if src.order <= _ADJOINT_CHECK_CAP and tgt.order <= _ADJOINT_CHECK_CAP:
        Ls = src.exponent
        lhs = phase_matrix(src, np.arange(src.order), out.table[np.arange(tgt.order)])
        rhs = phase_matrix(tgt, hom.table[np.arange(src.order)], np.arange(tgt.order))
        if ((lhs * Lt - rhs * Ls) % (Ls * Lt)).any():
            raise NotAHomomorphismError("adjoint identity failed exhaustive check")
    return out


def multiplication_map(group: FiniteAbelianGroup, n: int) -> GroupHom:
    """The map x -> n x."""
    return GroupHom.multiplication(group, n)


def is_corwin(obj) -> bool:
    """Doubling is onto: for groups, 2G = G; for subgroups, 2K = K."""
    if isinstance(obj, Subgroup):
        el = np.asarray(obj.elements, dtype=np.int64)
        # 2K lies inside K, so the two are equal when they have the same size
        return np.unique(_add(obj.group, el, el)).size == el.size
    doubled = np.unique(multiplication_map(obj, 2).table)
    return doubled.size == obj.order


def structural_predicates(group: FiniteAbelianGroup) -> dict:
    """Order-2 torsion and unique halving, decided from the doubling map."""
    doubling = multiplication_map(group, 2)
    kernel_size = int((doubling.table == 0).sum())
    return {
        "has_order_two_elements": kernel_size > 1,
        "unique_division_by_2": doubling.is_bijective,
    }


def element_order(group: FiniteAbelianGroup, x) -> int:
    coords = group.reduce_coords(x) if not isinstance(x, (int, np.integer)) else group.coords(x)
    return math.lcm(*(n // math.gcd(c, n) for c, n in zip(coords, group.orders))) if group.rank else 1


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def primary_component(group: FiniteAbelianGroup, p: int) -> Subgroup:
    """Subgroup of elements whose order is a power of the prime p."""
    if not _is_prime(p):
        raise InvalidElementError(f"{p} is not prime")
    coords = _coords_table(group)
    orders = np.asarray(group.orders, dtype=np.int64)
    if group.rank == 0:
        return Subgroup.full(group)
    per = orders // np.gcd(coords, orders)
    el_orders = np.lcm.reduce(per, axis=1)
    # o is a power of p exactly when it divides p^k for k = bit length of o >= log_p o
    return Subgroup(group, tuple(i for i, o in enumerate(el_orders.tolist())
                                 if p ** o.bit_length() % o == 0))


def generating_set(sub: Subgroup) -> list[int]:
    """Small generating set of a subgroup, greedy over its element list."""
    return list(sub._generators)


def all_subgroups(group: FiniteAbelianGroup) -> list[Subgroup]:
    """Every subgroup, found by growing each found K to K + <g>."""
    return [Subgroup(group, el) for el in _subgroup_elements(group)]


def _subgroup_elements(group: FiniteAbelianGroup) -> list[tuple[int, ...]]:
    """Sorted element tuples of every subgroup, by (order, elements); closed by construction."""
    seen = {(0,)}
    todo = [(0,)]
    while todo:
        K = np.asarray(todo.pop(), dtype=np.int64)
        member = np.zeros(group.order, dtype=bool)
        member[K] = True
        tried = member.copy()
        for g in range(1, group.order):
            if not tried[g]:
                cosets = _cosets(group, K, g, member)
                # i g + K grows K to the same K + <g> whenever gcd(i, m) = 1
                m = cosets.shape[1]
                tried[cosets[:, [i for i in range(1, m) if math.gcd(i, m) == 1]]] = True
                grown = tuple(np.sort(cosets, axis=None).tolist())
                if grown not in seen:
                    seen.add(grown)
                    todo.append(grown)
    return sorted(seen, key=lambda e: (len(e), e))


def groups_up_to_order(max_order: int, include_trivial: bool = False) -> list[FiniteAbelianGroup]:
    """All cyclic-factor presentations with product of orders <= max_order."""
    out: list[FiniteAbelianGroup] = []
    if include_trivial:
        out.append(FiniteAbelianGroup(()))

    def factorizations(n: int, minimum: int) -> Iterable[tuple[int, ...]]:
        yield ()
        f = minimum
        while f * f <= n:
            if n % f == 0:
                for rest in factorizations(n // f, f):
                    yield (f,) + rest
            f += 1
        if n >= minimum:
            yield (n,)

    for n in range(2, max_order + 1):
        for fac in factorizations(n, 2):
            if math.prod(fac) == n:
                out.append(FiniteAbelianGroup(fac))
    return out
