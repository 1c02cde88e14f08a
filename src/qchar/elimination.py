"""Shift-substitute-subtract elimination for Pexider-type identities.

Input is an identity sum_j psi_j(a_j u + c_j v) = P(u) + Q(v) + R(u, v) on
a square domain (G x G for a finite group, [-N, N]^2 for integer windows)
with a declared cross-term degree l.  Pexider's distinct-coefficient
identity has (a_j, c_j) = (1, b_j); Heyde's conditional-symmetry identity is
the two-term case (1+b, 2), (2b, 1+b).  One driver runs both: for every
swept shift h it cancels term j with the pair (h, -c_j^-1(a_j h)), removes Q
with (h, 0) and annihilates R with the (l+1)-fold pair difference along
(h, -h).  What is left is the (l+n+2)-fold difference of P along h, which
must vanish.  Every residual is recorded in a replayable trace.

The chain runs in pull-back form: D_(s,t)[psi o (a u + c v)] equals
(D_(a s + c t) psi) o (a u + c v) entry for entry, with the same two
operands.  So the terms, P and Q are differenced on the base domain and only
R on the square; the terms meet the square once, in the premise check.  The
P difference gives two residuals: ``direct`` is its peak, ``collapse`` its
peak over the u-range the shrunk square still covers (all of G on a group).

On a group the sweep differences a block of shifts at once.  Each shift of
the chain at -h negates one at h, and rounded subtraction is sign-symmetric,
so every peak at -h is the one at h: a block holds ``BLOCK_ENTRIES`` // |G|
representatives min(h, -h), ascending, and each shift reads its peaks from
its own.  R lives on G x G, so it is differenced in sub-blocks of
``BLOCK_ENTRIES`` // |G|^2 representatives; a group's R whose degree
certificate reads 0 with residual 0.0 holds one value and is never
differenced (every annihilation peak is +0.0).  One comparison checks a
block's peaks against the final tolerance, and the step-by-step checks run
at the first failing shift only, so the trace, the error and its residual
are those of one shift at a time.  A window's centred boxes break the
mirror, so a window differences every shift, one a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    GroupMismatchError,
    KernelConditionError,
    PremiseError,
    SizeLimitError,
    WindowExhaustedError,
)
from .groups import (
    Automorphism,
    FiniteAbelianGroup,
    _add,
    _coords_table,
    _neg_table,
    multiplication_map,
)
from .polynomials import (
    BLOCK_ENTRIES,
    GROUP_POLY_TOL,
    GroupFunction,
    IntegerWindow,
    WindowFunction,
    _centre,
    _radius,
    difference,
    min_degree,
    peak,
    within,
)

__all__ = [
    "EliminationProblem",
    "EliminationStep",
    "EliminationTrace",
    "run_pexider_chain",
    "run_heyde_chain",
]

PREMISE_TOL = 1e-12
GROUP_FINAL_TOL = 1e-9
WINDOW_FINAL_TOL = 1e-8
WINDOW_SHIFT_SET = (1, -1, 2, -2)
# Integer squares stop at radius 1023: 2047^2 points, 32 MB a float array, of
# which a chain keeps about six alive at once.
SQUARE_RADIUS_CAP = 1023


@dataclass(frozen=True)
class EliminationStep:
    label: str
    shift: tuple
    cancelled: str | None = None
    max_after: float | None = None


@dataclass
class EliminationTrace:
    """Execution record; rerunning the chain reproduces it exactly."""

    mode: str
    term_count: int
    declared_degree: int
    certified_order: int
    premise_residual: float
    cross_degree: int | None
    steps: list[EliminationStep] = field(default_factory=list)
    sweep: list[dict] = field(default_factory=list)
    annihilation_residual: float = 0.0
    collapse_residual: float = 0.0
    direct_residual: float = 0.0
    p_degree: int | None = None
    degree_bound: int = 0
    degree_bound_ok: bool = False

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["steps"] = [{**vars(s), "shift": list(s.shift)} for s in self.steps]
        return out


@dataclass(eq=False)
class EliminationProblem:
    """Pexider-form instance: terms (psi_j, b_j), targets P, Q, cross R.

    psi_j are functions on the base domain (GroupFunction or dim-1
    WindowFunction); b_j are Automorphisms on finite groups or nonzero
    integer scalars on windows.  Omitted P, Q, R are derived canonically:
    P = sum psi_j, Q = sum (psi_j o b_j) - sum psi_j(0), R = remainder.
    """

    terms: tuple
    r_degree: int = 0
    P: object | None = None
    Q: object | None = None
    R: object | None = None

    def __post_init__(self):
        if not self.terms:
            raise PremiseError("at least one term required")
        self.terms = tuple((p, b) for p, b in self.terms)
        first = self.terms[0][0]
        if isinstance(first, GroupFunction):
            self.domain = first.group
            for p, b in self.terms:
                if not isinstance(p, GroupFunction) or p.group != self.domain:
                    raise GroupMismatchError("all terms must live on one group")
                if not isinstance(b, Automorphism) or b.source != self.domain:
                    raise GroupMismatchError("coefficients must be automorphisms of the domain")
            n = self.domain.order
            for fn, size in ((self.P, n), (self.Q, n), (self.R, n * n)):
                if fn is not None and np.size(fn.values) != size:
                    raise GroupMismatchError("P and Q must be tabulated on G and R on G x G")
        else:
            self.domain = None
            for p, b in self.terms:
                if not isinstance(p, WindowFunction) or p.window.dim != 1:
                    raise GroupMismatchError("window terms must be dim-1 window functions")
                if int(b) == 0:
                    raise KernelConditionError("zero coefficient is not invertible")


def _square_radius(terms, r_radius: int | None = None) -> int:
    """Radius of a window chain's square: R's when given, else the largest that
    terms (data radius, a, c) reach; over ``SQUARE_RADIUS_CAP`` it raises."""
    radius = min(r // (abs(a) + abs(c)) for r, a, c in terms) if r_radius is None else r_radius
    if radius > SQUARE_RADIUS_CAP:
        raise SizeLimitError(f"square radius {radius} exceeds the cap {SQUARE_RADIUS_CAP}")
    return radius


def _heyde_scalars(b: int) -> list:
    """(a, c) of Heyde's two window terms; b = 0 or -1 breaks invertibility."""
    if b == 0 or b + 1 == 0:
        raise KernelConditionError(f"scalar coefficient b={b} breaks invertibility",
                                   kernel_element=b)
    return [(1 + b, 2), (2 * b, 1 + b)]


# ---- domains --------------------------------------------------------------
#
# A domain keeps functions on the base domain as 1-d float arrays and on the
# square as 2-d arrays.  Coefficients are endomorphism index tables on a group
# and integers on a window; ``one`` and ``zero`` are the identity and the zero
# coefficient.  Every value the chain reads is psi(a x + c y): ``lin`` forms
# a x + c y elementwise and ``take`` reads psi there.  The sweep runs over
# blocks of up to ``block`` shifts, and differences R on the square in
# sub-blocks of up to ``square_block``: ``batch`` turns one into the shift
# that ``diff`` takes, and ``peaks`` gives one peak per shift of the block.  A
# shift reads its peaks from the sweep position ``rep`` of its representative.


def _floats(fn) -> np.ndarray:
    return np.asarray(fn.values, dtype=np.float64)


class _GroupDomain:
    """G and G x G; arrays are indexed by flat group elements."""

    final_tol = GROUP_FINAL_TOL
    poly_tol = GROUP_POLY_TOL

    def __init__(self, group: FiniteAbelianGroup):
        self.group, self.order = group, group.order
        self.one = self.points = np.arange(group.order, dtype=np.int64)
        self.add = _add(group, self.one[:, None], self.one[None, :])
        self.neg = np.asarray(_neg_table(group), dtype=np.int64)
        self.zero = np.zeros_like(self.one)
        self.shifts = list(enumerate(_coords_table(group)[1:].tolist(), 1))
        self.rep = np.minimum(self.one, self.neg)[1:] - 1  # min(h, -h)
        self.block = max(BLOCK_ENTRIES // group.order, 1)
        self.square_block = max(BLOCK_ENTRIES // group.order ** 2, 1)

    @staticmethod
    def batch(hs):
        return np.asarray(hs, dtype=np.int64)

    def square(self, R):
        return None if R is None else _floats(R).reshape(self.group.order, self.group.order)

    def lin(self, a, c, x, y):
        return self.add.take(a[x] * self.order + c[y])

    @staticmethod
    def take(psi, x):
        return psi[x]

    def cancel_shifts(self, a, c):
        """k(h) = -c^-1(a h) for every h, so that a h + c k(h) = 0."""
        c_inv = np.empty_like(c)
        c_inv[c] = np.arange(c.size)
        return self.neg[c_inv[a]]

    def diff(self, f, *shift):
        """D_shift f for a block of shifts, on G (one element each) or on G x G (a pair)."""
        n, s = self.order, self.add[shift[0]]
        # a block of rows reads its own row: row b starts at b n^len(shift)
        rows = np.arange(0, f.size, n ** len(shift))[:, None] if f.ndim > len(shift) else 0
        if len(shift) == 1:
            return difference(f, s + rows if f.ndim > 1 else s)
        t = self.add[shift[1]]
        return difference(f, (s * n + rows)[:, :, None] + t[:, None, :])

    @staticmethod
    def peaks(f):
        return np.abs(f).reshape(f.shape[0], -1).max(axis=1)

    @staticmethod
    def u_range(p, r):
        return p

    def function(self, values, l):
        if values.ndim == 1:
            return GroupFunction(self.group, values)
        return GroupFunction(FiniteAbelianGroup(self.group.orders * 2), values.ravel())


class _WindowDomain:
    """[-N, N] and [-N, N]^2; arrays are centred on 0 and shrink when differenced.

    The sweep shifts are multiples of the lcm of the c_j, so every cancel
    shift -a_j h / c_j is an exact integer.  A square of radius N survives
    the chain when N >= (n+1) max_shift + (l+1) max_h + l + 2, where
    max_shift is the largest max(|s|, |t|) over the cancel steps.
    """

    final_tol = WINDOW_FINAL_TOL
    poly_tol = None
    one, zero = 1, 0
    block = square_block = 1  # each shift shrinks the window by its own size

    def __init__(self, terms, R, l: int):
        base = math.lcm(*(abs(c) for *_, c in terms))
        self.shifts = [(base * s, base * s) for s in WINDOW_SHIFT_SET]
        self.rep = np.arange(len(self.shifts))
        max_h = max(abs(h) for h, _ in self.shifts)
        max_shift = max(max(abs(h), abs(k)) for _, a, c in terms
                        for h, k in self.cancel_shifts(a, c).items())
        self.radius = _square_radius([(_radius(psi), a, c) for psi, a, c in terms],
                                    None if R is None else R.window.radius)
        required = (len(terms) + 1) * max_shift + (l + 1) * max_h + l + 2
        if self.radius < required:
            raise WindowExhaustedError(
                f"square radius {self.radius} below chain requirement "
                f"(n+1)*max_shift + (l+1)*max_h + l + 2 = {required}"
            )
        self.points = np.arange(-self.radius, self.radius + 1)

    def square(self, R):
        if R is None:
            return None
        return WindowFunction(IntegerWindow(self.radius, 2), _floats(R)).values

    @staticmethod
    def lin(a, c, x, y):
        return a * x + c * y

    @staticmethod
    def take(psi, x):
        need = int(np.abs(x).max())
        if _radius(psi) < need:
            raise WindowExhaustedError(f"term data radius {_radius(psi)} below required {need}")
        return psi.take(x + _radius(psi))

    def cancel_shifts(self, a, c):
        return {h: -(a * h) // c for h, _ in self.shifts}

    @staticmethod
    def batch(hs):
        return hs[0]

    @staticmethod
    def diff(f, *shift):
        """D_shift f on the window, which shrinks by the largest |shift| entry."""
        return difference(f, shift)

    @staticmethod
    def peaks(f):
        return [peak(f)]

    @staticmethod
    def u_range(p, r):
        """p on the u-range the square r still covers."""
        return _centre(p, _radius(r))

    @staticmethod
    def function(values, l):
        """A window function; a square one is cropped to radius 4(l+2) for its degree test."""
        if values.ndim == 2:
            values = _centre(values, min(_radius(values), 4 * (l + 2)))
        return WindowFunction(IntegerWindow(_radius(values), values.ndim), values)


# ---- chain execution ------------------------------------------------------


def _at(dom, psi, a, c, x, y):
    """psi(a x + c y) on the domain's grid."""
    return dom.take(psi, dom.lin(a, c, x, y))


def _require(residual, tol, message):
    if not within(residual, tol):
        raise PremiseError(f"{message} (residual {residual:.3e})", residual=residual)


def _run_chain(mode, dom, terms, P, Q, R, l, final_tol):
    """Check the premise, sweep the elimination chain, certify deg P.

    terms are (psi, a, c) with psi an array on the base domain; P and Q are
    arrays on the base domain, R an array on the square or None (derived).
    """
    if final_tol is None:
        final_tol = dom.final_tol
    n = len(terms)
    u, v = dom.points[:, None], dom.points[None, :]
    total = None
    for psi, a, c in terms:
        part = _at(dom, psi, a, c, u, v)
        total = part if total is None else total + part
    remainder = total - _at(dom, P, dom.one, dom.zero, u, v)
    remainder = remainder - _at(dom, Q, dom.zero, dom.one, u, v)
    R = remainder if R is None else R
    premise_residual = peak(remainder - R)
    if not within(premise_residual, PREMISE_TOL):
        raise PremiseError(
            f"identity residual {premise_residual:.3e} exceeds {PREMISE_TOL}",
            residual=premise_residual,
        )
    r_cert = min_degree(dom.function(R, l), n_max=l)
    if r_cert is None:
        raise PremiseError(f"cross term fails the degree-{l} polynomial test")
    order = l + n + 2
    trace = EliminationTrace(
        mode=mode, term_count=n, declared_degree=l, certified_order=order,
        premise_residual=premise_residual, cross_degree=r_cert.degree,
    )
    # cancelled in turn: term n, ..., term 1, then Q (whose cancel shift is 0)
    names = [(f"term{j}", f"cancel-term-{j}") for j in range(n, 0, -1)]
    names.append(("q", "cancel-v-part"))
    parts = terms[::-1] + [(Q, dom.zero, dom.one)]
    cancel_shifts = [dom.cancel_shifts(a, c) for _, a, c in parts]
    collapse_shifts = dom.cancel_shifts(dom.one, dom.one)  # (h, -h)
    # a group's degree-0 residual is max - min, so this R is one finite value,
    # every difference of it is +0.0 and the square is never differenced
    constant = isinstance(dom, _GroupDomain) and r_cert.degree == 0 and r_cert.residual == 0.0
    reps = np.flatnonzero(dom.rep == np.arange(len(dom.shifts)))  # ascending sweep positions
    edges = np.append(reps, len(dom.shifts))
    found = np.empty((len(names) + 3, len(dom.shifts)))  # peaks by sweep position
    for start in range(0, len(reps), dom.block):
        block = reps[start:start + dom.block]
        hs = [dom.shifts[i][0] for i in block]
        h = dom.batch(hs)
        live = [psi for psi, _, _ in parts]
        p, after = P, []
        for i in range(len(names)):
            # part j is psi_j(a_j u + c_j v): it moves by a_j s + c_j t on the base domain
            for j in range(i, len(parts)):
                _, a, c = parts[j]
                live[j] = dom.diff(live[j], dom.lin(a, c, h, cancel_shifts[i][h]))
            p = dom.diff(p, h)
            after.append(dom.peaks(live[i]))
        for _ in range(l + 1):
            p = dom.diff(p, h)
        r, annihil = R, [np.zeros(len(hs))]
        if not constant:  # R on the square, in sub-blocks of its own size
            annihil = []
            for b in range(0, len(hs), dom.square_block):
                g = dom.batch(hs[b:b + dom.square_block])
                r = R
                for shifts in cancel_shifts:
                    r = dom.diff(r, g, shifts[g])
                for _ in range(l + 1):
                    r = dom.diff(r, g, collapse_shifts[g])
                annihil.append(dom.peaks(r))
        covered = dom.u_range(p, r)  # all of p on a group
        direct = dom.peaks(p)
        collapse = direct if covered is p else dom.peaks(covered)
        found[:, block] = [*after, np.concatenate(annihil), collapse, direct]
        # every shift up to the next block reads its representative's peaks;
        # the first failing one raises as a walk shift by shift would
        lo, hi = edges[start], edges[start + len(block)]
        cols = found[:, dom.rep[lo:hi]]
        ok = (cols[:-2] <= final_tol).all(axis=0) & (np.maximum(cols[-2], cols[-1]) <= final_tol)
        if not ok.all():
            at = ok.argmin()
            label = dom.shifts[lo + at][1]
            *after, annihil, collapse, direct = cols[:, at].tolist()
            for i, (name, step) in enumerate(names):
                _require(after[i], final_tol, f"step {step} failed to cancel {name}")
            _require(annihil, final_tol, f"cross-term annihilation failed at shift {label}")
            _require(peak([collapse, direct]), final_tol,
                     f"target difference of order {order} fails to vanish at shift {label}")
        trace.sweep += [{"shift": dom.shifts[at][1], "annihilation": e[-3], "collapse": e[-2],
                         "direct": e[-1]} for at, e in zip(range(lo, hi), cols.T.tolist())]
    if reps.size:
        x = dom.shifts[0][0]
        *after, annihil = found[:-2, 0].tolist()
        trace.steps = [EliminationStep(step, (x, int(cancel_shifts[i][x])), name, after[i])
                       for i, (name, step) in enumerate(names)]
        trace.steps.append(EliminationStep("annihilate-cross", (x, int(collapse_shifts[x])),
                                           "r", annihil))
    # every peak passed final_tol, so none is NaN
    residuals = found[-3:, reps].max(axis=1, initial=0.0).tolist()
    trace.annihilation_residual, trace.collapse_residual, trace.direct_residual = residuals
    trace.degree_bound = max(n, l)
    tol = None if dom.poly_tol is None else max(final_tol, dom.poly_tol)
    cert = min_degree(dom.function(P, l), n_max=trace.degree_bound, tol=tol)
    trace.p_degree = cert.degree if cert else None
    trace.degree_bound_ok = cert is not None
    return trace


def run_pexider_chain(problem: EliminationProblem,
                      final_tol: float | None = None) -> EliminationTrace:
    """Eliminate the distinct-coefficient identity and certify P.

    Certifies that the (l + n + 2)-fold repeated difference of P vanishes
    for every swept shift; on finite groups the shifts exhaust the group,
    on windows they run over base multiples of the coefficient lcm.
    """
    l = problem.r_degree
    if problem.domain is not None:
        dom = _GroupDomain(problem.domain)
        terms = [(_floats(p), dom.one, np.asarray(b.table, dtype=np.int64))
                 for p, b in problem.terms]
        P = sum(psi for psi, _, _ in terms)
        Q = sum(psi[c] - psi[0] for psi, _, c in terms)
    else:
        terms = [(_floats(p), 1, int(b)) for p, b in problem.terms]
        dom = _WindowDomain(terms, problem.R, l)
        radius = min(_radius(psi) for psi, _, _ in terms) // max(abs(c) for _, _, c in terms)
        P = Q = np.zeros(2 * radius + 1)
        y = np.arange(-radius, radius + 1)
        for psi, a, c in terms:
            P = P + dom.take(psi, a * y)
            Q = Q + dom.take(psi, c * y) - psi[_radius(psi)]
    P = P if problem.P is None else _floats(problem.P)
    Q = Q if problem.Q is None else _floats(problem.Q)
    return _run_chain("pexider", dom, terms, P, Q, dom.square(problem.R), l, final_tol)


def run_heyde_chain(psi1, psi2, b, R=None, r_degree: int = 0,
                    final_tol: float | None = None) -> EliminationTrace:
    """Two-term chain for the conditional-symmetry identity.

    The identity is psi1((I+b)u + 2v) + psi2(2bu + (I+b)v) = P(u) + Q(v) +
    R(u,v) with P(y) = psi1((I+b)y) + psi2(2by), Q(y) = psi1(2y) +
    psi2((I+b)y).  Three substitutions cancel psi2, psi1 and Q in turn;
    the collapse certifies the (l+4)-fold difference of P.
    """
    l = int(r_degree)
    if isinstance(psi1, GroupFunction):
        group = psi1.group
        if not isinstance(b, Automorphism) or b.source != group:
            raise GroupMismatchError("b must be an automorphism of the domain")
        if not isinstance(psi2, GroupFunction) or psi2.group != group:
            raise GroupMismatchError("both terms must live on one group")
        dom = _GroupDomain(group)
        b = np.asarray(b.table, dtype=np.int64)
        one_plus_b = dom.add[dom.one, b]
        two = np.asarray(multiplication_map(group, 2).table, dtype=np.int64)
        for name, tab in (("I + b", one_plus_b), ("doubling", two)):
            if np.unique(tab).size != group.order:
                kel = int(np.where(tab == 0)[0][1])
                raise KernelConditionError(
                    f"{name} has nontrivial kernel at {group.coords(kel)}",
                    kernel_element=group.coords(kel),
                )
        terms = [(_floats(psi1), one_plus_b, two), (_floats(psi2), two[b], one_plus_b)]
    else:
        terms = [(_floats(psi), a, c) for psi, (a, c) in zip((psi1, psi2), _heyde_scalars(int(b)))]
        dom = _WindowDomain(terms, R, l)
    (v1, a1, c1), (v2, a2, c2) = terms
    y, zero = dom.points, dom.zero
    P = _at(dom, v1, a1, zero, y, y) + _at(dom, v2, a2, zero, y, y)
    Q = _at(dom, v1, zero, c1, y, y) + _at(dom, v2, zero, c2, y, y)
    return _run_chain("heyde", dom, terms, P, Q, dom.square(R), l, final_tol)
