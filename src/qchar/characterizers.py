"""Degeneracy and factorization checkers driven by distributional identities.

Each checker validates its hypothesis identity numerically, runs the
elimination engine on log-modulus data where the argument calls for it, and
either certifies the structural conclusion (degenerate components, shifted
uniform factors, unit-modulus spectra) or raises a typed error naming the
hypothesis that failed.  Nothing is concluded from an identity that does
not hold to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .circle import DENSITY_TOL, _grid_density, gaussian_check
from .elimination import EliminationProblem, EliminationTrace, run_heyde_chain, run_pexider_chain
from .errors import (
    FactorizationError,
    GroupMismatchError,
    HypothesisError,
    InvalidSubgroupError,
    KernelConditionError,
    UndefinedLogError,
)
from .groups import (
    Automorphism,
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    _add,
    _characters,
    _neg_table,
    _translates,
    adjoint,
    annihilator,
    is_corwin,
    multiplication_map,
)
from .measures import (
    CharacteristicFunction,
    JointDistribution,
    _idempotent_shift_factor,
    inverse_char_fn,
)
from .polynomials import GroupFunction, WindowFunction, _pair_peak, constancy_check, peak, within
from .witnesses import QWitness, extract_q_witness

__all__ = [
    "SDInstance",
    "SDConclusion",
    "sd_equation_residual",
    "sd_conclude",
    "HeydeInstance",
    "HeydeConclusion",
    "heyde_condition",
    "heyde_symmetry_residual",
    "symmetry_witness",
    "heyde_conclude",
    "KBInstance",
    "KBFactorization",
    "kb_equation_residual",
    "kb_doubling_check",
    "kb_factorize",
    "CramerReport",
    "cramer_check",
]

CHECK_TOL = 1e-9
VANISH_TOL = 1e-9
_DOUBLING_ITERATIONS = 3


def _square_group(group: FiniteAbelianGroup) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(group.orders + group.orders)


def _locate_character(group: FiniteAbelianGroup, values: np.ndarray,
                      tol: float = CHECK_TOL):
    """The x with <x, .> = values within tol, or None.

    If some x matches within a small tol, the inverse transform of the
    values peaks at x, so that one row of the character table decides.
    """
    values = np.asarray(values)
    best = int(np.argmax(np.abs(kernels.dft(group, values, sign=-1))))
    row = _characters(group, [best], np.arange(group.order))[0]
    if not within(peak(row - values), tol):
        return None
    return GroupElement(group.coords(best))


def _degenerate_verdicts(group: FiniteAbelianGroup, cfs, tol: float) -> tuple:
    """A "degenerate" verdict per unit-modulus transform, at the character it matches."""
    verdicts = []
    for j, f in enumerate(cfs):
        flat = peak(np.abs(f.values) - 1.0)
        if not within(flat, tol):
            raise FactorizationError(f"component {j} should have unit modulus, defect {flat:.3e}")
        point = _locate_character(group, f.values, tol)
        if point is None:
            raise FactorizationError(f"component {j} has unit modulus but matches no character")
        verdicts.append({"index": j, "verdict": "degenerate", "point": list(point.coords)})
    return tuple(verdicts)


def _log_sq_modulus(f: CharacteristicFunction) -> np.ndarray:
    mags = np.abs(np.asarray(f.values))
    if mags.min() <= VANISH_TOL:
        raise HypothesisError(
            "a characteristic function vanishes; the logarithmic route is unavailable"
        )
    return 2.0 * np.log(mags)


# ---- equal-argument product identities (several independent forms) --------


@dataclass(eq=False)
class SDInstance:
    """n transformed variables entering two linear statistics.

    cfs are the component transforms, alphas/betas the coefficient
    automorphisms of the two statistics.
    """

    group: FiniteAbelianGroup
    cfs: tuple
    alphas: tuple
    betas: tuple

    def __post_init__(self):
        self.cfs = tuple(self.cfs)
        self.alphas = tuple(self.alphas)
        self.betas = tuple(self.betas)
        if len(self.cfs) < 2:
            raise ValueError("need at least two components")
        if not (len(self.cfs) == len(self.alphas) == len(self.betas)):
            raise ValueError("component count mismatch")
        for f in self.cfs:
            if not isinstance(f, CharacteristicFunction) or f.group != self.group:
                raise GroupMismatchError("transforms must live on the instance group")
        for a in self.alphas + self.betas:
            if not isinstance(a, Automorphism) or a.source != self.group:
                raise GroupMismatchError("coefficients must be automorphisms of the group")


@dataclass(eq=False)
class SDConclusion:
    equation_residual: float
    verdicts: tuple
    trace: EliminationTrace
    constancy: dict

    def to_dict(self) -> dict:
        return {
            "equation_residual": self.equation_residual,
            "verdicts": list(self.verdicts),
            "constancy": dict(self.constancy),
            "trace": self.trace.to_dict(),
        }


def _sd_tables(inst: SDInstance):
    abar = [np.asarray(adjoint(a).table, dtype=np.int64) for a in inst.alphas]
    bbar = [np.asarray(adjoint(b).table, dtype=np.int64) for b in inst.betas]
    return abar, bbar


def sd_equation_residual(inst: SDInstance) -> float:
    """Max defect of the two-statistic product identity on the dual square."""
    return _sd_residual(inst, *_sd_tables(inst))


def _sd_residual(inst: SDInstance, abar, bbar) -> float:
    n = inst.group.order
    col = np.ones(n, dtype=np.complex128)
    row = np.ones(n, dtype=np.complex128)
    for f, A, B in zip(inst.cfs, abar, bbar):
        col *= f.values[A]
        row *= f.values[B]

    def defect(u):
        lhs = np.ones((u.size, n), dtype=np.complex128)
        for f, A, B in zip(inst.cfs, abar, bbar):
            lhs *= f.values[_add(inst.group, A[u], B)]
        return lhs - col[u] * row
    return _pair_peak(n, n, defect)


def sd_conclude(inst: SDInstance, tol: float = CHECK_TOL) -> SDConclusion:
    """Certify that every component is a point mass, or say what fails.

    Pipeline: check the identity, take log square-moduli, merge terms with
    equal coefficient ratio, eliminate, and read the conclusion off the
    constant target.
    """
    abar, bbar = _sd_tables(inst)
    resid = _sd_residual(inst, abar, bbar)
    if not within(resid, tol):
        raise HypothesisError(
            f"product identity fails with residual {resid:.3e}", residual=resid
        )
    group = inst.group
    n = group.order
    classes: dict[bytes, dict] = {}
    for f, A, B in zip(inst.cfs, abar, bbar):
        inv = np.empty(n, dtype=np.int64)
        inv[A] = np.arange(n)
        b_tab = inv[B]
        psi = _log_sq_modulus(f)[A]
        key = b_tab.tobytes()
        if key in classes:
            classes[key]["psi"] += psi
        else:
            classes[key] = {"b": b_tab, "psi": psi}
    terms = []
    for cls in classes.values():
        terms.append((GroupFunction(group, cls["psi"]),
                      Automorphism(group, group, cls["b"])))
    problem = EliminationProblem(
        terms=tuple(terms), r_degree=0,
        R=GroupFunction(_square_group(group), np.zeros(n * n)),
    )
    trace = run_pexider_chain(problem)
    p_total = GroupFunction(group, sum(_log_sq_modulus(f) for f in inst.cfs))
    constancy = constancy_check(p_total)
    return SDConclusion(equation_residual=resid, trace=trace, constancy=constancy,
                        verdicts=_degenerate_verdicts(group, inst.cfs, tol))


# ---- conditional symmetry of a transformed pair ---------------------------


@dataclass(eq=False)
class HeydeInstance:
    """A pair with joint law and one mixing automorphism."""

    group: FiniteAbelianGroup
    joint: JointDistribution
    alpha: Automorphism

    def __post_init__(self):
        if self.joint.arity != 2 or any(g != self.group for g in self.joint.groups):
            raise GroupMismatchError("joint must be a pair over the instance group")
        if not isinstance(self.alpha, Automorphism) or self.alpha.source != self.group:
            raise GroupMismatchError("alpha must be an automorphism of the group")


@dataclass(eq=False)
class HeydeConclusion:
    condition: bool
    symmetry_residual: float
    independence: QWitness
    doubled_residual: float
    verdicts: tuple
    trace: EliminationTrace
    constancy: dict

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "symmetry_residual": self.symmetry_residual,
            "independence_degree": self.independence.degree,
            "doubled_residual": self.doubled_residual,
            "verdicts": list(self.verdicts),
            "constancy": dict(self.constancy),
            "trace": self.trace.to_dict(),
        }


def heyde_condition(group: FiniteAbelianGroup, alpha: Automorphism):
    """(ok, witness): is x + alpha(x) = 0 only solved by zero?"""
    tab = _add(group, np.arange(group.order), np.asarray(alpha.table, dtype=np.int64))
    hits = np.where(tab == 0)[0]
    if hits.size > 1:
        return False, GroupElement(group.coords(int(hits[1])))
    return True, None


def _symmetry_peak(inst: HeydeInstance, defect) -> float:
    """Peak of defect(u+v, u+bv, u-v, u-bv) over the dual square.

    v -> -v swaps the pairs and negates the defect: only v <= -v is taken."""
    group, neg = inst.group, _neg_table(inst.group)
    v = np.flatnonzero(np.arange(group.order) <= neg)
    bb = adjoint(inst.alpha).table[v]
    moves = (v, bb, neg[v], neg[bb])
    return _pair_peak(group.order, v.size, lambda u: defect(*(_add(group, u, w) for w in moves)))


def heyde_symmetry_residual(inst: HeydeInstance) -> float:
    """Defect of J(u+v, u+bv) = J(u-v, u-bv) on the dual square."""
    n = inst.group.order
    J = np.asarray(inst.joint.joint_cf().values).reshape(n, n)
    return _symmetry_peak(inst, lambda s, t, s_neg, t_neg: J[s, t] - J[s_neg, t_neg])


def symmetry_witness(inst: HeydeInstance, tol: float = CHECK_TOL) -> QWitness | None:
    """Zero witness when the marginal transforms satisfy the symmetry exactly.

    On a finite group any polynomial witness collapses, so the only
    extractable witness is zero; a defect above tolerance returns None.
    """
    group = inst.group
    n = group.order
    f1 = np.asarray(kernels.dft(group, np.asarray(inst.joint.marginal(0).probs)))
    f2 = np.asarray(kernels.dft(group, np.asarray(inst.joint.marginal(1).probs)))
    if min(np.abs(f1).min(), np.abs(f2).min()) <= VANISH_TOL:
        raise UndefinedLogError("a marginal transform vanishes on the dual group")
    resid = _symmetry_peak(
        inst, lambda s, t, s_neg, t_neg: f1[s] * f2[t] - f1[s_neg] * f2[t_neg])
    if not within(resid, tol):
        return None
    sq = _square_group(group)
    return QWitness(q=GroupFunction(sq, np.zeros(n * n)), degree=0,
                    residual=resid, coefficients={})


def heyde_conclude(inst: HeydeInstance, tol: float = CHECK_TOL) -> HeydeConclusion:
    """Certify both components degenerate from conditional symmetry.

    Refuses groups with 2-torsion, demands the kernel condition on I+alpha,
    verifies symmetry and independence, then eliminates the log-modulus
    identity of the doubled transforms.
    """
    group = inst.group
    if group.order % 2 == 0:  # by Cauchy's theorem, exactly when some element has order 2
        raise HypothesisError(
            "group has elements of order 2; the symmetry argument needs odd order")
    ok, kel = heyde_condition(group, inst.alpha)
    if not ok:
        hint = None
        if np.array_equal(inst.alpha.table, _neg_table(group)):
            hint = ("alpha is negation: any identically distributed independent "
                    "pair satisfies the symmetry, so no conclusion is possible")
        raise KernelConditionError(
            f"x + alpha(x) = 0 has the nonzero solution {kel.coords}",
            kernel_element=kel.coords, hint=hint,
        )
    sym = heyde_symmetry_residual(inst)
    if not within(sym, tol):
        raise HypothesisError(
            f"conditional symmetry fails with residual {sym:.3e}", residual=sym
        )
    witness = extract_q_witness(inst.joint)
    if witness is None:
        raise HypothesisError("joint law does not factor over its marginals")
    n = group.order
    bb_tab = np.asarray(adjoint(inst.alpha).table, dtype=np.int64)
    one_plus_b = _add(group, np.arange(n), bb_tab)
    two = np.asarray(multiplication_map(group, 2).table, dtype=np.int64)
    two_b = two[bb_tab]
    f1 = np.asarray(kernels.dft(group, np.asarray(inst.joint.marginal(0).probs)))
    f2 = np.asarray(kernels.dft(group, np.asarray(inst.joint.marginal(1).probs)))
    cf1 = CharacteristicFunction(group, f1)
    cf2 = CharacteristicFunction(group, f2)
    col, row = f1[one_plus_b] * f2[two_b], f1[two] * f2[one_plus_b]
    doubled = _pair_peak(n, n, lambda u: (
        f1[_add(group, one_plus_b[u], two)] * f2[_add(group, two_b[u], one_plus_b)]
        - col[u] * row))
    if not within(doubled, tol):
        raise HypothesisError(
            f"doubled product identity fails with residual {doubled:.3e}",
            residual=doubled,
        )
    psi1 = GroupFunction(group, _log_sq_modulus(cf1))
    psi2 = GroupFunction(group, _log_sq_modulus(cf2))
    bb = Automorphism(group, group, bb_tab)
    trace = run_heyde_chain(psi1, psi2, bb, r_degree=0)
    p_vals = np.asarray(psi1.values)[one_plus_b] + np.asarray(psi2.values)[two_b]
    constancy = constancy_check(GroupFunction(group, p_vals))
    return HeydeConclusion(
        condition=True, symmetry_residual=sym, independence=witness,
        doubled_residual=doubled, verdicts=_degenerate_verdicts(group, (cf1, cf2), tol),
        trace=trace, constancy=constancy,
    )


# ---- sum/difference doubling and shifted-uniform factorization ------------


@dataclass(eq=False)
class KBInstance:
    """Independent pair observed through its sum and difference."""

    group: FiniteAbelianGroup
    cf1: CharacteristicFunction
    cf2: CharacteristicFunction

    def __post_init__(self):
        for f in (self.cf1, self.cf2):
            if not isinstance(f, CharacteristicFunction) or f.group != self.group:
                raise GroupMismatchError("transforms must live on the instance group")


@dataclass(eq=False)
class KBFactorization:
    equation_residual: float
    doubling: dict
    annihilator_subgroup: Subgroup
    factors: tuple
    shift_relation: dict

    def to_dict(self) -> dict:
        return {
            "equation_residual": self.equation_residual,
            "doubling": dict(self.doubling),
            "annihilator_subgroup": [list(c) for c in self.annihilator_subgroup.coords_list()],
            "factors": [
                {"shift": list(x.coords), "subgroup": [list(c) for c in K.coords_list()]}
                for x, K in self.factors
            ],
            "shift_relation": dict(self.shift_relation),
        }


def kb_equation_residual(inst: KBInstance) -> float:
    """Defect of f1(u+v) f2(u-v) = f1(u) f2(u) f1(v) f2(-v)."""
    group = inst.group
    n = group.order
    neg = _neg_table(group)
    f1 = np.asarray(inst.cf1.values)
    f2 = np.asarray(inst.cf2.values)
    col, row = f1 * f2, f1 * f2[neg]
    # f1(u + v) and f2(u - v) = f2(-(v - u)), as rows of translates
    sums, diffs = _translates(group, f1), _translates(group, f2[neg])

    def defect(u):
        return sums(u) * diffs(neg[u]) - col[u] * row
    return _pair_peak(n, n, defect)


def kb_doubling_check(inst: KBInstance) -> dict:
    """Residuals of the doubling identities and the iterated modulus law.

    A polynomial on a finite group is constant, so a Q-independence witness
    there is zero and ``q_negligible`` always holds.
    """
    group = inst.group
    n = group.order
    two = np.asarray(multiplication_map(group, 2).table, dtype=np.int64)
    f1 = np.asarray(inst.cf1.values)
    f2 = np.asarray(inst.cf2.values)
    first = float(np.abs(f1[two] - f1 * f1 * np.abs(f2) ** 2).max())
    second = float(np.abs(f2[two] - np.abs(f1) ** 2 * f2 * f2).max())
    base = np.abs(f1 * f2)
    iterated = []
    arg = np.arange(n, dtype=np.int64)
    for m in range(1, _DOUBLING_ITERATIONS + 1):
        arg = two[arg]
        target = base ** (2 ** (2 * m - 1))
        worst = max(float(np.abs(np.abs(f1[arg]) - target).max()),
                    float(np.abs(np.abs(f2[arg]) - target).max()))
        iterated.append(worst)
    return {"first": first, "second": second, "iterated": iterated, "q_negligible": True}


def kb_factorize(inst: KBInstance, tol: float = CHECK_TOL) -> KBFactorization:
    """Recover the common shifted uniform structure of both factors.

    Requires the sum/difference identity; concludes that each component is
    a point shift of the uniform measure on the annihilator of the common
    non-vanishing subgroup, which must be Corwin.
    """
    group = inst.group
    resid = kb_equation_residual(inst)
    if not within(resid, tol):
        raise HypothesisError(f"sum/difference identity fails with residual {resid:.3e}",
                              residual=resid)
    doubling = kb_doubling_check(inst)
    odd = group.order % 2 == 1  # no element of order 2
    n1 = np.abs(inst.cf1.values) > VANISH_TOL
    n2 = np.abs(inst.cf2.values) > VANISH_TOL
    if odd and (n1 != n2).any():
        raise FactorizationError("on an odd-order group both transforms must share one support")
    try:
        N = Subgroup(group, tuple(np.flatnonzero(n1 & n2).tolist()))
    except InvalidSubgroupError as exc:
        raise FactorizationError(f"common non-vanishing set is not a subgroup: {exc}") from exc
    W = annihilator(group, N)
    if not is_corwin(W):
        raise FactorizationError("annihilator of the non-vanishing subgroup is not doubling-stable")
    factors = []
    for j, f in enumerate((inst.cf1, inst.cf2)):
        fac = _idempotent_shift_factor(inverse_char_fn(f), f.values)
        if fac is None:
            raise FactorizationError(f"component {j} is not a shifted uniform measure")
        x, K = fac
        if K != W:
            raise FactorizationError(
                f"component {j} concentrates on a different subgroup than predicted"
            )
        factors.append((x, K))
    x1, x2 = factors[0][0], factors[1][0]
    shift = group.index(group.add(x1, group.neg(x2)))
    char = _characters(group, [shift], np.arange(group.order))[0]
    rel = float(np.abs(np.asarray(inst.cf1.values)
                       - np.asarray(inst.cf2.values) * char).max())
    shift_relation = {"holds": within(rel, tol), "residual": rel,
                      "shift": list(group.coords(shift))}
    return KBFactorization(
        equation_residual=resid, doubling=doubling, annihilator_subgroup=W,
        factors=tuple(factors), shift_relation=shift_relation,
    )


# ---- factor test for unit-modulus targets ---------------------------------


@dataclass(eq=False)
class CramerReport:
    mode: str
    residual: float
    gamma: dict
    verdicts: tuple

    def to_dict(self) -> dict:
        return {"mode": self.mode, "residual": self.residual,
                "gamma": dict(self.gamma), "verdicts": list(self.verdicts)}


def _split_window_arg(obj):
    if isinstance(obj, tuple):
        return obj[0], obj[1]
    return obj, None


def cramer_check(gamma, factor1, factor2, q=None, tol: float = CHECK_TOL) -> CramerReport:
    """Validate a two-factor decomposition of a Gaussian-type transform.

    Finite mode takes CharacteristicFunctions and no witness, as every
    polynomial on a finite group is constant; both factors must be positive
    definite, the product identity must hold, and the conclusion (each factor
    unit-modulus, hence a point mass) is certified.  Circle mode takes dim-1
    window transforms, optionally paired with exact log windows, and an
    optional diagonal witness window; factors are screened for non-negative
    density and reported as Gaussian or not, without forcing a conclusion.
    """
    if isinstance(gamma, CharacteristicFunction):
        group = gamma.group
        cfs = (factor1, factor2)
        for j, f in enumerate(cfs):
            if not isinstance(f, CharacteristicFunction) or f.group != group:
                raise GroupMismatchError("factors must live on the target group")
            if not f.is_positive_definite():
                raise HypothesisError(f"factor {j} is not positive definite")
        if q is not None:
            raise ValueError("a finite group takes no witness: its polynomials are constant")
        rhs = np.asarray(factor1.values) * np.asarray(factor2.values)
        resid = peak(np.asarray(gamma.values) - rhs)
        if not within(resid, tol):
            raise HypothesisError(
                f"factor identity fails with residual {resid:.3e}", residual=resid
            )
        gflat = peak(np.abs(gamma.values) - 1.0)
        if not within(gflat, tol):
            raise HypothesisError(
                f"target is not unit-modulus (defect {gflat:.3e})", residual=gflat
            )
        gpoint = _locate_character(group, gamma.values, tol)
        verdicts = []
        for j, f in enumerate(cfs):
            flat = peak(np.abs(f.values) - 1.0)
            if not within(flat, tol):
                raise FactorizationError(
                    f"factor {j} of a unit-modulus transform has defect {flat:.3e}"
                )
            point = _locate_character(group, f.values, tol)
            if point is None:
                raise FactorizationError(
                    f"factor {j} has unit modulus but matches no character"
                )
            verdicts.append({"index": j, "verdict": "degenerate",
                             "point": list(point.coords)})
        return CramerReport(
            mode="group", residual=resid,
            gamma={"point": list(gpoint.coords) if gpoint else None},
            verdicts=tuple(verdicts),
        )

    g_vals, g_logs = _split_window_arg(gamma)
    f_args = [_split_window_arg(factor1), _split_window_arg(factor2)]
    if not isinstance(g_vals, WindowFunction) or g_vals.window.dim != 1:
        raise GroupMismatchError("circle mode expects dim-1 window transforms")
    for j, (fv, _) in enumerate(f_args):
        if not isinstance(fv, WindowFunction) or fv.window != g_vals.window:
            raise GroupMismatchError("factor windows must match the target window")
        dmin = float(_grid_density(fv.values).min())
        if not within(-dmin, DENSITY_TOL):
            raise HypothesisError(
                f"factor {j} fails positive-definiteness: density minimum {dmin:.3e}",
                residual=dmin,
            )
    rhs = np.asarray(f_args[0][0].values) * np.asarray(f_args[1][0].values)
    if q is not None:
        qv, _ = _split_window_arg(q)
        if not isinstance(qv, WindowFunction) or qv.window != g_vals.window:
            raise GroupMismatchError("diagonal witness window must match the target")
        rhs = rhs * np.exp(np.asarray(qv.values))
    resid = peak(np.asarray(g_vals.values) - rhs)
    if not within(resid, tol):
        raise HypothesisError(
            f"factor identity fails with residual {resid:.3e}", residual=resid
        )
    gspec = gaussian_check(g_vals, logs=g_logs)
    if gspec is None:
        raise HypothesisError("target fails the Gaussian window test")
    verdicts = []
    for j, (fv, fl) in enumerate(f_args):
        try:
            spec = gaussian_check(fv, logs=fl)
        except UndefinedLogError:
            spec = None
        if spec is None:
            verdicts.append({"index": j, "verdict": "not-gaussian"})
        else:
            verdicts.append({"index": j, "verdict": "gaussian",
                             "shift": spec.shift, "sigma": spec.sigma})
    return CramerReport(
        mode="circle", residual=resid,
        gamma={"shift": gspec.shift, "sigma": gspec.sigma},
        verdicts=tuple(verdicts),
    )
