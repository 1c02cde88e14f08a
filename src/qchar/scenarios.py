"""Scenario payload parsing and execution for the command line driver.

A scenario is a JSON object {"schema": "qchar-scenario-1", "kind": ...,
"payload": {...}, "expect": ...}.  Running one produces a report dict with
a verdict from {"pass", "fail", "hypothesis-violated", "counterexample"}
and kind-specific details.  The driver compares verdicts against the
scenario's expectation to decide the process exit code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .characterizers import (
    HeydeInstance,
    KBInstance,
    SDInstance,
    cramer_check,
    heyde_conclude,
    heyde_symmetry_residual,
    kb_factorize,
    sd_conclude,
)
from .circle import (
    EvenPolynomial,
    exp_poly_distribution,
    gate_sum,
    gaussian_distribution,
    sum_difference_joint,
)
from .elimination import EliminationProblem, run_heyde_chain, run_pexider_chain
from .errors import (
    ConstructionRejectedError,
    FactorizationError,
    HypothesisError,
    KernelConditionError,
    PremiseError,
    QcharError,
    SizeLimitError,
    UndefinedLogError,
    WindowExhaustedError,
)
from .groups import (
    Automorphism,
    FiniteAbelianGroup,
    GroupHom,
    Subgroup,
    all_subgroups,
    is_corwin,
    multiplication_map,
    structural_predicates,
)
from .measures import (
    Distribution,
    JointDistribution,
    char_fn,
    convolve,
    degenerate,
    haar,
    product_joint,
    random_distribution,
    shifted_haar,
)
from .polynomials import GroupFunction, IntegerWindow, WindowFunction, poly_eval
from .witnesses import QWitness, extract_q_witness

__all__ = [
    "SCENARIO_KINDS",
    "SWEEP_KINDS",
    "ScenarioFormatError",
    "run_scenario",
    "run_sweep",
    "run_inspect",
    "run_construct",
    "make_rng",
]

SCENARIO_KINDS = (
    "group-inspect",
    "q-witness",
    "sd",
    "heyde",
    "kb",
    "cramer",
    "pexider-chain",
    "heyde-chain",
    "circle-construct",
)
SWEEP_KINDS = ("independence-collapse", "convolution")

PROFILES = {"default": 1e-9, "strict": 1e-12}


class ScenarioFormatError(ValueError):
    """Payload is structurally valid JSON but not a usable scenario."""


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so sweeps replay exactly for a given seed."""
    return np.random.Generator(np.random.Philox(seed))


# ---- payload parsing ------------------------------------------------------


def _need(payload: dict, key: str, where: str):
    if key not in payload:
        raise ScenarioFormatError(f"{where}: missing required key {key!r}")
    return payload[key]


def parse_group(spec, where: str = "group") -> FiniteAbelianGroup:
    if not isinstance(spec, dict) or "orders" not in spec:
        raise ScenarioFormatError(f"{where}: expected an object with 'orders'")
    try:
        return FiniteAbelianGroup(_parse_coords(spec["orders"], f"{where}.orders"))
    except QcharError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _parse_number(x, where: str) -> float:
    if isinstance(x, str):
        try:
            return float(Fraction(x))
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioFormatError(f"{where}: bad rational literal {x!r}") from exc
    if isinstance(x, (int, float)):
        try:
            value = float(x)
        except OverflowError as exc:
            raise ScenarioFormatError(f"{where}: {x!r} overflows a float") from exc
        if not math.isfinite(value):
            raise ScenarioFormatError(f"{where}: expected a finite number, got {x!r}")
        return value
    raise ScenarioFormatError(f"{where}: expected number or rational string")


def _parse_int(x, where: str) -> int:
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ScenarioFormatError(f"{where}: expected an integer, got {x!r}")


def _parse_list(x, where: str) -> list:
    if not isinstance(x, list):
        raise ScenarioFormatError(f"{where}: expected a list, got {x!r}")
    return x


def _parse_coords(x, where: str) -> tuple[int, ...]:
    return tuple(_parse_int(c, f"{where}[{j}]") for j, c in enumerate(_parse_list(x, where)))


def _parse_points(x, where: str) -> list[tuple[int, ...]]:
    return [_parse_coords(c, f"{where}[{i}]") for i, c in enumerate(_parse_list(x, where))]


def _parse_numbers(x, where: str) -> np.ndarray:
    return np.asarray([_parse_number(v, f"{where}[{i}]")
                       for i, v in enumerate(_parse_list(x, where))])


def parse_subgroup(group: FiniteAbelianGroup, spec, where: str = "subgroup") -> Subgroup:
    if not isinstance(spec, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    try:
        if "generators" in spec:
            return Subgroup.from_generators(
                group, _parse_points(spec["generators"], f"{where}.generators"))
        if "elements" in spec:
            points = _parse_points(spec["elements"], f"{where}.elements")
            return Subgroup(group, tuple(sorted(group.as_index(c) for c in points)))
    except QcharError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc
    raise ScenarioFormatError(f"{where}: need 'generators' or 'elements'")


def parse_distribution(group: FiniteAbelianGroup, spec, where: str = "distribution") -> Distribution:
    if not isinstance(spec, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    try:
        if "probs" in spec:
            probs = _parse_numbers(spec["probs"], f"{where}.probs")
            return Distribution(group, probs)
        kind = spec.get("kind")
        if kind == "degenerate":
            return degenerate(group, _parse_coords(_need(spec, "point", where), f"{where}.point"))
        if kind == "haar":
            if "subgroup" in spec:
                return haar(parse_subgroup(group, spec["subgroup"], f"{where}.subgroup"))
            return haar(Subgroup.full(group))
        if kind == "shifted-haar":
            sub = parse_subgroup(group, _need(spec, "subgroup", where), f"{where}.subgroup")
            point = _parse_coords(_need(spec, "point", where), f"{where}.point")
            return shifted_haar(group, point, sub)
    except ScenarioFormatError:
        raise
    except QcharError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc
    raise ScenarioFormatError(f"{where}: need 'probs' or a recognized 'kind'")


def parse_hom(group: FiniteAbelianGroup, spec, where: str = "hom") -> GroupHom:
    try:
        if not isinstance(spec, dict):
            return multiplication_map(group, _parse_int(spec, where))
        if "scalar" in spec:
            return multiplication_map(group, _parse_int(spec["scalar"], f"{where}.scalar"))
        if "matrix" in spec:
            rows = _parse_points(spec["matrix"], f"{where}.matrix")
            return GroupHom.from_matrix(group, group, rows)
        if "table" in spec:
            return GroupHom(group, group, _parse_coords(spec["table"], f"{where}.table"))
    except QcharError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc
    raise ScenarioFormatError(f"{where}: need 'scalar', 'matrix' or 'table'")


def parse_automorphism(group: FiniteAbelianGroup, spec, where: str = "automorphism") -> Automorphism:
    hom = parse_hom(group, spec, where)
    try:
        return Automorphism(hom.source, hom.target, hom.table)
    except QcharError as exc:
        raise ScenarioFormatError(f"{where}: not invertible: {exc}") from exc


def parse_joint(group: FiniteAbelianGroup, spec, where: str = "joint") -> JointDistribution:
    if not isinstance(spec, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    try:
        if spec.get("kind") == "product":
            factors = _parse_list(_need(spec, "factors", where), f"{where}.factors")
            factors = [parse_distribution(group, f, f"{where}.factors[{i}]")
                       for i, f in enumerate(factors)]
            return product_joint(factors)
        if "probs" in spec:
            arity = _parse_int(spec.get("arity", 2), f"{where}.arity")
            probs = _parse_numbers(spec["probs"], f"{where}.probs")
            return JointDistribution((group,) * arity, probs)
    except ScenarioFormatError:
        raise
    except QcharError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc
    raise ScenarioFormatError(f"{where}: need 'probs' or kind 'product'")


def parse_window_values(spec, where: str = "window") -> WindowFunction:
    if not isinstance(spec, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    radius = _parse_int(_need(spec, "radius", where), f"{where}.radius")
    dim = _parse_int(spec.get("dim", 1), f"{where}.dim")
    try:
        win = IntegerWindow(radius, dim)
    except QcharError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc
    if "values" in spec:
        try:
            vals = np.asarray(spec["values"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ScenarioFormatError(f"{where}.values: {exc}") from exc
        if not np.isfinite(vals).all():
            raise ScenarioFormatError(f"{where}.values: expected finite numbers")
        try:
            return WindowFunction(win, vals)
        except QcharError as exc:
            raise ScenarioFormatError(f"{where}: {exc}") from exc
    if "coefficients" in spec:
        coeffs = _parse_coeffs(spec["coefficients"], dim, where)
        pts = win.points()
        vals = np.asarray(poly_eval(coeffs, pts), dtype=np.float64)
        return WindowFunction(win, vals.reshape((win.side,) * dim))
    raise ScenarioFormatError(f"{where}: need 'values' or 'coefficients'")


def _parse_window_of_dim(spec, dim: int, where: str) -> WindowFunction:
    f = parse_window_values(spec, where)
    if f.window.dim != dim:
        raise ScenarioFormatError(f"{where}: expected \"dim\": {dim}, got {f.window.dim}")
    return f


def _parse_coeffs(raw, dim: int, where: str) -> dict:
    coeffs = {}
    if not isinstance(raw, dict):
        raise ScenarioFormatError(f"{where}: coefficients must be an object")
    for key, val in raw.items():
        parts = tuple(int(p) for p in str(key).split(","))
        if len(parts) != dim:
            raise ScenarioFormatError(
                f"{where}: exponent {key!r} has arity {len(parts)}, expected {dim}"
            )
        coeffs[parts] = _parse_number(val, where)
    return coeffs


def parse_even_poly(spec, where: str = "phi") -> EvenPolynomial:
    if not isinstance(spec, dict) or "even_coeffs" not in spec:
        raise ScenarioFormatError(f"{where}: expected an object with 'even_coeffs'")
    try:
        coeffs = {int(k): _parse_number(v, where)
                  for k, v in spec["even_coeffs"].items()}
        return EvenPolynomial(coeffs)
    except ScenarioFormatError:
        raise
    except (QcharError, ValueError) as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _witness_dict(w: QWitness | None) -> dict | None:
    if w is None:
        return None
    coeffs = None
    if w.coefficients is not None:
        coeffs = {",".join(str(e) for e in k): _num(v)
                  for k, v in sorted(w.coefficients.items())}
    return {"degree": w.degree, "residual": float(w.residual), "coefficients": coeffs}


def _num(v):
    if isinstance(v, complex):
        if abs(v.imag) <= 1e-12:
            return float(v.real)
        return {"re": float(v.real), "im": float(v.imag)}
    return float(v)


# ---- scenario runners -----------------------------------------------------


def _run_group_inspect(payload: dict, tol: float) -> tuple[str, dict]:
    group = parse_group(_need(payload, "group", "group-inspect"))
    # subgroup lattices blow up combinatorially; only enumerate small groups
    count = len(all_subgroups(group)) if group.order <= 256 else None
    details = {
        "orders": list(group.orders),
        "order": group.order,
        "exponent": group.exponent,
        "rank": group.rank,
        "subgroup_count": count,
        "corwin": bool(is_corwin(group)),
        "predicates": structural_predicates(group),
    }
    return "pass", details


def _run_q_witness(payload: dict, tol: float) -> tuple[str, dict]:
    group = parse_group(_need(payload, "group", "q-witness"))
    joint = parse_joint(group, _need(payload, "joint", "q-witness"), "q-witness.joint")
    witness = extract_q_witness(joint)
    details = {"witness": _witness_dict(witness)}
    want = bool(payload.get("expect_witness", True))
    verdict = "pass" if (witness is not None) == want else "fail"
    return verdict, details


def _run_sd(payload: dict, tol: float) -> tuple[str, dict]:
    group = parse_group(_need(payload, "group", "sd"))
    comps = _need(payload, "components", "sd")
    if not isinstance(comps, list) or len(comps) < 2:
        raise ScenarioFormatError("sd: 'components' must list at least two entries")
    cfs, alphas, betas = [], [], []
    for i, comp in enumerate(comps):
        where = f"sd.components[{i}]"
        dist = parse_distribution(group, _need(comp, "distribution", where), where)
        cfs.append(char_fn(dist))
        alphas.append(parse_automorphism(group, _need(comp, "alpha", where), f"{where}.alpha"))
        betas.append(parse_automorphism(group, _need(comp, "beta", where), f"{where}.beta"))
    inst = SDInstance(group, tuple(cfs), tuple(alphas), tuple(betas))
    try:
        con = sd_conclude(inst, tol=tol)
    except HypothesisError as exc:
        return "hypothesis-violated", {"reason": str(exc), "residual": _opt(exc.residual)}
    except FactorizationError as exc:
        return "fail", {"reason": str(exc)}
    return "pass", con.to_dict()


def _run_heyde(payload: dict, tol: float) -> tuple[str, dict]:
    group = parse_group(_need(payload, "group", "heyde"))
    alpha = parse_automorphism(group, _need(payload, "alpha", "heyde"), "heyde.alpha")
    joint = parse_joint(group, _need(payload, "joint", "heyde"), "heyde.joint")
    inst = HeydeInstance(group, joint, alpha)
    try:
        con = heyde_conclude(inst, tol=tol)
    except KernelConditionError as exc:
        details = {
            "reason": str(exc),
            "kernel_element": list(exc.kernel_element) if exc.kernel_element else None,
            "hint": exc.hint,
            "symmetry_residual": heyde_symmetry_residual(inst),
        }
        return "counterexample", details
    except HypothesisError as exc:
        return "hypothesis-violated", {"reason": str(exc), "residual": _opt(exc.residual)}
    except (FactorizationError, UndefinedLogError) as exc:
        return "fail", {"reason": str(exc)}
    return "pass", con.to_dict()


def _run_kb(payload: dict, tol: float) -> tuple[str, dict]:
    group = parse_group(_need(payload, "group", "kb"))
    d1 = parse_distribution(group, _need(payload, "first", "kb"), "kb.first")
    d2 = parse_distribution(group, _need(payload, "second", "kb"), "kb.second")
    inst = KBInstance(group, char_fn(d1), char_fn(d2))
    try:
        fac = kb_factorize(inst, tol=tol)
    except HypothesisError as exc:
        return "hypothesis-violated", {"reason": str(exc), "residual": _opt(exc.residual)}
    except FactorizationError as exc:
        return "fail", {"reason": str(exc)}
    return "pass", fac.to_dict()


def _run_cramer(payload: dict, tol: float) -> tuple[str, dict]:
    mode = payload.get("mode", "group")
    try:
        if mode == "group":
            group = parse_group(_need(payload, "group", "cramer"))
            gamma = char_fn(parse_distribution(group, _need(payload, "target", "cramer"),
                                               "cramer.target"))
            factors = _need(payload, "factors", "cramer")
            if not isinstance(factors, list) or len(factors) != 2:
                raise ScenarioFormatError("cramer: exactly two factors required")
            f1 = char_fn(parse_distribution(group, factors[0], "cramer.factors[0]"))
            f2 = char_fn(parse_distribution(group, factors[1], "cramer.factors[1]"))
            rep = cramer_check(gamma, f1, f2, tol=tol)
        elif mode == "circle":
            radius = _parse_int(payload.get("radius", 4), "cramer.radius")
            if radius < 1:
                raise ScenarioFormatError(f"cramer.radius: expected at least 1, got {radius}")
            trunc = _parse_int(payload.get("min_truncation", 4 * radius), "cramer.min_truncation")
            gamma = _circle_factor(_need(payload, "target", "cramer"), radius, trunc,
                                   "cramer.target")
            factors = _need(payload, "factors", "cramer")
            if not isinstance(factors, list) or len(factors) != 2:
                raise ScenarioFormatError("cramer: exactly two factors required")
            f1 = _circle_factor(factors[0], radius, trunc, "cramer.factors[0]")
            f2 = _circle_factor(factors[1], radius, trunc, "cramer.factors[1]")
            rep = cramer_check(gamma, f1, f2, tol=max(tol, 1e-8))
        else:
            raise ScenarioFormatError(f"cramer: unknown mode {mode!r}")
    except HypothesisError as exc:
        return "hypothesis-violated", {"reason": str(exc), "residual": _opt(exc.residual)}
    except FactorizationError as exc:
        return "fail", {"reason": str(exc)}
    details = rep.to_dict()
    if rep.mode == "circle":
        bad = [v for v in rep.verdicts if v["verdict"] != "gaussian"]
        return ("pass" if not bad else "fail"), details
    return "pass", details


def _circle_factor(spec, radius: int, trunc: int, where: str):
    """Gaussian-type factor given by shift/sigma, optionally perturbed."""
    if not isinstance(spec, dict) or "sigma" not in spec:
        raise ScenarioFormatError("circle factor: expected {'shift', 'sigma'}")
    sigma = _parse_number(spec["sigma"], f"{where}.sigma")
    if sigma <= 0:
        raise ScenarioFormatError(f"{where}.sigma: expected a positive number, got {sigma!r}")
    dist = gaussian_distribution(_parse_number(spec.get("shift", 0.0), f"{where}.shift"), sigma,
                                 min_truncation=trunc)
    if radius > dist.truncation:
        raise ScenarioFormatError(
            f"cramer.radius: {radius} beyond the truncation {dist.truncation} of {where}")
    vals = dist.cf_window(radius)
    logs = dist.log_window(radius)
    if "perturb" in spec:
        pert = spec["perturb"]
        off = _parse_int(_need(pert, "offset", "circle factor perturb"), f"{where}.perturb.offset")
        if abs(off) > radius:
            raise ScenarioFormatError(
                f"{where}.perturb.offset: {off} outside [-{radius}, {radius}]")
        amt = _parse_number(_need(pert, "amount", "circle factor perturb"),
                            f"{where}.perturb.amount")
        arr = np.asarray(vals.values, dtype=np.complex128).copy()
        arr[radius + off] += amt
        arr[radius - off] += amt
        vals = WindowFunction(vals.window, arr)
        logs = None
    return (vals, logs)


def _run_pexider_chain(payload: dict, tol: float) -> tuple[str, dict]:
    terms_spec = _need(payload, "terms", "pexider-chain")
    if not isinstance(terms_spec, list) or not terms_spec:
        raise ScenarioFormatError("pexider-chain: 'terms' must be a non-empty list")
    l = _parse_int(payload.get("r_degree", 0), "pexider-chain.r_degree")
    if "group" in payload:
        group = parse_group(payload["group"])
        terms = []
        for i, t in enumerate(terms_spec):
            where = f"pexider-chain.terms[{i}]"
            vals = _parse_numbers(_need(t, "values", where), f"{where}.values")
            try:
                psi = GroupFunction(group, vals)
            except QcharError as exc:
                raise ScenarioFormatError(f"{where}: {exc}") from exc
            terms.append((psi, parse_automorphism(group, _need(t, "b", where), f"{where}.b")))
        problem = EliminationProblem(terms=tuple(terms), r_degree=l)
    else:
        terms = []
        for i, t in enumerate(terms_spec):
            where = f"pexider-chain.terms[{i}]"
            psi = _parse_window_of_dim(_need(t, "psi", where), 1, f"{where}.psi")
            terms.append((psi, _parse_int(_need(t, "b", where), f"{where}.b")))
        R = None
        if "R" in payload:
            R = _parse_window_of_dim(payload["R"], 2, "pexider-chain.R")
        problem = EliminationProblem(terms=tuple(terms), r_degree=l, R=R)
    try:
        trace = run_pexider_chain(problem)
    except PremiseError as exc:
        return "hypothesis-violated", {"reason": str(exc), "residual": _opt(exc.residual)}
    except (WindowExhaustedError, KernelConditionError, SizeLimitError) as exc:
        return "fail", {"reason": str(exc)}
    return "pass", trace.to_dict()


def _run_heyde_chain(payload: dict, tol: float) -> tuple[str, dict]:
    l = _parse_int(payload.get("r_degree", 0), "heyde-chain.r_degree")
    if "group" in payload:
        group = parse_group(payload["group"])
        vals1 = _parse_numbers(_need(payload, "psi1", "heyde-chain"), "heyde-chain.psi1")
        vals2 = _parse_numbers(_need(payload, "psi2", "heyde-chain"), "heyde-chain.psi2")
        try:
            psi1 = GroupFunction(group, vals1)
            psi2 = GroupFunction(group, vals2)
        except QcharError as exc:
            raise ScenarioFormatError(f"heyde-chain: {exc}") from exc
        b = parse_automorphism(group, _need(payload, "b", "heyde-chain"), "heyde-chain.b")
    else:
        psi1 = _parse_window_of_dim(_need(payload, "psi1", "heyde-chain"), 1, "heyde-chain.psi1")
        psi2 = _parse_window_of_dim(_need(payload, "psi2", "heyde-chain"), 1, "heyde-chain.psi2")
        b = _parse_int(_need(payload, "b", "heyde-chain"), "heyde-chain.b")
    try:
        trace = run_heyde_chain(psi1, psi2, b, r_degree=l)
    except PremiseError as exc:
        return "hypothesis-violated", {"reason": str(exc), "residual": _opt(exc.residual)}
    except KernelConditionError as exc:
        ke = exc.kernel_element
        if hasattr(ke, "coords"):
            ke = list(ke.coords)
        elif isinstance(ke, tuple):
            ke = list(ke)
        return "counterexample", {"reason": str(exc), "kernel_element": ke}
    except (WindowExhaustedError, SizeLimitError) as exc:
        return "fail", {"reason": str(exc)}
    return "pass", trace.to_dict()


def _run_circle_construct(payload: dict, tol: float) -> tuple[str, dict]:
    phi = parse_even_poly(_need(payload, "phi", "circle-construct"))
    phi2 = None
    if "pair_phi" in payload:
        phi2 = parse_even_poly(payload["pair_phi"], "circle-construct.pair_phi")
    trunc = payload.get("min_truncation")
    if trunc is not None:
        trunc = _parse_int(trunc, "circle-construct.min_truncation")
    try:
        dist = exp_poly_distribution(phi, min_truncation=trunc)
        dist2 = None if phi2 is None else exp_poly_distribution(phi2, min_truncation=trunc)
    except ConstructionRejectedError as exc:
        if exc.computed_sum is not None and not math.isfinite(exc.computed_sum):
            # a divergent coefficient sum has no gate value to report
            return "fail", {"reason": str(exc)}
        return "hypothesis-violated", {
            "reason": str(exc),
            "gate_sum": _opt(exc.computed_sum),
        }
    total, tail, stop = gate_sum(phi)
    details = {
        "gate_sum": total,
        "gate_tail_bound": tail,
        "gate_terms": stop,
        "truncation": dist.truncation,
        "tail_bound": dist.tail_bound,
    }
    if dist2 is not None:
        half = min(dist.truncation, dist2.truncation) // 2
        radius = _parse_int(payload.get("radius", half), "circle-construct.radius")
        if not 1 <= radius <= half:
            raise ScenarioFormatError(
                f"circle-construct.radius: {radius} outside [1, {half}]")
        sj = sum_difference_joint(dist, dist2, radius)
        witness = extract_q_witness(sj)
        details["witness"] = _witness_dict(witness)
        if witness is None:
            return "fail", details
        if "expect_coefficients" in payload:
            want = _parse_coeffs(payload["expect_coefficients"], 2,
                                 "circle-construct.expect_coefficients")
            got = witness.coefficients or {}
            keys = set(want) | set(got)
            worst = max((abs(complex(got.get(k, 0.0)) - complex(want.get(k, 0.0)))
                         for k in keys), default=0.0)
            details["coefficient_defect"] = worst
            if worst > max(tol, 1e-8):
                return "fail", details
    return "pass", details


def _opt(x):
    return None if x is None else float(x)

_RUNNERS = {
    "group-inspect": _run_group_inspect,
    "q-witness": _run_q_witness,
    "sd": _run_sd,
    "heyde": _run_heyde,
    "kb": _run_kb,
    "cramer": _run_cramer,
    "pexider-chain": _run_pexider_chain,
    "heyde-chain": _run_heyde_chain,
    "circle-construct": _run_circle_construct,
}


def run_scenario(scenario: dict, profile: str = "default") -> dict:
    """Execute one scenario object and return its report dict."""
    kind = scenario.get("kind")
    if kind not in _RUNNERS:
        raise ScenarioFormatError(f"unknown scenario kind {kind!r}")
    tol = PROFILES[profile]
    payload = scenario.get("payload", {})
    if not isinstance(payload, dict):
        raise ScenarioFormatError("scenario payload must be an object")
    expected = scenario.get("expect", "pass")
    if expected not in ("pass", "fail", "hypothesis-violated", "counterexample"):
        raise ScenarioFormatError(f"unknown expectation {expected!r}")
    verdict, details = _RUNNERS[kind](payload, tol)
    return {
        "schema": "qchar-report-1",
        "kind": kind,
        "name": scenario.get("name", kind),
        "verdict": verdict,
        "expected": expected,
        "matched": verdict == expected,
        "details": details,
    }


# ---- sweeps ---------------------------------------------------------------


def _random_joint(group: FiniteAbelianGroup, arity: int,
                  rng: np.random.Generator) -> JointDistribution:
    probs = rng.random(group.order ** arity) + 1e-3
    probs /= probs.sum()
    return JointDistribution((group,) * arity, probs)


def run_sweep(kind: str, seed: int, count: int, max_order: int = 12,
              arities=(2, 3)) -> dict:
    """Randomized property sweep; deterministic for a fixed seed."""
    if kind not in SWEEP_KINDS:
        raise ScenarioFormatError(f"unknown sweep kind {kind!r}")
    rng = make_rng(seed)
    cases = 0
    failures = []
    if kind == "independence-collapse":
        for order in range(2, max_order + 1):
            group = FiniteAbelianGroup((order,))
            for arity in arities:
                for i in range(count):
                    is_product = i % 2 == 0
                    if is_product:
                        joint = product_joint(
                            [random_distribution(group, rng) for _ in range(arity)]
                        )
                    else:
                        joint = _random_joint(group, arity, rng)
                    witness = extract_q_witness(joint)
                    cases += 1
                    ok = (witness is not None) == is_product
                    if ok and witness is not None:
                        ok = float(np.abs(np.asarray(witness.q.values)).max(initial=0.0)) == 0.0
                    if not ok:
                        failures.append({"order": order, "arity": arity, "case": i,
                                         "product": is_product,
                                         "witness": _witness_dict(witness)})
    else:  # convolution
        worst = 0.0
        for order in range(2, max_order + 1):
            group = FiniteAbelianGroup((order,))
            for i in range(count):
                a = random_distribution(group, rng)
                b = random_distribution(group, rng)
                c = convolve(a, b)
                lhs = np.asarray(char_fn(c).values)
                rhs = np.asarray(char_fn(a).values) * np.asarray(char_fn(b).values)
                resid = float(np.abs(lhs - rhs).max())
                worst = max(worst, resid)
                cases += 1
                if resid > 1e-12:
                    failures.append({"order": order, "case": i, "residual": resid})
        return _sweep_report(kind, seed, count, cases, failures, {"worst_residual": worst})
    return _sweep_report(kind, seed, count, cases, failures, {})


def _sweep_report(kind, seed, count, cases, failures, extra) -> dict:
    report = {
        "schema": "qchar-report-1",
        "kind": f"sweep:{kind}",
        "name": f"sweep-{kind}-seed{seed}",
        "verdict": "pass" if not failures else "fail",
        "expected": "pass",
        "matched": not failures,
        "details": {"cases": cases, "failures": failures, **extra},
    }
    return report


# ---- one-shot subcommand helpers -----------------------------------------


def run_inspect(orders) -> dict:
    report = run_scenario({
        "schema": "qchar-scenario-1",
        "kind": "group-inspect",
        "name": "inspect-" + "x".join(str(o) for o in orders),
        "payload": {"group": {"orders": list(orders)}},
    })
    return report


def run_construct(phi_spec: dict, min_truncation=None, radius=None,
                  pair_phi=None) -> dict:
    payload = {"phi": phi_spec}
    if min_truncation is not None:
        payload["min_truncation"] = int(min_truncation)
    if radius is not None:
        payload["radius"] = int(radius)
    if pair_phi is not None:
        payload["pair_phi"] = pair_phi
    return run_scenario({
        "schema": "qchar-scenario-1",
        "kind": "circle-construct",
        "name": "construct",
        "payload": payload,
    })
