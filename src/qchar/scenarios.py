"""Scenario format and execution for the command line driver.

A scenario is a JSON object {"schema": "qchar-scenario-1", "kind": ...,
"payload": {...}, "expect": ...}.  ``DOCUMENT_SCHEMA`` states the whole
format, one payload schema per kind; ``check_document`` validates a file
against it.  Running a valid scenario produces a report dict with a verdict
from {"pass", "fail", "hypothesis-violated", "counterexample"} and
kind-specific details.  The driver compares verdicts against the scenario's
expectation to decide the process exit code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import kernels
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
    TRUNCATION_CAP,
    EvenPolynomial,
    exp_poly_distribution,
    gaussian_distribution,
    sum_difference_joint,
)
from .elimination import (
    SQUARE_RADIUS_CAP,
    EliminationProblem,
    _heyde_scalars,
    _square_radius,
    run_heyde_chain,
    run_pexider_chain,
)
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
    ORDER_CAP,
    Automorphism,
    FiniteAbelianGroup,
    GroupHom,
    Subgroup,
    _subgroup_elements,
    is_corwin,
    multiplication_map,
    structural_predicates,
)
from .measures import (
    Distribution,
    JointDistribution,
    _char_fn_rows,
    _check_masses,
    _product_group,
    char_fn,
    degenerate,
    haar,
    product_joint,
    shifted_haar,
)
from .polynomials import (
    BLOCK_ENTRIES,
    DEGREE_CAP,
    GroupFunction,
    IntegerWindow,
    WindowFunction,
    peak,
    poly_eval,
    within,
)
from .witnesses import GROUP_Q_TOL, QWitness, _q_gaps, _zero_witness, extract_q_witness

__all__ = [
    "SWEEP_KINDS",
    "SCENARIO_SCHEMA",
    "DOCUMENT_SCHEMA",
    "ScenarioFormatError",
    "check_document",
    "run_scenario",
    "run_sweep",
    "run_inspect",
    "run_construct",
    "make_rng",
]

SWEEP_KINDS = ("independence-collapse", "convolution")
EXPECTS = ("pass", "fail", "hypothesis-violated", "counterexample")

PROFILES = {"default": 1e-9, "strict": 1e-12}


class ScenarioFormatError(ValueError):
    """Scenario input that is not usable.

    ``path`` locates the offending field below the scenario's payload in
    JSONPath form (``.terms[0].psi.radius``); it is None when the message
    says where the error is.
    """

    def __init__(self, reason: str, path: str | None = None):
        super().__init__(reason if path is None else f"payload{path}: {reason}")
        self.reason = reason
        self.path = path


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so sweeps replay exactly for a given seed."""
    return np.random.Generator(np.random.Philox(seed))


# ---- the scenario format ----------------------------------------------------


def _obj(required=(), **properties) -> dict:
    return {"type": "object", "required": list(required), "properties": properties,
            "additionalProperties": False}


def _int(low: int, high: int) -> dict:
    return {"type": "integer", "minimum": low, "maximum": high}


def _array(items, **bounds) -> dict:
    return {"type": "array", "items": items, **bounds}


def _tagged(tag: str, branches: dict) -> dict:
    """Object whose ``tag`` value picks one of the closed schemas in ``branches``,
    through an if/else chain: a valid object meets half the branches on average."""
    schema = {"required": [tag], "properties": {tag: {"enum": list(branches)}}}
    for name, branch in reversed(branches.items()):
        schema = {"if": {"properties": {tag: {"const": name}}},
                  "then": {**branch, "required": [tag, *branch["required"]],
                           "properties": {tag: True, **branch["properties"]}},
                  "else": schema}
    return {"type": "object", **schema}


def _one_of_keys(schema: dict) -> dict:
    return {**schema, "minProperties": 1, "maxProperties": 1}


def _either(key: str, then: dict, otherwise: dict) -> dict:
    """``then`` for an object holding ``key``, ``otherwise`` for one without."""
    return {"type": "object", "if": {"required": [key]}, "then": then, "else": otherwise}


# A product of cyclic factors of order >= 2 under the order cap has at most
# this many factors; joints are capped the same way.
_RANK_CAP = ORDER_CAP.bit_length() - 1
# A number, or an exact rational string such as "3/8", "-0.25" or "1e-3" (a
# pattern constrains strings only).  Its float must also be finite.
_RATIONAL = r"^[+-]?([0-9]+/0*[1-9][0-9]*|([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]{1,3})?)$"
_NUMBER = {"type": ["number", "string"], "pattern": _RATIONAL}
_NUMBERS = _array(_NUMBER)
# Coordinates, multipliers and matrix entries act modulo orders <= ORDER_CAP.
_COORD = _int(-ORDER_CAP, ORDER_CAP)
_POINT = _array(_COORD)
_POINTS = _array(_POINT)
# Circle radii and truncations stay within the reach of the density grid.
_RADIUS = _int(1, TRUNCATION_CAP)
_R_DEGREE = _int(0, DEGREE_CAP)

_GROUP = _obj(["orders"], orders=_array(_int(1, ORDER_CAP), maxItems=_RANK_CAP))
_SUBGROUP = _one_of_keys(_obj(generators=_POINTS, elements=_POINTS))
_DISTRIBUTION = _either("probs", _obj(["probs"], probs=_NUMBERS), _tagged("kind", {
    "degenerate": _obj(["point"], point=_POINT),
    "haar": _obj(subgroup=_SUBGROUP),
    "shifted-haar": _obj(["point", "subgroup"], point=_POINT, subgroup=_SUBGROUP),
}))
_JOINT = _either("kind", _obj(["kind", "factors"], kind={"const": "product"},
                              factors=_array(_DISTRIBUTION, minItems=1, maxItems=_RANK_CAP)),
                 _obj(["probs"], probs=_NUMBERS, arity=_int(1, _RANK_CAP)))
_HOM = _one_of_keys(_obj(scalar=_COORD, matrix=_array(_POINT),
                         table=_array(_int(0, ORDER_CAP - 1))))


def _coefficients_schema(dim: int) -> dict:
    """Polynomial coefficients keyed by comma-separated exponents, one per axis."""
    key = ",".join(["[0-9]{1,2}"] * dim)
    return {"type": "object", "propertyNames": {"pattern": f"^{key}$"},
            "additionalProperties": _NUMBER}


def _window_schema(dim: int) -> dict:
    """Values or polynomial coefficients on the window [-radius, radius]^dim, which
    holds at most the (2 * SQUARE_RADIUS_CAP + 1)^2 points of the largest chain square."""
    side = (2 * SQUARE_RADIUS_CAP + 1) ** (2 // dim)
    schema = _obj(["radius"] if dim == 1 else ["radius", "dim"],
                  radius=_int(0, (side - 1) // 2), dim={"const": dim},
                  values=_NUMBERS if dim == 1 else _array(_NUMBERS),
                  coefficients=_coefficients_schema(dim))
    return {**schema, "oneOf": [{"required": ["values"]}, {"required": ["coefficients"]}]}


_EVEN_POLY = _obj(["even_coeffs"], even_coeffs={
    "type": "object", "minProperties": 1, "additionalProperties": _NUMBER,
    "propertyNames": {"pattern": "^([2468]|[1-9][02468])$"}})
_CIRCLE_FACTOR = _obj(["sigma"], shift=_NUMBER, sigma=_NUMBER,
                      perturb=_obj(["offset", "amount"], amount=_NUMBER,
                                   offset=_int(-TRUNCATION_CAP, TRUNCATION_CAP)))


def _chain(required: list, group_mode: dict, window_mode: dict) -> dict:
    return _either("group", _obj(["group", *required], group=_GROUP, r_degree=_R_DEGREE,
                                 **group_mode), _obj(required, r_degree=_R_DEGREE, **window_mode))


_PAYLOADS = {
    "group-inspect": _obj(["group"], group=_GROUP),
    "q-witness": _obj(["group", "joint"], group=_GROUP, joint=_JOINT,
                      expect_witness={"type": "boolean"}),
    "sd": _obj(["group", "components"], group=_GROUP, components=_array(
        _obj(["distribution", "alpha", "beta"], distribution=_DISTRIBUTION, alpha=_HOM, beta=_HOM),
        minItems=2)),
    "heyde": _obj(["group", "alpha", "joint"], group=_GROUP, alpha=_HOM, joint=_JOINT),
    "kb": _obj(["group", "first", "second"], group=_GROUP, first=_DISTRIBUTION,
               second=_DISTRIBUTION),
    "cramer": {
        "type": "object",
        "if": {"required": ["mode"], "properties": {"mode": {"const": "circle"}}},
        "then": _obj(["mode", "target", "factors"], mode=True, radius=_RADIUS,
                     min_truncation=_RADIUS, target=_CIRCLE_FACTOR,
                     factors=_array(_CIRCLE_FACTOR, minItems=2, maxItems=2)),
        "else": _obj(["group", "target", "factors"], mode={"const": "group"}, group=_GROUP,
                     target=_DISTRIBUTION,
                     factors=_array(_DISTRIBUTION, minItems=2, maxItems=2)),
    },
    "pexider-chain": _chain(
        ["terms"],
        {"terms": _array(_obj(["values", "b"], values=_NUMBERS, b=_HOM), minItems=1)},
        {"terms": _array(_obj(["psi", "b"], psi=_window_schema(1), b=_COORD), minItems=1),
         "R": _window_schema(2)}),
    "heyde-chain": _chain(["psi1", "psi2", "b"], {"psi1": _NUMBERS, "psi2": _NUMBERS, "b": _HOM},
                          {"psi1": _window_schema(1), "psi2": _window_schema(1), "b": _COORD}),
    "circle-construct": _obj(["phi"], phi=_EVEN_POLY, pair_phi=_EVEN_POLY,
                             min_truncation=_RADIUS, radius=_RADIUS,
                             expect_coefficients=_coefficients_schema(2)),
}
SCENARIO_SCHEMA = _tagged("kind", {
    kind: _obj(["schema", "payload"], schema={"const": "qchar-scenario-1"},
               name={"type": "string"}, expect={"enum": list(EXPECTS)}, payload=payload)
    for kind, payload in _PAYLOADS.items()})
DOCUMENT_SCHEMA = _either("scenarios", _obj(["schema", "scenarios"],
                                             schema={"const": "qchar-scenario-1"},
                                             scenarios=_array(SCENARIO_SCHEMA, minItems=1)),
                          SCENARIO_SCHEMA)


def check_document(doc) -> None:
    """Raise ScenarioFormatError at the JSONPath of the worst schema violation in
    a document: one scenario, or {"schema": ..., "scenarios": [...]}.  Only this
    loads jsonschema; building the validator takes microseconds, a check milliseconds."""
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match
    error = best_match(Draft202012Validator(DOCUMENT_SCHEMA).iter_errors(doc))
    if error is not None:
        raise ScenarioFormatError(f"{error.json_path}: {error.message}")


# ---- payload builders ---------------------------------------------------------
#
# Builders read payloads that satisfy the schema.  They check only what it
# cannot state (masses summing to 1, lengths against group orders, finite
# floats, closure, invertibility, reach), and ``_at`` and ``_each`` add the
# path of the field to each such error.


def _under(step: str, exc: Exception) -> ScenarioFormatError:
    """``exc`` as an input error of the payload field at ``step``, as ".radius"."""
    if isinstance(exc, ScenarioFormatError):
        return ScenarioFormatError(exc.reason, step + (exc.path or ""))
    return ScenarioFormatError(str(exc), step)


def _at(spec: dict, key: str, build, *args):
    """build(*args, spec[key]), its input errors attributed to the field ``key``."""
    try:
        return build(*args, spec[key])
    except (QcharError, ValueError) as exc:
        raise _under(f".{key}", exc) from exc


def _each(build, *args) -> list:
    """build(*fixed, item) for each item of the last argument, its input errors
    attributed to the item's index."""
    *fixed, items = args
    out = []
    try:
        for item in items:
            out.append(build(*fixed, item))
    except (QcharError, ValueError) as exc:
        raise _under(f"[{len(out)}]", exc) from exc
    return out


def _float(x) -> float:
    try:
        value = float(Fraction(x)) if isinstance(x, str) else float(x)
    except (OverflowError, ValueError):
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioFormatError(f"{x!r} is not a finite float")
    return value


def _floats(values: list) -> np.ndarray:
    return np.asarray(_each(_float, values), dtype=np.float64)


def _group(spec) -> FiniteAbelianGroup:
    return _at(spec, "orders", FiniteAbelianGroup)


def _subgroup(group: FiniteAbelianGroup, spec) -> Subgroup:
    if "generators" in spec:
        return _at(spec, "generators", Subgroup.from_generators, group)
    return _at(spec, "elements", lambda xs: Subgroup(group, tuple(_each(group.as_index, xs))))


def _distribution(group: FiniteAbelianGroup, spec) -> Distribution:
    if "probs" in spec:
        return _at(spec, "probs", lambda probs: Distribution(group, _floats(probs)))
    if spec["kind"] == "degenerate":
        return _at(spec, "point", degenerate, group)
    sub = _at(spec, "subgroup", _subgroup, group) if "subgroup" in spec else Subgroup.full(group)
    if spec["kind"] == "haar":
        return haar(sub)
    return _at(spec, "point", lambda x: shifted_haar(group, x, sub))


def _automorphism(group: FiniteAbelianGroup, spec) -> Automorphism:
    if "scalar" in spec:
        hom = multiplication_map(group, int(spec["scalar"]))
    elif "matrix" in spec:
        hom = _at(spec, "matrix", GroupHom.from_matrix, group, group)
    else:
        hom = _at(spec, "table", GroupHom, group, group)
    return Automorphism(hom.source, hom.target, hom.table)


def _joint(group: FiniteAbelianGroup, spec) -> JointDistribution:
    if "factors" in spec:
        # the product group must fit under the order cap before its table is built
        _at(spec, "factors", lambda factors: FiniteAbelianGroup(group.orders * len(factors)))
        return product_joint(_at(spec, "factors", _each, _distribution, group))
    groups = (group,) * int(spec.get("arity", 2))
    return _at(spec, "probs", lambda probs: JointDistribution(groups, _floats(probs)))


def _coefficients(spec: dict) -> dict:
    """Coefficients keyed by exponent tuples; the schema checked the keys."""
    return {tuple(int(e) for e in key.split(",")): _at(spec, key, _float) for key in spec}


def _window(dim: int, spec):
    """The window function, as a callable: a chain checks its square cap from the
    radii before it evaluates coefficients on up to millions of points."""
    win = IntegerWindow(int(spec["radius"]), dim)
    if "values" in spec:
        rows = _floats if dim == 1 else lambda rows: np.asarray(_each(_floats, rows))
        f = _at(spec, "values", lambda values: WindowFunction(win, rows(values)))
        return lambda: f
    coeffs = _at(spec, "coefficients", _coefficients)
    return lambda: WindowFunction(win, poly_eval(coeffs, win.points()).reshape((win.side,) * dim))


def _even_poly(spec) -> EvenPolynomial:
    coeffs = _at(spec, "even_coeffs", _coefficients)
    return EvenPolynomial({k: v for (k,), v in coeffs.items()})


def _perturbation(radius: int, spec: dict) -> tuple[int, float]:
    off = int(spec["offset"])
    if abs(off) > radius:
        raise ScenarioFormatError(f"{off} outside [-{radius}, {radius}]", ".offset")
    return off, _at(spec, "amount", _float)


def _gaussian(radius: int, min_truncation: int, spec: dict) -> tuple:
    """A cramer factor's Gaussian law and its perturbation (offset, amount) or None."""
    sigma = _at(spec, "sigma", _float)
    shift = _at(spec, "shift", _float) if "shift" in spec else 0.0
    try:
        dist = gaussian_distribution(shift, sigma, min_truncation=min_truncation)
    except SizeLimitError as exc:  # the sigma's truncation passes the cap
        raise _under(".sigma", exc) from exc
    except ValueError as exc:  # the shifted law fails the distribution checks
        raise _under(".shift", exc) from exc
    return dist, _at(spec, "perturb", _perturbation, radius) if "perturb" in spec else None


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


def _conclude(check, *args, **kwargs) -> tuple[str, dict]:
    """Verdict of a check: pass with its report, a violated hypothesis, or a
    fail when a factorization breaks or the residual deciding it is not finite."""
    try:
        return "pass", check(*args, **kwargs).to_dict()
    except (HypothesisError, PremiseError) as exc:
        if exc.residual is not None and not math.isfinite(exc.residual):
            return "fail", {"reason": f"non-finite residual: {exc}"}
        return "hypothesis-violated", {"reason": str(exc), "residual": _opt(exc.residual)}
    except FactorizationError as exc:
        return "fail", {"reason": str(exc)}


# ---- scenario runners -----------------------------------------------------


def _run_group_inspect(payload: dict, tol: float) -> tuple[str, dict]:
    group = _at(payload, "group", _group)
    # subgroup lattices blow up combinatorially; only enumerate small groups
    count = len(_subgroup_elements(group)) if group.order <= 256 else None
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
    group = _at(payload, "group", _group)
    witness = extract_q_witness(_at(payload, "joint", _joint, group))
    details = {"witness": _witness_dict(witness)}
    want = payload.get("expect_witness", True)
    verdict = "pass" if (witness is not None) == want else "fail"
    return verdict, details


def _run_sd(payload: dict, tol: float) -> tuple[str, dict]:
    group = _at(payload, "group", _group)

    def component(comp):
        return (char_fn(_at(comp, "distribution", _distribution, group)),
                _at(comp, "alpha", _automorphism, group),
                _at(comp, "beta", _automorphism, group))

    cfs, alphas, betas = zip(*_at(payload, "components", _each, component))
    return _conclude(sd_conclude, SDInstance(group, cfs, alphas, betas), tol=tol)


def _run_heyde(payload: dict, tol: float) -> tuple[str, dict]:
    group = _at(payload, "group", _group)
    alpha = _at(payload, "alpha", _automorphism, group)
    inst = HeydeInstance(group, _at(payload, "joint", _joint, group), alpha)
    try:
        return _conclude(heyde_conclude, inst, tol=tol)
    except KernelConditionError as exc:
        details = {
            "reason": str(exc),
            "kernel_element": list(exc.kernel_element) if exc.kernel_element else None,
            "hint": exc.hint,
            "symmetry_residual": heyde_symmetry_residual(inst),
        }
        return "counterexample", details
    except UndefinedLogError as exc:
        return "fail", {"reason": str(exc)}


def _run_kb(payload: dict, tol: float) -> tuple[str, dict]:
    group = _at(payload, "group", _group)
    d1 = _at(payload, "first", _distribution, group)
    d2 = _at(payload, "second", _distribution, group)
    return _conclude(kb_factorize, KBInstance(group, char_fn(d1), char_fn(d2)), tol=tol)


def _run_cramer(payload: dict, tol: float) -> tuple[str, dict]:
    if payload.get("mode", "group") == "group":
        group = _at(payload, "group", _group)
        target = _at(payload, "target", _distribution, group)
        factors = _at(payload, "factors", _each, _distribution, group)
        args = [char_fn(d) for d in (target, *factors)]
    else:
        args, tol = _circle_windows(payload), max(tol, 1e-8)
    try:
        verdict, details = _conclude(cramer_check, *args, tol=tol)
    except UndefinedLogError as exc:  # the target's spectrum vanishes on the window
        return "fail", {"reason": str(exc)}
    if verdict == "pass" and details["mode"] == "circle" and any(
            v["verdict"] != "gaussian" for v in details["verdicts"]):
        return "fail", details
    return verdict, details


def _circle_windows(payload: dict) -> list:
    """(values, exact logs) of the Gaussian target and factors on the window.

    A perturbation adds its amount at +-offset and drops the exact logs.
    """
    radius = int(payload.get("radius", 4))
    trunc = int(payload.get("min_truncation", min(4 * radius, TRUNCATION_CAP)))
    laws = [_at(payload, "target", _gaussian, radius, trunc),
            *_at(payload, "factors", _each, _gaussian, radius, trunc)]
    reach = min(dist.truncation for dist, _ in laws)
    if radius > reach:
        raise ScenarioFormatError(f"{radius} beyond the truncation {reach} of the factors",
                                  ".radius")
    windows = []
    for dist, perturb in laws:
        vals, logs = dist.cf_window(radius), dist.log_window(radius)
        if perturb is not None:
            off, amt = perturb
            arr = np.asarray(vals.values, dtype=np.complex128).copy()
            arr[radius + off] += amt
            arr[radius - off] += amt
            vals, logs = WindowFunction(vals.window, arr), None
        windows.append((vals, logs))
    return windows


def _run_pexider_chain(payload: dict, tol: float) -> tuple[str, dict]:
    R = None
    if "group" in payload:
        group = _at(payload, "group", _group)

        def term(t):
            return (_at(t, "values", lambda v: GroupFunction(group, _floats(v))),
                    _at(t, "b", _automorphism, group))
    else:
        def term(t):
            return _at(t, "psi", _window, 1), int(t["b"])

        if "R" in payload:
            R = _at(payload, "R", _window, 2)
    terms = _at(payload, "terms", _each, term)
    try:
        if "group" not in payload:
            if all(b for _, b in terms):  # a zero coefficient fails first, as not invertible
                _square_radius([(int(t["psi"]["radius"]), 1, b) for t, (_, b) in
                                zip(payload["terms"], terms)], R and int(payload["R"]["radius"]))
            terms, R = [(psi(), b) for psi, b in terms], R and R()
        problem = EliminationProblem(terms=tuple(terms), r_degree=int(payload.get("r_degree", 0)),
                                     R=R)
        return _conclude(run_pexider_chain, problem)
    except (WindowExhaustedError, KernelConditionError, SizeLimitError) as exc:
        return "fail", {"reason": str(exc)}


def _run_heyde_chain(payload: dict, tol: float) -> tuple[str, dict]:
    if "group" in payload:
        group = _at(payload, "group", _group)
        psis = [_at(payload, key, lambda v: GroupFunction(group, _floats(v)))
                for key in ("psi1", "psi2")]
        b = _at(payload, "b", _automorphism, group)
    else:
        psis = [_at(payload, key, _window, 1) for key in ("psi1", "psi2")]
        b = int(payload["b"])
    try:
        if "group" not in payload:
            _square_radius([(int(payload[key]["radius"]), a, c)
                            for key, (a, c) in zip(("psi1", "psi2"), _heyde_scalars(b))])
            psis = [psi() for psi in psis]
        return _conclude(run_heyde_chain, *psis, b, r_degree=int(payload.get("r_degree", 0)))
    except KernelConditionError as exc:
        ke = exc.kernel_element
        ke = list(ke) if isinstance(ke, tuple) else ke
        return "counterexample", {"reason": str(exc), "kernel_element": ke}
    except (WindowExhaustedError, SizeLimitError) as exc:
        return "fail", {"reason": str(exc)}


def _run_circle_construct(payload: dict, tol: float) -> tuple[str, dict]:
    phi = _at(payload, "phi", _even_poly)
    phi2 = _at(payload, "pair_phi", _even_poly) if "pair_phi" in payload else None
    trunc = payload.get("min_truncation")
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
    total, tail, stop = dist.provenance["gate"]
    details = {
        "gate_sum": total,
        "gate_tail_bound": tail,
        "gate_terms": stop,
        "truncation": dist.truncation,
        "tail_bound": dist.tail_bound,
    }
    if dist2 is not None:
        half = min(dist.truncation, dist2.truncation) // 2
        radius = int(payload.get("radius", half))
        if not 1 <= radius <= half:
            raise ScenarioFormatError(f"{radius} outside [1, {half}]", ".radius")
        sj = sum_difference_joint(dist, dist2, radius)
        witness = extract_q_witness(sj)
        details["witness"] = _witness_dict(witness)
        if witness is None:
            return "fail", details
        if "expect_coefficients" in payload:
            want = _at(payload, "expect_coefficients", _coefficients)
            got = witness.coefficients or {}
            worst = peak([complex(got.get(k, 0.0)) - complex(want.get(k, 0.0))
                          for k in set(want) | set(got)])
            details["coefficient_defect"] = worst
            if not within(worst, max(tol, 1e-8)):
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


@np.errstate(over="ignore", invalid="ignore")
def run_scenario(scenario: dict, profile: str = "default") -> dict:
    """Execute one scenario object and return its report dict.

    Overflow runs silently: a non-finite residual still decides the verdict.

    The scenario must satisfy ``SCENARIO_SCHEMA``: its payload is not
    validated again here.  Input errors the schema cannot state raise
    ScenarioFormatError with the payload path of the field at fault.
    """
    kind = scenario.get("kind")
    if kind not in _RUNNERS:
        raise ScenarioFormatError(f"unknown scenario kind {kind!r}")
    tol = PROFILES[profile]
    expected = scenario.get("expect", "pass")
    if expected not in EXPECTS:
        raise ScenarioFormatError(f"unknown expectation {expected!r}")
    verdict, details = _RUNNERS[kind](scenario["payload"], tol)
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


def _chunks(count: int, entries: int):
    """Consecutive ranges of case indices, each as long as keeps a chunk's
    arrays within ``BLOCK_ENTRIES`` when a case has ``entries`` entries."""
    step = max(BLOCK_ENTRIES // entries, 1)
    return (range(a, min(a + step, count)) for a in range(0, count, step))


def _collapse_failures(group: FiniteAbelianGroup, arity: int, cases: range,
                       rng: np.random.Generator) -> list:
    """Independence-collapse cases of one chunk: even cases are products of
    random laws, odd ones random joints.  The draws are read in case order,
    as one case at a time would read them."""
    n, size = group.order, group.order ** arity
    groups = (group,) * arity
    is_product = np.arange(cases.start, cases.stop) % 2 == 0
    widths = np.where(is_product, arity * n, size)
    starts = np.cumsum(widths) - widths
    draw = rng.random(int(widths.sum())) + 1e-3
    factors = draw[starts[is_product, None] + np.arange(arity * n)].reshape(-1, arity, n)
    factors /= factors.sum(axis=2, keepdims=True)
    _check_masses(group, factors.reshape(-1, n))
    rows = np.empty((len(cases), size))
    prod = factors[:, 0]
    for j in range(1, arity):
        prod = (prod[:, :, None] * factors[:, j, None, :]).reshape(len(prod), n ** (j + 1))
    rows[is_product] = prod
    joints = draw[starts[~is_product, None] + np.arange(size)]
    rows[~is_product] = joints / joints.sum(axis=1, keepdims=True)
    _check_masses(_product_group(groups), rows)
    gaps = _q_gaps(groups, rows)
    found = gaps <= GROUP_Q_TOL
    return [{"order": n, "arity": arity, "case": cases[r], "product": bool(is_product[r]),
             "witness": _witness_dict(_zero_witness(_product_group(groups), float(gaps[r]))
                                      if found[r] else None)}
            for r in np.flatnonzero(found != is_product)]


def _convolution_residuals(group: FiniteAbelianGroup, cases: range,
                           rng: np.random.Generator) -> np.ndarray:
    """max |transform of a * b - product of transforms| of each case's pair of random laws."""
    n = group.order
    laws = rng.random(2 * n * len(cases)).reshape(-1, 2, n) + 1e-3
    laws /= laws.sum(axis=2, keepdims=True)
    _check_masses(group, laws.reshape(-1, n))
    a, b = laws[:, 0], laws[:, 1]
    c = kernels.convolve(group, a, b)
    _check_masses(group, c)
    fa, fb, fc = (_char_fn_rows(group, x) for x in (a, b, c))
    return np.abs(fc - fa * fb).max(axis=1)


@np.errstate(over="ignore", invalid="ignore")
def run_sweep(kind: str, seed: int, count: int, max_order: int = 12,
              arities=(2, 3)) -> dict:
    """Randomized property sweep; deterministic for a fixed seed, silent on overflow.

    Each cyclic order (and arity) is one block of ``count`` cases, run in
    checked chunks of at most ``BLOCK_ENTRIES`` entries an array; the report
    is the one a loop over single cases gives.
    """
    if kind not in SWEEP_KINDS:
        raise ScenarioFormatError(f"unknown sweep kind {kind!r}")
    rng = make_rng(seed)
    groups = [FiniteAbelianGroup((order,)) for order in range(2, max_order + 1)]
    cases = max(count, 0) * len(groups)
    failures, extra = [], {}
    if kind == "independence-collapse":
        cases *= len(arities)
        for group in groups:
            for arity in arities:
                for chunk in _chunks(count, group.order ** arity):
                    failures += _collapse_failures(group, arity, chunk, rng)
    else:
        worst = 0.0
        for group in groups:
            for chunk in _chunks(count, 2 * group.order):
                resids = _convolution_residuals(group, chunk, rng)
                worst = max(worst, float(resids.max()))
                failures += [{"order": group.order, "case": chunk[r], "residual": float(resids[r])}
                             for r in np.flatnonzero(resids > 1e-12)]
        extra = {"worst_residual": worst}
    return {
        "schema": "qchar-report-1",
        "kind": f"sweep:{kind}",
        "name": f"sweep-{kind}-seed{seed}",
        "verdict": "pass" if not failures else "fail",
        "expected": "pass",
        "matched": not failures,
        "details": {"cases": cases, "failures": failures, **extra},
    }


# ---- one-shot subcommand helpers -----------------------------------------
#
# Both build a scenario from their arguments and validate it like a file.


def _run_built(kind: str, name: str, payload: dict) -> dict:
    scenario = {"schema": "qchar-scenario-1", "kind": kind, "name": name, "payload": payload}
    check_document(scenario)
    return run_scenario(scenario)


def run_inspect(orders) -> dict:
    name = "inspect-" + "x".join(str(o) for o in orders)
    return _run_built("group-inspect", name, {"group": {"orders": list(orders)}})


def run_construct(phi_spec: dict, min_truncation=None, radius=None,
                  pair_phi=None) -> dict:
    options = {"min_truncation": min_truncation, "radius": radius, "pair_phi": pair_phi}
    return _run_built("circle-construct", "construct",
                      {"phi": phi_spec, **{k: v for k, v in options.items() if v is not None}})
