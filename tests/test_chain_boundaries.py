"""Verdict boundaries of the elimination chain.

Each tolerance gets a pair of inputs: one whose deciding residual is about
half the documented tolerance and one about twice it.  The first must pass
and the second must not.  A one-entry perturbation's residual is measured
once, with a loose final tolerance, and then scaled to each side: every chain
residual is linear in the perturbation.  The tolerances are written here as
literals, so a changed constant fails its own pair.

- Group final tolerance 1e-9: a term on Z_13 off by delta at 0.  R, derived,
  stays within the 1e-10 degree test, and the (l + n + 2)-fold differences
  of P reach C(11, 5) delta.
- Window final tolerance 1e-8: a term off by delta at an entry that R's
  cropped degree test does not read.
- Premise tolerance 1e-12: exact data with a given R off by delta in one entry.
- Group degree tolerance 1e-10: a one-term chain on Z_7 off by delta in one
  entry, whose derived R has max - min about 3 delta, through run_scenario.
"""

import numpy as np
import pytest

from qchar.elimination import EliminationProblem, run_heyde_chain, run_pexider_chain
from qchar.errors import PremiseError
from qchar.groups import Automorphism, FiniteAbelianGroup
from qchar.polynomials import GroupFunction, IntegerWindow, WindowFunction
from qchar.scenarios import run_scenario

GROUP_FINAL_TOL = 1e-9
WINDOW_FINAL_TOL = 1e-8
PREMISE_TOL = 1e-12

Z13 = FiniteAbelianGroup((13,))
Z13_SQUARE = FiniteAbelianGroup((13, 13))
PEXIDER_MULTIPLIERS = (1, 2, 3)


def _sweep_peak(trace) -> float:
    return max(trace.annihilation_residual, trace.collapse_residual, trace.direct_residual)


def _premise(trace) -> float:
    return trace.premise_residual


def _off_at(values, index, delta):
    values = np.array(values, dtype=np.float64)
    values[index] += delta
    return values


def _squares(radius, scale=1.0):
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    return WindowFunction(IntegerWindow(radius, 1), scale * x * x)


# ---- the perturbed inputs: run(delta, final_tol) -> trace --------------------


def _group_pexider_terms(delta):
    values = [_off_at(np.zeros(13), 0, delta), np.full(13, 0.5), np.full(13, 0.75)]
    return [(GroupFunction(Z13, v), Automorphism.multiplication(Z13, m))
            for v, m in zip(values, PEXIDER_MULTIPLIERS)]


def _group_pexider(delta, final_tol=None):
    problem = EliminationProblem(terms=_group_pexider_terms(delta), r_degree=6)
    return run_pexider_chain(problem, final_tol=final_tol)


def _group_heyde(delta, final_tol=None):
    psi1 = GroupFunction(Z13, _off_at(np.zeros(13), 0, delta))
    return run_heyde_chain(psi1, GroupFunction(Z13, np.full(13, 0.5)),
                           Automorphism.multiplication(Z13, 2), r_degree=7, final_tol=final_tol)


def _window_pexider_terms(delta):
    # (u+v)^2 + (u-v)^2 = 2u^2 + 2v^2; the entry at 40 lies beyond R's crop to radius 8
    psi1 = _squares(60)
    psi1 = WindowFunction(psi1.window, _off_at(psi1.values, 60 + 40, delta))
    return [(psi1, 1), (_squares(60), -1)]


def _window_pexider(delta, final_tol=None):
    problem = EliminationProblem(terms=_window_pexider_terms(delta), r_degree=0)
    return run_pexider_chain(problem, final_tol=final_tol)


def _window_heyde(delta, final_tol=None):
    psi1 = _squares(200)
    psi1 = WindowFunction(psi1.window, _off_at(psi1.values, 200 + 60, delta))
    return run_heyde_chain(psi1, _squares(200, 0.5), 1, r_degree=2, final_tol=final_tol)


def _group_pexider_premise(delta, final_tol=None):
    # dyadic constants: the remainder is exactly 0, so R = delta at (3, 5) is off by delta
    terms = [(GroupFunction(Z13, np.full(13, c)), Automorphism.multiplication(Z13, m))
             for c, m in ((0.25, 1), (0.5, 2))]
    R = GroupFunction(Z13_SQUARE, _off_at(np.zeros(169), 3 * 13 + 5, delta))
    problem = EliminationProblem(terms=terms, r_degree=0, R=R)
    return run_pexider_chain(problem, final_tol=final_tol)


def _group_heyde_premise(delta, final_tol=None):
    # psi1 + psi2 = P + Q + R with P = Q = 0.75, so R is -0.75
    R = GroupFunction(Z13_SQUARE, _off_at(np.full(169, -0.75), 3 * 13 + 5, delta))
    psi1, psi2 = (GroupFunction(Z13, np.full(13, c)) for c in (0.25, 0.5))
    return run_heyde_chain(psi1, psi2, Automorphism.multiplication(Z13, 2), R=R, r_degree=0,
                           final_tol=final_tol)


def _window_cross_term(radius, delta, values):
    """R off by delta at (0, 5), where the exact cross terms below are 0."""
    return WindowFunction(IntegerWindow(radius, 2), _off_at(values, (radius, radius + 5), delta))


def _window_pexider_premise(delta, final_tol=None):
    R = _window_cross_term(20, delta, np.zeros((41, 41)))  # the remainder is exactly 0
    problem = EliminationProblem(terms=[(_squares(60), 1), (_squares(60), -1)], r_degree=0, R=R)
    return run_pexider_chain(problem, final_tol=final_tol)


def _window_heyde_premise(delta, final_tol=None):
    # 1.5 (2u + 2v)^2 = 6u^2 + 6v^2 + 12uv
    u = np.arange(-40, 41, dtype=np.float64)
    R = _window_cross_term(40, delta, 12.0 * u[:, None] * u[None, :])
    return run_heyde_chain(_squares(200), _squares(200, 0.5), 1, R=R, r_degree=2,
                           final_tol=final_tol)


BOUNDARIES = {
    "group-final-pexider": (_group_pexider, _sweep_peak, GROUP_FINAL_TOL),
    "group-final-heyde": (_group_heyde, _sweep_peak, GROUP_FINAL_TOL),
    "window-final-pexider": (_window_pexider, _sweep_peak, WINDOW_FINAL_TOL),
    "window-final-heyde": (_window_heyde, _sweep_peak, WINDOW_FINAL_TOL),
    "premise-group-pexider": (_group_pexider_premise, _premise, PREMISE_TOL),
    "premise-group-heyde": (_group_heyde_premise, _premise, PREMISE_TOL),
    "premise-window-pexider": (_window_pexider_premise, _premise, PREMISE_TOL),
    "premise-window-heyde": (_window_heyde_premise, _premise, PREMISE_TOL),
}


def _half_and_twice(run, residual, tol):
    """The perturbations whose deciding residual is about tol / 2 and 2 tol."""
    delta = 1e-12
    per_delta = residual(run(delta, final_tol=1.0)) / delta
    assert per_delta > 0.0
    return 0.5 * tol / per_delta, 2.0 * tol / per_delta


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_half_the_tolerance_passes_and_twice_it_fails(name):
    run, residual, tol = BOUNDARIES[name]
    half, twice = _half_and_twice(run, residual, tol)
    assert 0.4 * tol < residual(run(half)) < 0.6 * tol
    with pytest.raises(PremiseError) as err:
        run(twice)
    assert 1.6 * tol < err.value.residual < 2.4 * tol


def _pexider_document(terms, r_degree, R=None) -> dict:
    if isinstance(terms[0][0], GroupFunction):
        payload = {"group": {"orders": list(terms[0][0].group.orders)},
                   "terms": [{"values": psi.values.tolist(), "b": {"scalar": m}}
                             for (psi, _), m in zip(terms, PEXIDER_MULTIPLIERS)]}
    else:
        payload = {"terms": [{"psi": {"radius": psi.window.radius, "values": psi.values.tolist()},
                              "b": b} for psi, b in terms]}
    if R is not None:
        payload["R"] = {"radius": R.window.radius, "dim": 2, "values": R.values.tolist()}
    return {"schema": "qchar-scenario-1", "kind": "pexider-chain", "name": "boundary",
            "payload": {**payload, "r_degree": r_degree}}


@pytest.mark.parametrize("name", ["group-final-pexider", "window-final-pexider",
                                  "premise-window-pexider"])
def test_a_pexider_chain_document_passes_at_half_and_not_at_twice(name):
    run, residual, tol = BOUNDARIES[name]
    documents = {
        "group-final-pexider": lambda d: _pexider_document(_group_pexider_terms(d), 6),
        "window-final-pexider": lambda d: _pexider_document(_window_pexider_terms(d), 0),
        "premise-window-pexider": lambda d: _pexider_document(
            [(_squares(60), 1), (_squares(60), -1)], 0,
            R=_window_cross_term(20, d, np.zeros((41, 41)))),
    }
    half, twice = _half_and_twice(run, residual, tol)
    passed = run_scenario(documents[name](half))
    assert passed["verdict"] == "pass"
    failed = run_scenario(documents[name](twice))
    assert failed["verdict"] == "hypothesis-violated"
    assert 1.6 * tol < failed["details"]["residual"] < 2.4 * tol


# ---- the group degree tolerance, through run_scenario ----------------------

GROUP_POLY_TOL = 1e-10


def _z7_pexider_document(delta, r_degree):
    # one term psi(u + 3v) with psi off by delta at 1: R's max - min is about 3 delta
    values = [0.3] * 7
    values[1] += delta
    return {"schema": "qchar-scenario-1", "kind": "pexider-chain", "name": "boundary",
            "payload": {"group": {"orders": [7]}, "terms": [{"values": values, "b": {"scalar": 3}}],
                        "r_degree": r_degree}}


@pytest.mark.parametrize("r_degree", [0, 1, 8])
def test_a_group_cross_term_passes_at_half_the_degree_tolerance_and_not_at_twice(r_degree):
    # on a group the cross term must be constant whatever r_degree declares
    half = run_scenario(_z7_pexider_document(GROUP_POLY_TOL / 6, r_degree))
    if r_degree < 8:
        assert half["verdict"] == "pass"
        assert half["details"]["cross_degree"] == 0
    else:  # R is certified; its annihilation then reaches 462 delta, past 1e-9
        assert half["verdict"] == "hypothesis-violated"
        assert half["details"]["reason"].startswith("cross-term annihilation failed")
    twice = run_scenario(_z7_pexider_document(2 * GROUP_POLY_TOL / 3, r_degree))
    assert twice["verdict"] == "hypothesis-violated"
    assert twice["details"] == {
        "reason": f"cross term fails the degree-{r_degree} polynomial test", "residual": None}


def test_a_random_group_cross_term_fails_its_declared_degree():
    values = np.random.default_rng(64).standard_normal(64).tolist()
    document = {"schema": "qchar-scenario-1", "kind": "pexider-chain", "name": "random",
                "payload": {"group": {"orders": [64]},
                            "terms": [{"values": values, "b": {"scalar": 1}}], "r_degree": 8}}
    failed = run_scenario(document)
    assert failed["verdict"] == "hypothesis-violated"
    assert failed["details"]["reason"] == "cross term fails the degree-8 polynomial test"
