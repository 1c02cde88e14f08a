import numpy as np
import pytest

from qchar.elimination import (
    EliminationProblem,
    run_heyde_chain,
    run_pexider_chain,
    substitute_and_subtract,
)
from qchar.errors import KernelConditionError, PremiseError, WindowExhaustedError
from qchar.groups import Automorphism, FiniteAbelianGroup
from qchar.polynomials import GroupFunction, WindowFunction, tabulate


def window_pexider_problem(radius=40):
    psi1 = tabulate(radius, 1, lambda x: float(x**2 - 2 * x))
    psi2 = tabulate(radius, 1, lambda x: float(3 * x**3 + x))
    return EliminationProblem(terms=[(psi1, 1), (psi2, -1)], r_degree=3)


def test_window_pexider_exact_zero_residuals():
    trace = run_pexider_chain(window_pexider_problem())
    assert trace.mode == "pexider"
    assert trace.premise_residual == 0.0
    assert trace.annihilation_residual == 0.0
    assert trace.collapse_residual == 0.0
    assert trace.direct_residual == 0.0
    assert trace.cross_degree == 3
    assert trace.p_degree == 3
    assert trace.certified_order == 3 + 2 + 2  # l + n + 2
    assert trace.degree_bound_ok


def test_window_pexider_step_labels():
    trace = run_pexider_chain(window_pexider_problem())
    labels = [s.label for s in trace.steps]
    assert labels == ["cancel-term-2", "cancel-term-1", "cancel-v-part", "annihilate-cross"]
    for entry in trace.sweep:
        assert entry["annihilation"] == 0.0
        assert entry["collapse"] == 0.0


def test_trace_replay_is_deterministic():
    a = run_pexider_chain(window_pexider_problem()).to_dict()
    b = run_pexider_chain(window_pexider_problem()).to_dict()
    assert a == b


def test_perturbed_premise_is_rejected():
    # freeze the canonical targets of the clean instance, then bend one term
    P = tabulate(40, 1, lambda y: float(3 * y**3 + y**2 - y))
    Q = tabulate(40, 1, lambda y: float(-3 * y**3 + y**2 - 3 * y))
    def rem(u, v):
        f = ((u + v) ** 2 - 2 * (u + v)) + (3 * (u - v) ** 3 + (u - v))
        return float(f - (3 * u**3 + u**2 - u) - (-3 * v**3 + v**2 - 3 * v))
    R = tabulate(20, 2, rem)
    psi1 = tabulate(40, 1, lambda x: float(x**2 - 2 * x))
    psi2 = tabulate(40, 1, lambda x: float(3 * x**3 + x))
    clean = EliminationProblem(terms=[(psi1, 1), (psi2, -1)], r_degree=3, P=P, Q=Q, R=R)
    assert run_pexider_chain(clean).premise_residual == 0.0
    vals = np.asarray(psi1.values, dtype=float).copy()
    vals[5] += 1e-3
    bent = EliminationProblem(
        terms=[(WindowFunction(psi1.window, vals), 1), (psi2, -1)],
        r_degree=3, P=P, Q=Q, R=R,
    )
    with pytest.raises(PremiseError) as err:
        run_pexider_chain(bent)
    assert err.value.residual is not None and err.value.residual >= 1e-4


def test_small_window_exhausted():
    psi1 = tabulate(5, 1, lambda x: float(x**2))
    psi2 = tabulate(5, 1, lambda x: float(x**2))
    problem = EliminationProblem(terms=[(psi1, 1), (psi2, -1)], r_degree=3)
    with pytest.raises(WindowExhaustedError):
        run_pexider_chain(problem)


def test_window_heyde_quadratics():
    psi1 = tabulate(112, 1, lambda x: float(x**2))
    psi2 = tabulate(112, 1, lambda x: float(2 * x**2))
    trace = run_heyde_chain(psi1, psi2, 1, r_degree=2)
    assert trace.premise_residual == 0.0
    assert trace.annihilation_residual == 0.0
    assert trace.collapse_residual == 0.0
    assert trace.direct_residual == 0.0
    assert trace.certified_order == 2 + 4  # l + 4
    assert trace.p_degree == 2


def test_window_heyde_rejects_degenerate_coefficient():
    psi = tabulate(20, 1, lambda x: float(x**2))
    for b in (0, -1):
        with pytest.raises(KernelConditionError):
            run_heyde_chain(psi, psi, b, r_degree=0)


def test_group_pexider_constants():
    g = FiniteAbelianGroup((7,))
    t1 = GroupFunction(g, np.full(7, 0.7))
    t2 = GroupFunction(g, np.full(7, -0.2))
    problem = EliminationProblem(
        terms=[(t1, Automorphism.multiplication(g, 1)), (t2, Automorphism.multiplication(g, 3))],
        r_degree=0,
    )
    trace = run_pexider_chain(problem)
    assert trace.mode == "pexider"
    assert trace.premise_residual == 0.0
    assert trace.collapse_residual == 0.0
    assert trace.p_degree == 0
    assert len(trace.sweep) == 6  # every nonzero group shift


def test_group_heyde_mult_two():
    g = FiniteAbelianGroup((5,))
    psi1 = GroupFunction(g, np.full(5, 0.4))
    psi2 = GroupFunction(g, np.full(5, -1.1))
    trace = run_heyde_chain(psi1, psi2, Automorphism.multiplication(g, 2), r_degree=0)
    assert trace.premise_residual == 0.0
    assert trace.collapse_residual == 0.0
    assert trace.certified_order == 4
    assert len(trace.sweep) == 4


def test_group_heyde_two_torsion_kernel():
    g = FiniteAbelianGroup((4,))
    psi = GroupFunction(g, np.zeros(4))
    # I + I = multiplication by 2, which kills (2,) on Z4
    with pytest.raises(KernelConditionError) as err:
        run_heyde_chain(psi, psi, Automorphism.multiplication(g, 1), r_degree=0)
    assert err.value.kernel_element is not None


def test_substitute_and_subtract_window():
    F = tabulate(6, 2, lambda u, v: float(u * u + v))
    out = substitute_and_subtract(F, (1, 2))
    # (u+1)^2 + (v+2) - u^2 - v = 2u + 3
    assert out.value((1, 0)) == pytest.approx(5.0)


def test_substitute_and_subtract_group_pair():
    g = FiniteAbelianGroup((5,))
    sq = FiniteAbelianGroup((5, 5))
    vals = np.arange(25, dtype=float)
    F = GroupFunction(sq, vals)
    out = substitute_and_subtract(F, (1, 0))
    # index (u, v) -> value at (u+1, v) minus value at (u, v)
    assert out.values[0] == vals[5] - vals[0]


def test_nan_term_fails_the_premise():
    problem = window_pexider_problem()
    (psi1, b1), second = problem.terms
    vals = np.asarray(psi1.values, dtype=float).copy()
    vals[40] = np.nan
    bad = EliminationProblem(terms=[(WindowFunction(psi1.window, vals), b1), second], r_degree=3)
    with pytest.raises(PremiseError) as err:
        run_pexider_chain(bad)
    assert np.isnan(err.value.residual)


def test_group_heyde_nan_term_fails_the_premise():
    g = FiniteAbelianGroup((9,))
    psi1 = np.full(9, 0.4)
    psi1[5] = np.nan
    with pytest.raises(PremiseError):
        run_heyde_chain(GroupFunction(g, psi1), GroupFunction(g, np.full(9, -1.1)),
                        Automorphism.multiplication(g, 4), r_degree=0)
