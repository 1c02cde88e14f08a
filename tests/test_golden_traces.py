"""Elimination traces pinned byte for byte.

``golden/chain_traces.json`` maps each chain below to the canonical JSON of
its ``EliminationTrace.to_dict()``.  The data are non-integer, so every
residual in those traces is a non-zero float and any reordering of the
chain's arithmetic shows up as changed bytes.

``golden/constant_chain_traces.json`` does the same for group chains whose
cross term R is exactly constant, with a twin whose R is one ulp off the
remainder in one entry.

Regenerate both with ``PYTHONPATH=src python tests/test_golden_traces.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qchar import elimination
from qchar.characterizers import SDInstance, sd_conclude
from qchar.cli import canonical_json
from qchar.elimination import EliminationProblem, run_heyde_chain, run_pexider_chain
from qchar.errors import WindowExhaustedError
from qchar.groups import Automorphism, FiniteAbelianGroup, GroupHom
from qchar.measures import char_fn, degenerate
from qchar.polynomials import (
    BLOCK_ENTRIES,
    GroupFunction,
    IntegerWindow,
    WindowFunction,
)

GOLDEN = Path(__file__).parent / "golden" / "chain_traces.json"
CONSTANT_GOLDEN = Path(__file__).parent / "golden" / "constant_chain_traces.json"


def _poly(coeffs, radius):
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    vals = np.zeros_like(x)
    for k, c in enumerate(coeffs):
        vals += c * x**k
    return WindowFunction(IntegerWindow(radius, 1), vals)


def _near_constant(group, value, seed):
    """A constant plus Philox noise of size 1e-13 (inside every tolerance)."""
    rng = np.random.Generator(np.random.Philox(seed))
    return GroupFunction(group, value + 1e-13 * rng.standard_normal(group.order))


def _matrix_aut(group, rows):
    return Automorphism(group, group, GroupHom.from_matrix(group, group, rows).table)


def _pexider_window(radius, coeffs, bs):
    terms = [(_poly(c, radius), b) for c, b in zip(coeffs, bs)]
    degree = max(len(c) for c in coeffs) - 1
    return run_pexider_chain(EliminationProblem(terms=terms, r_degree=degree))


def _heyde_window(radius, c1, c2, b):
    degree = max(len(c1), len(c2)) - 1
    return run_heyde_chain(_poly(c1, radius), _poly(c2, radius), b, r_degree=degree)


def _pexider_group(orders, values, auts):
    g = FiniteAbelianGroup(orders)
    terms = [(_near_constant(g, v, seed), aut(g))
             for seed, (v, aut) in enumerate(zip(values, auts))]
    return run_pexider_chain(EliminationProblem(terms=terms, r_degree=0))


Z9 = (9,)
Z4xZ4 = (4, 4)
Z11 = FiniteAbelianGroup((11,))

CHAINS = {
    "pexider-window-n2": lambda: _pexider_window(
        60, [[0.25, -1.3, 0.37, 0.051], [1.7, 0.61, -0.29]], [1, -1]),
    "pexider-window-n3": lambda: _pexider_window(
        150, [[0.5, 0.83, -0.117], [-2.1, 0.3, 0.43], [0.9, -0.77, 0.061]], [1, -1, 2]),
    "heyde-window-b1": lambda: _heyde_window(
        150, [0.3, -0.71, 0.137, 0.0123], [1.1, 0.29, -0.53], 1),
    "heyde-window-b2": lambda: _heyde_window(
        700, [-0.4, 0.33, 0.071], [0.8, -0.19, 0.047], 2),
    "heyde-window-b-3": lambda: _heyde_window(
        440, [0.6, 0.27, -0.093], [-1.3, 0.41, 0.0217], -3),
    "pexider-Z9": lambda: _pexider_group(
        Z9, [0.7, -0.35], [lambda g: Automorphism.multiplication(g, 2),
                           lambda g: Automorphism.multiplication(g, 4)]),
    "pexider-Z4xZ4": lambda: _pexider_group(
        Z4xZ4, [0.45, -1.15, 0.3], [lambda g: _matrix_aut(g, [[1, 1], [0, 1]]),
                                    lambda g: _matrix_aut(g, [[0, 1], [1, 0]]),
                                    lambda g: _matrix_aut(g, [[3, 0], [1, 1]])]),
    "heyde-Z11": lambda: run_heyde_chain(
        _near_constant(Z11, 0.55, 7), _near_constant(Z11, -0.85, 8),
        Automorphism.multiplication(Z11, 3), r_degree=0),
}


Z61 = FiniteAbelianGroup((61,))
Z63 = FiniteAbelianGroup((63,))
Z4xZ4xZ4 = FiniteAbelianGroup((4, 4, 4))


def _constant_problem(group, values, auts, r_degree=0, R=None):
    terms = [(GroupFunction(group, np.full(group.order, v)), aut) for v, aut in zip(values, auts)]
    return EliminationProblem(terms=terms, r_degree=r_degree, R=R)


def _z61_problem(R=None):
    mul = Automorphism.multiplication
    return _constant_problem(Z61, [0.7, -0.35, 1.25], [mul(Z61, m) for m in (2, 5, 11)], R=R)


def _one_ulp_cross_term():
    """The Z_61 chain's remainder (all 0.0) with one entry one ulp above it."""
    values = np.zeros(Z61.order ** 2)
    values[7 * Z61.order + 3] = np.nextafter(0.0, 1.0)
    return GroupFunction(FiniteAbelianGroup((61, 61)), values)


def _sd_zero_cross_term():
    """sd_conclude on Z_61 with q absent, so the chain's given R is 0."""
    mul = Automorphism.multiplication
    cfs = [char_fn(degenerate(Z61, (x,))) for x in (5, 40)]
    inst = SDInstance(Z61, cfs, [mul(Z61, 3), mul(Z61, 7)], [mul(Z61, 10), mul(Z61, 2)])
    return sd_conclude(inst).trace


# Group chains whose cross term is exactly constant, and the one-ulp twin.
CONSTANT_CHAINS = {
    "pexider-Z61": lambda: run_pexider_chain(_z61_problem()),
    "pexider-Z4xZ4xZ4": lambda: run_pexider_chain(_constant_problem(
        Z4xZ4xZ4, [-0.6, 0.15, 2.3],
        [Automorphism.multiplication(Z4xZ4xZ4, 3),
         _matrix_aut(Z4xZ4xZ4, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
         _matrix_aut(Z4xZ4xZ4, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])])),
    "sd-Z61-zero-cross": _sd_zero_cross_term,
    "heyde-Z63": lambda: run_heyde_chain(
        GroupFunction(Z63, np.full(63, 0.45)), GroupFunction(Z63, np.full(63, -1.05)),
        Automorphism.multiplication(Z63, 4), r_degree=0),
    "pexider-Z61-declared-l1": lambda: run_pexider_chain(_constant_problem(
        Z61, [0.3, -0.95], [Automorphism.multiplication(Z61, m) for m in (3, 8)], r_degree=1)),
    "pexider-Z61-one-ulp": lambda: run_pexider_chain(_z61_problem(_one_ulp_cross_term())),
}


# The smallest term radius each window mode runs at, for the cubic chains
# above: one less leaves the square too small for the chain.
PEXIDER_N2_MIN_RADIUS = 38
HEYDE_B1_MIN_RADIUS = 132


def record(chains=CHAINS) -> dict:
    return {name: canonical_json(build().to_dict()) for name, build in sorted(chains.items())}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_chain_trace_bytes_match_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert canonical_json(CHAINS[name]().to_dict()) == golden[name]


def test_golden_traces_carry_nonzero_float_residuals():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CHAINS)
    for name, text in golden.items():
        trace = json.loads(text)
        assert trace["collapse_residual"] > 0.0 or trace["annihilation_residual"] > 0.0, name


@pytest.mark.parametrize("name", sorted(CONSTANT_CHAINS))
def test_constant_cross_term_trace_bytes_match_golden(name):
    golden = json.loads(CONSTANT_GOLDEN.read_text(encoding="utf-8"))
    assert canonical_json(CONSTANT_CHAINS[name]().to_dict()) == golden[name]


def test_constant_cross_term_traces_annihilate_to_zero_except_the_twin():
    golden = json.loads(CONSTANT_GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CONSTANT_CHAINS)
    for name, text in golden.items():
        trace = json.loads(text)
        assert trace["degree_bound_ok"] and trace["cross_degree"] == 0, name
        zero = [e["annihilation"] == 0.0 for e in trace["sweep"]]
        assert all(zero) if name != "pexider-Z61-one-ulp" else not all(zero), name


@pytest.mark.parametrize("name", sorted(CONSTANT_CHAINS))
def test_only_a_non_constant_cross_term_is_differenced_on_the_square(monkeypatch, name):
    square = []
    real = elimination.difference

    def counting(values, move):
        square.append(np.ndim(move) == 3)  # (block, |G|, |G|): a G x G difference
        return real(values, move)

    monkeypatch.setattr(elimination, "difference", counting)
    CONSTANT_CHAINS[name]()
    if name != "pexider-Z61-one-ulp":
        assert sum(square) == 0
    else:
        # three terms, degree 0: n + l + 2 = 5 square differences a sub-block
        # of BLOCK_ENTRIES // |G|^2 = 4 of the 30 representatives min(h, -h)
        representatives = sum(h <= Z61.order - h for h in range(1, Z61.order))
        sub_blocks = -(-representatives // (BLOCK_ENTRIES // Z61.order ** 2))
        assert sum(square) == 5 * sub_blocks == 5 * 8


def test_smallest_window_radius_that_runs():
    pexider = ([[0.25, -1.3, 0.37, 0.051], [1.7, 0.61, -0.29]], [1, -1])
    heyde = ([0.3, -0.71, 0.137, 0.0123], [1.1, 0.29, -0.53], 1)
    _pexider_window(PEXIDER_N2_MIN_RADIUS, *pexider)
    _heyde_window(HEYDE_B1_MIN_RADIUS, *heyde)
    with pytest.raises(WindowExhaustedError):
        _pexider_window(PEXIDER_N2_MIN_RADIUS - 1, *pexider)
    with pytest.raises(WindowExhaustedError):
        _heyde_window(HEYDE_B1_MIN_RADIUS - 1, *heyde)


if __name__ == "__main__":
    for path, chains in ((GOLDEN, CHAINS), (CONSTANT_GOLDEN, CONSTANT_CHAINS)):
        path.write_text(json.dumps(record(chains), indent=1, sort_keys=True) + "\n", encoding="utf-8")
