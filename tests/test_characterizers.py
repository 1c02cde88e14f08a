from fractions import Fraction

import numpy as np
import pytest

from qchar.characterizers import (
    HeydeInstance,
    KBInstance,
    SDInstance,
    cramer_check,
    heyde_conclude,
    heyde_condition,
    heyde_symmetry_residual,
    kb_doubling_check,
    kb_equation_residual,
    kb_factorize,
    sd_conclude,
    sd_equation_residual,
    symmetry_witness,
)
from qchar.circle import gaussian_distribution
from qchar.errors import FactorizationError, HypothesisError, KernelConditionError
from qchar.groups import Automorphism, FiniteAbelianGroup, Subgroup
from qchar.polynomials import GroupFunction
from qchar.measures import (
    Distribution,
    char_fn,
    convolve,
    degenerate,
    product_joint,
    random_distribution,
    shifted_haar,
)


def mult(g, n):
    return Automorphism.multiplication(g, n)


# -- two-statistics independence ------------------------------------------


def test_sd_degenerate_components_conclude():
    g = FiniteAbelianGroup((5,))
    inst = SDInstance(
        g,
        cfs=(char_fn(degenerate(g, (2,))), char_fn(degenerate(g, (4,)))),
        alphas=(mult(g, 1), mult(g, 2)),
        betas=(mult(g, 3), mult(g, 1)),
    )
    assert sd_equation_residual(inst) < 1e-12
    out = sd_conclude(inst)
    assert out.constancy["constant"]
    points = [v["point"] for v in out.verdicts]
    assert points == [[2], [4]]
    assert all(v["verdict"] == "degenerate" for v in out.verdicts)


def test_sd_generic_components_violate():
    g = FiniteAbelianGroup((5,))
    rng = np.random.Generator(np.random.Philox(3))
    inst = SDInstance(
        g,
        cfs=(char_fn(random_distribution(g, rng)), char_fn(random_distribution(g, rng))),
        alphas=(mult(g, 1), mult(g, 1)),
        betas=(mult(g, 2), mult(g, 3)),
    )
    with pytest.raises(HypothesisError):
        sd_conclude(inst)


# -- conditional symmetry --------------------------------------------------


def z5_instance(pair, alpha_scalar=2):
    g = FiniteAbelianGroup((5,))
    joint = product_joint([degenerate(g, (pair[0],)), degenerate(g, (pair[1],))])
    return HeydeInstance(g, joint, mult(g, alpha_scalar))


def test_heyde_condition_on_z5():
    g = FiniteAbelianGroup((5,))
    ok, witness = heyde_condition(g, mult(g, 2))
    assert ok and witness is None
    bad, kernel_el = heyde_condition(g, mult(g, 4))  # alpha = -1, I + alpha = 0
    assert not bad and kernel_el is not None


def test_heyde_symmetry_exact_for_matched_pair():
    inst = z5_instance((3, 1))  # 3 + 2 * 1 = 5 = 0 mod 5
    assert heyde_symmetry_residual(inst) < 1e-12
    w = symmetry_witness(inst)
    assert w is not None and w.degree == 0


def test_heyde_symmetry_passers_are_exactly_the_matched_pairs():
    passers = set()
    for x1 in range(5):
        for x2 in range(5):
            if heyde_symmetry_residual(z5_instance((x1, x2))) < 1e-9:
                passers.add((x1, x2))
    assert passers == {(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)}
    assert passers == {(x1, x2) for x1 in range(5) for x2 in range(5) if (x1 + 2 * x2) % 5 == 0}


def test_heyde_conclude_certifies_degenerates():
    out = heyde_conclude(z5_instance((3, 1)))
    assert out.condition
    assert [v["point"] for v in out.verdicts] == [[3], [1]]
    assert out.constancy["constant"]


def test_heyde_mismatched_pair_violates():
    with pytest.raises(HypothesisError):
        heyde_conclude(z5_instance((1, 1)))


def test_heyde_negation_alpha_is_counterexample():
    g = FiniteAbelianGroup((5,))
    probs = np.array([0.3, 0.2, 0.2, 0.15, 0.15])
    d = Distribution(g, probs)
    inst = HeydeInstance(g, product_joint([d, d]), mult(g, 4))
    # any iid pair passes the symmetry when alpha is negation
    assert heyde_symmetry_residual(inst) < 1e-12
    with pytest.raises(KernelConditionError) as err:
        heyde_conclude(inst)
    assert err.value.kernel_element is not None
    assert "identically distributed" in (err.value.hint or "")


def test_heyde_refuses_two_torsion_groups():
    g = FiniteAbelianGroup((4,))
    joint = product_joint([degenerate(g, (0,)), degenerate(g, (0,))])
    inst = HeydeInstance(g, joint, mult(g, 3))
    with pytest.raises(HypothesisError):
        heyde_conclude(inst)


# -- sum and difference factorization --------------------------------------


def z6_kb_instance():
    g = FiniteAbelianGroup((6,))
    w = Subgroup.from_generators(g, [(2,)])
    mu1 = shifted_haar(g, (1,), w)
    mu2 = shifted_haar(g, (5,), w)
    return KBInstance(g, char_fn(mu1), char_fn(mu2)), g, w


def test_kb_equation_holds_for_idempotent_shifts():
    inst, _, _ = z6_kb_instance()
    assert kb_equation_residual(inst) < 1e-12


def test_kb_doubling_identities():
    inst, _, _ = z6_kb_instance()
    rep = kb_doubling_check(inst)
    assert rep["first"] < 1e-12
    assert rep["second"] < 1e-12
    assert rep["q_negligible"]
    assert all(r < 1e-12 for r in rep["iterated"])


def test_kb_factorize_recovers_coset_structure():
    inst, g, w = z6_kb_instance()
    out = kb_factorize(inst)
    assert set(out.annihilator_subgroup.elements) == set(w.elements)
    for shift, part in out.factors:
        assert set(part.elements) == set(w.elements)
    assert out.shift_relation["holds"]
    assert out.shift_relation["residual"] == 0.0


def test_kb_factorize_does_not_recompute_the_transforms(monkeypatch):
    import qchar.measures

    inst, _, w = z6_kb_instance()
    calls = []
    monkeypatch.setattr(qchar.measures, "char_fn", lambda d: calls.append(d) or char_fn(d))
    out = kb_factorize(inst)
    assert calls == []
    assert [set(part.elements) for _, part in out.factors] == [set(w.elements)] * 2


def test_kb_rejects_even_order_coset_laws():
    # shifted uniform laws on the order-2 subgroup of Z4 break the equation
    g = FiniteAbelianGroup((4,))
    w = Subgroup.from_generators(g, [(2,)])
    inst = KBInstance(g, char_fn(shifted_haar(g, (1,), w)), char_fn(shifted_haar(g, (0,), w)))
    assert kb_equation_residual(inst) > 1e-3
    with pytest.raises(HypothesisError) as err:
        kb_factorize(inst)
    assert err.value.residual > 1e-3


# -- two-factor decompositions of limit laws -------------------------------


def test_cramer_finite_point_mass_split():
    g = FiniteAbelianGroup((5,))
    e1 = degenerate(g, (1,))
    target = convolve(e1, e1)
    rep = cramer_check(char_fn(target), char_fn(e1), char_fn(e1))
    assert rep.gamma["point"] == [2]
    assert [v["verdict"] for v in rep.verdicts] == ["degenerate", "degenerate"]


def test_cramer_finite_rejects_non_unit_target():
    g = FiniteAbelianGroup((5,))
    rng = np.random.Generator(np.random.Philox(8))
    spread = random_distribution(g, rng)
    rep = char_fn(convolve(spread, spread))
    with pytest.raises(HypothesisError):
        cramer_check(rep, char_fn(spread), char_fn(spread))


def test_cramer_circle_gaussian_factors():
    target = gaussian_distribution(0.0, 1.0, min_truncation=12)
    half = gaussian_distribution(0.0, 0.5, min_truncation=12)
    rep = cramer_check(
        (target.cf_window(3), target.log_window(3)),
        (half.cf_window(3), half.log_window(3)),
        (half.cf_window(3), half.log_window(3)),
    )
    assert rep.gamma["sigma"] == pytest.approx(1.0)
    assert [v["verdict"] for v in rep.verdicts] == ["gaussian", "gaussian"]


def test_cramer_circle_flags_negative_density_factor():
    target = gaussian_distribution(0.0, 1.0, min_truncation=12)
    half = gaussian_distribution(0.0, 0.5, min_truncation=12)
    vals = np.asarray(half.cf_window(3).values, dtype=complex).copy()
    vals[3 + 1] += 0.9
    vals[3 - 1] += 0.9
    from qchar.polynomials import WindowFunction

    bent = WindowFunction(half.cf_window(3).window, vals)
    with pytest.raises(HypothesisError):
        cramer_check(
            (target.cf_window(3), target.log_window(3)),
            bent,
            (half.cf_window(3), half.log_window(3)),
        )


# -- non-finite values never pass a tolerance check --------------------------------


def test_locate_character_rejects_all_nan_values():
    from qchar.characterizers import _locate_character

    g = FiniteAbelianGroup((5,))
    assert _locate_character(g, np.full(5, np.nan)) is None
    assert _locate_character(g, np.ones(5)).coords == (0,)


def test_check_q_rejects_a_nan_origin():
    from qchar.characterizers import _check_q

    g = FiniteAbelianGroup((5,))
    sq = FiniteAbelianGroup((5, 5))
    q = np.zeros(25)
    q[0] = np.nan
    with pytest.raises(ValueError, match="vanish at zero"):
        _check_q(g, GroupFunction(sq, q))
    assert _check_q(g, GroupFunction(sq, np.zeros(25))).shape == (5, 5)
