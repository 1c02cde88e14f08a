import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import qchar.characterizers as characterizers
import qchar.polynomials as polynomials
from qchar import kernels

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
from qchar.groups import (
    Automorphism,
    FiniteAbelianGroup,
    Subgroup,
    _add,
    _neg_table,
    adjoint,
    multiplication_map,
)
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


# -- the blocked dual-square checks against their dense |G| x |G| forms ----------
#
# Each reference builds the whole |G| x |G| array of defects and takes one max,
# as the checks did before they ran in row blocks.  Z_257 and Z_16 x Z_16 hold
# 66049 and 65536 pairs, several blocks of polynomials.BLOCK_ENTRIES.


def _dense_kb_residual(inst):
    group, n = inst.group, inst.group.order
    neg = np.asarray(_neg_table(group), dtype=np.int64)
    f1, f2 = np.asarray(inst.cf1.values), np.asarray(inst.cf2.values)
    u = np.arange(n)[:, None]
    lhs = f1[_add(group, u, u.T)] * f2[_add(group, u, neg[u.T])]
    rhs = (f1 * f2)[:, None] * (f1 * f2[neg[np.arange(n)]])[None, :]
    return float(np.abs(lhs - rhs).max())


def _dense_sd_residual(inst):
    n = inst.group.order
    lhs = np.ones((n, n), dtype=np.complex128)
    col = np.ones(n, dtype=np.complex128)
    row = np.ones(n, dtype=np.complex128)
    for f, a, b in zip(inst.cfs, inst.alphas, inst.betas):
        A, B = adjoint(a).table, adjoint(b).table
        vals = np.asarray(f.values)
        lhs *= vals[_add(inst.group, A[:, None], B[None, :])]
        col *= vals[A]
        row *= vals[B]
    rhs = col[:, None] * row[None, :]
    return float(np.abs(lhs - rhs).max())


def _dense_symmetry_points(inst):
    group = inst.group
    neg = np.asarray(_neg_table(group), dtype=np.int64)
    bb = np.asarray(adjoint(inst.alpha).table, dtype=np.int64)
    u = np.arange(group.order)[:, None]
    return [_add(group, u, w) for w in (u.T, bb[u.T], neg[u.T], neg[bb[u.T]])]


def _heyde_marginal_cfs(inst):
    return [np.asarray(kernels.dft(inst.group, np.asarray(inst.joint.marginal(i).probs)))
            for i in (0, 1)]


def _dense_heyde_symmetry(inst):
    n = inst.group.order
    J = np.asarray(inst.joint.joint_cf().values).reshape(n, n)
    s, t, s_neg, t_neg = _dense_symmetry_points(inst)
    return float(np.abs(J[s, t] - J[s_neg, t_neg]).max())


def _dense_witness_residual(inst):
    f1, f2 = _heyde_marginal_cfs(inst)
    s, t, s_neg, t_neg = _dense_symmetry_points(inst)
    return float(np.abs(f1[s] * f2[t] - f1[s_neg] * f2[t_neg]).max())


def _dense_doubled_residual(inst):
    group, n = inst.group, inst.group.order
    bb_tab = np.asarray(adjoint(inst.alpha).table, dtype=np.int64)
    one_plus_b = _add(group, np.arange(n), bb_tab)
    two = np.asarray(multiplication_map(group, 2).table, dtype=np.int64)
    two_b = two[bb_tab]
    f1, f2 = _heyde_marginal_cfs(inst)
    lhs = f1[_add(group, one_plus_b[:, None], two)] * f2[_add(group, two_b[:, None], one_plus_b)]
    rhs = (f1[one_plus_b] * f2[two_b])[:, None] * (f1[two] * f2[one_plus_b])[None, :]
    return float(np.abs(lhs - rhs).max())


def _check_blocked_against_dense(g, units, heyde):
    rng = np.random.default_rng(g.order)
    cf = lambda: char_fn(random_distribution(g, rng))
    kb = KBInstance(g, cf(), cf())
    assert kb_equation_residual(kb) == _dense_kb_residual(kb) > 0.0
    sd = SDInstance(g, cfs=[cf() for _ in range(3)],
                    alphas=[mult(g, int(rng.choice(units))) for _ in range(3)],
                    betas=[mult(g, int(rng.choice(units))) for _ in range(3)])
    assert sd_equation_residual(sd) == _dense_sd_residual(sd) > 0.0
    if not heyde:
        return
    # a joint law lives on G x G, so G is no larger than a witness's
    joint = product_joint([random_distribution(g, rng), random_distribution(g, rng)])
    heyde = HeydeInstance(g, joint, mult(g, units[2]))
    assert heyde_symmetry_residual(heyde) == _dense_heyde_symmetry(heyde) > 0.0
    witness = symmetry_witness(heyde, tol=np.inf)
    assert witness.residual == _dense_witness_residual(heyde) > 0.0
    if g.order % 2:
        # the doubled identity is reached on odd orders, by a pair that passes
        # the symmetry: point masses at -3 x and x for alpha = 3
        matched = HeydeInstance(g, product_joint([degenerate(g, (-3 * 7,)), degenerate(g, (7,))]),
                                mult(g, 3))
        doubled = heyde_conclude(matched).doubled_residual
        assert doubled == _dense_doubled_residual(matched) > 0.0


@pytest.mark.parametrize("orders, units", [((257,), (1, 2, 3, 5)), ((16, 16), (1, 3, 5, 7))],
                         ids=["z257", "z16xz16"])
def test_blocked_residuals_are_bitwise_the_dense_ones(orders, units):
    # |G|^2 = 66049 and 65536 pairs: five and four blocks of BLOCK_ENTRIES
    _check_blocked_against_dense(FiniteAbelianGroup(orders), units, heyde=False)


# a joint law, whose symmetry witness the Heyde checks read, lives on the group
# G x G, so |G|^2 <= ORDER_CAP < BLOCK_ENTRIES: smaller blocks split those
# squares, 1 into single rows and 727 into uneven ones
@pytest.mark.parametrize("block_entries", [1, 727, polynomials.BLOCK_ENTRIES])
@pytest.mark.parametrize("orders, units", [((61,), (1, 2, 3, 5)), ((8, 8), (1, 3, 5, 7))],
                         ids=["z61", "z8xz8"])
def test_blocked_residuals_with_a_witness_are_bitwise_the_dense_ones(
        monkeypatch, orders, units, block_entries):
    monkeypatch.setattr(polynomials, "BLOCK_ENTRIES", block_entries)
    _check_blocked_against_dense(FiniteAbelianGroup(orders), units, heyde=True)


# the defect at (u, -v) is minus the one at (u, v), so only v <= -v is evaluated
@pytest.mark.parametrize("block_entries", [1, 727, polynomials.BLOCK_ENTRIES])
@pytest.mark.parametrize("orders, alpha", [((2, 4), 3), ((9,), 4), ((63,), 4)],
                         ids=["z2xz4", "z9", "z63"])
def test_half_width_symmetry_peaks_are_bitwise_the_full_width_ones(
        monkeypatch, orders, alpha, block_entries):
    monkeypatch.setattr(polynomials, "BLOCK_ENTRIES", block_entries)
    g = FiniteAbelianGroup(orders)
    rng = np.random.default_rng(g.order)
    x = int(rng.integers(1, g.order))
    minus_alpha_x = int(_neg_table(g)[mult(g, alpha).table[x]])
    matched = product_joint([degenerate(g, g.coords(minus_alpha_x)), degenerate(g, g.coords(x))])
    mixed = product_joint([random_distribution(g, rng), random_distribution(g, rng)])
    for joint, passes in ((matched, True), (mixed, False)):
        inst = HeydeInstance(g, joint, mult(g, alpha))
        resid = heyde_symmetry_residual(inst)
        assert np.float64(resid).tobytes() == np.float64(_dense_heyde_symmetry(inst)).tobytes()
        assert (resid <= 1e-12) == passes
        witness = symmetry_witness(inst, tol=np.inf)
        want = _dense_witness_residual(inst)
        assert np.float64(witness.residual).tobytes() == np.float64(want).tobytes()
        assert (symmetry_witness(inst) is not None) == passes


def _nan_in_the_last_row(monkeypatch, n):
    """Make every dual-square defect NaN in the row of u = n - 1, the last block's."""
    real = characterizers._pair_peak

    def poisoned(count, width, defect):
        def rows(u):
            d = defect(u)
            d[u[:, 0] == n - 1, 3] = np.nan
            return d
        return real(count, width, rows)

    monkeypatch.setattr(characterizers, "_pair_peak", poisoned)


def test_a_nan_entry_in_the_last_row_block_fails_kb(monkeypatch):
    monkeypatch.setattr(polynomials, "BLOCK_ENTRIES", 727)  # rows 0-10, ..., 55-60 of Z_61
    g = FiniteAbelianGroup((61,))
    sub = Subgroup.trivial(g)
    make = lambda: KBInstance(g, char_fn(shifted_haar(g, (3,), sub)),
                              char_fn(shifted_haar(g, (5,), sub)))
    inst = make()
    assert kb_equation_residual(inst) < 1e-12
    inst.cf1.values[60] = np.nan  # a transform value, read by every row
    assert np.isnan(kb_equation_residual(inst))
    with pytest.raises(HypothesisError):
        kb_factorize(inst)
    _nan_in_the_last_row(monkeypatch, 61)
    assert np.isnan(kb_equation_residual(make()))
    with pytest.raises(HypothesisError):
        kb_factorize(make())


def test_a_nan_entry_in_the_last_row_block_fails_sd(monkeypatch):
    monkeypatch.setattr(polynomials, "BLOCK_ENTRIES", 727)
    g = FiniteAbelianGroup((61,))
    make = lambda: SDInstance(g, cfs=(char_fn(degenerate(g, (2,))), char_fn(degenerate(g, (4,)))),
                              alphas=(mult(g, 1), mult(g, 2)), betas=(mult(g, 3), mult(g, 1)))
    inst = make()
    assert sd_equation_residual(inst) < 1e-12
    inst.cfs[1].values[60] = np.nan
    assert np.isnan(sd_equation_residual(inst))
    with pytest.raises(HypothesisError):
        sd_conclude(inst)
    _nan_in_the_last_row(monkeypatch, 61)
    assert np.isnan(sd_equation_residual(make()))
    with pytest.raises(HypothesisError):
        sd_conclude(make())


def test_kb_factorize_at_the_order_cap_allocates_far_below_a_square_table():
    g = FiniteAbelianGroup((4096,))
    sub = Subgroup.trivial(g)
    inst = KBInstance(g, char_fn(shifted_haar(g, (3,), sub)), char_fn(shifted_haar(g, (5,), sub)))
    kb_factorize(inst)  # fills the O(|G|) coordinate caches
    tracemalloc.start()
    try:
        out = kb_factorize(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.annihilator_subgroup.order == 1
    assert [list(x.coords) for x, _ in out.factors] == [[3], [5]]
    # one |G| x |G| array of indices takes 4096^2 * 8 bytes
    assert peak < g.order * g.order // 4
