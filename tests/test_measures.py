import numpy as np
import pytest

from qchar.errors import FactorizationError, GroupMismatchError, NotPositiveDefiniteError
from qchar.groups import FiniteAbelianGroup, GroupHom, Subgroup, annihilator, multiplication_map
from qchar.measures import (
    _check_cf,
    _check_masses,
    CharacteristicFunction,
    Distribution,
    JointDistribution,
    char_fn,
    convolve,
    degenerate,
    haar,
    haar_cf,
    idempotent_shift_factor,
    inverse_char_fn,
    linear_form_joint,
    product_joint,
    push_forward,
    random_distribution,
    shifted_haar,
    support_bound,
)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(7))


def _raised(build, *args):
    with pytest.raises(Exception) as info:
        build(*args)
    return type(info.value), str(info.value)


G23 = FiniteAbelianGroup((2, 3))
_LAW = np.full(6, 1 / 6)


@pytest.mark.parametrize("bad", [
    np.array([-0.1, 0.3, 0.2, 0.2, 0.2, 0.2]),       # negative mass
    np.array([np.nan, 0.2, 0.2, 0.2, 0.2, 0.2]),     # NaN mass
    np.array([0.1, 0.1, 0.2, 0.2, 0.2, 0.1]),        # total mass 0.9
], ids=["negative", "nan", "sum"])
def test_mass_rows_raise_as_the_constructor(bad):
    want = _raised(Distribution, G23, bad)
    rows = np.stack([_LAW, _LAW, bad, _LAW])
    assert _raised(_check_masses, G23, rows) == want
    # the first failing row decides; a later bad row does not
    rows[3] = np.array([0.5] * 6)
    assert _raised(_check_masses, G23, rows) == want
    _check_masses(G23, np.stack([_LAW] * 3))


def _cf(**edits):
    values = char_fn(Distribution(G23, np.array([0.3, 0.1, 0.1, 0.2, 0.2, 0.1]))).values.copy()
    for i, v in edits.items():
        values[int(i[1:])] = v
    return values


@pytest.mark.parametrize("bad", [
    _cf(i0=0.9),                  # f(0) != 1
    _cf(i1=0.5j, i2=0.5j),        # f(-y) != conj f(y); -(0, 1) = (0, 2)
    _cf(i3=1.5),                  # |f| > 1 at the element of order 2
], ids=["zero", "hermitian", "modulus"])
def test_cf_rows_raise_as_the_constructor(bad):
    want = _raised(CharacteristicFunction, G23, bad)
    good = _cf()
    rows = np.stack([good, bad, good])
    assert _raised(_check_cf, G23, rows) == want
    _check_cf(G23, np.stack([good] * 3))


def test_distribution_validation():
    g = FiniteAbelianGroup((4,))
    with pytest.raises(GroupMismatchError):
        Distribution(g, np.ones(3) / 3)
    with pytest.raises(NotPositiveDefiniteError):
        Distribution(g, np.array([0.6, 0.6, -0.1, -0.1]))
    with pytest.raises(ValueError):
        Distribution(g, np.array([0.3, 0.3, 0.3, 0.3]))


def test_distribution_with_nan_mass_is_rejected():
    with pytest.raises(ValueError):
        Distribution(FiniteAbelianGroup((5,)), np.array([np.nan, 0.5, 0.5, 0.0, 0.0]))


def test_characteristic_function_with_nan_is_rejected():
    with pytest.raises(ValueError):
        CharacteristicFunction(FiniteAbelianGroup((5,)), np.array([1.0, np.nan, 0.0, 0.0, np.nan]))


def test_char_fn_round_trip(rng):
    g = FiniteAbelianGroup((3, 4))
    d = random_distribution(g, rng)
    back = inverse_char_fn(char_fn(d))
    assert np.max(np.abs(back.probs - d.probs)) < 1e-12


def test_inverse_rejects_non_positive_definite():
    g = FiniteAbelianGroup((3,))
    # real-valued spectrum with a deep negative dip has no probability preimage
    vals = np.array([1.0, -0.9, -0.9], dtype=np.complex128)
    cf = CharacteristicFunction(g, vals)
    assert not cf.is_positive_definite()
    with pytest.raises(NotPositiveDefiniteError):
        inverse_char_fn(cf)


def test_inverse_names_a_non_finite_mass():
    # the validator rejects NaN values, so build the spectrum past it
    cf = object.__new__(CharacteristicFunction)
    object.__setattr__(cf, "group", FiniteAbelianGroup((5,)))
    object.__setattr__(cf, "values", np.full(5, np.nan, dtype=np.complex128))
    with pytest.raises(NotPositiveDefiniteError, match=r"^no non-negative preimage: mass nan at \(0,\)$"):
        inverse_char_fn(cf)


def test_degenerate_transform_has_unit_modulus():
    g = FiniteAbelianGroup((5,))
    f = char_fn(degenerate(g, (2,))).values
    assert np.max(np.abs(np.abs(f) - 1.0)) < 1e-12
    w = np.exp(2j * np.pi / 5)
    for u in range(5):
        assert abs(f[u] - w ** (2 * u)) < 1e-12


def test_convolution_of_degenerates_adds_points():
    g = FiniteAbelianGroup((7,))
    c = convolve(degenerate(g, (3,)), degenerate(g, (6,)))
    assert c.mass((2,)) == pytest.approx(1.0)


def test_haar_cf_is_annihilator_indicator():
    g = FiniteAbelianGroup((2, 6))
    s = Subgroup.from_generators(g, [(1, 3)])
    direct = char_fn(haar(s)).values
    closed = haar_cf(s).values
    assert np.max(np.abs(direct - closed)) < 1e-12
    ann = set(annihilator(g, s).elements)
    for i in range(g.order):
        assert abs(closed[i] - (1.0 if i in ann else 0.0)) < 1e-12


def test_support_bound_brackets_haar_support():
    g = FiniteAbelianGroup((8,))
    s = Subgroup.from_generators(g, [(4,)])
    b = support_bound(haar(s))
    assert set(b.elements) == set(s.elements)


def test_support_bound_is_trivial_off_subgroup():
    g = FiniteAbelianGroup((4,))
    d = Distribution(g, np.array([0.0, 0.5, 0.0, 0.5]))
    # transform equals 1 only at y = 0, so the bound degenerates to all of G
    assert support_bound(d).order == g.order


def test_support_bound_flags_sub_tolerance_stray_mass():
    g = FiniteAbelianGroup((4,))
    eps = 1e-10  # below the level-set tolerance but above mass noise
    d = Distribution(g, np.array([1.0 - eps, eps, 0.0, 0.0]))
    with pytest.raises(FactorizationError):
        support_bound(d)


def test_idempotent_shift_factor_recovers_pair():
    g = FiniteAbelianGroup((12,))
    s = Subgroup.from_generators(g, [(4,)])
    for shift in [(0,), (1,), (7,)]:
        d = shifted_haar(g, shift, s)
        res = idempotent_shift_factor(d)
        assert res is not None
        x, k = res
        assert set(k.elements) == set(s.elements)
        # shift is only defined modulo the subgroup
        diff = g.add(x.coords, g.neg(shift))
        assert s.contains(diff)


def test_idempotent_shift_factor_refuses_generic(rng):
    g = FiniteAbelianGroup((5,))
    assert idempotent_shift_factor(random_distribution(g, rng)) is None


def test_push_forward_matches_direct_image():
    g = FiniteAbelianGroup((6,))
    h = multiplication_map(g, 2)
    d = Distribution(g, np.array([0.5, 0.3, 0.0, 0.0, 0.0, 0.2]))
    img = push_forward(d, h)
    assert img.mass((0,)) == pytest.approx(0.5)
    assert img.mass((2,)) == pytest.approx(0.3)
    assert img.mass((4,)) == pytest.approx(0.2)


def test_joint_marginals_and_product(rng):
    g = FiniteAbelianGroup((3,))
    h = FiniteAbelianGroup((4,))
    d1 = random_distribution(g, rng)
    d2 = random_distribution(h, rng)
    j = product_joint([d1, d2])
    assert j.arity == 2
    assert j.product_group.orders == (3, 4)
    assert np.max(np.abs(j.marginal(0).probs - d1.probs)) < 1e-12
    assert np.max(np.abs(j.marginal(1).probs - d2.probs)) < 1e-12
    # independence makes the joint transform split
    assert np.max(np.abs(j.joint_cf().values - j.marginal_cf_product())) < 1e-12


def test_correlated_joint_does_not_split():
    g = FiniteAbelianGroup((3,))
    probs = np.array([0.3, 0.05, 0.05, 0.05, 0.3, 0.05, 0.05, 0.05, 0.1])
    j = JointDistribution((g, g), probs)
    gap = np.max(np.abs(j.joint_cf().values - j.marginal_cf_product()))
    assert gap > 1e-3


def test_linear_form_joint_sum_difference(rng):
    g = FiniteAbelianGroup((5,))
    d1 = random_distribution(g, rng)
    d2 = random_distribution(g, rng)
    j = product_joint([d1, d2])
    ident = GroupHom.identity(g)
    neg = GroupHom.negation(g)
    forms = linear_form_joint(j, [[ident, ident], [ident, neg]])
    # L1 = x1 + x2 must have the convolution law
    lhs = forms.marginal(0).probs
    rhs = convolve(d1, d2).probs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_linear_form_joint_checks_target():
    g = FiniteAbelianGroup((3,))
    h = FiniteAbelianGroup((4,))
    j = product_joint([haar(Subgroup.full(g)), haar(Subgroup.full(h))])
    with pytest.raises(GroupMismatchError):
        linear_form_joint(j, [[GroupHom.identity(g), GroupHom.identity(h)]])
