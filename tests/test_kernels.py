import tracemalloc

import numpy as np
import pytest

from qchar.groups import (
    FiniteAbelianGroup,
    Subgroup,
    _coords_table,
    _strides,
    annihilator,
    groups_up_to_order,
    phase_matrix,
)
from qchar.errors import GroupMismatchError
from qchar.kernels import convolve, dft, dft_many

GROUPS = [
    FiniteAbelianGroup((5,)),
    FiniteAbelianGroup((2, 4)),
    FiniteAbelianGroup((3, 3, 2)),
    FiniteAbelianGroup((60,)),
]


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240))


def random_prob(rng, n):
    p = rng.random(n)
    return p / p.sum()


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: str(g.orders))
def test_forward_inverse_round_trip(g, rng):
    p = random_prob(rng, g.order)
    hat = dft(g, p)
    back = dft(g, hat, sign=-1) / g.order
    assert np.max(np.abs(back - p)) < 1e-12


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: str(g.orders))
def test_transform_at_zero_is_total_mass(g, rng):
    p = random_prob(rng, g.order)
    assert abs(dft(g, p)[0] - 1.0) < 1e-12


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: str(g.orders))
def test_convolution_theorem(g, rng):
    p = random_prob(rng, g.order)
    q = random_prob(rng, g.order)
    c = convolve(g, p, q)
    assert abs(c.sum() - 1.0) < 1e-12
    lhs = dft(g, c)
    rhs = dft(g, p) * dft(g, q)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("orders", [(), (1,), (7,), (12,), (2, 4), (3, 3, 2), (64,)])
def test_stacked_convolve_is_bitwise_the_one_pair_calls(orders, rng):
    g = FiniteAbelianGroup(orders)
    p = np.stack([random_prob(rng, g.order) for _ in range(9)])
    q = np.stack([random_prob(rng, g.order) for _ in range(9)])
    out = convolve(g, p, q)
    assert out.shape == p.shape
    for r in range(9):
        assert np.array_equal(out[r], convolve(g, p[r], q[r]))
    with pytest.raises(GroupMismatchError):
        convolve(g, p, q[:4])


def test_dft_many_matches_single(rng):
    g = FiniteAbelianGroup((3, 4))
    mat = rng.random((5, g.order))
    out = dft_many(g, mat)
    for i in range(5):
        assert np.max(np.abs(out[i] - dft(g, mat[i]))) < 1e-13


def test_dft_rows_are_exact_characters():
    g = FiniteAbelianGroup((6,))
    eye = np.eye(g.order)
    rows = dft_many(g, eye)
    w = np.exp(2j * np.pi / 6)
    for x in range(6):
        for u in range(6):
            assert abs(rows[x][u] - w ** (x * u)) < 1e-12


def test_haar_indicator_via_transform():
    g = FiniteAbelianGroup((2, 4))
    s = Subgroup.from_generators(g, [(0, 2)])
    p = np.zeros(g.order)
    for i in s.elements:
        p[i] = 1.0 / s.order
    hat = dft(g, p)
    ann = annihilator(g, s)
    ind = np.zeros(g.order)
    for i in ann.elements:
        ind[i] = 1.0
    assert np.max(np.abs(hat - ind)) < 1e-12


SIGNATURES = groups_up_to_order(64, include_trivial=True)


@pytest.mark.parametrize("g", SIGNATURES, ids=lambda g: str(g.orders))
def test_fft_matches_direct_sums(g, rng):
    n = g.order
    chars = np.exp(2j * np.pi * phase_matrix(g, np.arange(n), np.arange(n)) / g.exponent)
    mat = rng.random((3, n)) + 1j * rng.random((3, n))
    assert np.max(np.abs(dft_many(g, mat) - mat @ chars)) < 1e-12
    assert np.max(np.abs(dft_many(g, mat, sign=-1) - mat @ chars.conj())) < 1e-12
    coords = _coords_table(g)
    diff = (coords[:, None, :] - coords[None, :, :]) % np.asarray(g.orders, dtype=np.int64)
    p, q = random_prob(rng, n), random_prob(rng, n)
    direct = (q[diff @ _strides(g)] * p[None, :]).sum(axis=1)
    assert np.max(np.abs(convolve(g, p, q) - direct)) < 1e-12


def test_order_4096_transforms_build_no_quadratic_tables(rng):
    g = FiniteAbelianGroup((4096,))
    mat = rng.random((4, g.order)).astype(np.complex128)
    p, q = random_prob(rng, g.order), random_prob(rng, g.order)
    tracemalloc.start()
    try:
        dft_many(g, mat)
        dft_many(g, mat, sign=-1)
        convolve(g, p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the smallest 4096 x 4096 table (one byte per entry) would be 16 MiB
    assert peak < g.order * g.order
