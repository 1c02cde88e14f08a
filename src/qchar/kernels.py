"""Fourier transforms and convolution on products of cyclic groups.

The pairing <x, y> = exp(2 pi i sum_j x_j y_j / n_j) factors over the cyclic
axes, so on a vector stored row-major over ``group.orders`` the transform
sum_x <x, y>^sign f(x) is a multidimensional DFT: numpy's unnormalized
``ifft`` along every axis for sign +1 and ``fft`` for sign -1.  Convolution
multiplies ``rfft`` spectra.  Both take stacks of rows, and a single vector
is the one-row case.  Everything runs in O(|G| log |G|) per row and
allocates nothing of size |G| x |G|; the trivial group is treated as Z_1.
Exact integer pairing questions stay with ``groups.phase_matrix``.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupMismatchError
from .groups import FiniteAbelianGroup

__all__ = ["HAS_NUMBA", "active_backend", "dft", "dft_many", "convolve"]

# One numpy path; both names remain for environment stamps.
HAS_NUMBA = False


def active_backend() -> str:
    return "numpy"


def dft_many(group: FiniteAbelianGroup, mat: np.ndarray, sign: int = 1) -> np.ndarray:
    """Row-wise transform out[r, y] = sum_x <x, y>^sign mat[r, x]."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[1] != group.order:
        raise GroupMismatchError(
            f"matrix shape {mat.shape} does not match group order {group.order}"
        )
    shape = group.orders or (1,)
    out = mat.reshape((mat.shape[0],) + shape)
    for axis in range(1, len(shape) + 1):
        if sign < 0:
            out = np.fft.fft(out, axis=axis)
        else:
            out = np.fft.ifft(out, axis=axis, norm="forward")
    return out.reshape(mat.shape)


def dft(group: FiniteAbelianGroup, vec: np.ndarray, sign: int = 1) -> np.ndarray:
    return dft_many(group, np.asarray(vec)[None, :], sign)[0]


def convolve(group: FiniteAbelianGroup, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Additive convolution (p * q)[x] = sum_y p[y] q[x - y], row by row when
    p and q are (rows, |G|) stacks."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim not in (1, 2) or p.shape[-1] != group.order:
        raise GroupMismatchError("operand length does not match group order")
    shape = group.orders or (1,)
    # rfft halves the last axis; the other axes take full complex transforms.
    spec = np.fft.rfft(np.stack((p, q)).reshape((2, -1) + shape))
    for axis in range(2, len(shape) + 1):
        spec = np.fft.fft(spec, axis=axis)
    prod = spec[0] * spec[1]
    for axis in range(1, len(shape)):
        prod = np.fft.ifft(prod, axis=axis)
    return np.fft.irfft(prod, n=shape[-1]).reshape(p.shape)
