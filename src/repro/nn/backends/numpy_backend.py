"""Reference backend: plain numpy/scipy kernels.

This file is the bit-identity anchor.  Every kernel below is exactly the
code ``repro.nn`` ran inline — the elementwise ufuncs, im2col/col2im and
pooling windows (``repro.nn.functional``), matmul, reductions and cumsum
(``repro.nn.tensor``) — before the backend seam existed, so dispatching
through :class:`NumpyBackend` produces byte-for-byte the same arrays the
monolithic code did — ``tests/nn/test_backends.py`` pins that.
:attr:`NumpyBackend.elementwise` is also the list of elementwise ops every
backend must provide.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import special as _sp_special

from . import Backend


def _ufunc1(fn):
    return lambda srcs, params: fn(srcs[0])


def _ufunc2(fn):
    return lambda srcs, params: fn(srcs[0], srcs[1])


#: the elementwise kernels — ``a + b`` is ``np.add``, ``**`` is
#: ``np.power``, ... — exactly what the tensor layer has always run.
ELEMENTWISE = {
    "add": _ufunc2(np.add),
    "sub": _ufunc2(np.subtract),
    "mul": _ufunc2(np.multiply),
    "div": _ufunc2(np.true_divide),
    "neg": _ufunc1(np.negative),
    "abs": _ufunc1(np.absolute),
    "exp": _ufunc1(np.exp),
    "log": _ufunc1(np.log),
    "log1p": _ufunc1(np.log1p),
    "sqrt": _ufunc1(np.sqrt),
    "tanh": _ufunc1(np.tanh),
    "sin": _ufunc1(np.sin),
    "cos": _ufunc1(np.cos),
    "erf": _ufunc1(_sp_special.erf),
    "sigmoid": _ufunc1(_sp_special.expit),
    "softplus": lambda srcs, params: np.logaddexp(0.0, srcs[0]),
    "relu": lambda srcs, params: np.maximum(srcs[0], 0.0),
    "pow": lambda srcs, params: np.power(srcs[0], params["exponent"]),
    "clamp": lambda srcs, params: np.clip(srcs[0], params["min"], params["max"]),
    "clone": lambda srcs, params: srcs[0].copy(),
}


def _pool_windows(x: np.ndarray, kernel_size: int, stride: int):
    n, c, h, w = x.shape
    out_h = (h - kernel_size) // stride + 1
    out_w = (w - kernel_size) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel_size, kernel_size),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    return windows


class NumpyBackend(Backend):
    """Default backend: plain numpy/scipy, no data movement, bit-exact."""

    name = "numpy"
    elementwise = ELEMENTWISE

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def im2col(self, x: np.ndarray, kh: int, kw: int,
               stride: int) -> Tuple[np.ndarray, int, int]:
        n, c, h, w = x.shape
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
        s0, s1, s2, s3 = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, out_h, out_w, kh, kw),
            strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
            writeable=False,
        )
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h, out_w,
                                                           c * kh * kw)
        return np.ascontiguousarray(cols), out_h, out_w

    def col2im(self, cols: np.ndarray, x_shape: Tuple[int, ...], kh: int,
               kw: int, stride: int) -> np.ndarray:
        n, c, h, w = x_shape
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
        cols = cols.reshape(n, out_h, out_w, c, kh, kw)
        grad = np.zeros(x_shape, dtype=cols.dtype)
        for i in range(kh):
            for j in range(kw):
                grad[:, :, i:i + stride * out_h:stride,
                     j:j + stride * out_w:stride] += \
                    cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        return grad

    def max_pool2d(self, x: np.ndarray, kernel_size: int,
                   stride: int) -> Tuple[np.ndarray, np.ndarray]:
        n, c, _, _ = x.shape
        windows = _pool_windows(x, kernel_size, stride)
        out_h, out_w = windows.shape[2:4]
        flat = windows.reshape(n, c, out_h, out_w, -1)
        idx = flat.argmax(axis=-1)
        pooled = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        return pooled, idx

    def avg_pool2d(self, x: np.ndarray, kernel_size: int,
                   stride: int) -> np.ndarray:
        windows = _pool_windows(x, kernel_size, stride)
        return windows.mean(axis=(-2, -1))

    def sum(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.sum(axis=axis, keepdims=keepdims)

    def mean(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.mean(axis=axis, keepdims=keepdims)

    def max(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.max(axis=axis, keepdims=keepdims)

    def cumsum(self, x: np.ndarray, axis: int) -> np.ndarray:
        return np.cumsum(x, axis=axis)
