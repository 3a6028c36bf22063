"""The compute-kernel seam of :mod:`repro.nn`.

Everything the tensor layer computes goes through a small kernel surface:
the elementwise table (``NumpyBackend.elementwise``: ``add``, ``exp``,
``sigmoid``, ``clamp``, ...) plus matmul, im2col/col2im convolution, pooling
windowing, reductions and cumsum.  A :class:`Backend` implements exactly
that surface, and every kernel call in ``repro.nn`` dispatches through
:func:`get_backend`.

``numpy`` (:class:`NumpyBackend`) is the one built-in backend and the active
one by default.  The seam exists so a test or a profiler can *substitute* a
backend that sees every kernel: :func:`register_backend` a factory, then
activate it for a scope with :func:`backend_mode`.  A substitute typically
delegates each kernel to :class:`NumpyBackend` and wraps it (counting,
timing), so results stay bit-identical to an unsubstituted run.

Contracts every backend must honor:

* ``elementwise`` maps every key of ``NumpyBackend.elementwise`` to a kernel
  ``(srcs, params) -> np.ndarray`` that returns a new array.  A backend
  missing a key is rejected when :func:`backend_mode` activates it.
* Kernel entry points take and return **numpy** arrays with numpy
  dtype/shape semantics.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

__all__ = [
    "Backend",
    "NumpyBackend",
    "backend_mode",
    "get_backend",
    "register_backend",
]


class Backend:
    """The kernel surface of :mod:`repro.nn` (see the module docstring).

    Subclasses set :attr:`name`, fill :attr:`elementwise` with one kernel per
    ``NumpyBackend.elementwise`` key, and implement every method below
    (usually by delegating to :class:`NumpyBackend`).  All arguments and
    results are numpy arrays.
    """

    #: registry id (``"numpy"``, or the name a substitute registers under)
    name: str = ""

    #: op id -> ``(srcs, params) -> np.ndarray`` kernel table
    elementwise: Mapping[str, Callable] = {}

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched matrix product with numpy ``@`` broadcasting semantics."""
        raise NotImplementedError

    def im2col(self, x: np.ndarray, kh: int, kw: int,
               stride: int) -> Tuple[np.ndarray, int, int]:
        """Sliding conv windows of an ``(N, C, H, W)`` input.

        Returns ``(cols, out_h, out_w)`` with ``cols`` of shape
        ``(N, out_h, out_w, C*kh*kw)``, channel-major within a window.
        """
        raise NotImplementedError

    def col2im(self, cols: np.ndarray, x_shape: Tuple[int, ...], kh: int,
               kw: int, stride: int) -> np.ndarray:
        """Scatter-add :meth:`im2col` column gradients back to the input."""
        raise NotImplementedError

    def max_pool2d(self, x: np.ndarray, kernel_size: int,
                   stride: int) -> Tuple[np.ndarray, np.ndarray]:
        """Window max of an ``(N, C, H, W)`` input.

        Returns ``(pooled, idx)`` where ``idx`` holds the *within-window*
        flat argmax (``0..kernel_size**2 - 1``, row-major) the autograd
        backward scatters through.
        """
        raise NotImplementedError

    def avg_pool2d(self, x: np.ndarray, kernel_size: int,
                   stride: int) -> np.ndarray:
        """Window mean of an ``(N, C, H, W)`` input."""
        raise NotImplementedError

    def sum(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        raise NotImplementedError

    def mean(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        raise NotImplementedError

    def max(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        raise NotImplementedError

    def cumsum(self, x: np.ndarray, axis: int) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


# ------------------------------------------------------------------- registry
_FACTORIES: Dict[str, Callable[[], Backend]] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register ``factory`` under ``name``; :func:`backend_mode` calls it."""
    _FACTORIES[name] = factory


def _validate(backend: Backend) -> None:
    missing = sorted(set(NumpyBackend.elementwise) - set(backend.elementwise))
    if missing:
        raise ValueError(
            f"backend {backend.name!r} is missing elementwise kernels: {missing}")


def get_backend() -> Backend:
    """The active backend (a :class:`NumpyBackend` unless substituted)."""
    return _ACTIVE


@contextlib.contextmanager
def backend_mode(name: str):
    """Activate the backend registered as ``name`` for the ``with`` body.

    Raises ``ValueError`` for an unregistered name or a backend missing
    elementwise kernels; the previous backend is restored on exit, also when
    the body raises.
    """
    global _ACTIVE
    if name not in _FACTORIES:
        raise ValueError(f"unknown backend {name!r}; registered backends: "
                         f"{', '.join(sorted(_FACTORIES))}")
    backend = _FACTORIES[name]()
    _validate(backend)
    previous, _ACTIVE = _ACTIVE, backend
    try:
        yield backend
    finally:
        _ACTIVE = previous


# ------------------------------------------------------- builtin registration
from .numpy_backend import NumpyBackend  # noqa: E402

register_backend("numpy", NumpyBackend)
_ACTIVE: Backend = NumpyBackend()
