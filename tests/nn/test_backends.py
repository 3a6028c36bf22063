"""The backend seam: its substitution hook and kernel conformance.

``numpy`` is the one built-in backend.  The seam exists so a test or the
profiler can substitute a backend that sees every kernel, so the conformance
suite runs over two backends: ``numpy`` itself and :class:`CountingBackend`,
a substitute that delegates every kernel to numpy and counts the calls.
Both must be **bit-identical** to the plain-numpy expressions the kernels
were moved from; autograd on numpy is byte-identity-pinned against
hand-written numpy formulas.
"""

import collections

import numpy as np
import pytest
from scipy import special

from repro import nn
from repro.nn import backends, functional as F, lazy
from repro.nn.backends import Backend, NumpyBackend, backend_mode, get_backend
from repro.nn.tensor import Tensor

KERNELS = ("matmul", "im2col", "col2im", "max_pool2d", "avg_pool2d", "sum",
           "mean", "max", "cumsum")


class CountingBackend(Backend):
    """Delegates every kernel to :class:`NumpyBackend` and counts the calls."""

    name = "counting"

    def __init__(self):
        self.calls = collections.Counter()
        base = NumpyBackend()
        self.elementwise = {op: self._counted(op, fn)
                            for op, fn in base.elementwise.items()}
        for kernel in KERNELS:
            setattr(self, kernel, self._counted(kernel, getattr(base, kernel)))

    def _counted(self, kernel, fn):
        def counted(*args, **kwargs):
            self.calls[kernel] += 1
            return fn(*args, **kwargs)
        return counted


@pytest.fixture
def counting_registered(monkeypatch):
    """Register :class:`CountingBackend` as ``"counting"`` for one test."""
    monkeypatch.setitem(backends._FACTORIES, "counting", CountingBackend)


@pytest.fixture(params=["numpy", "counting"])
def any_backend(request, counting_registered):
    """The built-in and the substitute backend, active for the test."""
    with backend_mode(request.param) as backend:
        yield backend


def _check(actual, expected):
    """Bit-identity: same shape, same dtype, same values."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


# ----------------------------------------------------------------- registry
class TestRegistry:
    def test_default_backend_is_numpy(self):
        assert isinstance(get_backend(), NumpyBackend)
        assert get_backend().name == "numpy"

    def test_unknown_backend_raises_with_known_names(self):
        before = get_backend()
        with pytest.raises(ValueError, match="numpy"):
            with backend_mode("definitely-not-a-backend"):
                pass
        assert get_backend() is before

    def test_substitute_is_active_only_in_scope(self, counting_registered):
        before = get_backend()
        with backend_mode("counting") as active:
            assert get_backend() is active
            assert isinstance(active, CountingBackend)
        assert get_backend() is before

    def test_backend_mode_restores_previous(self):
        before = get_backend()
        with backend_mode("numpy") as active:
            assert active.name == "numpy"
        assert get_backend() is before

    def test_backend_mode_restores_previous_when_body_raises(
            self, counting_registered):
        before = get_backend()
        with pytest.raises(RuntimeError, match="boom"):
            with backend_mode("counting"):
                raise RuntimeError("boom")
        assert get_backend() is before

    def test_incomplete_backend_rejected_on_activation(self, monkeypatch):
        class Hollow(Backend):
            name = "hollow"
            elementwise = {"add": lambda srcs, params, out=None: srcs[0]}

        before = get_backend()
        monkeypatch.setitem(backends._FACTORIES, "hollow", Hollow)
        with pytest.raises(ValueError, match="missing elementwise"):
            with backend_mode("hollow"):
                pass
        assert get_backend() is before


# -------------------------------------------------------- substitution hook
class TestSubstitutionHook:
    """What the profiler's traced run depends on: a substituted backend sees
    the kernels of a forward and backward pass and changes no byte."""

    def test_counting_backend_sees_kernels_and_changes_nothing(
            self, counting_registered, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        conv_w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        linear = nn.Linear(4 * 4 * 4, 5, rng=rng)
        params = [x, conv_w] + list(linear.parameters())

        def run():
            for p in params:
                p.grad = None
            hidden = F.conv2d(x, conv_w, None, stride=1).relu()
            out = linear(hidden.reshape(2, -1))
            out.tanh().sum().backward()
            return [out.numpy().copy()] + [p.grad.copy() for p in params]

        expected = run()
        with backend_mode("counting") as counting:
            actual = run()
        for kernel in ("matmul", "im2col", "col2im"):
            assert counting.calls[kernel] > 0, kernel
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# ------------------------------------------------------- elementwise kernels
#: op id -> (input builder, plain-numpy expectation) — the expectation is the
#: literal pre-backend kernel expression, making numpy bit-identity explicit
def _x(rng):
    return rng.normal(size=(3, 4))


def _pos(rng):
    return np.abs(rng.normal(size=(3, 4))) + 0.5


ELEMENTWISE_CASES = {
    "add": (lambda rng: [_x(rng), _x(rng)], lambda a, b: np.add(a, b)),
    "sub": (lambda rng: [_x(rng), _x(rng)], lambda a, b: np.subtract(a, b)),
    "mul": (lambda rng: [_x(rng), _x(rng)], lambda a, b: np.multiply(a, b)),
    "div": (lambda rng: [_x(rng), _pos(rng)], lambda a, b: np.true_divide(a, b)),
    "neg": (lambda rng: [_x(rng)], lambda a: np.negative(a)),
    "abs": (lambda rng: [_x(rng)], lambda a: np.absolute(a)),
    "exp": (lambda rng: [_x(rng)], lambda a: np.exp(a)),
    "log": (lambda rng: [_pos(rng)], lambda a: np.log(a)),
    "log1p": (lambda rng: [_pos(rng)], lambda a: np.log1p(a)),
    "sqrt": (lambda rng: [_pos(rng)], lambda a: np.sqrt(a)),
    "tanh": (lambda rng: [_x(rng)], lambda a: np.tanh(a)),
    "sin": (lambda rng: [_x(rng)], lambda a: np.sin(a)),
    "cos": (lambda rng: [_x(rng)], lambda a: np.cos(a)),
    "erf": (lambda rng: [_x(rng)], lambda a: special.erf(a)),
    "sigmoid": (lambda rng: [_x(rng)], lambda a: special.expit(a)),
    "softplus": (lambda rng: [_x(rng)], lambda a: np.logaddexp(0.0, a)),
    "relu": (lambda rng: [_x(rng)], lambda a: np.maximum(a, 0.0)),
    "pow": (lambda rng: [_pos(rng)], None),    # params-taking ops below
    "clamp": (lambda rng: [_x(rng)], None),
    "clone": (lambda rng: [_x(rng)], lambda a: a.copy()),
}

_PARAMS = {"pow": {"exponent": 2.5}, "clamp": {"min": -0.5, "max": 0.5}}
_PARAM_EXPECT = {"pow": lambda a: np.power(a, 2.5),
                 "clamp": lambda a: np.clip(a, -0.5, 0.5)}


class TestElementwiseConformance:
    def test_table_mirrors_elementwise_ops(self, any_backend):
        assert set(any_backend.elementwise) >= set(lazy.ELEMENTWISE_OPS)

    def test_cases_cover_the_whole_table(self):
        assert set(ELEMENTWISE_CASES) == set(lazy.ELEMENTWISE_OPS)

    @pytest.mark.parametrize("op", sorted(ELEMENTWISE_CASES))
    def test_kernel_matches_reference(self, any_backend, op, rng):
        build, expect = ELEMENTWISE_CASES[op]
        srcs = build(rng)
        params = _PARAMS.get(op, {})
        expected = (_PARAM_EXPECT[op] if expect is None else expect)(*srcs)
        actual = any_backend.elementwise[op](srcs, params)
        _check(actual, expected)

    @pytest.mark.parametrize("op", sorted(ELEMENTWISE_CASES))
    def test_out_contract_writes_in_place(self, any_backend, op, rng):
        """The fusion pass hands kernels a dead buffer; they must fill it."""
        build, expect = ELEMENTWISE_CASES[op]
        srcs = build(rng)
        params = _PARAMS.get(op, {})
        expected = (_PARAM_EXPECT[op] if expect is None else expect)(*srcs)
        out = np.empty(expected.shape, dtype=expected.dtype)
        result = any_backend.elementwise[op](srcs, params, out=out)
        assert result is out
        _check(out, expected)


# ----------------------------------------------------------- kernel entries
class TestKernelConformance:
    def test_matmul_2d_and_batched(self, any_backend, rng):
        a2, b2 = rng.normal(size=(5, 7)), rng.normal(size=(7, 3))
        _check(any_backend.matmul(a2, b2), a2 @ b2)
        ab, bb = rng.normal(size=(4, 5, 7)), rng.normal(size=(7, 3))
        _check(any_backend.matmul(ab, bb), ab @ bb)

    def test_matmul_vector_contraction(self, any_backend, rng):
        va, vb = rng.normal(size=9), rng.normal(size=9)
        _check(any_backend.matmul(va, vb), va @ vb)

    def test_im2col_and_col2im(self, any_backend, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        ref = NumpyBackend()
        for kh, kw, stride in [(3, 3, 1), (2, 2, 2)]:
            cols, out_h, out_w = any_backend.im2col(x, kh, kw, stride)
            ref_cols, ref_h, ref_w = ref.im2col(x, kh, kw, stride)
            assert (out_h, out_w) == (ref_h, ref_w)
            _check(cols, ref_cols)
            grad = rng.normal(size=ref_cols.shape)
            _check(any_backend.col2im(grad, x.shape, kh, kw, stride),
                   ref.col2im(grad, x.shape, kh, kw, stride))

    def test_max_pool2d_values_and_window_indices(self, any_backend, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        for kernel, stride in [(2, 2), (3, 1)]:
            pooled, idx = any_backend.max_pool2d(x, kernel, stride)
            ref_pooled, ref_idx = NumpyBackend().max_pool2d(x, kernel, stride)
            _check(pooled, ref_pooled)
            # the within-window argmax convention is part of the contract:
            # random floats make ties (the only legal divergence) improbable
            np.testing.assert_array_equal(idx, ref_idx)
            assert idx.min() >= 0 and idx.max() < kernel * kernel

    def test_avg_pool2d(self, any_backend, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        _check(any_backend.avg_pool2d(x, 2, 2),
               NumpyBackend().avg_pool2d(x, 2, 2))

    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (None, True), (0, False), (1, True), ((0, 2), False),
    ])
    def test_reductions(self, any_backend, rng, axis, keepdims):
        x = rng.normal(size=(3, 4, 5))
        _check(any_backend.sum(x, axis=axis, keepdims=keepdims),
               np.sum(x, axis=axis, keepdims=keepdims))
        _check(any_backend.mean(x, axis=axis, keepdims=keepdims),
               np.mean(x, axis=axis, keepdims=keepdims))
        if not isinstance(axis, tuple):
            _check(any_backend.max(x, axis=axis, keepdims=keepdims),
                   np.max(x, axis=axis, keepdims=keepdims))

    def test_cumsum(self, any_backend, rng):
        x = rng.normal(size=(3, 4, 5))
        for axis in range(x.ndim):
            _check(any_backend.cumsum(x, axis),
                   np.cumsum(x, axis=axis))

    def test_integer_sum_keeps_integer_dtype(self, any_backend):
        x = np.arange(12, dtype=np.int64).reshape(3, 4)
        result = any_backend.sum(x, axis=0)
        assert result.dtype == np.int64
        np.testing.assert_array_equal(result, x.sum(axis=0))


# -------------------------------------------------- tensor-layer integration
class TestTensorIntegration:
    def test_full_forward_chain_matches_reference(self, any_backend, rng):
        """A realistic matmul+elementwise+reduction chain through Tensor."""
        a = rng.normal(size=(8, 16))
        b = rng.normal(size=(16, 4))

        def run():
            z = nn.tensor(a) @ nn.tensor(b)
            return (((z * 0.5).tanh() + 1.0).exp().sum()).item()

        actual = run()
        with backend_mode("numpy"):
            expected = run()
        assert actual == expected

    def test_conv_and_pool_forward(self, any_backend, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        bias = Tensor(rng.normal(size=4))
        out = F.max_pool2d(F.conv2d(x, w, bias, stride=1), 2)
        with backend_mode("numpy"):
            expected = F.max_pool2d(F.conv2d(x, w, bias, stride=1), 2)
        _check(out.numpy(), expected.numpy())

    def test_lazy_and_eager_agree_per_backend(self, any_backend, rng):
        """The fusion scheduler and compute_eager run the same kernels."""
        data = rng.normal(size=257)
        x = nn.tensor(data)
        with lazy.lazy_mode(True):
            fused = ((x * 1.5).relu() + 0.25).sqrt().numpy()
        with lazy.lazy_mode(False):
            eager = ((x * 1.5).relu() + 0.25).sqrt().numpy()
        np.testing.assert_array_equal(fused, eager)


# ------------------------------------------- autograd byte-identity (reference)
class TestReferenceAutogradByteIdentity:
    """Gradients on the reference backend are pinned to raw numpy formulas."""

    def test_sin_cos_erf_softplus_grads(self, rng):
        from scipy import special

        xv = rng.normal(size=(3, 4))
        with backend_mode("numpy"):
            for fn, expected in [
                (lambda t: t.sin(), np.cos(xv)),
                (lambda t: t.cos(), -np.sin(xv)),
                (lambda t: t.erf(),
                 2.0 / np.sqrt(np.pi) * np.exp(-xv ** 2)),
                (lambda t: t.softplus(), special.expit(xv)),
            ]:
                x = Tensor(xv.copy(), requires_grad=True)
                fn(x).sum().backward()
                np.testing.assert_array_equal(x.grad, expected)

    def test_cumsum_grad_is_reversed_scan(self, rng):
        xv = rng.normal(size=(4, 5))
        with backend_mode("numpy"):
            x = Tensor(xv.copy(), requires_grad=True)
            (x.cumsum(axis=1) * 2.0).sum().backward()
            g = 2.0 * np.ones_like(xv)
            expected = np.flip(np.cumsum(np.flip(g, axis=1), axis=1), axis=1)
            np.testing.assert_array_equal(x.grad, expected)

    def test_matmul_grads(self, rng):
        av, bv = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        with backend_mode("numpy"):
            a = Tensor(av.copy(), requires_grad=True)
            b = Tensor(bv.copy(), requires_grad=True)
            (a @ b).sum().backward()
            g = np.ones((3, 2))
            np.testing.assert_array_equal(a.grad, g @ bv.T)
            np.testing.assert_array_equal(b.grad, av.T @ g)

    def test_adam_step_matches_raw_formula(self, rng):
        from repro.nn.optim import Adam

        pv = rng.normal(size=(5,))
        gv = rng.normal(size=(5,))
        with backend_mode("numpy"):
            p = Tensor(pv.copy(), requires_grad=True)
            p.grad = gv.copy()
            Adam([p], lr=0.1).step()
            # (1 - 0.9) etc., not 0.1: the literals differ in the last ulp
            m = (1 - 0.9) * gv
            v = (1 - 0.999) * gv ** 2
            step = 0.1 * np.sqrt(1 - 0.999) / (1 - 0.9)
            expected = pv - step * m / (np.sqrt(v) + 1e-8)
            np.testing.assert_array_equal(p.data, expected)
