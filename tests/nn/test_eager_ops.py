"""Tensor ops compute when they are called, bit-identical to raw numpy.

Each case builds the same computation on ``Tensor`` and on plain numpy
arrays and requires the same dtype, shape and bytes.  The in-place cases
pin that a result is a value, not a recipe: writing into an input after
the op has run must not change the result.
"""

import numpy as np
from scipy import special

from repro import nn


def _same(actual, expected):
    actual = np.asarray(actual)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)


class TestAgainstNumpy:
    def test_elementwise_chain_with_broadcasting(self):
        rng = np.random.default_rng(0)
        xv, yv = rng.normal(size=(32, 16)), rng.normal(size=(16,))
        x, y = nn.tensor(xv), nn.tensor(yv)
        out = ((x * 2.0 + y).tanh().relu() - 0.25).exp() / (y.abs() + 1.0)
        expected = (np.exp(np.maximum(np.tanh(xv * 2.0 + yv), 0.0) - 0.25)
                    / (np.abs(yv) + 1.0))
        _same(out.numpy(), expected)

    def test_shared_subexpression(self):
        xv = np.linspace(-2.0, 2.0, 101)
        shared = (nn.tensor(xv) * 3.0).sigmoid()
        out = shared * 2.0 + shared.log()
        e_shared = special.expit(xv * 3.0)
        _same(out.numpy(), e_shared * 2.0 + np.log(e_shared))

    def test_grad_and_no_grad_operands_in_one_op(self):
        base = (nn.tensor([1.0, 2.0, 3.0]) * 2.0).sqrt()
        w = nn.tensor([0.5, 0.5, 0.5], requires_grad=True)
        loss = (base * w).sum()
        loss.backward()
        expected_base = np.sqrt(np.array([1.0, 2.0, 3.0]) * 2.0)
        _same(loss.numpy(), (expected_base * 0.5).sum())
        _same(w.grad, expected_base)
        assert base.grad is None

    def test_int_division_promotes_to_float64(self):
        iv = np.array([1, 2, 3], dtype=np.int64)
        out = nn.tensor(iv) / 2
        assert out.dtype == np.float64
        _same(out.numpy(), iv / 2)

    def test_comparisons_return_ndarrays(self):
        xv, yv = np.array([1.0, 5.0]), np.array([3.0, 3.0])
        mask = (nn.tensor(xv) * 2.0) > nn.tensor(yv)
        assert isinstance(mask, np.ndarray)
        _same(mask, xv * 2.0 > yv)
        assert (nn.tensor(2.0) * 3.0).item() == 6.0

    def test_clone_is_a_copy(self):
        x = nn.tensor([1.0, 2.0])
        c = x.clone()
        c.data[0] = 99.0
        _same(x.numpy(), np.array([1.0, 2.0]))
        _same(c.numpy(), np.array([99.0, 2.0]))

    def test_clone_passes_the_gradient(self):
        x = nn.tensor([1.0, 2.0], requires_grad=True)
        (x.clone() * 3.0).sum().backward()
        _same(x.grad, np.array([3.0, 3.0]))

    def test_squeeze_unsqueeze(self):
        xv = np.arange(6.0).reshape(2, 1, 3)
        y = (nn.tensor(xv) * 2.0).squeeze(1).unsqueeze(0)
        _same(y.numpy(), np.expand_dims(np.squeeze(xv * 2.0, 1), 0))

    def test_reshape_and_transpose(self):
        xv = np.arange(24.0).reshape(2, 3, 4)
        y = (nn.tensor(xv) + 1.0).reshape(4, 6).transpose(1, 0)
        assert (y.shape, y.ndim, y.size) == ((6, 4), 2, 24)
        _same(y.numpy(), (xv + 1.0).reshape(4, 6).T)
        x = nn.tensor(xv)
        _same(x.reshape(2, -1).numpy(), xv.reshape(2, -1))
        _same(x.transpose(2, 0, 1).transpose(1, 2, 0).numpy(), xv)
        _same(x.transpose((0, 1, 2)).numpy(), xv)

    def test_no_grad_module_forward_matches_numpy(self):
        net = nn.Linear(4, 3, rng=np.random.default_rng(1))
        xv = np.random.default_rng(3).normal(size=(5, 4))
        with nn.no_grad():
            out = net(nn.tensor(xv)).tanh()
        w, b = net.weight.numpy(), net.bias.numpy()
        _same(out.numpy(), np.tanh(xv @ w.T + b))


class TestInPlaceWritesAfterAnOp:
    """A gradient-free result keeps its values when an input is mutated."""

    def test_copy_into_an_input(self):
        x = nn.tensor(np.ones(3))
        y = x * 2.0
        x.copy_(np.zeros(3))
        _same(y.numpy(), np.full(3, 2.0))
        _same(x.numpy(), np.zeros(3))

    def test_in_place_parameter_update(self):
        p = nn.Parameter(np.array([1.0, 2.0, 3.0]))
        with nn.no_grad():
            y = p * 2.0 + 1.0
        p.data -= 0.5
        _same(y.numpy(), np.array([3.0, 5.0, 7.0]))
        _same(p.numpy(), np.array([0.5, 1.5, 2.5]))

    def test_chain_computed_before_an_optimizer_step(self):
        p = nn.Parameter(np.array([1.0, -1.0]))
        with nn.no_grad():
            snapshot = (p * 3.0).tanh()
        loss = (p ** 2).sum()
        loss.backward()
        nn.SGD([p], lr=0.1).step()
        _same(snapshot.numpy(), np.tanh(np.array([1.0, -1.0]) * 3.0))
