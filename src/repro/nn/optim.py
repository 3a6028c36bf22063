"""Gradient-based optimizers mirroring ``torch.optim``.

These operate on iterables of :class:`repro.nn.Tensor` parameters with
populated ``.grad`` fields.  The Pyro-style optimizer wrappers used by
:class:`repro.core.bnn.VariationalBNN` live in :mod:`repro.ppl.optim` and are
built on top of these classes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

import numpy as np

from .tensor import Tensor, _elementwise

__all__ = ["Optimizer", "SGD", "Adam", "StepLR", "ExponentialLR"]


class Optimizer:
    """Base optimizer holding a list of parameters and per-parameter state."""

    def __init__(self, params: Iterable[Tensor], defaults: Dict[str, float]) -> None:
        self.param_groups: List[Dict] = [{"params": list(params), **defaults}]
        if not self.param_groups[0]["params"]:
            raise ValueError("optimizer got an empty parameter list")
        self.state: Dict[int, Dict] = {}

    @property
    def params(self) -> List[Tensor]:
        return [p for group in self.param_groups for p in group["params"]]

    def add_param_group(self, group: Dict) -> None:
        base = {k: v for k, v in self.param_groups[0].items() if k != "params"}
        base.update(group)
        self.param_groups.append(base)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        for group in self.param_groups:
            group["lr"] = lr

    def get_lr(self) -> float:
        return self.param_groups[0]["lr"]


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, {"lr": lr, "momentum": momentum, "weight_decay": weight_decay})

    def step(self) -> None:
        for group in self.param_groups:
            lr, momentum, weight_decay = group["lr"], group["momentum"], group["weight_decay"]
            for p in group["params"]:
                if p.grad is None:
                    continue
                grad = p.grad
                if weight_decay:
                    grad = grad + weight_decay * p.data
                if momentum:
                    state = self.state.setdefault(id(p), {})
                    buf = state.get("momentum_buffer")
                    if buf is None:
                        buf = np.zeros_like(p.data)
                        state["momentum_buffer"] = buf
                    buf *= momentum
                    buf += grad
                    grad = buf
                p.data -= lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, {"lr": lr, "betas": betas, "eps": eps,
                                  "weight_decay": weight_decay})

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            beta1, beta2 = group["betas"]
            eps, weight_decay = group["eps"], group["weight_decay"]
            for p in group["params"]:
                if p.grad is None:
                    continue
                grad = p.grad
                if weight_decay:
                    grad = grad + weight_decay * p.data
                state = self.state.setdefault(id(p), {})
                if not state:
                    state["step"] = 0
                    state["exp_avg"] = np.zeros_like(p.data)
                    state["exp_avg_sq"] = np.zeros_like(p.data)
                state["step"] += 1
                m, v = state["exp_avg"], state["exp_avg_sq"]
                m *= beta1
                m += (1 - beta1) * grad
                v *= beta2
                v += (1 - beta2) * grad ** 2
                bias1 = 1 - beta1 ** state["step"]
                bias2 = 1 - beta2 ** state["step"]
                step_size = lr * math.sqrt(bias2) / bias1
                denom = _elementwise("sqrt", [v]) + eps
                p.data -= step_size * m / denom


class StepLR:
    """Decay the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self.base_lr = optimizer.get_lr()
        self.last_epoch = 0

    def step(self) -> None:
        self.last_epoch += 1
        factor = self.gamma ** (self.last_epoch // self.step_size)
        self.optimizer.set_lr(self.base_lr * factor)


class ExponentialLR:
    """Multiply the learning rate by ``gamma`` every epoch."""

    def __init__(self, optimizer: Optimizer, gamma: float) -> None:
        self.optimizer = optimizer
        self.gamma = gamma
        self.base_lr = optimizer.get_lr()
        self.last_epoch = 0

    def step(self) -> None:
        self.last_epoch += 1
        self.optimizer.set_lr(self.base_lr * self.gamma ** self.last_epoch)
