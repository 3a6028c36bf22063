"""``repro.nn`` — a NumPy-backed substitute for PyTorch.

Provides reverse-mode autodiff tensors, a module system, functional ops,
initializers, optimizers and data loading with an API surface close enough
to ``torch`` that the TyXe-style listings from the paper translate almost
verbatim.
"""

from . import backends
from . import functional
from . import init
from . import models
from .functional import sample_ndim, sample_sizes, vectorized_samples
from .data import DataLoader, Dataset, Subset, TensorDataset, random_split
from .modules import (AdaptiveAvgPool2d, AvgPool2d, BatchNorm2d, Conv2d, Dropout,
                      Flatten, Identity, Linear, MaxPool2d, Module, ModuleList,
                      ReLU, Sequential, Sigmoid, Softplus, Tanh)
from .optim import Adam, ExponentialLR, Optimizer, SGD, StepLR
from .tensor import (Parameter, Tensor, arange, cat, concatenate, enable_grad,
                     eye, full, is_grad_enabled, maximum, minimum, no_grad, ones,
                     ones_like, rand, randn, stack, tensor, where, zeros, zeros_like)

__all__ = [
    # tensor
    "Tensor", "Parameter", "no_grad", "enable_grad", "is_grad_enabled",
    "tensor", "zeros", "ones", "zeros_like", "ones_like", "full", "arange",
    "randn", "rand", "eye", "stack", "concatenate", "cat", "where", "maximum",
    "minimum",
    # modules
    "Module", "Sequential", "ModuleList", "Linear", "Conv2d", "BatchNorm2d",
    "MaxPool2d", "AvgPool2d", "AdaptiveAvgPool2d", "Flatten", "ReLU", "Tanh",
    "Sigmoid", "Softplus", "Identity", "Dropout",
    # optim
    "Optimizer", "SGD", "Adam", "StepLR", "ExponentialLR",
    # data
    "Dataset", "TensorDataset", "Subset", "DataLoader", "random_split",
    # vectorized-sample execution mode
    "sample_ndim", "sample_sizes", "vectorized_samples",
    # submodules
    "backends", "functional", "init", "models",
]
