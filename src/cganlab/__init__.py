"""Desk-scale laboratory for label-conditioned GANs.

Dense generator/discriminator pairs over a small reverse-mode autodiff
core, four ways of injecting a condition vector (input concatenation,
all-layer concatenation, per-pixel bilinear pooling, and an information
term from a frozen pretrained classifier), plus a Gaussian Parzen-window
evaluator and binary dataset loaders.
"""

__version__ = "0.2.3"

from .errors import (CganlabError, ConfigError, ContractError, DataError,
                     DimensionError, ParseError)
from .rng import RngStream
from .tensor import AdamHyper, AdamState, Tensor, adam_step, backward

__all__ = [
    "AdamHyper", "AdamState", "CganlabError", "ConfigError", "ContractError", "DataError",
    "DimensionError", "ParseError", "RngStream", "Tensor", "adam_step", "backward",
    "__version__",
]
