"""Dilated convolutional transformer for frame-wise engagement regression."""

__version__ = "0.1.0"

from .tensor import Tensor, no_grad, linear, cat  # noqa: F401
from .metrics import ccc, ccc_loss, magnitude_ccc, CccResult  # noqa: F401
