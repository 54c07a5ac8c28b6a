"""Exact mixed volumes of boxes, hyperbolicity checks, and violation certificates."""

__version__ = "0.1.0"
