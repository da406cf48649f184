"""Inexact tensor methods (orders 1 and 2) with dynamic inner accuracies."""

__version__ = "0.1.0"
