"""Likelihood-ratio tests for degree and paired-comparison models."""

__version__ = "0.1.0"
