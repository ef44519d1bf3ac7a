"""Numerical laboratory for quantum Sobolev spaces of Schatten-class operators.

Everything lives on finite models: the phase-space group ``Z_N x Z_N`` acts
on ``C^N`` through a Weyl system, operators transform to functions on the
N^2-point dual, and every norm, inequality, and counterexample becomes a
finite computation with measured constants.
"""

__version__ = "0.1.0"
