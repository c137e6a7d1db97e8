"""Lattices from number fields: exact polynomial arithmetic, canonical
embeddings, size measures, short-vector search, and an exhaustive hunt for
small normalised square sizes.
"""

from .intpoly import IntPolynomial, parse_polynomial

__all__ = ["IntPolynomial", "parse_polynomial"]
__version__ = "0.1.0"
