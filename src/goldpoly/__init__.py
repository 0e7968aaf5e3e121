"""goldpoly: exact Goldbach polynomials and their verified properties.

Library layout:

- ``arith``: prime sieve, pair counts, multiplicative functions, constants
- ``poly``: exact integer polynomials, cyclotomics, rational gcd
- ``modp``: the exact integer convolution, and dense polynomials over F_p
- ``goldbach``: the F_N family, coefficient formulas, theorem reports,
  summatory asymptotics
- ``roots``: unit-circle split and Aberth-Ehrlich classification
- ``factor``: degree-pattern irreducibility certificates
- ``cli``: the ``goldpoly`` command
"""

__version__ = "0.1.0"

from .arith import PrimeTable, sieve
from .goldbach import IndicatorSet, TheoremReport, goldbach_polynomial
from .poly import IntPolynomial, cyclotomic

__all__ = [
    "__version__",
    "PrimeTable",
    "sieve",
    "IndicatorSet",
    "TheoremReport",
    "goldbach_polynomial",
    "IntPolynomial",
    "cyclotomic",
]
