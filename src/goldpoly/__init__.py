"""goldpoly: exact Goldbach polynomials and their verified properties.

Library layout:

- ``arith``: prime sieve, pair counts, factorization, sieved tables, the
  twin-prime constant
- ``poly``: exact integer polynomials, cyclotomics, rational gcd
- ``modp``: the exact integer convolution, and dense polynomials over F_p
- ``goldbach``: the F_N family, theorem reports, stabilized coefficients,
  summatory and Hardy-Littlewood sweeps
- ``roots``: unit-circle split and Aberth-Ehrlich classification
- ``factor``: degree-pattern irreducibility certificates
- ``cli``: the ``goldpoly`` command
"""

import os

# Importing numpy starts OpenBLAS worker threads, and one of them spins
# for about 0.1 s of CPU.  goldpoly calls no BLAS routine (``roots`` and
# ``modp`` avoid it on purpose), so each process, pool workers included,
# would burn that CPU for nothing.  This must run before numpy is first
# imported; a value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .arith import PrimeTable
from .goldbach import IndicatorSet, TheoremReport, goldbach_polynomial
from .poly import IntPolynomial, cyclotomic

__all__ = [
    "__version__",
    "PrimeTable",
    "IndicatorSet",
    "TheoremReport",
    "goldbach_polynomial",
    "IntPolynomial",
    "cyclotomic",
]
