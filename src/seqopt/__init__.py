"""Exact sequential optimization numbers.

Triangles of masked permutation-record counts (the mask "01" gives the
unsigned Stirling numbers of the first kind), their generating
polynomials, closed-form upper bounds with tail and ratio checks, and
exhaustive ground-truth oracles.  All arithmetic is exact.
"""

from . import bounds, numbers, oracle
from .bounds import *
from .numbers import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [*bounds.__all__, *numbers.__all__, *oracle.__all__]
