"""Exact sequential optimization numbers.

Triangles of masked permutation-record counts (the mask "01" gives the
unsigned Stirling numbers of the first kind), their generating
polynomials, closed-form upper bounds with tail and ratio checks, and
exhaustive ground-truth oracles.  All arithmetic is exact.
"""

from .bounds import (
    BoundReport,
    TailCheck,
    exp_bound_holds,
    h_dot,
    mirrored_tail,
    ocmax,
    ocmax_row,
    ratio_report,
    tail_probability,
    tail_threshold,
    upper_ratio,
)
from .numbers import (
    IntPolynomial,
    Mask,
    SubsetLimitError,
    Triangle,
    explicit_value,
    f_weight,
    falling_poly,
    g_weight,
    poly_zeros,
    rising_poly,
    stirling_ref,
    triangle,
    value,
)
from .oracle import (
    BudgetError,
    Histogram,
    color_boards_count,
    histogram,
    optimization_set_bruteforce,
    prefix_min_records,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetError",
    "Histogram",
    "IntPolynomial",
    "Mask",
    "SubsetLimitError",
    "TailCheck",
    "Triangle",
    "color_boards_count",
    "exp_bound_holds",
    "explicit_value",
    "f_weight",
    "falling_poly",
    "g_weight",
    "h_dot",
    "histogram",
    "mirrored_tail",
    "ocmax",
    "ocmax_row",
    "optimization_set_bruteforce",
    "poly_zeros",
    "prefix_min_records",
    "ratio_report",
    "rising_poly",
    "stirling_ref",
    "tail_probability",
    "tail_threshold",
    "triangle",
    "upper_ratio",
    "value",
]
