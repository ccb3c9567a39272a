"""Elliptic divisibility sequences over prime fields and their character sums.

Layers, bottom up:

- :mod:`edschar.field`    arithmetic in F_p, quadratic/order-d characters
- :mod:`edschar.curve`    short Weierstrass groups, orders, group structure
- :mod:`edschar.eds`      the sequence psi_n(P): evaluators and identities
- :mod:`edschar.symbolic` coefficient-space division polynomials (oracle)
- :mod:`edschar.charsum`  character windows, complete/incomplete sums, bounds
- :mod:`edschar.harness`  seeded sweeps, scans, benchmarks (CLI backend)
"""

from .charsum import (
    BiasReport,
    ComplexSum,
    WeilCheckReport,
    averaged_spectrum,
    bias_report,
    chi_period,
    chi_window,
    complete_envelope,
    complete_spectrum,
    complete_sum,
    incomplete_envelope,
    incomplete_sum,
    order_d_period,
    order_d_sums,
    small_character_subgroups,
    spectrum_err_bound,
    subgroup_mask,
    weil_degree,
    weil_sum_check,
)
from .curve import (
    EllipticCurve,
    GroupStructure,
    Point,
    curve_order,
    enumerate_points,
    group_structure,
    point_order,
)
from .eds import (
    EdsView,
    PsiEvaluator,
    SequencePeriod,
    psi_sequence,
    psi_window,
    recurrence_residual,
    sequence_period,
    verify_index_product,
    verify_shift_identity,
    x_only_psi,
)
from .field import PrimeField, divisors, factorize, field, is_probable_prime, primes_in
from .symbolic import division_poly_tower, psi_symbolic

__version__ = "0.1.0"

__all__ = [
    "BiasReport",
    "ComplexSum",
    "EdsView",
    "EllipticCurve",
    "GroupStructure",
    "Point",
    "PrimeField",
    "PsiEvaluator",
    "SequencePeriod",
    "WeilCheckReport",
    "averaged_spectrum",
    "bias_report",
    "chi_period",
    "chi_window",
    "complete_envelope",
    "complete_spectrum",
    "complete_sum",
    "curve_order",
    "division_poly_tower",
    "divisors",
    "enumerate_points",
    "factorize",
    "field",
    "group_structure",
    "incomplete_envelope",
    "incomplete_sum",
    "is_probable_prime",
    "order_d_period",
    "order_d_sums",
    "point_order",
    "primes_in",
    "psi_sequence",
    "psi_symbolic",
    "psi_window",
    "recurrence_residual",
    "sequence_period",
    "small_character_subgroups",
    "spectrum_err_bound",
    "subgroup_mask",
    "verify_index_product",
    "verify_shift_identity",
    "weil_degree",
    "weil_sum_check",
    "x_only_psi",
    "__version__",
]
