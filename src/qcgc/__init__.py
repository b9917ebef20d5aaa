"""Symmetric q-calculus and q-deformed angular momentum coupling.

Public surface: exact half-integer labels, the precision-carrying
:class:`QContext`, q-number primitives, terminating q-hypergeometric
series, sparse representation matrices with projection-operator oracles,
Clebsch-Gordan closed forms and the q-Hahn polynomial family.
"""

from .halfint import HalfInt, halfint, halfint_range
from .qcore import (
    QContext,
    QDomainError,
    q_binomial,
    q_factorial,
    q_gamma_classical,
    q_gamma_tilde,
    q_pochhammer,
    qnum,
)
from .qhyper import (
    BasicSeriesSpec,
    HyperSeriesSpec,
    SeriesIllPosed,
    eval_basic,
    eval_terminating,
)
from .cgc import CgcKey, CgcValue, admissible_keys, compute, selection_rules
from .qhahn import (
    HahnParams,
    cgc_from_hahn,
    delta_x_half,
    gram_entry,
    hahn_difference_residual,
    hahn_eval,
    hahn_norm_sq,
    hahn_ttrr_residual,
    hahn_weight,
    lattice_x,
)

__all__ = [
    "HalfInt",
    "halfint",
    "halfint_range",
    "QContext",
    "QDomainError",
    "q_binomial",
    "q_factorial",
    "q_gamma_classical",
    "q_gamma_tilde",
    "q_pochhammer",
    "qnum",
    "BasicSeriesSpec",
    "HyperSeriesSpec",
    "SeriesIllPosed",
    "eval_basic",
    "eval_terminating",
    "CgcKey",
    "CgcValue",
    "admissible_keys",
    "compute",
    "selection_rules",
    "HahnParams",
    "cgc_from_hahn",
    "delta_x_half",
    "gram_entry",
    "hahn_difference_residual",
    "hahn_eval",
    "hahn_norm_sq",
    "hahn_ttrr_residual",
    "hahn_weight",
    "lattice_x",
]

__version__ = "0.1.0"
