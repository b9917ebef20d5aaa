"""Symmetric q-calculus and q-deformed angular momentum coupling.

Public surface: exact half-integer labels, the precision-carrying
:class:`QContext`, q-number primitives, terminating q-hypergeometric
series, sparse representation matrices with projection-operator oracles,
Clebsch-Gordan closed forms and the q-Hahn polynomial family.

``import qcgc`` loads only the coupling path: ``halfint``, ``qcore``,
``qhyper`` and ``cgc``.  The submodules ``qhahn``, ``repsu`` and
``verify``, and the q-Hahn names below, load on first use.
"""

import importlib

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

# loaded on first use (PEP 562); __all__ lists the q-Hahn names last
_HAHN_NAMES = frozenset(__all__[__all__.index("HahnParams"):])


def __getattr__(name):
    if name in ("qhahn", "repsu", "verify"):
        return importlib.import_module(f".{name}", __name__)
    if name in _HAHN_NAMES:
        return getattr(importlib.import_module(".qhahn", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
