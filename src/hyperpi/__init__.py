"""Exact verification of well-poised hypergeometric identities and
arbitrary-precision certification of a catalog of pi formulas.

The package has four layers:

* exact rational verification of terminating identities
  (:mod:`hyperpi.dougall`, :mod:`hyperpi.inversion`),
* arbitrary-precision real arithmetic and special functions on Python
  integers: binary floating point, Gamma at rational arguments by
  Karatsuba's series through the one binary-splitting engine, closed-form
  expressions (:mod:`hyperpi.bigfloat`, :mod:`hyperpi.gammafn`,
  :mod:`hyperpi.constexpr`, :mod:`hyperpi.splitting`),
* a machine-readable catalog of pi formulas together with series
  summation and certification (:mod:`hyperpi.catalog`, :mod:`hyperpi.engine`,
  :mod:`hyperpi.factorials`),
* a command-line front end (:mod:`hyperpi.cli`).
"""

__version__ = "0.1.0"

from hyperpi.errors import (
    DomainError,
    HyperPiError,
    InvariantViolation,
    NoMatch,
    NoNonzeroTerm,
    NormalizationMismatch,
    RangeError,
    RepeatedPole,
    SchemaError,
    UnsupportedLhs,
    UsageError,
    ZeroDenominator,
    ZeroLeadParameter,
    ZeroTerm,
)

__all__ = [
    "__version__",
    "HyperPiError",
    "DomainError",
    "ZeroDenominator",
    "ZeroLeadParameter",
    "SchemaError",
    "InvariantViolation",
    "NoNonzeroTerm",
    "NormalizationMismatch",
    "RepeatedPole",
    "RangeError",
    "UnsupportedLhs",
    "NoMatch",
    "ZeroTerm",
    "UsageError",
]
