"""Exception hierarchy shared by all modules.

Every error raised deliberately by this package derives from
:class:`HyperPiError`, so callers (in particular the CLI) can distinguish
mathematical/usage failures from genuine bugs.
"""


class HyperPiError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HyperPiError):
    """An argument lies outside the mathematical domain of the operation
    (e.g. the gamma function at a non-positive rational, square root of a
    negative value)."""


class ZeroDenominator(HyperPiError):
    """A denominator that must be nonzero vanished for the given inputs."""


class ZeroLeadParameter(HyperPiError):
    """The leading parameter of a very-well-poised series is zero, so the
    series prefactors are undefined."""


class SchemaError(HyperPiError):
    """A catalog file does not conform to the documented JSON schema."""


class InvariantViolation(HyperPiError):
    """A structural invariant of a loaded object fails (e.g. a lower
    factorial-quotient entry is a non-positive integer)."""


class NoNonzeroTerm(HyperPiError):
    """No index with simultaneously nonzero terms could be found when
    aligning two series."""


class NormalizationMismatch(HyperPiError):
    """The normalized series produced from generator parameters fails to
    reproduce the generator terms exactly."""


class RepeatedPole(HyperPiError):
    """Two parameter pairings of a series summand name the same pole, so
    the summand is not a sum of simple fractions c / (k + pole)."""


class RangeError(HyperPiError):
    """A requested quantity exceeds the documented supported range."""


class UnsupportedLhs(HyperPiError):
    """The closed form attached to a catalog entry cannot be used for the
    requested computation (e.g. solving for pi when gamma factors are
    present)."""


class NoMatch(HyperPiError):
    """A series could not be matched against its claimed generator."""


class ZeroTerm(HyperPiError):
    """A term that must be nonzero (e.g. for a ratio) is zero."""


class UsageError(HyperPiError):
    """Invalid command-line arguments or an unknown identifier."""
