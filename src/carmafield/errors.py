"""Exception hierarchy.

Two branches matter for the command line front end: ``ValidationError``
(rejected inputs, exit code 1) and ``NumericError`` (a computation that
could not be carried out reliably, exit code 2). I/O failures surface as
the interpreter's ``OSError`` and map to exit code 3.
"""


class CarmaFieldError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CarmaFieldError):
    """Input or precondition violation."""


class NumericError(CarmaFieldError):
    """A numerical procedure failed or would be unreliable."""


# -- model -----------------------------------------------------------------

class InvalidSpec(ValidationError):
    """Model parameters violate a structural invariant."""


class NonConjugateSet(ValidationError):
    """An eigenvalue list is not closed under complex conjugation."""


class DuplicateEigenvalue(ValidationError):
    """Two eigenvalues of one axis coincide (or nearly so)."""


class IllConditionedVandermonde(NumericError):
    """A closed form that must be real has an imaginary residue above tolerance."""


# -- simulate ---------------------------------------------------------------

class GridOutsideTruncation(ValidationError):
    """The requested lattice does not fit inside the truncation box."""


class KernelArrayOverflow(ValidationError):
    """The discretized kernel array would exceed the memory budget."""


# -- estimate ---------------------------------------------------------------

class LagOutOfRange(ValidationError):
    """A requested lag exceeds the extent of the observed lattice."""


class MixedLagSets(ValidationError):
    """Model selection requires fits sharing one lag set."""


class SingularDesign(NumericError):
    """The weighted Jacobian normal matrix is numerically singular."""


# -- identify ---------------------------------------------------------------

class SingularHankel(NumericError):
    """The Hankel matrix of variogram differences has rank below the order."""


class UnstableRoot(NumericError):
    """A recovered root lies on or outside the unit circle, or is real and not positive."""


class NegativeVarianceEstimate(NumericError):
    """The recovered monomial matrix b_i b_j has no positive eigenvalue."""


class InconsistentMonomials(NumericError):
    """The recovered monomials b_i b_j are not those of one vector b."""


class RankDeficient(NumericError):
    """The monomial system has lower rank than recovery requires."""


# -- io / cli ----------------------------------------------------------------

class MalformedHeader(ValidationError):
    """A grid file header could not be parsed."""


class LengthMismatch(ValidationError):
    """A grid file holds a different number of values than declared."""


class NonFiniteValue(ValidationError):
    """A grid file contains NaN or infinity."""


class ZeroVariance(ValidationError):
    """Data with no variance: normalization requested, or a fit to an all-zero variogram."""


class ConfigError(ValidationError):
    """The run configuration is incomplete or inconsistent."""
