"""Exception taxonomy shared across the package.

Everything raised on purpose derives from CubicExtError, so callers (and the
command-line front end) can tell deliberate precondition failures apart from
genuine bugs.  The CLI maps these onto its exit codes; see cli.py.
"""


class CubicExtError(Exception):
    """Base class for all deliberate errors raised by this package."""


# --- construction / validation ------------------------------------------

class NotPrime(CubicExtError):
    """A field characteristic was not a prime number."""


class SizeExceeded(CubicExtError):
    """An input exceeded a documented size bound."""


class FieldMismatch(CubicExtError):
    """Two operands belong to different fields."""


class DomainMismatch(CubicExtError):
    """Two operands belong to different coefficient domains."""


class WrongCharacteristic(CubicExtError):
    """The operation is only defined in a different characteristic."""


class WrongFieldClass(CubicExtError):
    """The base field does not satisfy the congruence the operation needs."""


# --- arithmetic ----------------------------------------------------------

class DivisionByZero(CubicExtError):
    """Division by the zero element."""


class ZeroPolynomial(CubicExtError):
    """The zero polynomial where a nonzero one is required."""


class ZeroDenominator(CubicExtError):
    """A rational function was built with denominator zero."""


class ZeroInput(CubicExtError):
    """The zero function where a nonzero one is required."""


# --- places and valuations ----------------------------------------------

class NegativeValuation(CubicExtError):
    """Tried to reduce a function with a pole at the place."""


class PoleHit(CubicExtError):
    """A fractional-linear map was evaluated at its pole."""


class SingularMatrix(CubicExtError):
    """A zero determinant: a fractional-linear map, or GF(p)-linear images
    that are not a basis (Field._inverse_columns)."""


# --- cubic classification ------------------------------------------------

class ReducibleInput(CubicExtError):
    """An irreducible cubic was required."""


class DegenerateParameter(CubicExtError):
    """A parameter value for which the requested transformation degenerates."""


class ConstantExtension(CubicExtError):
    """The extension is a constant-field extension; the quantity is undefined."""


class NonIntegralGenus(CubicExtError):
    """Internal consistency failure: ramification data did not sum to an integer."""


# --- expression parsing ---------------------------------------------------

class ParseError(CubicExtError):
    """Malformed expression text.  Carries the 0-based offset of the fault."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeError(CubicExtError):
    """A cubic in X was required (degree exactly 3, X-free coefficients)."""


class UnboundSymbol(CubicExtError):
    """A symbol not available in the current parsing context."""
