"""Exception types shared across the package."""


class BollobasError(Exception):
    """Base class for all domain errors raised by this package."""


class ArityError(BollobasError):
    """Tuple arity is invalid for the operation (e.g. d < 2, or d != 3)."""


class RangeError(BollobasError):
    """An element lies outside the ground set {1, ..., n}, or n itself is out of range."""


class OverlapError(BollobasError):
    """Two parts of one tuple share an element.

    Attributes p, q (1-based part indices) and element identify the first
    collision found.
    """

    def __init__(self, p: int, q: int, element: int):
        super().__init__(f"parts {p} and {q} overlap on element {element}")
        self.p = p
        self.q = q
        self.element = element


class MismatchError(BollobasError):
    """Two tuples (or a tuple and a family) disagree on ground set size or arity."""


class DomainError(BollobasError):
    """Arguments are outside the mathematical domain of the operation."""


class SizeError(BollobasError):
    """Input exceeds a feasibility threshold (enumeration, permutation size, budget)."""


class DimensionError(BollobasError):
    """Vectors or matrices have incompatible ambient dimensions."""


class UniformityError(BollobasError):
    """A family required to have one common type does not."""


class RetriesExhausted(BollobasError):
    """Random sampling failed to satisfy the constraints within the retry cap.

    Over the rationals a constraint set coming from a valid family fails with
    probability zero per draw, so exhaustion signals a bug or degenerate input.
    """


class FormatError(BollobasError):
    """Malformed JSON input (missing field, wrong shape, bad rational string)."""


class IndexRangeError(BollobasError, IndexError):
    """A stage, gap or tuple index lies outside its valid range."""
