"""Exception hierarchy shared by all modules."""


class WGelfandError(Exception):
    """Base class for library errors."""


class InputSpecError(WGelfandError):
    """A JSON input spec is malformed or inconsistent."""


class SizeLimitError(WGelfandError):
    """Generator closure exceeded the configured element cap."""


class NotAutomorphismError(WGelfandError):
    """A permutation failed the homomorphism property; carries a witness pair."""

    def __init__(self, x: int, y: int):
        self.witness = (x, y)
        super().__init__(f"not an automorphism: fails on pair ({x}, {y})")


class NotInvolutiveError(WGelfandError):
    """An automorphism required to be involutive is not."""


class BiInvarianceError(WGelfandError):
    """A weight required to be K-bi-invariant is not; carries a witness pair."""

    def __init__(self, x: int, y: int):
        self.witness = (x, y)
        super().__init__(
            f"weight is not K-bi-invariant: elements {x} and {y} share a "
            f"double coset but carry different values"
        )


class PreconditionError(WGelfandError):
    """A documented operation precondition does not hold."""


class NotGelfandError(WGelfandError):
    """The bi-invariant algebra is not commutative; carries a witness triple."""

    def __init__(self, i: int, j: int, x: int):
        self.witness = (i, j, x)
        super().__init__(
            f"algebra is noncommutative: indicators {i}, {j} differ at element {x}"
        )


class DegenerateSpectrumError(WGelfandError):
    """The spectral step failed: the joint spectrum split into fewer than d
    lines, a character failed multiplicativity, or the structure constants
    overflowed."""


class NotMultiplierError(WGelfandError):
    """An operator claimed to be a multiplier fails the defining identity."""
