"""Exception hierarchy shared by all modules."""


class WGelfandError(Exception):
    """Base class for library errors."""


class InputSpecError(WGelfandError):
    """A JSON input spec is malformed or inconsistent."""


class SizeLimitError(WGelfandError):
    """A group's order, known in advance or found by generator closure,
    exceeds the element cap `groups.DEFAULT_ELEMENT_CAP`."""


class NotAutomorphismError(WGelfandError):
    """A permutation failed the homomorphism property; carries a witness pair."""

    def __init__(self, x: int, y: int):
        self.witness = (x, y)
        super().__init__(f"not an automorphism: fails on pair ({x}, {y})")


class NotInvolutiveError(WGelfandError):
    """An automorphism is not an involution: theta^2 != id."""


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
    lines, a character failed multiplicativity on the rows S that the
    refinement consumed, two characters' tuples (chi(g))_{g in S} were not
    separated by more than the tolerance, the Fourier table is singular in
    floating point, or a computed value (the spherical functions, its row
    norms, an operator L_h, a symbol, a residual) is not finite."""
