"""Exception types raised by the toolkit."""


class DeflabError(Exception):
    """Base class for all toolkit errors."""


class GrammarError(DeflabError):
    """Presentation text does not conform to the grammar.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LimitExceeded(DeflabError):
    """An enumeration budget (cosets, nodes, group order) ran out."""


class InvalidQuotient(DeflabError):
    """The supplied finite group is not a quotient of the presented group."""


class IncompatibleRestriction(DeflabError):
    """Subgroup/quotient pair does not satisfy N <= H <= G."""


class NonPrimeModulus(DeflabError):
    """A mod-p operation was asked for a composite modulus."""


class ModulusTooLarge(DeflabError):
    """A mod-p operation was asked for p >= 2^64, where primality is not certified."""


class InternalCheckFailed(DeflabError):
    """A load-bearing self-check failed (raised, not asserted, so -O keeps it)."""


class ZeroWitness(DeflabError):
    """A kernel witness must be a non-zero tuple."""


class WitnessNotInKernel(DeflabError):
    """The witness fails the boundary-map kernel test over the quotient."""


class SeparationExhausted(DeflabError):
    """No normal subgroup within budget separates the support set."""


class OrderCapExceeded(DeflabError):
    """Finite group too large for the requested cohomology computation."""


class NonNormalSubgroup(DeflabError):
    """Operation requires a normal subgroup record."""


class InvalidCertificate(DeflabError):
    """An asphericity certificate failed validation."""
