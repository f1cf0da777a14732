"""Certified deficiency intervals.

The lower end is always witnessed by a found presentation; the upper end is
b1, which bounds |generators| - |relators| of every presentation of the
group.  An asphericity certificate collapses the interval to 1 - chi of the
certified complex: user-asserted, or granted automatically for one-relator
presentations, given or reached by simplification, whose relator is not a
proper power.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckFailed, InvalidCertificate
from .linalg import rank_over_Q
from .tietze import tietze_simplify

CERT_NONE = "none"
CERT_ASSERTED = "aspherical-asserted"
CERT_ONE_RELATOR = "aspherical-validated-one-relator"


@dataclass(frozen=True)
class DeficiencyInterval:
    lower: int
    upper: int
    certificate: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise InternalCheckFailed(
                f"interval lower bound {self.lower} exceeds its upper bound {self.upper}"
            )

    @property
    def is_point(self):
        return self.lower == self.upper

    def to_json(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "certificate": self.certificate,
        }


def first_betti_number(p):
    """b1 of the presented group: generators minus rational relator rank."""
    return p.num_generators - rank_over_Q(p.abelianized_relator_matrix())


def resolve_certificate(p, aspherical):
    """Certificate level for a presentation.

    aspherical=True asserts the flag (validated for one-relator input, where
    a proper-power relator is rejected); with no flag, one-relator
    presentations with a non-proper-power relator are granted automatically.
    """
    one_relator = p.num_relators == 1
    if one_relator:
        proper = p.relators[0].is_proper_power()
        if aspherical and proper:
            raise InvalidCertificate(
                "one-relator certificate rejected: the relator is a proper power"
            )
        if not proper:
            return CERT_ONE_RELATOR
    if aspherical:
        return CERT_ASSERTED
    return CERT_NONE


def deficiency_interval(p, aspherical=False):
    """Certified interval [lower, upper] for the deficiency of the group.

    lower: best |generators| - |relators| found by simplification.
    upper: b1, replaced by 1 - chi of the certified complex when an
    asphericity certificate applies to p or, failing that, to the
    simplified presentation (then the interval is a point).
    """
    return witnessed_interval(p, aspherical)[0]


def witnessed_interval(p, aspherical=False):
    """`deficiency_interval` and a presentation of the group whose
    |generators| - |relators| is its lower end: p when p carries the
    certificate, else the Tietze simplification of p."""
    certificate = resolve_certificate(p, aspherical)
    simplified = tietze_simplify(p)
    lower = simplified.deficiency_datum()
    certified = p
    if certificate == CERT_NONE:  # simplification can expose a certifiable one-relator form
        certified, certificate = simplified, resolve_certificate(simplified, False)
    if certificate != CERT_NONE:
        value = certified.deficiency_datum()  # 1 - chi of the certified 2-complex
        if lower > value:
            raise InvalidCertificate(
                "certificate contradicts an achieved lower bound; "
                "the complex cannot be aspherical"
            )
        return DeficiencyInterval(lower=value, upper=value, certificate=certificate), certified
    interval = DeficiencyInterval(lower=lower, upper=first_betti_number(p), certificate=certificate)
    return interval, certified
