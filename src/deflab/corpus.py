"""Built-in presentation corpus used by tests and the CLI.

Each entry carries the presentation text, an asphericity flag for standard
complexes known to be aspherical (surface groups, products of free groups:
the product flags are asserted manually here, they are not one-relator so
nothing validates them automatically), and notes on known exact values.
"""

from __future__ import annotations

from .presentation import parse_presentation

CORPUS = {
    "free1": {
        "text": "< a | >",
        "aspherical": False,
        "notes": "infinite cyclic; deficiency 1",
    },
    "free2": {
        "text": "< a, b | >",
        "aspherical": False,
        "notes": "free of rank 2; deficiency 2",
    },
    "free3": {
        "text": "< a, b, c | >",
        "aspherical": False,
        "notes": "free of rank 3; deficiency 3",
    },
    "torus": {
        "text": "< a, b | [a, b] >",
        "aspherical": True,
        "notes": "Z^2; chi = 0, deficiency 1; every finite cover is a torus",
    },
    "genus2": {
        "text": "< a, b, c, d | [a, b] [c, d] >",
        "aspherical": True,
        "notes": "genus-2 surface group; chi = -2, deficiency 3",
    },
    "genus3": {
        "text": "< a, b, c, d, e, f | [a, b] [c, d] [e, f] >",
        "aspherical": True,
        "notes": "genus-3 surface group; chi = -4, deficiency 5",
    },
    "f2xf2": {
        "text": "< a, b, c, d | [a, c], [a, d], [b, c], [b, d] >",
        "aspherical": True,
        "notes": (
            "product of two rank-2 free groups; the product complex is "
            "aspherical with chi = 1, so the Euler-characteristic value of "
            "the deficiency is 1 - chi = 0, achieved by this presentation. "
            "A frequently quoted closed form -(n-1)(m-1) differs from the "
            "Euler-characteristic value 1-(n-1)(m-1) by one; this toolkit "
            "computes via the Euler characteristic."
        ),
    },
    "trefoil": {
        "text": "< a, b | a^2 b^-3 >",
        "aspherical": False,
        "notes": (
            "trefoil knot group; one-relator, relator not a proper power, "
            "so the one-relator certificate applies automatically; b1 = 1, "
            "deficiency 1. The one-relator closed form d-2 on d generators "
            "differs from the Euler-characteristic value d-1 by one; this "
            "toolkit computes via the Euler characteristic."
        ),
    },
    "dup_relator": {
        "text": "< a, b | b^3, b^3 >",
        "aspherical": False,
        "notes": "duplicate-relator gadget for drop certificates; Z * Z/3",
    },
    "redundant": {
        "text": "< a, b, c | [a, b], [a, c], [a, b] >",
        "aspherical": False,
        "notes": (
            "deliberately redundant presentation of Z x F2; duplicate "
            "removal leaves two relators, so no certificate applies and "
            "the interval stays honestly non-degenerate"
        ),
    },
    "c2": {"text": "< a | a^2 >", "aspherical": False, "notes": "cyclic of order 2"},
    "c3": {"text": "< a | a^3 >", "aspherical": False, "notes": "cyclic of order 3"},
    "c4": {"text": "< a | a^4 >", "aspherical": False, "notes": "cyclic of order 4"},
    "c5": {"text": "< a | a^5 >", "aspherical": False, "notes": "cyclic of order 5"},
    "c2xc2": {
        "text": "< a, b | a^2, b^2, [a, b] >",
        "aspherical": False,
        "notes": "Klein four-group",
    },
    "q8": {
        "text": "< a, b | a^4, a^2 b^-2, b^-1 a b a >",
        "aspherical": False,
        "notes": "quaternion group of order 8",
    },
    "d4": {
        "text": "< r, s | r^4, s^2, [r, s] r^2 >",
        "aspherical": False,
        "notes": "dihedral group of order 8 (r s r s = s r^-1 ... r^2 form)",
    },
}


def corpus_presentation(name):
    entry = CORPUS[name]
    return parse_presentation(entry["text"])

