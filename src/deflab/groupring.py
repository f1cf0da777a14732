"""Integer group-ring elements with free-group words as keys, and the free
differential calculus on relators.

Words stay symbolic; identification under a quotient happens only when an
element is pushed through a projection (see chain.push_to_quotient), so one
element can be pushed to many quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .words import Word


@dataclass(frozen=True)
class GroupRingElement:
    """Finite formal sum of words with nonzero integer coefficients."""

    terms: tuple = ()  # sorted tuple of (Word, coeff)

    @staticmethod
    def from_dict(d):
        items = [(w, c) for w, c in d.items() if c != 0]
        items.sort(key=lambda wc: wc[0].order_key())
        return GroupRingElement(tuple(items))

    @staticmethod
    def zero():
        return GroupRingElement(())

    @staticmethod
    def one():
        return GroupRingElement(((Word(), 1),))

    @staticmethod
    def of_word(w, coeff=1):
        return GroupRingElement.from_dict({w: coeff})

    def as_dict(self):
        return dict(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        d = self.as_dict()
        for w, c in other.terms:
            d[w] = d.get(w, 0) + c
        return GroupRingElement.from_dict(d)

    def __neg__(self):
        return GroupRingElement(tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return GroupRingElement.zero()
            return GroupRingElement(tuple((w, c * other) for w, c in self.terms))
        d = {}
        for u, a in self.terms:
            for v, b in other.terms:
                w = u * v
                d[w] = d.get(w, 0) + a * b
        return GroupRingElement.from_dict(d)

    __rmul__ = __mul__

    def support(self):
        return tuple(w for w, _ in self.terms)

    def coefficient_gcd(self):
        g = 0
        for _, c in self.terms:
            g = gcd(g, abs(c))
        return g

    def augmentation(self):
        return sum(c for _, c in self.terms)


def fox_derivative(relator, gen):
    """Free derivative of a freely reduced word by one generator.

    Satisfies d(x)/dx = 1, d(y)/dx = 0, the product rule
    d(uv)/dx = du/dx + u dv/dx, and d(x^-1)/dx = -x^-1.
    """
    d = {}
    prefix = ()
    for g, s in relator:
        if g == gen:
            if s == 1:
                w = Word(prefix)
                d[w] = d.get(w, 0) + 1
            else:
                w = Word(prefix + ((g, -1),))
                d[w] = d.get(w, 0) - 1
        prefix = prefix + ((g, s),)
    return GroupRingElement.from_dict(d)
