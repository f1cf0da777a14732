"""Freely reduced words over indexed generators.

A letter is a pair ``(generator_index, sign)`` with sign +1 or -1.  Words are
immutable; every constructor path freely reduces, so two equal group elements
built from the same letter sequence compare equal as objects.

A word derived from a reduced word by an operation that keeps it reduced (a
cyclic reduction, a rotation of a cyclically reduced word, an inverse, or a
renaming that keeps distinct generators distinct) is not reduced again:
`Word._reduced` wraps such letters as they are.  It never takes
caller-supplied letters; those go through `Word(...)`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _reduce_letters(letters):
    out = []
    for g, s in letters:
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s!r}")
        if not isinstance(g, int) or g < 0:
            raise ValueError(f"generator index must be a nonnegative int, got {g!r}")
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the identity is the empty word."""

    letters: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce_letters(self.letters))

    @classmethod
    def _reduced(cls, letters):
        """A Word of letters already known to be freely reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word._reduced(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def max_generator(self):
        """Largest generator index occurring, or -1 for the identity."""
        return max((g for g, _ in self.letters), default=-1)

    def exponent_sum(self, gen):
        return sum(s for g, s in self.letters if g == gen)

    def cyclically_reduced(self):
        ls = self.letters
        i, j = 0, len(ls) - 1
        while i < j and ls[i][0] == ls[j][0] and ls[i][1] == -ls[j][1]:
            i, j = i + 1, j - 1
        return self if i == 0 else Word._reduced(ls[i : j + 1])

    def order_key(self):
        """Sort key: letter by letter, with a < a^-1 < b < b^-1 < ..."""
        return tuple((g, 0 if s == 1 else 1) for g, s in self.letters)

    def canonical_rotation(self):
        """Least rotation of a cyclically reduced word under order_key."""
        w = self.cyclically_reduced()
        n = len(w.letters)
        if n == 0:
            return w
        key = w.order_key()
        best = min(range(n), key=lambda i: key[i:] + key[:i])
        return w if best == 0 else Word._reduced(w.letters[best:] + w.letters[:best])

    def is_proper_power(self):
        """True when the letter sequence is a repetition u^m with m >= 2."""
        n = len(self.letters)
        for period in range(1, n):
            if n % period:
                continue
            if all(self.letters[i] == self.letters[i % period] for i in range(n)):
                return True
        return False


def commutator(u, v):
    return u * v * u.inverse() * v.inverse()
