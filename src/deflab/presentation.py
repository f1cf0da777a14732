"""Presentations and the text grammar.

Grammar (UTF-8, whitespace insignificant, relators comma separated)::

    presentation := '<' namelist? '|' relatorlist? '>'
    name         := [A-Za-z][A-Za-z0-9_]*
    relator      := term+
    term         := name ('^' signed-int)? | '[' word ',' word ']'

Commutator brackets expand as [x, y] = x y x^-1 y^-1 and may nest.
Relators are stored freely and cyclically reduced, rotated to the
lexicographically least position; empty relators are dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import GrammarError
from .linalg import sparse_row
from .words import Word, commutator

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[+-]?\d+")


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: named generators and relator words."""

    generators: tuple = ()
    relators: tuple = ()

    def __post_init__(self):
        gens = tuple(self.generators)
        if len(set(gens)) != len(gens):
            raise ValueError("generator names must be distinct")
        for name in gens:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad generator name {name!r}")
        rels = []
        for r in self.relators:
            r = r.canonical_rotation()
            if r.max_generator() >= len(gens):
                raise ValueError("relator uses a generator index out of range")
            if r:
                rels.append(r)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", tuple(rels))

    @property
    def num_generators(self):
        return len(self.generators)

    @property
    def num_relators(self):
        return len(self.relators)

    def deficiency_datum(self):
        """|generators| - |relators| of this presentation as stored."""
        return len(self.generators) - len(self.relators)

    def word_to_text(self, w):
        if not w:
            return "1"
        parts = []
        i = 0
        letters = w.letters
        while i < len(letters):
            g, s = letters[i]
            j = i
            while j < len(letters) and letters[j] == (g, s):
                j += 1
            exp = s * (j - i)
            name = self.generators[g]
            parts.append(name if exp == 1 else f"{name}^{exp}")
            i = j
        return " ".join(parts)

    def abelianized_relator_matrix(self):
        """Sparse exponent-sum matrix: one row per relator, one column per generator."""
        return [sparse_row(r) for r in self.relators]


def serialize_presentation(p):
    gens = ", ".join(p.generators)
    rels = ", ".join(p.word_to_text(r) for r in p.relators)
    return f"< {gens} | {rels} >"


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise GrammarError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def name(self):
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a generator name")
        self.pos = m.end()
        return m.group()

    def signed_int(self):
        self.skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            self.error("expected an integer exponent")
        self.pos = m.end()
        return int(m.group())

    def term(self, gen_index):
        c = self.peek()
        if c == "[":
            self.pos += 1
            u = self.word(gen_index, stop="],")
            self.expect(",")
            v = self.word(gen_index, stop="]")
            self.expect("]")
            return commutator(u, v)
        start = self.pos
        nm = self.name()
        if nm not in gen_index:
            self.pos = start
            self.error(f"unknown generator name {nm!r}")
        w = Word(((gen_index[nm], 1),))
        if self.peek() == "^":
            self.pos += 1
            w = w ** self.signed_int()
        return w

    def word(self, gen_index, stop):
        out = Word()
        saw_term = False
        while True:
            c = self.peek()
            if c == "" or c in stop:
                break
            out = out * self.term(gen_index)
            saw_term = True
        if not saw_term:
            self.error("expected a nonempty word")
        return out


def parse_presentation(text):
    """Parse presentation text into a Presentation.

    The generator list may be empty, as in `< | >`, the trivial group.
    Raises GrammarError (with position) on syntax problems, unknown generator
    names or duplicate names.
    """
    p = _Parser(text)
    p.expect("<")
    names = [] if p.peek() == "|" else [p.name()]
    while p.peek() == ",":
        p.pos += 1
        names.append(p.name())
    if len(set(names)) != len(names):
        p.error("duplicate generator name")
    p.expect("|")
    gen_index = {nm: i for i, nm in enumerate(names)}
    relators = []
    if p.peek() != ">":
        relators.append(p.word(gen_index, stop=",>"))
        while p.peek() == ",":
            p.pos += 1
            relators.append(p.word(gen_index, stop=",>"))
    p.expect(">")
    p.skip_ws()
    if p.pos != len(p.text):
        p.error("trailing text after '>'")
    return Presentation(tuple(names), tuple(relators))


def parse_word(text, p):
    """Parse a standalone word ('a b^-2', nested commutators allowed).

    '1' or the empty string denote the identity.
    """
    text = text.strip()
    if text in ("", "1"):
        return Word()
    parser = _Parser(text)
    gen_index = {nm: i for i, nm in enumerate(p.generators)}
    w = parser.word(gen_index, stop="")
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing text in word")
    return w
