"""Bounded, deterministic Tietze simplification.

Three greedy passes (duplicate removal, elimination of a generator occurring
exactly once in some relator, length-reducing relator substitution) run in
rounds until none applies, for at most 50 rounds; `Presentation` itself
drops empty relators.  Full search over presentations is hopeless, so lower
bounds stay reproducible by keeping every move deterministic.
"""

from __future__ import annotations

from .presentation import Presentation
from .words import Word

_ROUNDS = 50


def _dedupe_key(w):
    """A Presentation stores each relator as its canonical rotation, so only
    the inverse is rotated here."""
    return min(w.order_key(), w.inverse().canonical_rotation().order_key())


def _pass_dedupe(p):
    seen = set()
    out = []
    for r in p.relators:
        key = _dedupe_key(r)
        if key in seen:
            continue
        seen.add(key)
        out.append(r)
    if len(out) == len(p.relators):
        return p, False
    return Presentation(p.generators, tuple(out)), True


def _pass_eliminate_generator(p):
    """Remove a generator g that some relator contains exactly once: rotated
    to read g^s u, the relator says g = u^-s."""
    for ri, r in enumerate(p.relators):
        counts = {}
        for g, _ in r:
            counts[g] = counts.get(g, 0) + 1
        ls = r.letters
        for pos, (g, s) in enumerate(ls):
            if counts[g] != 1:
                continue
            value = Word(ls[pos + 1 :] + ls[:pos]) ** -s
            expand = {1: value.letters, -1: value.inverse().letters}
            rename = {i: i - (i > g) for i in range(p.num_generators)}
            rels = []
            for other in p.relators[:ri] + p.relators[ri + 1 :]:
                letters = []
                for h, t in other:
                    letters.extend(expand[t] if h == g else ((h, t),))
                rels.append(Word(tuple(letters)).remap(rename))
            return Presentation(p.generators[:g] + p.generators[g + 1 :], tuple(rels)), True
    return p, False


def _longest_piece(ll, u):
    """(length, start) of the longest prefix of u that occurs in ll; the
    first start among equally long ones."""
    best, at = 0, 0
    for start, x in enumerate(ll):
        if x == u[0]:
            n, limit = 1, min(len(u), len(ll) - start)
            while n < limit and ll[start + n] == u[n]:
                n += 1
            if n > best:
                best, at = n, start
    return best, at


def _pass_substitute(p):
    """Shorten some relator by a rotation u of another (or of its inverse):
    a piece of u longer than half of u is replaced by the inverse of the
    rest of u, which leaves at least one letter fewer."""
    rels = list(p.relators)
    both_ways = [(r.letters, r.inverse().letters) for r in rels]
    for j, longr in enumerate(rels):
        ll = longr.letters
        for i, ways in enumerate(both_ways):
            if i == j or len(ways[0]) > len(ll):
                continue
            half = len(ways[0]) // 2
            for w in ways:
                for k in range(len(w)):
                    u = w[k:] + w[:k]
                    piece, start = _longest_piece(ll, u)
                    if piece > half:
                        rest = Word(u[piece:]).inverse()
                        rels[j] = Word(ll[:start] + rest.letters + ll[start + piece :])
                        return Presentation(p.generators, tuple(rels)), True
    return p, False


def tietze_simplify(p):
    """Simplify without ever decreasing |generators| - |relators|.

    The returned presentation presents an isomorphic group; abelianized
    - relator-matrix invariants (rank and torsion) are preserved by every
    move.  Deterministic.
    """
    current = p
    for _ in range(_ROUNDS):
        changed = False
        for step in (_pass_dedupe, _pass_eliminate_generator, _pass_substitute):
            current, did = step(current)
            changed = changed or did
        if not changed:
            break
    return current
