"""Bounded, deterministic Tietze simplification.

Three greedy passes (duplicate removal, elimination of a generator occurring
exactly once in some relator, length-reducing relator substitution) edit one
list of generator names and one list of stored relators, in rounds until
none applies, for at most 50 rounds.  A move stores only the relators it
writes, in the form `Presentation` stores them and with their duplicate key,
and drops those that reduce away; the `Presentation` is built once, at the
end.  Full search over presentations is hopeless, so lower bounds stay
reproducible by keeping every move deterministic.

Work whose result is known is skipped.  Substitution scans the longer
relator for a rotation u of length n only when u's first n // 2 + 1
letters are one of its substrings: no other rotation has a piece longer
than half of u, so every scan makes a move.  Elimination of g renames the
relators without g by h -> h - (h > g); that keeps the order of the other
generators, so their least rotation and duplicate key carry over renamed.
Only the relators a move writes anew are reduced, rotated and keyed.
"""

from __future__ import annotations

from .presentation import Presentation
from .words import Word

_ROUNDS = 50


def _keyed(r):
    """A stored relator r with its duplicate key: the least of r's and its
    inverse's least rotation keys."""
    return r, min(r.order_key(), r.inverse().canonical_rotation().order_key())


def _stored(w):
    """w rotated as a relator is stored, and keyed; None if it reduces away."""
    r = w.canonical_rotation()
    return _keyed(r) if r else None


def _inverse(letters):
    return tuple((g, -s) for g, s in reversed(letters))


def _pass_dedupe(gens, rels):
    first = {}
    for entry in rels:
        first.setdefault(entry[1], entry)
    moved = len(first) < len(rels)
    rels[:] = first.values()
    return moved


def _pass_eliminate_generator(gens, rels):
    """Remove a generator g that some relator contains exactly once: rotated
    to read g^s u, the relator says g = u^-s.  The other relators without g
    are renamed with their keys."""
    for ri, (r, _) in enumerate(rels):
        counts = {}
        for g, _ in r:
            counts[g] = counts.get(g, 0) + 1
        ls = r.letters
        for pos, (g, s) in enumerate(ls):
            if counts[g] != 1:
                continue
            u = tuple((h - (h > g), t) for h, t in ls[pos + 1 :] + ls[:pos])
            expand = {-s: u, s: _inverse(u)}
            del gens[g], rels[ri]
            written = []
            for other, key in rels:
                letters, hit = [], False
                for h, t in other:
                    if h == g:
                        letters.extend(expand[t])
                        hit = True
                    else:
                        letters.append((h - (h > g), t))
                if hit:
                    written.append(_stored(Word(tuple(letters))))
                else:
                    key = tuple((h - (h > g), e) for h, e in key)
                    written.append((Word._reduced(tuple(letters)), key))
            rels[:] = [entry for entry in written if entry]
            return True
    return False


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


def _pass_substitute(gens, rels):
    """Shorten some relator by a rotation u of another (or of its inverse):
    a piece of u longer than half of u is replaced by the inverse of the
    rest of u, which leaves at least one letter fewer.  Rotations are read
    off w + w, and scanned only when their first half + 1 letters occur in
    the longer relator."""
    doubled = [(r.letters * 2, _inverse(r.letters) * 2) for r, _ in rels]
    for j, (r, _) in enumerate(rels):
        ll = r.letters
        substrings = {}  # m -> the substrings of ll of length m
        for i, (w, _) in enumerate(rels):
            n = len(w)
            if i == j or n > len(ll):
                continue
            m = n // 2 + 1
            if m not in substrings:
                substrings[m] = {ll[s : s + m] for s in range(len(ll) - m + 1)}
            prefixes = substrings[m]
            for ww in doubled[i]:
                for k in range(n):
                    if ww[k : k + m] in prefixes:
                        u = ww[k : k + n]
                        piece, start = _longest_piece(ll, u)  # piece >= m
                        rest = _inverse(u[piece:])
                        entry = _stored(Word(ll[:start] + rest + ll[start + piece :]))
                        rels[j : j + 1] = [entry] if entry else []
                        return True
    return False


_PASSES = (_pass_dedupe, _pass_eliminate_generator, _pass_substitute)


def tietze_simplify(p):
    """Simplify without ever decreasing |generators| - |relators|.

    The returned presentation presents an isomorphic group; every move
    keeps the invariants (rank and torsion) of the abelianized relator
    matrix.  Deterministic.
    """
    gens, rels = list(p.generators), [_keyed(r) for r in p.relators]
    for _ in range(_ROUNDS):
        if not any([step(gens, rels) for step in _PASSES]):  # every pass runs
            break
    return Presentation(tuple(gens), tuple(r for r, _ in rels))
