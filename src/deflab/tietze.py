"""Bounded, deterministic Tietze simplification.

Greedy passes (duplicate removal, trivial-relator removal, elimination of a
generator occurring exactly once in some relator, length-reducing relator
substitution) until a fixed point or the effort budget runs out.  Full
search over presentations is hopeless, so lower bounds stay reproducible by
keeping every move deterministic.
"""

from __future__ import annotations

from .errors import InternalCheckFailed
from .presentation import Presentation
from .words import Word


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
    """Remove a generator that some relator contains exactly once."""
    for ri, r in enumerate(p.relators):
        counts = {}
        for g, _ in r:
            counts[g] = counts.get(g, 0) + 1
        for pos, (g, s) in enumerate(r.letters):
            if counts[g] != 1:
                continue
            # rotate the relator to start with the single occurrence of g
            rot = Word(r.letters[pos:] + r.letters[:pos])
            if s == -1:
                rot = rot.inverse()
                rot = Word(rot.letters[-1:] + rot.letters[:-1])
            if rot.letters[0] != (g, 1):
                raise InternalCheckFailed("rotated relator does not start with the generator")
            replacement = Word(rot.letters[1:]).inverse()  # g = replacement
            new_gens = tuple(nm for i, nm in enumerate(p.generators) if i != g)
            index_map = {}
            j = 0
            for i in range(len(p.generators)):
                if i != g:
                    index_map[i] = j
                    j += 1
            new_rels = []
            for rj, other in enumerate(p.relators):
                if rj == ri:
                    continue
                letters = []
                for gg, ss in other:
                    if gg == g:
                        expansion = replacement if ss == 1 else replacement.inverse()
                        letters.extend(expansion.letters)
                    else:
                        letters.append((gg, ss))
                new_rels.append(Word(tuple(letters)).remap(index_map))
            return Presentation(new_gens, tuple(new_rels)), True
    return p, False


def _all_rotations(w):
    """Letter tuples of every rotation; relators are cyclically reduced, so
    each rotation is already a reduced word."""
    ls = w.letters
    return [ls[i:] + ls[:i] for i in range(len(ls))]


def _pass_substitute(p):
    """Shorten some relator by a rotation of another (or its inverse)."""
    rels = list(p.relators)
    for j, longr in enumerate(rels):
        for i, shortr in enumerate(rels):
            if i == j or len(shortr) > len(longr):
                continue
            half = len(shortr) // 2
            for ul in _all_rotations(shortr) + _all_rotations(shortr.inverse()):
                # longest prefix of u appearing inside longr, worth > half
                for piece_len in range(len(ul), half, -1):
                    piece = ul[:piece_len]
                    ll = longr.letters
                    for start in range(len(ll) - piece_len + 1):
                        if ll[start : start + piece_len] == piece:
                            tail = Word(ul[piece_len:])
                            new = Word(
                                ll[:start]
                                + tail.inverse().letters
                                + ll[start + piece_len :]
                            )
                            if len(new) < len(longr):
                                rels[j] = new
                                return Presentation(p.generators, tuple(rels)), True
    return p, False


def tietze_simplify(p, effort=50):
    """Simplify without ever decreasing |generators| - |relators|.

    The returned presentation presents an isomorphic group; abelianized
    - relator-matrix invariants (rank and torsion) are preserved by every
    move.  Deterministic for a fixed budget.
    """
    current = p
    for _ in range(max(0, effort)):
        changed = False
        for step in (_pass_dedupe, _pass_eliminate_generator, _pass_substitute):
            current, did = step(current)
            changed = changed or did
        if not changed:
            break
    return current
