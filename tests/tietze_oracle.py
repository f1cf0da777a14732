"""The earlier Tietze move finders, kept as a test oracle.

Generator elimination rotates, inverts and rotates again until the relator
starts with the generator; substitution tries every piece length of every
rotation from the longest down, and every start of the longer relator for
each, and keeps the first that shortens it.  Duplicate removal keys every
relator of every presentation it sees.  `oracle_simplify` runs the passes
in the same rounds as `tietze_simplify`, each on a whole `Presentation`.
"""

from deflab.errors import InternalCheckFailed
from deflab.presentation import Presentation
from deflab.words import Word


def _dedupe_key(w):
    """A Presentation stores each relator as its canonical rotation, so only
    the inverse is rotated here."""
    return min(w.order_key(), w.inverse().canonical_rotation().order_key())


def pass_dedupe(p):
    """Keep the first of the relators that are rotations of each other or of
    each other's inverses."""
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


def pass_eliminate_generator(p):
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
                reduced = Word(tuple(letters))
                new_rels.append(Word(tuple((index_map[gg], ss) for gg, ss in reduced)))
            return Presentation(new_gens, tuple(new_rels)), True
    return p, False


def all_rotations(w):
    """Letter tuples of every rotation of a cyclically reduced word."""
    ls = w.letters
    return [ls[i:] + ls[:i] for i in range(len(ls))]


def pass_substitute(p):
    """Shorten some relator by a rotation of another (or its inverse)."""
    rels = list(p.relators)
    for j, longr in enumerate(rels):
        for i, shortr in enumerate(rels):
            if i == j or len(shortr) > len(longr):
                continue
            half = len(shortr) // 2
            for ul in all_rotations(shortr) + all_rotations(shortr.inverse()):
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


def oracle_simplify(p, rounds=50, trace=None):
    """The oracle passes in rounds until none applies; trace, if given, sees
    every presentation a pass is applied to."""
    current = p
    for _ in range(rounds):
        changed = False
        for step in (pass_dedupe, pass_eliminate_generator, pass_substitute):
            if trace is not None:
                trace(current)
            current, did = step(current)
            changed = changed or did
        if not changed:
            break
    return current
