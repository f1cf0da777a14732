import random

import pytest
from conftest import ENUM_CAPS, small_presentations
from hypothesis import example, given, settings
from tietze_oracle import (
    oracle_simplify,
    pass_dedupe,
    pass_eliminate_generator,
    pass_substitute,
)

from deflab import tietze
from deflab.corpus import CORPUS, corpus_presentation
from deflab.linalg import cokernel_invariants, transpose
from deflab.lowindex import low_index_subgroups
from deflab.presentation import Presentation, parse_presentation, serialize_presentation
from deflab.schreier import rewrite_subgroup_presentation
from deflab.stability import stability_report
from deflab.tietze import (
    _keyed,
    _pass_dedupe,
    _pass_eliminate_generator,
    _pass_substitute,
    tietze_simplify,
)
from deflab.words import Word


def abelian_invariants(p):
    matrix = p.abelianized_relator_matrix()
    return cokernel_invariants(transpose(matrix, p.num_generators), len(matrix))


def test_duplicate_removal():
    p = parse_presentation("< a, b | b^3, b^3 >")
    s = tietze_simplify(p)
    assert s.num_relators == 1 and s.num_generators == 2


def test_generator_elimination():
    p = parse_presentation("< a, b | a b^-2 >")
    s = tietze_simplify(p)
    assert s.generators == ("b",)
    assert s.relators == ()


def test_fixed_point_on_commutator():
    p = parse_presentation("< a, b | [a,b] >")
    assert tietze_simplify(p) == p


def list_pass(step, p):
    """A list pass applied to copies of p's lists: the presentation they
    give, and whether the pass moved.  Every entry the pass leaves is a
    reduced relator in its least rotation with its own key, however the
    pass carried it over."""
    gens, rels = list(p.generators), [_keyed(r) for r in p.relators]
    moved = step(gens, rels)
    for entry in rels:
        assert entry == _keyed(Word(entry[0].letters).canonical_rotation()), step.__name__
    return Presentation(tuple(gens), tuple(r for r, _ in rels)), moved


def test_inverse_relator_dedupes():
    p = parse_presentation("< a, b | [a,b], [b,a] >")
    s = tietze_simplify(p)
    assert s.num_relators == 1
    # the second relator is a rotation of the first one's inverse; the
    # duplicate pass alone must see it
    p = parse_presentation("< a, b | a^2 b^3, a^-1 b^-3 a^-1 >")
    deduped, changed = list_pass(_pass_dedupe, p)
    assert p.num_relators == 2 and changed and deduped.num_relators == 1
    assert (deduped, changed) == pass_dedupe(p)


def test_stored_relators_are_canonical_rotations():
    """Duplicate detection rotates only the inverse of a stored relator."""
    for name in CORPUS:
        p = corpus_presentation(name)
        for rec in low_index_subgroups(p, 2):
            sub = rewrite_subgroup_presentation(p, rec).presentation
            for q in (sub, tietze_simplify(sub)):
                assert all(r.canonical_rotation() == r for r in q.relators), name


def test_substitution_shortens():
    p = parse_presentation("< a, b | b^3, b^6 >")
    s = tietze_simplify(p)
    assert s.num_relators == 1 and s.relators[0].letters == ((1, 1),) * 3


def test_never_decreases_deficiency_datum_and_preserves_h1():
    rng = random.Random(11)
    corpus = [corpus_presentation(nm) for nm in CORPUS]
    randoms = []
    for _ in range(60):
        ngens = rng.randrange(1, 4)
        rels = []
        for _ in range(rng.randrange(4)):
            letters = tuple(
                (rng.randrange(ngens), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 10))
            )
            if Word(letters):
                rels.append(Word(letters))
        randoms.append(Presentation(tuple("xyz"[:ngens]), tuple(rels)))
    for p in corpus + randoms:
        s = tietze_simplify(p)
        assert s.deficiency_datum() >= p.deficiency_datum()
        assert abelian_invariants(s) == abelian_invariants(p)


def test_deficiency_lower_bound_examples():
    assert tietze_simplify(corpus_presentation("genus2")).deficiency_datum() == 3
    assert tietze_simplify(corpus_presentation("torus")).deficiency_datum() == 1
    assert tietze_simplify(parse_presentation("< a, b, c | >")).deficiency_datum() == 3


def test_determinism():
    p = parse_presentation("< a, b, c | a b^-2, c^3, c^3, [a, c] >")
    assert tietze_simplify(p) == tietze_simplify(p)


def test_simplification_reaches_a_fixed_point():
    rng = random.Random(43)
    for _ in range(40):
        ngens = rng.randrange(1, 4)
        rels = []
        for _ in range(rng.randrange(4)):
            letters = tuple(
                (rng.randrange(ngens), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 8))
            )
            if Word(letters):
                rels.append(Word(letters))
        p = Presentation(tuple("xyz"[:ngens]), tuple(rels))
        s = tietze_simplify(p)
        assert tietze_simplify(s) == s


def test_trivial_group_fully_simplifies():
    p = parse_presentation("< a | a >")
    s = tietze_simplify(p)
    assert s.num_generators == 0 and s.num_relators == 0
    assert s.deficiency_datum() == 0


def test_one_presentation_per_simplification(monkeypatch):
    """The passes edit lists; only the result is built as a Presentation."""
    builds = []

    def counting(*args):
        builds.append(args)
        return Presentation(*args)

    monkeypatch.setattr(tietze, "Presentation", counting)
    p = corpus_presentation("f2xf2")
    covers = [rec for rec in low_index_subgroups(p, 3) if rec.index == 3]
    assert len(covers) == 58
    for rec in covers:
        sub = rewrite_subgroup_presentation(p, rec).presentation
        builds.clear()
        s = tietze_simplify(sub)
        # at least four eliminations: 10 generators down to 6 or 4
        assert sub.num_generators == 10 and s.num_generators <= 6
        assert len(builds) == 1


def assert_every_scan_moves(p):
    """Substitution scans a rotation only when it gives a piece longer than
    half of it, so each scan is one move."""
    scans, moves = [], []

    def scan(ll, u):
        piece, start = longest_piece(ll, u)
        assert piece > len(u) // 2, (ll, u)
        scans.append(piece)
        return piece, start

    def substitute(gens, rels):
        moved = _pass_substitute(gens, rels)
        moves.append(moved)
        return moved

    longest_piece = tietze._longest_piece
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tietze, "_longest_piece", scan)
        mp.setattr(tietze, "_PASSES", (_pass_dedupe, _pass_eliminate_generator, substitute))
        tietze_simplify(p)
    assert len(scans) == sum(moves)


def test_every_substitution_scan_moves():
    p = corpus_presentation("f2xf2")
    covers = [rec for rec in low_index_subgroups(p, 3) if rec.index == 3]
    assert len(covers) == 58
    for rec in covers:
        assert_every_scan_moves(rewrite_subgroup_presentation(p, rec).presentation)


def assert_matches_the_oracle(p):
    """Each pass finds the oracle pass's move at every presentation the
    oracle's run reaches, and the result is the same text."""
    want = oracle_simplify(p, trace=assert_same_moves)
    assert serialize_presentation(tietze_simplify(p)) == serialize_presentation(want)


def assert_same_moves(q):
    for step, oracle_step in (
        (_pass_dedupe, pass_dedupe),
        (_pass_eliminate_generator, pass_eliminate_generator),
        (_pass_substitute, pass_substitute),
    ):
        assert list_pass(step, q) == oracle_step(q), (step.__name__, serialize_presentation(q))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_presentations())
# the piece b^-1 occurs twice: the move takes the first start
@example(parse_presentation("< a, b | a b^-2 a^-1 b^-1, b^-1 >"))
# a^2 occurs before the longer piece a^2 b^-1: the move takes the longest
@example(parse_presentation("< a, b | a^3 b^-1 a^-1 b, a^2 b^-1 >"))
# the piece b a b^-1 of the rotation b a b^-1 a^-1 of a b^-1 a^-1 b runs
# round the end of a b^-1 a^-1 b: only a slice of the doubled word finds it
@example(parse_presentation("< a, b | a b a b^-1, a b^-1 a^-1 b >"))
# a^-3 contains no piece of a^2, only pieces of its inverse a^-2
@example(parse_presentation("< a | a^2, a^-3 >"))
def test_moves_match_the_oracle_property(p):
    assert_matches_the_oracle(p)
    assert_every_scan_moves(p)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_moves_match_the_oracle_on_every_cover_at_the_cap(name):
    p = corpus_presentation(name)
    assert_matches_the_oracle(p)
    for rec in low_index_subgroups(p, ENUM_CAPS[name]):
        assert_matches_the_oracle(rewrite_subgroup_presentation(p, rec).presentation)


def test_bounds_can_differ_inside_a_conjugacy_class():
    """Conjugate subgroups are isomorphic, but the Tietze lower bounds of
    their Schreier presentations need not agree.  The stability report has
    one row for the class, which keeps the best of the bounds."""
    p = parse_presentation("< a, b | a^-4 b^-2, a^-2 b^2 >")
    lowers = {}
    for rec in low_index_subgroups(p, 3):
        sp = rewrite_subgroup_presentation(p, rec).presentation
        assert_matches_the_oracle(sp)
        lowers.setdefault(rec.conjugacy_class, []).append(tietze_simplify(sp).deficiency_datum())
    assert [0, -1, 0] in lowers.values()
    report = stability_report(p, 3)
    assert serialize_presentation(p) == report.presentation
    (row,) = [row for row in report.rows if row.class_size == 3]
    assert (row.index, row.ordinal, row.interval.lower, row.interval.upper) == (3, 1, 0, 0)
