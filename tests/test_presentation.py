import random

import pytest

from deflab.corpus import CORPUS, corpus_presentation
from deflab.errors import GrammarError
from deflab.presentation import (
    Presentation,
    parse_presentation,
    parse_word,
    serialize_presentation,
)
from deflab.words import Word


def test_commutator_sugar():
    p = parse_presentation("< a, b | [a,b] >")
    assert p.generators == ("a", "b")
    assert p.relators[0].letters == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_exponent_expansion():
    p = parse_presentation("< a | a^5 >")
    assert p.relators[0].letters == ((0, 1),) * 5


def test_free_group_no_relators():
    p = parse_presentation("< a, b | >")
    assert p.generators == ("a", "b")
    assert p.relators == ()


def test_empty_generator_list():
    p = parse_presentation("< | >")
    assert p.generators == () and p.relators == ()
    assert parse_presentation(serialize_presentation(p)) == p


def test_nested_commutators_and_negative_exponents():
    p = parse_presentation("< a, b, c | [[a,b], c], a^-3 b >")
    assert p.num_relators == 2


def test_syntax_errors_carry_position():
    with pytest.raises(GrammarError) as err:
        parse_presentation("< a, b  [a,b] >")
    assert err.value.position == 8  # where '|' was expected
    with pytest.raises(GrammarError):
        parse_presentation("< | a >")
    with pytest.raises(GrammarError):
        parse_presentation("< a, a | >")
    with pytest.raises(GrammarError) as err:
        parse_presentation("< a | a q >")
    assert "unknown generator" in str(err.value)
    with pytest.raises(GrammarError):
        parse_presentation("< a | a > junk")


def test_relators_stored_cyclically_reduced():
    p = parse_presentation("< a, b | a b^3 a^-1 >")
    assert p.relators[0].letters == ((1, 1),) * 3
    # empty relators are dropped
    p = parse_presentation("< a | a a^-1 >")
    assert p.relators == ()


def test_roundtrip_on_corpus():
    for name in CORPUS:
        p = corpus_presentation(name)
        assert parse_presentation(serialize_presentation(p)) == p


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        ngens = rng.randrange(1, 4)
        gens = tuple("abc"[:ngens])
        rels = []
        for _ in range(rng.randrange(3)):
            letters = tuple(
                (rng.randrange(ngens), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 9))
            )
            w = Word(letters)
            if w:
                rels.append(w)
        p = Presentation(gens, tuple(rels))
        assert parse_presentation(serialize_presentation(p)) == p


def test_parse_word():
    p = parse_presentation("< a, b | >")
    assert parse_word("a b^-2", p).letters == ((0, 1), (1, -1), (1, -1))
    assert parse_word("1", p).letters == ()
    assert parse_word("", p).letters == ()
    assert parse_word("[a, b]", p).letters == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_deficiency_datum_and_abelianized_matrix():
    p = corpus_presentation("genus2")
    assert p.deficiency_datum() == 3
    assert p.abelianized_relator_matrix() == [{}]  # exponent sums all zero
    t = corpus_presentation("trefoil")
    assert t.abelianized_relator_matrix() == [{0: 2, 1: -3}]
