import pytest

from deflab import lowindex
from deflab.chain import presentation_chain_complex, restrict_to_subgroup
from deflab.coset import (
    SubgroupRecord,
    cyclic_cover_record,
    schreier_transversal,
    subgroup_record,
    todd_coxeter,
)
from deflab.corpus import corpus_presentation
from deflab.errors import LimitExceeded
from deflab.lowindex import low_index_subgroups
from deflab.modcert import separating_subgroup
from deflab.modp import dual_complex_dims
from deflab.presentation import Presentation, parse_presentation, parse_word
from deflab.quotient import core_quotient, core_record
from deflab.stability import stability_report
from deflab.words import Word


def brute_force_cyclic_order(n):
    # the cyclic group of order n acts regularly on n points
    return n


def test_cyclic_group_index():
    p = parse_presentation("< a | a^5 >")
    t = todd_coxeter(p, [])
    assert t.index == brute_force_cyclic_order(5)
    t.verify()


def test_whole_group():
    p = parse_presentation("< a, b | >")
    t = todd_coxeter(p, [parse_word("a", p), parse_word("b", p)])
    assert t.index == 1


def test_torus_index_two():
    # abelianization oracle: image of <a^2, b> in Z^2 has index 2
    p = parse_presentation("< a, b | [a,b] >")
    t = todd_coxeter(p, [parse_word("a^2", p), parse_word("b", p)])
    assert t.index == 2


def test_limit_exceeded_infinite_index():
    p = parse_presentation("< a, b | >")
    with pytest.raises(LimitExceeded):
        todd_coxeter(p, [], limit=50)


def test_relator_actions_and_transitivity_on_corpus():
    for name in ("c2", "c3", "c5", "c2xc2", "q8", "d4"):
        p = corpus_presentation(name)
        t = todd_coxeter(p, [])
        t.verify()


def test_q8_and_d4_orders():
    assert todd_coxeter(corpus_presentation("q8"), []).index == 8
    assert todd_coxeter(corpus_presentation("d4"), []).index == 8


def test_transversal_examples():
    p = parse_presentation("< a, b | >")
    rec = schreier_transversal(todd_coxeter(p, [parse_word("a", p), parse_word("b", p)]))
    assert [w.letters for w in rec.transversal] == [()]

    p2 = parse_presentation("< a, b | [a,b] >")
    rec2 = subgroup_record(p2, [parse_word("a^2", p2), parse_word("b", p2)])
    assert [p2.word_to_text(w) for w in rec2.transversal] == ["1", "a"]

    c5 = parse_presentation("< a | a^5 >")
    rec5 = subgroup_record(c5, [])
    assert [c5.word_to_text(w) for w in rec5.transversal] == [
        "1", "a", "a^2", "a^3", "a^4",
    ]


def test_transversal_prefix_closed_and_bijective():
    p = corpus_presentation("genus2")
    trefoil = corpus_presentation("trefoil")
    records = [cyclic_cover_record(p, 5)] + low_index_subgroups(trefoil, 3)
    for rec in records:
        words = {w.letters for w in rec.transversal}
        hits = set()
        for i, w in enumerate(rec.transversal):
            assert rec.table.trace(0, w) == i
            hits.add(rec.table.trace(0, w))
            # every prefix is itself a transversal entry
            for cut in range(len(w) + 1):
                assert w.letters[:cut] in words
        assert hits == set(range(rec.index))


def test_normality_detection():
    p = parse_presentation("< a, b | >")
    # index-2 subgroups of F2 are normal
    rec = subgroup_record(p, [parse_word("a^2", p), parse_word("b", p), parse_word("a b a", p)])
    assert rec.index == 2 and rec.is_normal
    # <a> inside S3 = <a, b | a^2, b^3, (a b)^2> has index 3 and is not normal
    s3 = parse_presentation("< a, b | a^2, b^3, a b a b >")
    rec3 = subgroup_record(s3, [parse_word("a", s3)])
    assert rec3.index == 3 and not rec3.is_normal


def test_cyclic_cover_records():
    p = corpus_presentation("trefoil")
    for k in range(1, 7):
        rec = cyclic_cover_record(p, k, weights=[3, 2])
        assert rec.index == k
        rec.table.verify()


def test_cyclic_cover_weights_must_match_the_generators():
    free1 = parse_presentation("< a | >")
    with pytest.raises(ValueError, match="2 weights for 1 generators"):
        cyclic_cover_record(free1, 2, weights=[2, 1])
    with pytest.raises(ValueError, match="0 weights for 1 generators"):
        cyclic_cover_record(free1, 2, weights=[])
    assert cyclic_cover_record(free1, 2, weights=[1]).index == 2
    # without generators the default weights are empty: only Z/1 is generated
    with pytest.raises(ValueError, match="weights do not generate Z/k"):
        cyclic_cover_record(Presentation(), 2)
    assert cyclic_cover_record(Presentation(), 1).index == 1


def test_records_store_the_spanning_tree():
    c5 = parse_presentation("< a | a^5 >")
    assert subgroup_record(c5, []).tree == (None, (0, 0), (1, 0), (2, 0), (3, 0))
    s3 = parse_presentation("< a, b | a^2, b^3, a b a b >")
    rec = subgroup_record(s3, [parse_word("a", s3)])
    # H b a = H a b^-1 = H b^2: the tree reaches coset 2 by a from coset 1
    assert rec.tree == (None, (0, 1), (1, 0))
    assert [s3.word_to_text(w) for w in rec.transversal] == ["1", "b", "b a"]
    assert list(rec.schreier_generators()) == [(0, 0), (1, 1), (2, 0), (2, 1)]


def test_hot_paths_spell_no_transversal_words(monkeypatch):
    def refuse(rec):
        raise AssertionError("a Schreier transversal word was spelled")

    monkeypatch.setattr(SubgroupRecord, "transversal", property(refuse))
    genus2 = corpus_presentation("genus2")
    records = low_index_subgroups(genus2, 3)
    with pytest.raises(AssertionError, match="spelled"):
        records[1].transversal
    assert sum(row.class_size for row in stability_report(genus2, 3).rows) == len(records)
    core, q = core_record(records[-1])
    assert restrict_to_subgroup(presentation_chain_complex(genus2, q), core, q).quotient_order == 1
    d4 = corpus_presentation("d4")
    normal = [r for r in low_index_subgroups(d4, 2) if r.index == 2 and r.is_normal]
    assert len(normal) == 3
    for rec in normal:
        assert dual_complex_dims(d4, rec, 2).jbar_dim is not None
    words = [parse_word(w, d4) for w in ("1", "r", "s", "r s")]
    assert separating_subgroup(words, d4, 4).index == 4


def test_todd_coxeter_cross_validates_low_index(random_presentations, monkeypatch):
    # two independent enumerations: feeding the Schreier generators of each
    # low-index record back through Todd-Coxeter must reproduce its table
    monkeypatch.setattr(lowindex, "MAX_NODES", 100_000)
    pres = [
        corpus_presentation("torus"),
        corpus_presentation("trefoil"),
        corpus_presentation("dup_relator"),
        parse_presentation("< a, b | a^2, b^3, a b a b >"),
    ] + random_presentations(41, 10)
    for p in pres:
        for rec in low_index_subgroups(p, 4):
            # a pair is off the tree exactly when its Schreier word is not trivial
            off_tree = list(rec.schreier_generators())
            words = rec.transversal
            gens = []
            for c in range(rec.index):
                for g, perm in enumerate(rec.table.action):
                    w = words[c] * Word(((g, 1),)) * words[perm[c]].inverse()
                    assert ((c, g) in off_tree) == bool(w)
                    if w:
                        gens.append(w)
            assert len(gens) == len(off_tree)
            t = todd_coxeter(p, gens, limit=50_000)
            assert t.index == rec.index
            assert t.action == rec.table.action


def test_is_normal_matches_core_quotient_order(random_presentations, monkeypatch):
    # independent route: H is normal iff the core has the same index as H,
    # i.e. iff the permutation image G/core has order [G:H]
    monkeypatch.setattr(lowindex, "MAX_NODES", 100_000)
    names = ["torus", "trefoil", "dup_relator", "d4", "q8"]
    pres = [corpus_presentation(n) for n in names] + random_presentations(7, 30)
    seen = {True: 0, False: 0}
    for p in pres:
        for rec in low_index_subgroups(p, 4):
            _, group = core_quotient(rec)
            assert rec.is_normal == (group.order == rec.index)
            seen[rec.is_normal] += 1
    assert seen[True] and seen[False]
