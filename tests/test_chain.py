import random

import pytest
from conftest import to_dense

from deflab import lowindex
from deflab.chain import (
    ChainComplex,
    collapse_to_point,
    presentation_chain_complex,
    push_to_quotient,
    relator_boundary,
    restrict_to_subgroup,
)
from deflab.corpus import CORPUS, corpus_presentation
from deflab.coset import product_orbit, subgroup_record
from deflab.errors import IncompatibleRestriction, InvalidQuotient, LimitExceeded
from deflab.groupring import GroupRingElement, fox_derivative
from deflab.linalg import betti_numbers, mat_mul
from deflab.lowindex import low_index_subgroups
from deflab.presentation import Presentation, parse_presentation, parse_word
from deflab.quotient import FiniteGroup, core_record
from deflab.words import Word


def rand_element(rng, ngens, maxterms=4):
    d = {}
    for _ in range(rng.randrange(maxterms + 1)):
        w = Word(
            tuple(
                (rng.randrange(ngens), rng.choice((1, -1)))
                for _ in range(rng.randrange(5))
            )
        )
        d[w] = d.get(w, 0) + rng.randrange(-3, 4)
    return GroupRingElement.from_dict(d)


def dense_push(x, q):
    """Right multiplication by x through the multiplication table."""
    n = q.order
    m = [[0] * n for _ in range(n)]
    for w, c in x.terms:
        g = q.project_word(w)
        for h in range(n):
            m[h][q.mult[h][g]] += c
    return m


def block_transpose_boundaries(p, q):
    """d1, d2 pasted block by block from transposed dense pushes."""
    n, e1, e2 = q.order, p.num_generators, p.num_relators

    def paste(blocks, row_blocks, col_blocks):
        d = [[0] * (col_blocks * n) for _ in range(row_blocks * n)]
        for (i, j), x in blocks.items():
            push = dense_push(x, q)
            for a in range(n):
                for b in range(n):
                    d[i * n + a][j * n + b] = push[b][a]
        return d

    gens = [GroupRingElement.of_word(Word(((i, 1),))) for i in range(e1)]
    d1 = paste({(0, i): x - GroupRingElement.one() for i, x in enumerate(gens)}, 1, e1)
    d2 = paste({(i, j): fox_derivative(r, i) for j, r in enumerate(p.relators)
                for i in range(e1)}, e1, e2)
    return d1, d2


def test_boundaries_equal_block_transpose_of_dense_push(corpus_core_quotients):
    for name, p, _, q in corpus_core_quotients:
        c = presentation_chain_complex(p, q)
        dense = tuple(to_dense(b, cols) for b, cols in zip(c.boundaries, c.dims[1:]))
        assert dense == block_transpose_boundaries(p, q), name
        for r in p.relators:
            der = fox_derivative(r, 0)
            assert to_dense(push_to_quotient(der, q), q.order) == dense_push(der, q), name


def test_push_units():
    q = FiniteGroup.cyclic(3)
    ident = push_to_quotient(GroupRingElement.one(), q)
    assert ident == [{0: 1}, {1: 1}, {2: 1}]
    assert push_to_quotient(GroupRingElement.zero(), q) == [{}, {}, {}]


def test_push_c2_example():
    q = FiniteGroup.cyclic(2)
    x = GroupRingElement.one() - GroupRingElement.of_word(Word(((0, 1),)))
    assert push_to_quotient(x, q) == [{0: 1, 1: -1}, {0: -1, 1: 1}]


def test_push_is_ring_homomorphism():
    rng = random.Random(23)
    s3 = parse_presentation("< a, b | a^2, b^3, a b a b >")
    rec = subgroup_record(s3, [parse_word("a", s3)])
    _, q = core_record(rec)
    assert q.order == 6
    for _ in range(60):
        x = rand_element(rng, 2)
        y = rand_element(rng, 2)
        px, py = push_to_quotient(x, q), push_to_quotient(y, q)
        assert to_dense(push_to_quotient(x + y, q), 6) == [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(to_dense(px, 6), to_dense(py, 6))
        ]
        assert push_to_quotient(x * y, q) == mat_mul(px, py)


def test_torus_over_trivial():
    p = corpus_presentation("torus")
    c = presentation_chain_complex(p, FiniteGroup.trivial(2))
    assert c.ranks == (1, 2, 1)
    assert c.boundaries[1] == [{}, {}]  # each commutator letter cancels its inverse
    assert c.boundaries[0] == [{}]


def test_a5_over_trivial():
    p = parse_presentation("< a | a^5 >")
    c = presentation_chain_complex(p, FiniteGroup.trivial(1))
    assert c.boundaries[1] == [{0: 5}]


def test_composition_zero_is_construction_invariant(monkeypatch):
    # 100 randomized (presentation, quotient of order <= 24) pairs
    monkeypatch.setattr(lowindex, "MAX_NODES", 40_000)
    rng = random.Random(29)
    built = 0
    while built < 100:
        ngens = rng.randrange(1, 4)
        gens = tuple("abc"[:ngens])
        rels = []
        for _ in range(rng.randrange(1, 4)):
            w = Word(
                tuple(
                    (rng.randrange(ngens), rng.choice((1, -1)))
                    for _ in range(rng.randrange(1, 7))
                )
            )
            if w.cyclically_reduced():
                rels.append(w)
        p = Presentation(gens, tuple(rels))
        if p.num_relators == 0:
            continue
        quotients = [FiniteGroup.trivial(ngens)]
        try:
            recs = low_index_subgroups(p, 3)
        except Exception:
            recs = []
        for rec in recs[:3]:
            try:
                _, q = core_record(rec, max_order=24)
            except Exception:
                continue
            quotients.append(q)
        for q in quotients:
            c = presentation_chain_complex(p, q)  # checks d1 @ d2 == 0
            assert not any(mat_mul(c.boundaries[0], c.boundaries[1]))
            built += 1
            if built >= 100:
                break


def test_invalid_quotient_rejected():
    p = parse_presentation("< a | a^5 >")
    with pytest.raises(InvalidQuotient):
        presentation_chain_complex(p, FiniteGroup.cyclic(3, ngens=1))


def test_quotient_with_another_generator_count_rejected():
    p = parse_presentation("< a | a^5 >")
    with pytest.raises(InvalidQuotient, match="2 generator images, not 1"):
        presentation_chain_complex(p, FiniteGroup.cyclic(5, ngens=2))


def test_restriction_bookkeeping_and_homology():
    torus = corpus_presentation("torus")
    rec4 = subgroup_record(torus, [parse_word("a^2", torus), parse_word("b^2", torus)])
    _, q4 = core_record(rec4)
    assert q4.order == 4
    c = presentation_chain_complex(torus, q4)

    whole = low_index_subgroups(torus, 1)[0]
    assert restrict_to_subgroup(c, whole, q4) is c  # H = G unchanged

    h = subgroup_record(torus, [parse_word("a", torus), parse_word("b^2", torus)])
    rc = restrict_to_subgroup(c, h, q4)
    assert rc.ranks == (2, 4, 2) and rc.quotient_order == 2
    assert rc.dims == c.dims
    # a permutation of the basis moves the entries and keeps their values
    assert [sorted(x for row in b for x in row.values()) for b in rc.boundaries] == [
        sorted(x for row in b for x in row.values()) for b in c.boundaries
    ]
    assert betti_numbers(c, "Q").b == betti_numbers(rc, "Q").b


def test_restriction_incompatible_pair():
    torus = corpus_presentation("torus")
    rec2 = subgroup_record(torus, [parse_word("a^2", torus), parse_word("b", torus)])
    _, q2 = core_record(rec2)
    # subgroup <a, b^2> does not contain the kernel of G -> G/<<a^2, b>>
    other = subgroup_record(torus, [parse_word("a", torus), parse_word("b^2", torus)])
    with pytest.raises(IncompatibleRestriction):
        restrict_to_subgroup(presentation_chain_complex(torus, q2), other, q2)


def test_restriction_rejects_another_generator_count():
    torus = corpus_presentation("torus")
    h = subgroup_record(torus, [parse_word("a", torus), parse_word("b^2", torus)])
    q = FiniteGroup.cyclic(4, ngens=3)
    c = ChainComplex(ranks=(1,), boundaries=(), quotient_order=4)
    with pytest.raises(InvalidQuotient, match="3 generator images, not 2"):
        restrict_to_subgroup(c, h, q)


def schreier_closure(rec, q):
    """H/N by the Schreier-word route: project the Schreier generator words
    of rec into q and close the images under products."""
    t = rec.transversal
    seeds = [
        q.project_word(t[c] * Word(((g, 1),)) * t[rec.table.action[g][c]].inverse())
        for c, g in rec.schreier_generators()
    ]
    elements = [0]
    seen = {0}
    for e in elements:
        for s in seeds:
            if q.mult[e][s] not in seen:
                seen.add(q.mult[e][s])
                elements.append(q.mult[e][s])
    return seen


def cover_homology(p, rec):
    """Integral homology of the finite cover of the presentation complex
    that rec describes, from its coset action."""
    action, k = rec.table.action, rec.index
    d1 = [{} for _ in range(k)]  # column (g, c) is the edge from c to c.g
    for g, perm in enumerate(action):
        for c, end in enumerate(perm):
            if end != c:
                d1[end][g * k + c] = 1
                d1[c][g * k + c] = -1
    d2 = relator_boundary(p.relators, action, rec.table.inverse_action, k)
    cover = ChainComplex(
        ranks=(k, k * p.num_generators, k * p.num_relators), boundaries=(d1, d2), quotient_order=1
    )
    b = betti_numbers(cover, "Q")
    return b.b, b.torsion


def test_restriction_matches_the_schreier_closure():
    # per corpus entry, at most 40 of its records of index <= 3 (the whole
    # group first) against the core quotient of each of them
    counts = {"compatible": 0, "incompatible": 0}
    for name in CORPUS:
        p = corpus_presentation(name)
        records = low_index_subgroups(p, 3)
        records = records[:: -(-len(records) // 40)]
        quotients = {}
        for rec in records:
            _, q = core_record(rec)
            quotients.setdefault(q.right, q)
        for q in quotients.values():
            c = presentation_chain_complex(p, q)
            for rec in records:
                old = schreier_closure(rec, q)
                compatible = len(old) * rec.index == q.order
                try:
                    pairs, _ = product_orbit(q.right, rec.table.action, limit=q.order)
                except LimitExceeded:
                    assert not compatible
                else:
                    assert compatible and {e for e, coset in pairs if coset == 0} == old
                try:
                    rc = restrict_to_subgroup(c, rec, q)
                except IncompatibleRestriction:
                    assert not compatible
                    counts["incompatible"] += 1
                    continue
                assert compatible and rc.quotient_order * rec.index == q.order
                collapsed = betti_numbers(collapse_to_point(rc), "Q")
                assert (collapsed.b, collapsed.torsion) == cover_homology(p, rec), name
                counts["compatible"] += 1
    assert counts["compatible"] > 400 and counts["incompatible"] > 5000, counts


def test_collapse_recovers_group_level_homology():
    p = corpus_presentation("trefoil")
    rec = subgroup_record(p, [parse_word("a", p), parse_word("b a", p)])
    _, q = core_record(rec)
    c = presentation_chain_complex(p, q)
    # collapsing the full complex gives the complex over the trivial quotient
    full = collapse_to_point(c)
    assert full.quotient_order == 1 and full.ranks == c.ranks
    trivial = presentation_chain_complex(p, FiniteGroup.trivial(2))
    assert full.boundaries == trivial.boundaries


def test_restriction_preserves_integral_homology():
    # Betti numbers and torsion both survive the re-blocking permutation
    p = corpus_presentation("trefoil")
    rec = None
    for r in low_index_subgroups(p, 4):
        if r.is_normal and r.index == 4:
            rec = r
            break
    assert rec is not None
    _, q = core_record(rec)
    c = presentation_chain_complex(p, q)
    rc = restrict_to_subgroup(c, rec, q)
    bo, br = betti_numbers(c, "Q"), betti_numbers(rc, "Q")
    assert bo.b == br.b and bo.torsion == br.torsion
