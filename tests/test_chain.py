import random

import pytest

from deflab.chain import (
    collapse_to_point,
    presentation_chain_complex,
    push_to_quotient,
    restrict_to_subgroup,
)
from deflab.corpus import corpus_presentation
from deflab.coset import subgroup_record
from deflab.errors import InvalidQuotient
from deflab.groupring import GroupRingElement, fox_derivative
from deflab.linalg import betti_numbers, mat_mul, to_dense
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


def test_composition_zero_is_construction_invariant():
    # 100 randomized (presentation, quotient of order <= 24) pairs
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
            recs = low_index_subgroups(p, 3, max_nodes=40_000)
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
    from deflab.errors import IncompatibleRestriction

    torus = corpus_presentation("torus")
    rec2 = subgroup_record(torus, [parse_word("a^2", torus), parse_word("b", torus)])
    _, q2 = core_record(rec2)
    # subgroup <a, b^2> does not contain the kernel of G -> G/<<a^2, b>>
    other = subgroup_record(torus, [parse_word("a", torus), parse_word("b^2", torus)])
    with pytest.raises(IncompatibleRestriction):
        restrict_to_subgroup(presentation_chain_complex(torus, q2), other, q2)


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


def test_chain_complex_serializable():
    import json

    p = corpus_presentation("torus")
    c = presentation_chain_complex(p, FiniteGroup.trivial(2))
    data = json.loads(json.dumps(c.to_json()))
    assert data["ranks"] == [1, 2, 1]
    assert data["boundaries"][1] == [[0], [0]]
