import random

import pytest

from deflab import modp
from deflab.chain import presentation_chain_complex, restrict_to_subgroup
from deflab.coset import subgroup_record
from deflab.corpus import corpus_presentation
from deflab.errors import LimitExceeded
from deflab.linalg import betti_numbers
from deflab.lowindex import low_index_subgroups
from deflab.modcert import separating_subgroup
from deflab.modp import dual_complex_dims
from deflab.presentation import parse_presentation, parse_word
from deflab.quotient import FiniteGroup, core_quotient, core_record
from deflab.words import Word


def inverses(q):
    """Inverse of each element, read off the multiplication table."""
    return tuple(row.index(0) for row in q.mult)


def assert_group_axioms(q):
    m, n, inv = q.mult, q.order, inverses(q)
    assert all(m[0][j] == j and m[j][0] == j for j in range(n)), "0 is not the identity"
    assert all(m[e][inv[e]] == 0 == m[inv[e]][e] for e in range(n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert m[m[i][j]][k] == m[i][m[j][k]], "multiplication is not associative"


def compose(a, b):
    """a then b: permutations act on the right, (a * b)(x) = b(a(x))."""
    return tuple(b[x] for x in a)


def invert(a):
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


def closure(gens):
    """The group generated by gens, BFS from the identity by right products."""
    elements = [tuple(range(len(gens[0])))]
    seen = set(elements)
    for e in elements:
        for g in gens:
            f = compose(e, g)
            if f not in seen:
                seen.add(f)
                elements.append(f)
    return elements


def assert_matches_composition(q, gens, words):
    elements = closure(gens)
    index = {e: i for i, e in enumerate(elements)}
    assert q.order == len(elements)
    inv = inverses(q)
    for a, pa in enumerate(elements):
        assert inv[a] == index[invert(pa)]
        for b, pb in enumerate(elements):
            assert q.mult[a][b] == index[compose(pa, pb)]
    for w in words:
        perm = elements[0]
        for g, s in w:
            perm = compose(perm, gens[g] if s == 1 else invert(gens[g]))
        assert q.project_word(w) == index[perm]


def rand_words(rng, ngens, count=20, max_len=8):
    return [
        Word(tuple((rng.randrange(ngens), rng.choice((1, -1)))
                   for _ in range(rng.randrange(max_len + 1))))
        for _ in range(count)
    ]


def test_normal_subgroup_is_its_own_core():
    p = parse_presentation("< a, b | [a,b] >")
    rec = subgroup_record(p, [parse_word("a^2", p), parse_word("b", p)])
    assert rec.is_normal
    core_table, q = core_quotient(rec)
    assert core_table.index == 2 and q.order == 2


def test_nonnormal_core_in_f2():
    # an index-3 subgroup of F2 with image S3 has core of index 6
    s3 = parse_presentation("< a, b | a^2, b^3, a b a b >")
    rec = subgroup_record(s3, [parse_word("a", s3)])
    assert rec.index == 3 and not rec.is_normal
    core_table, q = core_quotient(rec)
    assert core_table.index == 6 and q.order == 6


def test_whole_group_gives_trivial_quotient():
    p = parse_presentation("< a, b | >")
    rec = subgroup_record(p, [parse_word("a", p), parse_word("b", p)])
    _, q = core_quotient(rec)
    assert q.order == 1


def test_quotient_is_a_group():
    s3 = parse_presentation("< a, b | a^2, b^3, a b a b >")
    rec = subgroup_record(s3, [parse_word("a", s3)])
    _, q = core_quotient(rec)
    assert_group_axioms(q)
    assert q.mult[0] == tuple(range(q.order))  # identity row
    inv = inverses(q)
    for e in range(q.order):
        assert q.mult[e][inv[e]] == 0


def test_projection_respects_relators():
    p = corpus_presentation("q8")
    rec = subgroup_record(p, [])
    _, q = core_quotient(rec)
    assert q.order == 8
    for r in p.relators:
        assert q.project_word(r) == 0


def test_core_record_budget():
    s3 = parse_presentation("< a, b | a^2, b^3, a b a b >")
    rec = subgroup_record(s3, [parse_word("a", s3)])
    with pytest.raises(LimitExceeded):
        core_record(rec, max_order=3)


def test_cyclic_constructor():
    q = FiniteGroup.cyclic(6)
    assert_group_axioms(q)
    assert q.order == 6 and inverses(q)[1] == 5
    with pytest.raises(ValueError, match="order"):
        FiniteGroup.cyclic(0)
    with pytest.raises(ValueError, match="needs a generator"):
        FiniteGroup.cyclic(5, ngens=0)  # trivial(0) is the group with no generators


def test_random_permutation_groups_match_composition():
    rng = random.Random(71)
    for _ in range(40):
        degree = rng.randrange(1, 6)
        gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randrange(1, 4))]
        q = FiniteGroup.from_permutations(gens)
        assert len(q.right) == len(gens)
        assert_matches_composition(q, gens, rand_words(rng, len(gens)))


def test_corpus_core_quotients_match_composition(corpus_core_quotients):
    rng = random.Random(73)
    assert len(corpus_core_quotients) > 3000
    for name, p, gens, q in corpus_core_quotients:
        words = list(p.relators) + rand_words(rng, p.num_generators, count=5)
        assert_matches_composition(q, gens, words)
        assert all(q.project_word(r) == 0 for r in p.relators), name


def test_trivial_and_cyclic_match_composition():
    rng = random.Random(79)
    for ngens in range(4):
        assert_matches_composition(FiniteGroup.trivial(ngens), [(0,)] * max(ngens, 1),
                                   rand_words(rng, ngens) if ngens else [Word()])
    for n in range(1, 8):
        shift = tuple((x + 1) % n for x in range(n))
        assert_matches_composition(FiniteGroup.cyclic(n, ngens=2), [shift, shift],
                                   rand_words(rng, 2))


def test_chain_and_betti_build_no_multiplication_table(monkeypatch):
    s3 = parse_presentation("< a, b | a^2, b^3, a b a b >")
    q = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])
    real_mult, real_bar = FiniteGroup.mult, modp.bar_cohomology_dims
    bar_orders = []

    def refuse(group):
        raise AssertionError("a multiplication table was read")

    def bar_reading_mult(group, *args, **kwargs):
        bar_orders.append(group.order)
        with monkeypatch.context() as inner:
            inner.setattr(FiniteGroup, "mult", real_mult)
            return real_bar(group, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(FiniteGroup, "mult", property(refuse))
        m.setattr(modp, "bar_cohomology_dims", bar_reading_mult)
        with pytest.raises(AssertionError, match="was read"):
            q.mult
        c = presentation_chain_complex(s3, q)
        # Euler characteristic 6 * (1 - 2 + 3) = 12
        assert betti_numbers(c, 3).b == betti_numbers(c, "Q").b == [1, 0, 11]
        _, core = core_record(subgroup_record(s3, [parse_word("a", s3)]))
        for gens, k in ((["b"], 2), (["a"], 3)):
            rc = restrict_to_subgroup(c, subgroup_record(s3, [parse_word(w, s3) for w in gens]), q)
            assert rc.quotient_order == 6 // k and betti_numbers(rc, "Q").b == [1, 0, 11]
        d4 = corpus_presentation("d4")
        normal = [r for r in low_index_subgroups(d4, 2) if r.index == 2 and r.is_normal]
        assert all(dual_complex_dims(d4, rec, 2).jbar_dim is not None for rec in normal)
        assert len(normal) == 3 and bar_orders == []  # jbar_dim comes from pi2, not the bar
        words = [parse_word(w, d4) for w in ("1", "r", "s", "r s")]
        assert separating_subgroup(words, d4, 4).index == 4
    for group in (q, core):
        assert group.order == 6
        assert "mult" not in group.__dict__
    assert q.mult == core.mult and "mult" in q.__dict__  # built on first use


def test_from_permutations_needs_one_common_point_set():
    for gens in ([(1, 0), (0, 1, 2)], [(1, 2, 0), (1, 0)], [(0, 0)], [(1, 2)]):
        with pytest.raises(ValueError, match="one common range"):
            FiniteGroup.from_permutations(gens)
    assert FiniteGroup.from_permutations([(1, 0, 2), (0, 2, 1)]).order == 6
    assert FiniteGroup.from_permutations(()) == FiniteGroup.trivial(0)  # no generators


def test_non_regular_action_is_rejected():
    with pytest.raises(ValueError):
        FiniteGroup(right=((0, 0, 1),))
    # S3 acting on 3 points: a group, but not its own right-regular action
    with pytest.raises(LimitExceeded):
        FiniteGroup(right=((1, 0, 2), (1, 2, 0))).mult
