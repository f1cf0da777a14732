from collections import Counter
from functools import lru_cache

import pytest
from conftest import node_budget, small_presentations
from hypothesis import given, settings
from hypothesis import strategies as st

from deflab import modp
from deflab.chain import presentation_chain_complex
from deflab.corpus import CORPUS, corpus_presentation
from deflab.coset import subgroup_record, todd_coxeter
from deflab.errors import NonNormalSubgroup, OrderCapExceeded
from deflab.linalg import cokernel_invariants, rank_mod_p, transpose
from deflab.lowindex import low_index_subgroups, normal_subgroups
from deflab.presentation import Presentation
from deflab.modp import bar_cohomology_dims, dual_complex_dims
from deflab.presentation import parse_presentation, parse_word
from deflab.quotient import FiniteGroup, core_quotient, core_record
from deflab.schreier import rewrite_subgroup_presentation
from deflab.words import Word


def h1_dim_mod_p(sub_presentation, p):
    """dim Hom(H1(N), F_p) from the abelianized Schreier presentation."""
    matrix = sub_presentation.abelianized_relator_matrix()
    n = sub_presentation.num_generators
    free, torsion = cokernel_invariants(transpose(matrix, n), len(matrix))
    return free + sum(1 for t in torsion if t % p == 0)


def test_bar_trivial_group():
    for p in (2, 3, 5):
        assert bar_cohomology_dims(FiniteGroup.trivial(1), p).dims == (1, 0, 0)


def test_bar_cyclic_groups():
    for p in (2, 3, 5):
        assert bar_cohomology_dims(FiniteGroup.cyclic(p), p).dims == (1, 1, 1)
    assert bar_cohomology_dims(FiniteGroup.cyclic(3), 2).dims == (1, 0, 0)
    assert bar_cohomology_dims(FiniteGroup.cyclic(2), 3).dims == (1, 0, 0)


def test_bar_klein_four():
    # H^*(C2 x C2, F2) is polynomial on two degree-1 classes
    p = corpus_presentation("c2xc2")
    _, q = core_record(subgroup_record(p, []))
    assert q.order == 4
    dims = bar_cohomology_dims(q, 2).dims
    assert dims == (1, 2, 3)


def test_bar_cap():
    with pytest.raises(OrderCapExceeded, match="group order 65 exceeds the cap 64"):
        bar_cohomology_dims(FiniteGroup.cyclic(65), 3)


def test_one_cap_read_at_call_time_bounds_the_oracle_and_the_cross_check(monkeypatch):
    # the index-2 normal subgroups of q8 have order 4
    q8 = corpus_presentation("q8")
    halves = [rec for rec in normal_subgroups(q8, 2) if rec.index == 2]
    assert len(halves) == 3
    monkeypatch.setattr(modp, "BAR_ORDER_CAP", 4)
    assert bar_cohomology_dims(FiniteGroup.cyclic(4), 2).dims == (1, 1, 1)
    assert [dual_complex_dims(q8, rec, 2).jbar_dim for rec in halves] == [3, 3, 3]
    monkeypatch.setattr(modp, "BAR_ORDER_CAP", 3)
    with pytest.raises(OrderCapExceeded, match="group order 4 exceeds the cap 3"):
        bar_cohomology_dims(FiniteGroup.cyclic(4), 2)
    reports = [dual_complex_dims(q8, rec, 2) for rec in halves]
    assert [r.jbar_dim for r in reports] == [None, None, None]
    assert {r.dims[:2] for r in reports} == {(1, 1)}  # each half is C4


def test_dual_complex_z_mod_2z():
    z = corpus_presentation("free1")
    n2 = subgroup_record(z, [parse_word("a^2", z)])
    rep = dual_complex_dims(z, n2, 2)
    assert rep.dims[0] == 1 and rep.dims[1] == 1


def test_dual_complex_torus_whole_group():
    torus = corpus_presentation("torus")
    whole = low_index_subgroups(torus, 1)[0]
    rep = dual_complex_dims(torus, whole, 2)
    assert rep.dims[1] == 2  # H^1(Z^2, F_2) has dimension 2


def test_dual_complex_rejects_non_normal():
    s3 = parse_presentation("< a, b | a^2, b^3, a b a b >")
    rec = subgroup_record(s3, [parse_word("a", s3)])
    assert not rec.is_normal
    with pytest.raises(NonNormalSubgroup):
        dual_complex_dims(s3, rec, 2)


def test_dual_complex_rejects_a_record_of_another_presentation():
    torus, free3 = corpus_presentation("torus"), corpus_presentation("free3")
    rec = next(r for r in normal_subgroups(free3, 2) if r.index == 2)
    with pytest.raises(ValueError, match="record does not belong to this presentation"):
        dual_complex_dims(torus, rec, 2)


def subgroup_itself(regular, rec):
    """N as a FiniteGroup: its Schreier generators t_c g t_{c.g}^-1 acting by
    right multiplication on the elements of the whole group, whose regular
    action is `regular`."""
    t = rec.transversal
    perms = []
    for c, g in rec.schreier_generators():
        w = t[c] * Word(((g, 1),)) * t[rec.table.action[g][c]].inverse()
        perms.append(tuple(regular.trace(e, w) for e in range(regular.index)))
    return FiniteGroup.from_permutations(perms)


ORACLE_GROUPS = [(corpus_presentation(name), 8) for name in ("c2", "c3", "c4", "c5", "c2xc2", "q8", "d4")]
ORACLE_GROUPS += [
    (parse_presentation("< a, b | a^16, b^2, a b a b >"), 4),  # dihedral, order 32
    (parse_presentation("< a, b | a^8, a^4 b^-2, b^-1 a b a >"), 4),  # quaternion, order 16
    (parse_presentation("< a, b | a^2, b^3, a b a b a b >"), 4),  # A4
    (parse_presentation("< a, b | a^2, b^3, a b a b a b a b >"), 4),  # S4
    (parse_presentation("< a, b | a^4, b^4, [a, b] >"), 4),  # C4 x C4
]


def test_pi2_route_matches_the_bar_oracle():
    # h0 and h1 of the cover, and h2 less the image of pi2, are the bar
    # complex's dims of N itself
    checked = 0
    for p, max_index in ORACLE_GROUPS:
        regular = todd_coxeter(p, ())
        for rec in normal_subgroups(p, max_index):
            group = subgroup_itself(regular, rec)
            assert group.order * rec.index == regular.index
            for prime in (2, 3):
                h0, h1, h2t = (rep := dual_complex_dims(p, rec, prime)).dims
                assert bar_cohomology_dims(group, prime).dims == (h0, h1, h2t - rep.jbar_dim), (
                    p, rec.index, prime,
                )
                checked += 1
    assert checked == 102


def test_pi2_route_runs_past_the_bar_oracles_reach(monkeypatch):
    # the bar complex of C8 x C8 has 64^3 rows; H^1 and H^2 over F_3 vanish
    def refuse(group, p):
        raise AssertionError("the bar oracle ran")

    monkeypatch.setattr(modp, "bar_cohomology_dims", refuse)
    c8xc8 = parse_presentation("< a, b | a^8, b^8, [a, b] >")
    (whole,) = normal_subgroups(c8xc8, 1)
    rep = dual_complex_dims(c8xc8, whole, 3)
    assert rep.dims == (1, 0, 1) and rep.jbar_dim == 1


def test_dual_position1_matches_schreier_abelianization():
    # corpus normal subgroups with quotient order <= 16, p in {2, 3}
    names = ("free1", "free2", "torus", "trefoil", "dup_relator",
             "c2", "c3", "c4", "c5", "c2xc2", "q8", "d4")
    checked = 0
    for name in names:
        p = corpus_presentation(name)
        cap = 4 if name in ("free2", "torus", "trefoil", "dup_relator") else 8
        for rec in low_index_subgroups(p, cap):
            if not rec.is_normal or rec.index > 16:
                continue
            sub = rewrite_subgroup_presentation(p, rec)
            for prime in (2, 3):
                rep = dual_complex_dims(p, rec, prime)
                expected = h1_dim_mod_p(sub.presentation, prime)
                assert rep.dims[1] == expected, (name, rec.index, prime)
                checked += 1
    assert checked >= 40


def test_jbar_on_finite_groups():
    c4 = corpus_presentation("c4")
    n = subgroup_record(c4, [parse_word("a^2", c4)])
    rep = dual_complex_dims(c4, n, 2)
    # position 2 of the truncated complex carries H^2(C2) plus the excess
    assert rep.jbar_dim is not None and rep.jbar_dim >= 0
    assert rep.dims[2] == rep.jbar_dim + bar_cohomology_dims(FiniteGroup.cyclic(2), 2).dims[2]


def test_bar_matches_known_cohomology_of_order8_groups():
    # mod-2 cohomology dimensions in degrees 0..2: quaternion (1,2,2),
    # dihedral (1,2,3), cyclic (1,1,1); coprime characteristic vanishes
    expected = {
        ("q8", 2): (1, 2, 2),
        ("d4", 2): (1, 2, 3),
        ("c4", 2): (1, 1, 1),
        ("c2xc2", 3): (1, 0, 0),
        ("q8", 3): (1, 0, 0),
    }
    for (name, prime), dims in expected.items():
        p = corpus_presentation(name)
        _, q = core_record(subgroup_record(p, []))
        assert bar_cohomology_dims(q, prime).dims == dims, (name, prime)


def test_dual_complex_at_odd_primes():
    c3 = corpus_presentation("c3")
    whole = low_index_subgroups(c3, 1)[0]
    rep = dual_complex_dims(c3, whole, 3)
    assert rep.dims[0] == 1 and rep.dims[1] == 1
    rep = dual_complex_dims(c3, whole, 2)
    assert rep.dims[1] == 0


def quotient_complex_dims(p, rec, prime):
    """(k - r1, e1*k - r2 - r1, e2*k - r2), with r1 and r2 the mod-p ranks of
    the presentation complex pushed to G/N: the route that reads no cover."""
    k = rec.index
    _, q = core_quotient(rec)
    assert q.order == k
    d1, d2 = presentation_chain_complex(p, q).boundaries
    r1, r2 = rank_mod_p(d1, prime), rank_mod_p(d2, prime)
    return (k - r1, p.num_generators * k - r2 - r1, p.num_relators * k - r2)


def assert_cover_dims_match_the_quotient_complex(p, rec):
    for prime in (2, 3):
        rep = dual_complex_dims(p, rec, prime)
        assert rep.dims == quotient_complex_dims(p, rec, prime), (rec.index, prime)


def test_dual_complex_matches_the_quotient_complex_on_the_corpus():
    checked = 0
    for name in CORPUS:
        p = corpus_presentation(name)
        for rec in low_index_subgroups(p, 3):
            if rec.is_normal:
                assert_cover_dims_match_the_quotient_complex(p, rec)
                checked += 1
    assert checked >= 600


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(small_presentations())
def test_dual_complex_matches_the_quotient_complex_property(p):
    with node_budget(100_000):
        records = low_index_subgroups(p, 3)
    for rec in records:
        if rec.is_normal:
            assert_cover_dims_match_the_quotient_complex(p, rec)


# dihedral of order 32: three normal subgroups of index 2
D16 = parse_presentation("< a, b | a^16, b^2, a b a b >")
RELABELLED = {name: corpus_presentation(name) for name in ("dup_relator", "c2xc2", "q8", "d4")}
RELABELLED["d16"] = D16


def modp_dims(p, k):
    """The multiset of `modp -p 2 --normal-index k` dims.  jbar_dim is left
    out: whether Todd-Coxeter closes the whole group within the coset limit
    of the pi2 route depends on the labelling (ROADMAP item 8)."""
    return Counter(
        dual_complex_dims(p, rec, 2).dims for rec in normal_subgroups(p, k) if rec.index == k
    )


@lru_cache(maxsize=None)
def modp_dims_as_given(name, k):
    return modp_dims(RELABELLED[name], k)


@st.composite
def relabellings(draw):
    """(name, presentation with its generators permuted and inverted and its
    relators reordered)."""
    name = draw(st.sampled_from(sorted(RELABELLED)))
    p = RELABELLED[name]
    n = p.num_generators
    image = draw(st.permutations(range(n)))
    sign = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    relators = [Word(tuple((image[g], s * sign[g]) for g, s in r)) for r in p.relators]
    return name, Presentation(p.generators, tuple(draw(st.permutations(relators))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(relabellings(), st.integers(2, 4))
def test_modp_dims_do_not_depend_on_the_labelling(relabelled, k):
    name, p = relabelled
    assert modp_dims(p, k) == modp_dims_as_given(name, k), (name, k)
