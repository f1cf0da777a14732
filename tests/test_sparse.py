"""deflab's one matrix format, a list of {col: value} rows storing no zero,
and the oracles for the sparse route: ranks over Q against a large prime,
the Euler identity, and Betti numbers over symmetric quotients."""

from math import factorial

import pytest

from deflab import modp
from deflab.chain import (
    collapse_to_point,
    presentation_chain_complex,
    push_to_quotient,
    relator_boundary,
    restrict_to_subgroup,
)
from deflab.corpus import corpus_presentation
from deflab.errors import IncompatibleRestriction
from deflab.groupring import fox_derivative
from deflab.linalg import betti_numbers, mat_mul, rank_mod_p, rank_over_Q, smith_normal_form
from deflab.lowindex import low_index_subgroups
from deflab.presentation import parse_presentation
from deflab.quotient import FiniteGroup

LARGE_PRIME = 2**61 - 1


def assert_no_stored_zero(m):
    """Every row is a dict and stores no zero value.  Dict equality, as in
    SNFResult.verify and the d o d = 0 check, depends on it."""
    for row in m:
        assert isinstance(row, dict)
        assert all(row.values()), row


def test_relator_boundary_drops_cancelled_entries():
    # [a, b] over the trivial action: the +1 of a and the -1 of a^-1 land in
    # one cell, and so do those of b
    commutator = parse_presentation("< a, b | [a, b] >").relators[0]
    trivial = ((0,), (0,))
    d2 = relator_boundary((commutator,), trivial, trivial, 1)
    assert d2 == [{}, {}]
    c = presentation_chain_complex(corpus_presentation("genus2"), FiniteGroup.trivial(4))
    assert c.boundaries == ([{}], [{}, {}, {}, {}])


def test_abelianized_matrix_stores_no_zero_exponent_sum():
    assert corpus_presentation("genus2").abelianized_relator_matrix() == [{}]
    p = parse_presentation("< a, b | a b a^-1, a^2 b^-2 a^-2 >")
    assert p.abelianized_relator_matrix() == [{1: 1}, {1: -2}]


def test_bar_rows_store_no_cancelled_term(monkeypatch):
    bar = []
    monkeypatch.setattr(modp, "rank_mod_p", lambda a, p: bar.append(a) or rank_mod_p(a, p))
    s3 = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])
    assert modp.bar_cohomology_dims(s3, 3).dims == (1, 0, 0)
    d1, d2 = bar
    assert len(d1) == 36 and len(d2) == 216
    for m in (d1, d2):
        assert_no_stored_zero(m)
    # (d1 f)(1, 1) = f(1) - f(1) + f(1) and (d2 f)(1, 1, 1) = f(1, 1) - f(1, 1)
    # + f(1, 1) - f(1, 1): the identity is element 0
    assert d1[0] == {0: 1} and d2[0] == {}


def test_no_stored_zero_in_complexes_products_and_transforms(corpus_core_quotients):
    restricted_once = set()  # restrict one quotient of each order per corpus entry
    restrictions = 0
    for name, p, _, q in corpus_core_quotients:
        c = presentation_chain_complex(p, q)
        matrices = list(c.boundaries)
        matrices += [push_to_quotient(fox_derivative(r, 0), q) for r in p.relators]
        if (name, q.order) not in restricted_once:
            restricted_once.add((name, q.order))
            for rec in low_index_subgroups(p, 2):
                try:
                    restricted = restrict_to_subgroup(c, rec, q)
                except IncompatibleRestriction:
                    continue  # the quotient's kernel is not inside this subgroup
                matrices += restricted.boundaries + collapse_to_point(restricted).boundaries
                restrictions += rec.index == 2
        for b, cols in zip(c.boundaries, c.dims[1:]):
            if any(b):
                snf = smith_normal_form(b, cols)
                matrices += [snf.left, snf.right, mat_mul(snf.left, b)]
        for m in matrices:
            assert_no_stored_zero(m)
        assert not any(mat_mul(*c.boundaries)), name
    assert restrictions > 10


def small_complexes(corpus_core_quotients):
    complexes = [(name, presentation_chain_complex(p, q))
                 for name, p, _, q in corpus_core_quotients if q.order <= 168]
    assert complexes
    return complexes


def test_rank_over_Q_equals_rank_mod_a_large_prime(corpus_core_quotients):
    for name, c in small_complexes(corpus_core_quotients):
        for b in c.boundaries:
            assert rank_over_Q(b) == rank_mod_p(b, LARGE_PRIME), name


def test_euler_identity_over_Q_and_F_p(corpus_core_quotients):
    # sum (-1)^i b_i = |Q| chi, whatever the field
    for name, c in small_complexes(corpus_core_quotients):
        chi = sum((-1) ** i * r for i, r in enumerate(c.ranks))
        for field in ("Q", 2, 3, LARGE_PRIME):
            b = betti_numbers(c, field).b
            assert sum((-1) ** i * x for i, x in enumerate(b)) == c.quotient_order * chi, name


@pytest.mark.parametrize("n,betti", [(6, [1, 1442, 1]), (7, [1, 10082, 1])])
def test_genus2_over_symmetric_groups(n, betti):
    # a, b, c, d -> s, t, t, s kills [a, b][c, d]; a transposition and an
    # n-cycle generate S_n, so chi = n! (1 - 4 + 1)
    s = (1, 0) + tuple(range(2, n))
    t = tuple(range(1, n)) + (0,)
    q = FiniteGroup.from_permutations([s, t, t, s])
    c = presentation_chain_complex(corpus_presentation("genus2"), q)
    b = betti_numbers(c, "Q")
    assert q.order == factorial(n)
    assert b.b == betti and b.torsion == [[], [], []]
