import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from math import gcd
from pathlib import Path

import pytest
from conftest import from_dense, node_budget, small_presentations, to_dense
from hypothesis import given, settings
from hypothesis import strategies as st

from deflab import linalg, modp, stability
from deflab.chain import ChainComplex, presentation_chain_complex
from deflab.corpus import CORPUS, corpus_presentation
from deflab.errors import (
    DeflabError,
    InternalCheckFailed,
    ModulusTooLarge,
    NonPrimeModulus,
)
from deflab.linalg import (
    SNFResult,
    betti_numbers,
    cokernel_invariants,
    is_prime,
    mat_mul,
    morse_check,
    partial_euler_mu,
    rank_mod_p,
    rank_over_Q,
    smith_normal_form,
    transpose,
)
from deflab.lowindex import low_index_subgroups
from deflab.quotient import FiniteGroup, core_quotient

# The tests build dense lists of lists, convert them with conftest's
# `from_dense` for deflab, and check its sparse results against definitions:
# a Smith form is L @ A @ R = diag(d_1, ..., d_r) with d_i | d_{i+1} and
# unimodular L and R (`det`, by Bareiss), which fixes the diagonal; the
# determinantal divisors (gcds of k x k minors, by the Leibniz formula) give
# it again with no elimination at all.


def identity_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dense_product(a, b):
    """a @ b for dense lists of lists, by the definition."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def dense_snf(a):
    """smith_normal_form of a dense matrix."""
    return smith_normal_form(from_dense(a), len(a[0]))


def assert_smith_form_of(snf, a):
    """L @ a @ R, multiplied densely, is diag(snf.diagonal); d_i | d_{i+1}."""
    rows, cols = len(a), len(a[0])
    product = dense_product(dense_product(to_dense(snf.left, rows), a), to_dense(snf.right, cols))
    diagonal = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(snf.diagonal):
        diagonal[i][i] = d
    assert product == diagonal
    for x, y in zip(snf.diagonal, snf.diagonal[1:]):
        assert x > 0 and y % x == 0


def det(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for i in range(k + 1, n):
            f = m[i][k]
            if f or pivot != prev:  # else the update leaves row i as it is
                m[i] = [(x * pivot - f * y) // prev for x, y in zip(m[i], top)]
        prev = pivot
    return sign * prev


def assert_unimodular(snf):
    rows, cols = snf.shape
    assert det(to_dense(snf.left, rows)) in (1, -1)
    assert det(to_dense(snf.right, cols)) in (1, -1)


def test_det_helper():
    assert det([]) == 1 and det([[0]]) == 0 and det([[-3]]) == -3
    assert det([[0, 1], [1, 0]]) == -1 and det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert det([[0, 2, 1], [1, 1, 1], [2, 2, 2]]) == 0


def rand_matrix(rng, max_dim=12, bound=9):
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    return [
        [rng.randrange(-bound, bound + 1) for _ in range(cols)] for _ in range(rows)
    ]


def test_snf_identity():
    snf = dense_snf(identity_matrix(4))
    assert snf.diagonal == [1, 1, 1, 1] and snf.rank == 4


def test_snf_zero():
    snf = smith_normal_form([{}, {}], 2)
    assert snf.diagonal == [] and snf.rank == 0
    assert snf.left == snf.right == [{0: 1}, {1: 1}]


def test_snf_diag_2_3():
    snf = smith_normal_form([{0: 2}, {1: 3}], 2)
    assert snf.diagonal == [1, 6]
    snf.verify([{0: 2}, {1: 3}])
    assert_smith_form_of(snf, [[2, 0], [0, 3]])


def test_snf_random_self_verification():
    # verify() already runs inside smith_normal_form; re-check here explicitly
    rng = random.Random(31)
    for _ in range(500):
        a = rand_matrix(rng)
        snf = dense_snf(a)
        assert_smith_form_of(snf, a)
        assert_unimodular(snf)


def test_rank_mod_p_examples():
    assert rank_mod_p([{0: 2}], 2) == 0
    assert rank_mod_p([{0: 2}], 3) == 1
    for p in (2, 3, 5, 7):
        assert rank_mod_p([{0: 1, 1: 1}, {0: 1, 1: 1}], p) == 1
    with pytest.raises(NonPrimeModulus):
        rank_mod_p([{0: 1}], 6)


def exact_rank_mod_p(a, p):
    """Gauss-Jordan elimination over F_p in Python ints."""
    m = [[x % p for x in row] for row in a]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_rank_mod_p_rejects_primes_beyond_int64_products():
    # primality is certified only below 2^64; 2^64 + 13 is the first prime above
    with pytest.raises(ModulusTooLarge):
        rank_mod_p([{0: 1, 1: 2}, {0: 3, 1: 4}], 2**64 + 13)
    assert issubclass(ModulusTooLarge, DeflabError)
    rng = random.Random(43)
    for p in (2**31 - 1, 2**32 + 15, 2**61 - 1):
        for _ in range(100):
            u = [[rng.randrange(p) for _ in range(3)] for _ in range(4)]
            v = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
            a = dense_product(u, v)
            assert rank_mod_p(from_dense(a), p) == exact_rank_mod_p(a, p)
        a = [[1, 1], [1, 1 + p]]
        assert rank_mod_p(from_dense(a), p) == exact_rank_mod_p(a, p) == 1


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 5000) if is_prime(n)] == [
        n for n in range(-3, 5000) if trial(n)
    ]
    # Carmichael numbers with no factor below 41 (211 * 421 * 631 passes every
    # base if reaching 1 before -1 counted as a pass), then strong
    # pseudoprimes to every base up to 7, 13 and 23
    for n in (41 * 61 * 101, 211 * 421 * 631, 3215031751, 3474749660383, 3825123056546413051):
        assert not is_prime(n)
    for n in (2**31 - 1, 2**32 + 15, 2**61 - 1, 2**64 - 59):
        assert is_prime(n)
    with pytest.raises(ModulusTooLarge, match="2\\^64"):
        is_prime(2**64 + 13)


def test_rank_agreement_away_from_torsion():
    rng = random.Random(37)
    for _ in range(100):
        a = rand_matrix(rng, max_dim=8, bound=5)
        snf = dense_snf(a)
        rq = rank_over_Q(from_dense(a))
        assert rq == snf.rank
        for p in (2, 3, 5, 7, 11):
            if all(d % p for d in snf.diagonal):
                assert rank_mod_p(from_dense(a), p) == rq


def test_betti_examples():
    torus = corpus_presentation("torus")
    b = betti_numbers(presentation_chain_complex(torus, FiniteGroup.trivial(2)), "Q")
    assert b.b == [1, 2, 1]
    genus2 = corpus_presentation("genus2")
    b = betti_numbers(presentation_chain_complex(genus2, FiniteGroup.trivial(4)), "Q")
    assert b.b == [1, 4, 1]
    free2 = corpus_presentation("free2")
    b = betti_numbers(presentation_chain_complex(free2, FiniteGroup.trivial(2)), "Q")
    assert b.b == [1, 2, 0]


def test_betti_torsion_mod_p():
    c5 = corpus_presentation("c5")
    c = presentation_chain_complex(c5, FiniteGroup.trivial(1))
    bq = betti_numbers(c, "Q")
    assert bq.b == [1, 0, 0] and bq.torsion[1] == [5]  # H1 = Z/5
    b5 = betti_numbers(c, 5)
    assert b5.b == [1, 1, 1]
    b3 = betti_numbers(c, 3)
    assert b3.b == [1, 0, 0]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_presentations())
def test_universal_coefficients_match_ranks_mod_p(p):
    # b_i(F_p) = b_i(Q) + t_i(p) + t_(i-1)(p), where t_i(p) counts the
    # torsion factors of H_i divisible by p: Smith forms on one side,
    # rank_mod_p on the other
    quotients = [FiniteGroup.trivial(p.num_generators)]
    with node_budget(100_000):
        records = low_index_subgroups(p, 3)
    quotients += [core_quotient(rec)[1] for rec in records]
    for q in quotients:
        c = presentation_chain_complex(p, q)
        over_q = betti_numbers(c, "Q")
        for prime in (2, 3, 5):
            t = [sum(d % prime == 0 for d in factors) for factors in over_q.torsion]
            expected = [b + t[i] + (t[i - 1] if i else 0) for i, b in enumerate(over_q.b)]
            assert betti_numbers(c, prime).b == expected, (q.order, prime)


def test_partial_euler_mu():
    e = partial_euler_mu([1, 2, 1], 2)
    assert e.mu == 0 and e.chi == 0 and e.nu2 == 0
    e = partial_euler_mu([1, 4, 1], 2)
    assert e.mu == -2
    e = partial_euler_mu([1, 3, 7], 2)
    assert e.mu == 1 - 3 + 7 and e.chi == 1 - 3 + 7
    e1 = partial_euler_mu([1, 3], 1)
    assert e1.mu == 2 and e1.nu2 is None


def test_morse_check():
    from deflab.linalg import BettiVector

    torus_b = BettiVector(b=[1, 2, 1], torsion=[[], [], []], field="Q")
    holds, slack = morse_check(torus_b, partial_euler_mu([1, 2, 1], 2))
    assert holds and slack == 0
    genus2_b = BettiVector(b=[1, 4, 1], torsion=[[], [], []], field="Q")
    holds, slack = morse_check(genus2_b, partial_euler_mu([1, 4, 1], 2))
    assert holds and slack == 0
    fabricated = BettiVector(b=[1, 0, 5], torsion=[[], [], []], field="Q")
    holds, slack = morse_check(fabricated, partial_euler_mu([1, 2, 1], 2))
    assert not holds and slack == -6


def boundaries_with_columns(c):
    """(boundary, column count) for each boundary of c with a nonempty shape."""
    return [(b, cols) for b, cols in zip(c.boundaries, c.dims[1:]) if b and cols]


def corpus_matrices():
    """Corpus-derived sparse integer matrices, each with its column count:
    abelianized relators and chain boundaries."""
    mats = []
    for name in CORPUS:
        p = corpus_presentation(name)
        m = p.abelianized_relator_matrix()
        if m:
            mats.append((m, p.num_generators))
        c = presentation_chain_complex(p, FiniteGroup.trivial(p.num_generators))
        mats += boundaries_with_columns(c)
    assert mats
    return mats


def test_snf_transforms_are_unimodular_on_corpus_complexes(corpus_core_quotients):
    mats = corpus_matrices()
    largest = {}  # per corpus entry, the complex over its largest core quotient
    for name, p, _, q in corpus_core_quotients:
        if q.order > largest.get(name, (0,))[0]:
            largest[name] = (q.order, p, q)
    for _, p, q in largest.values():
        mats += boundaries_with_columns(presentation_chain_complex(p, q))
    for a, cols in mats:
        assert_unimodular(smith_normal_form(a, cols))


def assert_smith_form_by_definition(a, cols):
    """smith_normal_form of a sparse matrix passes verify (L @ a @ R is the
    diagonal and each factor divides the next) with unimodular L and R."""
    snf = smith_normal_form(a, cols)
    snf.verify(a)
    assert snf.rank == len(snf.diagonal)
    assert_unimodular(snf)
    return snf


def test_snf_is_the_smith_form_on_corpus_complexes(corpus_core_quotients):
    psl27 = FiniteGroup.from_permutations([(7, 6, 3, 2, 5, 4, 1, 0), (6, 3, 2, 5, 4, 1, 7, 0)])
    assert psl27.order == 168
    complexes = [(p, q) for _, p, _, q in corpus_core_quotients if q.order <= 168]
    complexes.append((corpus_presentation("trefoil"), psl27))
    for p, q in complexes:
        for b, cols in boundaries_with_columns(presentation_chain_complex(p, q)):
            assert_smith_form_by_definition(b, cols)


NO_UNITS, ALL_UNITS, MIXED = (0, 0, 2, -2, 3, -4, 6, 12), (0, 1, -1), (0, 0, 1, -1, 2, -3, 4)


def test_snf_is_the_smith_form_on_random_matrices():
    rng = random.Random(61)
    for values in (NO_UNITS, ALL_UNITS, MIXED):
        for _ in range(100):
            rows, cols = rng.randint(1, 10), rng.randint(1, 10)
            a = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
            assert_smith_form_by_definition(from_dense(a), cols)


def leibniz_det(a):
    """Determinant as the signed sum over permutations, with no elimination."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[s] > perm[t] for s in range(n) for t in range(s + 1, n))
        for r, c in enumerate(perm):
            term *= a[r][c]
        total += term
    return total


def determinantal_invariants(a):
    """The nonzero invariant factors d_k = D_k / D_(k-1) of a dense matrix,
    where the determinantal divisor D_k is the gcd of all k x k minors."""
    rows, cols = len(a), len(a[0])
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, leibniz_det([[a[r][c] for c in cs] for r in rs]))
        if g == 0:
            break  # every larger minor expands into these, so is 0 as well
        divisors.append(g)
    return [d // prev for prev, d in zip(divisors, divisors[1:])]


def test_determinantal_invariants_helper():
    a = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert leibniz_det(a) == det(a) == -3
    assert determinantal_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert determinantal_invariants([[2, 4], [4, 8]]) == [2]
    assert determinantal_invariants([[0, 0]]) == []
    assert determinantal_invariants([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]


def test_snf_matches_determinantal_divisors():
    rng = random.Random(67)
    draws = [[[2, 0], [0, 3]]]  # 2 does not divide 3: phase 2 must add rows to reach 1, 6
    for values in (NO_UNITS, ALL_UNITS, MIXED):
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            draws.append([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
    for a in draws:
        assert dense_snf(a).diagonal == determinantal_invariants(a), a


@st.composite
def pool_matrices(draw):
    """Dense matrices up to 6 x 6 over the no-unit, all-unit or mixed pool."""
    values = st.sampled_from(draw(st.sampled_from((NO_UNITS, ALL_UNITS, MIXED))))
    cols = draw(st.integers(1, 6))
    return draw(st.lists(st.lists(values, min_size=cols, max_size=cols), min_size=1, max_size=6))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pool_matrices())
def test_snf_diagonal_is_the_determinantal_one(a):
    snf = dense_snf(a)
    snf.verify(from_dense(a))
    assert snf.diagonal == determinantal_invariants(a)


def test_snf_of_a_30_by_30_matrix_with_no_unit_entry():
    # no entry is +-1, so phase 1 pivots nowhere and phase 2 eliminates the
    # whole matrix; it is the ninth matrix of this seeded draw
    rng = random.Random(5)
    draws = [(10, NO_UNITS)] * 3 + [(20, NO_UNITS)] * 3 + [(30, (0, 0, 0, 2, -2, 3, -4, 6, 12))] * 3
    for n, values in draws:
        a = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
    snf = assert_smith_form_by_definition(from_dense(a), 30)
    assert snf.rank == 30


def test_snf_with_torsion_in_the_core():
    # q8 over its quotient C2 x C2: d2 is 8 x 12 and H_1 has torsion [2];
    # unit pivots only give 1s, so the 2 comes from phase 2
    q = FiniteGroup.from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)])
    c = presentation_chain_complex(corpus_presentation("q8"), q)
    assert c.dims == [4, 8, 12]
    assert assert_smith_form_by_definition(c.boundaries[1], 12).diagonal == [1, 1, 1, 1, 2]


def test_snf_with_minus_one_pivots_only():
    for a in (
        [[-1]],
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [[0, -1, 0], [0, 0, -1], [-1, 0, 0]],
        [[-1, -1], [0, -1]],
        [[-1, 0, 4], [0, -1, 6]],
    ):
        snf = assert_smith_form_by_definition(from_dense(a), len(a[0]))
        assert snf.diagonal == [1] * len(a)


def test_rank_agreement_on_corpus_matrices():
    for a, cols in corpus_matrices():
        snf = smith_normal_form(a, cols)
        for p_ in (2, 3, 5, 7):
            if all(d % p_ for d in snf.diagonal):
                assert rank_mod_p(a, p_) == snf.rank


def test_b0_is_one_on_connected_corpus_complexes():
    for name in CORPUS:
        p = corpus_presentation(name)
        c = presentation_chain_complex(p, FiniteGroup.trivial(p.num_generators))
        assert betti_numbers(c, "Q").b[0] == 1, name


ORACLE_PRIMES = (2, 3, 5, 2**31 - 1)
BIG = 10**30


def elementary_abelian(k):
    """(Z/2)^k: generator i swaps the points 2i and 2i + 1."""
    return [tuple(j ^ 1 if j // 2 == i else j for j in range(2 * k)) for i in range(k)]


def cyclic(n):
    """The cyclic group of order n, as one n-cycle."""
    return [tuple((j + 1) % n for j in range(n))]


def dihedral(m):
    """Rotation and reflection of an m-gon: the dihedral group of order 2m."""
    return cyclic(m) + [tuple(-j % m for j in range(m))]


D16 = dihedral(8)


def rand_oracle_matrix(rng, max_dim=12, shape=None):
    """Random low-rank matrix with zero rows and columns, duplicate rows and
    entries of +-10^30 (which vanish mod 2 and mod 5); of the given
    (rows, cols) shape, or of a random one."""
    rows, cols = shape or (rng.randint(1, max_dim), rng.randint(1, max_dim))
    inner = rng.randint(1, max_dim)
    u = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(inner)] for _ in range(rows)]
    v = [
        [rng.choice((0, 0, 1, -1, 5, BIG, -BIG)) for _ in range(cols)]
        for _ in range(inner)
    ]
    a = dense_product(u, v)
    for _ in range(rng.randint(0, 3)):
        a[rng.randrange(rows)][rng.randrange(cols)] = rng.choice((BIG, -BIG))
    if rng.random() < 0.5:
        a[rng.randrange(rows)] = list(a[rng.randrange(rows)])
    if rng.random() < 0.5:
        a[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.5:
        j = rng.randrange(cols)
        for row in a:
            row[j] = 0
    return a


def assert_ranks_match_oracles(a, cols, primes=ORACLE_PRIMES, q_rank=None):
    before = [dict(row) for row in a]
    if q_rank is None:
        q_rank = smith_normal_form(a, cols).rank
    assert rank_over_Q(a) == q_rank
    dense = to_dense(a, cols)
    for p in primes:
        assert rank_mod_p(a, p) == exact_rank_mod_p(dense, p), p
    assert a == before, "rank routines must not modify their input"


def test_sparse_ranks_match_oracles_on_random_matrices():
    rng = random.Random(53)
    for _ in range(200):
        a = rand_oracle_matrix(rng)
        assert_ranks_match_oracles(from_dense(a), len(a[0]))


def test_sparse_ranks_match_oracles_on_corpus_and_bar_matrices(monkeypatch):
    for a, cols in corpus_matrices():
        assert_ranks_match_oracles(a, cols)
    bar = []  # the bar complex's d1 and d2, as bar_cohomology_dims ranks them
    monkeypatch.setattr(modp, "rank_mod_p", lambda a, p: bar.append(a) or rank_mod_p(a, p))
    d16 = FiniteGroup.from_permutations(D16)
    assert modp.bar_cohomology_dims(d16, 2).dims == (1, 2, 3)
    d1, d2 = bar
    assert_ranks_match_oracles(d1, 16)
    # dense SNF of the 4096 x 256 d2 needs a 4096 x 4096 transform; over Q
    # H^1 = H^2 = 0 for a finite group, so rank d2 = 16^2 - rank d1 = 240.
    # The dense oracle takes seconds per prime here, so only p = 2 is run:
    # the prime where the rank drops (H^2(D16; F_2) has dimension 3).
    assert_ranks_match_oracles(d2, 256, primes=(2,), q_rank=240)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("tall", "wide", "square")), st.integers(1, 6), st.integers(7, 14), st.randoms())
def test_ranks_do_not_depend_on_orientation(kind, short, long, rng):
    # rank_over_Q and rank_mod_p eliminate the shorter side, so a and its
    # transpose take different routes; both must give the oracles' rank
    rows, cols = {"tall": (long, short), "wide": (short, long), "square": (short, short)}[kind]
    a = rand_oracle_matrix(rng, shape=(rows, cols))
    q_rank = dense_snf(a).rank
    mod_p = {p: exact_rank_mod_p(a, p) for p in ORACLE_PRIMES}
    for m in (from_dense(a), transpose(from_dense(a), cols)):
        assert rank_over_Q(m) == q_rank
        assert {p: rank_mod_p(m, p) for p in ORACLE_PRIMES} == mod_p


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pool_matrices())
def test_cokernel_invariants_in_both_orientations(a):
    # Z^rows / column span, read off the determinantal divisors, for a
    # matrix and for its transpose
    for m in (a, [list(col) for col in zip(*a)]):
        factors = determinantal_invariants(m)
        expected = (len(m) - len(factors), [d for d in factors if d > 1])
        assert cokernel_invariants(from_dense(m), len(m[0])) == expected, m
        assert rank_over_Q(from_dense(m)) == len(factors), m


# entry, max index, conjugacy classes (one class matrix each), Smith forms on
# the cores left by the +-1 pivots of the class matrices, and the largest
# index whose class matrices are checked against their minors: the index-8
# matrices of q8 and d4 are 9 x 24, too many minors for the Leibniz formula
CLASS_MATRICES = [
    ("q8", 8, 6, 5, 4),
    ("d4", 8, 8, 7, 4),
    ("c2xc2", 4, 5, 4, 4),
    ("trefoil", 5, 9, 6, 5),
    ("dup_relator", 6, 98, 46, 6),
    ("genus2", 4, 1731, 0, 0),
    ("f2xf2", 3, 62, 0, 0),
    ("redundant", 4, 84, 0, 0),
    ("torus", 6, 33, 0, 0),
]
# Smith forms on the core of the base's abelianized matrix, whose rank over
# Q gives the base's b1; the other entries leave no core there
BASE_CORES = {"q8": 1, "d4": 1, "c2xc2": 1, "dup_relator": 1}


@pytest.mark.parametrize("name, max_index, classes, cores, minors_up_to", CLASS_MATRICES)
def test_class_matrix_cokernels_through_the_stability_route(
    monkeypatch, name, max_index, classes, cores, minors_up_to
):
    matrices, smith = [], {"class": 0, "base": 0}  # Smith forms, by the matrix being eliminated
    eliminating = []  # the class matrix whose cokernel is being computed
    cover_matrix, snf = stability.cover_relation_matrix, linalg.smith_normal_form
    cokernel = stability.cokernel_invariants

    def recording(p, rec):
        m = cover_matrix(p, rec)
        matrices.append((rec.index, m, rec.index * p.num_relators))
        return m

    def class_cokernel(a, ncols):
        assert a is matrices[-1][1]
        eliminating.append(a)
        try:
            return cokernel(a, ncols)
        finally:
            eliminating.pop()

    def counting(a, ncols):
        smith["class" if eliminating else "base"] += 1
        return snf(a, ncols)

    monkeypatch.setattr(stability, "cover_relation_matrix", recording)
    monkeypatch.setattr(stability, "cokernel_invariants", class_cokernel)
    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    rep = stability.stability_report(corpus_presentation(name), max_index)
    assert len(rep.rows) == len(matrices) == classes
    assert smith == {"class": cores, "base": BASE_CORES.get(name, 0)}
    for row, (k, m, ncols) in zip(rep.rows, matrices):
        assert row.index == k
        if k <= minors_up_to:
            factors = determinantal_invariants(to_dense(m, ncols))
            assert row.b1 == len(m) - len(factors)
            assert list(row.torsion) == [d for d in factors if d > 1]


def test_tall_matrices_are_eliminated_on_their_shorter_side(monkeypatch):
    lines = []  # the number of lines each sparse rank elimination works on
    sparse_rows = linalg._sparse_rows

    def counting(a, p):
        rows, where = sparse_rows(a, p)
        lines.append(len(rows))
        return rows, where

    monkeypatch.setattr(linalg, "_sparse_rows", counting)
    d16 = FiniteGroup.from_permutations(D16)
    assert modp.bar_cohomology_dims(d16, 3).dims == (1, 0, 0)
    assert lines == [16, 256]  # d1 is 256 x 16 and d2 4096 x 256: both by columns


def test_tall_matrices_are_packed_by_columns_over_F_2(monkeypatch):
    calls, lines = [], []  # _rank_mod_2's inputs, and the packed lines of each
    rank_mod_2, packed_lines = linalg._rank_mod_2, linalg._packed_lines

    def packed(a):
        out = list(packed_lines(a))
        lines.append((len(out), max(line.bit_length() for line in out)))
        return iter(out)

    def never(a, p):
        raise AssertionError("the packed path copies no sparse rows")

    monkeypatch.setattr(linalg, "_rank_mod_2", lambda a: calls.append(len(a)) or rank_mod_2(a))
    monkeypatch.setattr(linalg, "_packed_lines", packed)
    monkeypatch.setattr(linalg, "_sparse_rows", never)
    d16 = FiniteGroup.from_permutations(D16)
    assert modp.bar_cohomology_dims(d16, 2).dims == (1, 2, 3)
    assert calls == [256, 4096]
    # one line per column, each as long as a column: bits index the rows
    assert lines == [(16, 256), (256, 4096)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(("tall", "wide", "square")),
    st.integers(1, 6),
    st.integers(7, 14),
    st.sampled_from((BIG + 1, -BIG - 1, BIG, -BIG, 2, -2, -1, -3)),
    st.randoms(),
)
def test_packed_rank_mod_2_matches_both_eliminations(kind, short, long, entry, rng):
    # rand_oracle_matrix draws zero rows, duplicate rows and +-10^30; one
    # more entry is odd or even, negative or beyond any machine word
    rows, cols = {"tall": (long, short), "wide": (short, long), "square": (short, short)}[kind]
    a = rand_oracle_matrix(rng, shape=(rows, cols))
    a[rng.randrange(rows)][rng.randrange(cols)] = entry
    for m in (a, [list(col) for col in zip(*a)]):
        sparse = from_dense(m)
        assert rank_mod_p(sparse, 2) == linalg._rank(sparse, 2) == exact_rank_mod_p(m, 2)


# group, order and dims of H^0, H^1, H^2 with F_2 coefficients
F2_COHOMOLOGY = (
    [(elementary_abelian(k), 2**k, (1, k, k * (k + 1) // 2)) for k in range(1, 6)]
    + [(cyclic(2**a), 2**a, (1, 1, 1)) for a in range(1, 6)]
    + [(dihedral(m), 2 * m, (1, 2, 3)) for m in range(4, 17, 2)]
)


def test_bar_oracle_over_F_2_gives_known_cohomology():
    for perms, order, dims in F2_COHOMOLOGY:
        group = FiniteGroup.from_permutations(perms)
        assert group.order == order
        assert modp.bar_cohomology_dims(group, 2).dims == dims, (order, perms)


def test_bar_differentials_compose_to_zero(monkeypatch):
    bar = []  # the d1 and d2 that bar_cohomology_dims ranks
    monkeypatch.setattr(modp, "rank_mod_p", lambda a, p: bar.append(a) or rank_mod_p(a, p))
    for perms, order, _ in F2_COHOMOLOGY:
        if order <= 16:
            bar.clear()
            modp.bar_cohomology_dims(FiniteGroup.from_permutations(perms), 2)
            d1, d2 = bar
            assert (len(d1), len(d2)) == (order**2, order**3)
            assert not any(mat_mul(d2, d1)), order


def test_shape_errors_are_value_errors():
    with pytest.raises(ValueError, match="a 1 x 2 matrix has an entry in column 3"):
        transpose([{0: 1, 3: 1}], 2)
    with pytest.raises(ValueError, match="a 1 x 2 matrix has an entry in column 3"):
        smith_normal_form([{0: 2, 3: 1}], 2)
    with pytest.raises(ValueError, match="a 3 x 2 matrix has an entry in column 2"):
        cokernel_invariants([{0: 1}, {2: 1}, {1: 1}], 2)


def test_mat_mul_matches_the_definition():
    rng = random.Random(59)
    for _ in range(200):
        a, b = rand_oracle_matrix(rng), rand_oracle_matrix(rng)
        b = (b * len(a[0]))[: len(a[0])]  # len(a[0]) rows
        n, k, m = len(a), len(b), len(b[0])
        expected = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
        assert mat_mul(from_dense(a), from_dense(b)) == from_dense(expected)
    assert mat_mul([{0: 1, 1: 2}], [{}, {}]) == [{}]
    assert mat_mul([{0: 1, 1: 1}], [{0: 1}, {0: -1}]) == [{}]  # a cancelled sum is not stored
    assert mat_mul([{}, {}], []) == [{}, {}]


def test_chain_complex_checks_large_entries_exactly():
    x = 2**40
    ChainComplex(ranks=(1, 2, 1), boundaries=([{0: x, 1: x}], [{0: x}, {0: -x}]), quotient_order=1)
    with pytest.raises(InternalCheckFailed):
        ChainComplex(ranks=(1, 1, 1), boundaries=([{0: x}], [{0: x}]), quotient_order=1)


CHECKS_UNDER_O = """
import dataclasses

from deflab import coset, linalg, lowindex, modcert, modp, stability
from deflab.chain import ChainComplex, relator_boundary, restrict_to_subgroup
from deflab.coset import CosetTable, SubgroupRecord, _Enumerator, orbit, schreier_transversal, subgroup_record
from deflab.errors import InternalCheckFailed
from deflab.groupring import GroupRingElement
from deflab.intervals import CERT_NONE, DeficiencyInterval
from deflab.linalg import BettiVector, SNFResult, mat_mul, morse_check, partial_euler_mu
from deflab.presentation import parse_presentation, parse_word
from deflab.quotient import FiniteGroup
from deflab.schreier import SubgroupPresentation, rewrite_subgroup_presentation
from deflab.words import Word

assert False, "python -O must strip assert statements"
c4 = parse_presentation("< a | a^4 >")
half = subgroup_record(c4, [parse_word("a^2", c4)])  # normal; N = C2, H^1(N; F_2) = F_2


def dual_with(name, fake):
    real = getattr(modp, name)
    setattr(modp, name, fake)
    try:
        modp.dual_complex_dims(c4, half, 3)  # r2 = 1 over F_3, so the truncated h2 is 1
    finally:
        setattr(modp, name, real)


def no_pivot_snf(a, ncols):
    # a Smith form that finds no pivot: every 2-cell of the regular cover
    # counts as a sphere, and both 2-cells of the cover for `half` survive
    return SNFResult(diagonal=[], rank=0, left=[{i: 1} for i in range(len(a))], right=[], shape=(len(a), ncols))


torus = parse_presentation("< a, b | [a, b] >")
double = subgroup_record(torus, [parse_word("a^2", torus), parse_word("b", torus)])


def schreier_presentation(text, generator_map=()):
    # index 2 in a 2-generator, 1-relator group: 3 generators and 2 relators
    return SubgroupPresentation(parse_presentation(text), torus, double, generator_map)


# a table on which the relator a does not close; its tree edge is (0, a)
a_is_trivial = parse_presentation("< a, b | a >")
open_table = CosetTable(index=2, action=((1, 0), (0, 1)), origin=a_is_trivial)
a_word = Word(((0, 1),))


def stability_with(name, fake):
    real = getattr(stability, name)
    setattr(stability, name, fake)
    try:
        stability.stability_report(parse_presentation("< a, b | a^2, b^2 >"), 2)
    finally:
        setattr(stability, name, real)


dup = parse_presentation("< a, b | b^3, b^3 >")
one_plus_a = GroupRingElement.one() + GroupRingElement.of_word(parse_word("a", dup))
whole = subgroup_record(dup, [parse_word("a", dup), parse_word("b", dup)])  # 1 and a share a coset


def cert_with(name, fake, x=GroupRingElement.one()):
    # witness (x, -x) lies in ker d2 because both relators are b^3
    real = getattr(modcert, name)
    setattr(modcert, name, fake)
    try:
        witness = modcert.KernelWitness(rho=(x, -x))
        modcert.rank_drop_certificate(dup, witness, FiniteGroup.trivial(2), max_index=4)
    finally:
        setattr(modcert, name, real)


def normal_search_with(owner, name, fake):
    real = getattr(owner, name)
    setattr(owner, name, fake)
    try:
        lowindex.normal_subgroups(parse_presentation("< a | a^2 >"), 2)
    finally:
        setattr(owner, name, real)


def not_normal(t, conjugacy_class=None):
    return dataclasses.replace(schreier_transversal(t, conjugacy_class), is_normal=False)


def class_route_with(owner, name, fake):
    # the infinite dihedral group has one class of three non-normal
    # subgroups of index 3
    real = getattr(owner, name)
    setattr(owner, name, fake)
    try:
        stability.stability_report(parse_presentation("< a, b | a^2, b^2 >"), 3)
    finally:
        setattr(owner, name, real)


def truncated_orbit(start, successors, limit=None):
    order, index = orbit(start, successors, limit)
    return (order[:-1] if start else order), index


def root_2_as_root_1(rows, ngens, root=0):
    return coset.rerooted_entries(rows, ngens, 1 if root == 2 else root)


def only_root_0_ties(search, larger):
    return (1 << len(search.table)) - 2  # every other root larger: drops the ties


def cokernel_with(mutate, a=({0: 1, 1: 1}, {0: 1, 1: 3})):
    # the default is Z^2 / span((1, 1), (1, 3)) = Z/2: line 0 is the pivot
    # line at coordinate 0 and line 1 becomes the core line (0, 2)
    real = linalg._unit_pivots

    def mutated(lines, where, left):
        pivots = real(lines, where, left)
        mutate(lines, pivots, left)
        return pivots

    linalg._unit_pivots = mutated
    try:
        linalg.cokernel_invariants(list(a), 2)
    finally:
        linalg._unit_pivots = real


def pivot_2(lines, pivots, left):
    _, c, piv = pivots[0]
    piv[c] = 2


def keep_earlier_pivot(lines, pivots, left):
    pivots[1][2][pivots[0][1]] = 5


def drop_line_operation(lines, pivots, left):
    left[1] = {1: 1}


def core_at_pivot(lines, pivots, left):
    lines[1][pivots[0][1]] = 1


def double_core_and_L(lines, pivots, left):
    # L @ (columns of A) still gives the lines, but L has determinant 2
    lines[1] = {j: 2 * x for j, x in lines[1].items()}
    left[1] = {j: 2 * x for j, x in left[1].items()}


no_generators = parse_presentation("< a | >")
# a complex over a group of order 4 with no boundaries; C4 with a -> 1 and
# b -> 2 pairs the even elements with coset 0 of `double`, so a tree edge
# along b (which fixes that coset) places them twice; a non-regular action
# with a swapping 0 and 1 and fixing 2 and 3 never places 2 or 3
over_order_4 = ChainComplex(ranks=(1,), boundaries=(), quotient_order=4)
shift_c4 = FiniteGroup(right=((1, 2, 3, 0), (2, 3, 0, 1)))
b_edge = SubgroupRecord(double.table, (None, (0, 1)), True)
swap_01 = FiniteGroup(right=((1, 0, 2, 3), (0, 1, 2, 3)))


for check in (
    lambda: ChainComplex(ranks=(1, 1, 1), boundaries=([{0: 1}], [{0: 1}]), quotient_order=1),
    lambda: SNFResult(diagonal=[2], rank=1, left=[{0: 1}], right=[{0: 1}], shape=(1, 1)).verify([{0: 1}]),
    lambda: mat_mul([{0: 1, 1: 2}], [{0: 1}]),
    lambda: ChainComplex(ranks=(1, 1), boundaries=([{0: 1, 1: 2, 2: 3}],), quotient_order=1),
    lambda: CosetTable(index=2, action=((1, 0),), origin=parse_presentation("< a | a >")).verify(),
    lambda: CosetTable(index=2, action=((0, 1),), origin=parse_presentation("< a | >")).verify(),
    lambda: CosetTable.from_rows([[0, 0], [1, 1]], parse_presentation("< a | >")),
    lambda: dual_with("smith_normal_form", no_pivot_snf),
    lambda: schreier_presentation("< x, y | [x, y] >"),
    lambda: schreier_presentation("< x, y, z | x >"),
    lambda: schreier_presentation("< x, y, z | x, y >", (parse_word("a", torus),)),
    lambda: rewrite_subgroup_presentation(torus, b_edge),  # four pairs off the bad tree
    lambda: rewrite_subgroup_presentation(a_is_trivial, SubgroupRecord(open_table, (None, (0, 0)), False)),
    lambda: stability_with("witnessed_interval", lambda p, aspherical: (DeficiencyInterval(5, 5, CERT_NONE), p)),
    lambda: stability_with("_classify", lambda k, base, sub: stability.STATUS_VIOLATED),
    lambda: relator_boundary((a_word,), open_table.action, open_table.inverse_action, 2),
    lambda: cert_with("separating_subgroup", lambda support, p, max_index: whole, one_plus_a),
    lambda: cert_with("primitivize", lambda w: w, GroupRingElement.one() * 2),
    lambda: cert_with("coinvariant_rank_lower_bound", lambda m, rec: 10**6),
    lambda: CosetTable(index=0, action=((),), origin=no_generators),
    lambda: CosetTable(index=1, action=(), origin=no_generators),
    lambda: CosetTable(index=2, action=((0, 0),), origin=no_generators),
    lambda: DeficiencyInterval(2, 1, CERT_NONE),
    lambda: restrict_to_subgroup(over_order_4, double, FiniteGroup.cyclic(2, ngens=2)),
    lambda: restrict_to_subgroup(over_order_4, b_edge, shift_c4),
    lambda: restrict_to_subgroup(over_order_4, double, swap_01),
    lambda: partial_euler_mu([1, 2], 2),
    lambda: morse_check(BettiVector(b=[1, 2], torsion=[[], []], field="Q"), partial_euler_mu([1, 2, 1], 2)),
    lambda: modcert.ModulePresentation(ambient=dup, free_rank=2, relations=((one_plus_a,),)),
    lambda: schreier_transversal(CosetTable(index=3, action=((2, 0, 1),), origin=parse_presentation("< a | a^3 >"))),
    lambda: _Enumerator(1, 1).live_rows(),  # no todd_coxeter input leaves a row incomplete
    lambda: normal_search_with(lowindex._NormalSearch, "compare_roots", lambda search, larger: 2),
    lambda: normal_search_with(lowindex, "schreier_transversal", not_normal),
    lambda: class_route_with(lowindex._ClassSearch, "compare_roots", lambda search, larger: 0),
    lambda: class_route_with(lowindex, "rerooted_entries", root_2_as_root_1),
    lambda: class_route_with(lowindex._ClassSearch, "compare_roots", only_root_0_ties),
    lambda: class_route_with(coset, "orbit", truncated_orbit),
    lambda: cokernel_with(pivot_2),
    lambda: cokernel_with(keep_earlier_pivot, ({0: 1}, {1: 1})),
    lambda: cokernel_with(core_at_pivot),
    lambda: cokernel_with(drop_line_operation),
    lambda: cokernel_with(double_core_and_L),
):
    try:
        check()
    except (InternalCheckFailed, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}")
    else:
        print("no error")
"""

UNDER_O_EXPECTED = [
    ("InternalCheckFailed", "boundary composition is nonzero"),
    ("InternalCheckFailed", "is not the Smith diagonal"),
    ("ValueError", "shape mismatch: a has a column past the 1 rows of b"),
    ("ValueError", "boundary 0 does not fit the shape (1, 1)"),
    ("InternalCheckFailed", "relator does not act trivially"),
    ("InternalCheckFailed", "action is not transitive"),
    ("InternalCheckFailed", "table not transitive"),
    ("InternalCheckFailed", "the image of pi2 exceeds the truncated h2 by 1"),
    ("InternalCheckFailed", "Schreier generator count is not k*(e1-1)+1"),
    ("InternalCheckFailed", "Schreier relator count is not k*e2"),
    ("InternalCheckFailed", "subgroup generator word leaves the subgroup"),
    ("InternalCheckFailed", "Schreier generator count is not k*(e1-1)+1"),
    ("InternalCheckFailed", "relator walk did not close"),
    ("InternalCheckFailed", "Schreier inequality violated by reported lower bounds"),
    ("InternalCheckFailed", "violated-upper row: contradicts the Schreier inequality"),
    ("InternalCheckFailed", "relator walk did not close"),
    ("InternalCheckFailed", "separation failed: two support words share a coset"),
    ("InternalCheckFailed", "primitivized witness must have coprime coefficients"),
    ("InternalCheckFailed", "coinvariant bound exceeds the certified drop"),
    ("ValueError", "coset table index 0 is not positive"),
    ("ValueError", "0 generator columns for 1 generators"),
    ("ValueError", "generator action is not a bijection"),
    ("InternalCheckFailed", "interval lower bound 2 exceeds its upper bound 1"),
    ("ValueError", "the complex is over order 4, the quotient has 2"),
    ("InternalCheckFailed", "element placed in two right-coset blocks"),
    ("InternalCheckFailed", "element placed in no right-coset block"),
    ("ValueError", "need exactly n+1 = 3 ranks, not 2"),
    ("ValueError", "Betti vector of length 2 too short for degree 2"),
    ("ValueError", "relation tuple of arity 1, not the free rank 2"),
    ("InternalCheckFailed", "table numbering is not canonical"),
    ("InternalCheckFailed", "table incomplete after enumeration"),
    ("InternalCheckFailed", "a normal-search leaf does not tie at every root"),
    ("InternalCheckFailed", "a normal-search leaf is not a normal subgroup"),
    ("InternalCheckFailed", "the ties are not the roots that reproduce the table"),
    ("InternalCheckFailed", "class size times [N(H):H] is not the index"),
    ("InternalCheckFailed", "the ties are not the roots that reproduce the table"),
    ("InternalCheckFailed", "table not transitive"),
    ("InternalCheckFailed", "a pivot line is not +-1 at its coordinate and 0 at every earlier one"),
    ("InternalCheckFailed", "a pivot line is not +-1 at its coordinate and 0 at every earlier one"),
    ("InternalCheckFailed", "a core line is not 0 at every pivot coordinate"),
    ("InternalCheckFailed", "L @ (columns of A) is not the reduced lines"),
    ("InternalCheckFailed", "L is not unit triangular in pivot order"),
]


def test_internal_checks_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CHECKS_UNDER_O], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(UNDER_O_EXPECTED), proc.stdout
    for line, (kind, message) in zip(lines, UNDER_O_EXPECTED):
        assert line.startswith(f"{kind}: ") and message in line, line
    with pytest.raises(InternalCheckFailed):
        SNFResult(diagonal=[2], rank=1, left=[{0: 1}], right=[{0: 1}], shape=(1, 1)).verify([{0: 1}])
    identity = from_dense(identity_matrix(2))
    not_a_chain = SNFResult(diagonal=[2, 3], rank=2, left=identity, right=identity, shape=(2, 2))
    with pytest.raises(InternalCheckFailed, match="divisibility"):
        not_a_chain.verify([{0: 2}, {1: 3}])
