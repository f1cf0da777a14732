import random

import pytest

from deflab.chain import presentation_chain_complex
from deflab.corpus import corpus_presentation
from deflab.errors import DeflabError, ModulusTooLarge, NonPrimeModulus
from deflab.linalg import (
    betti_numbers,
    identity_matrix,
    mat_mul,
    morse_check,
    partial_euler_mu,
    rank_mod_p,
    rank_over_Q,
    smith_normal_form,
)
from deflab.quotient import FiniteGroup


def rand_matrix(rng, max_dim=12, bound=9):
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    return [
        [rng.randrange(-bound, bound + 1) for _ in range(cols)] for _ in range(rows)
    ]


def test_snf_identity():
    snf = smith_normal_form(identity_matrix(4))
    assert snf.diagonal == [1, 1, 1, 1] and snf.rank == 4


def test_snf_zero():
    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.diagonal == [] and snf.rank == 0


def test_snf_diag_2_3():
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.diagonal == [1, 6]
    snf.verify([[2, 0], [0, 3]])


def test_snf_random_self_verification():
    # verify() already runs inside smith_normal_form; re-check here explicitly
    rng = random.Random(31)
    for _ in range(500):
        a = rand_matrix(rng)
        snf = smith_normal_form(a)
        assert mat_mul(mat_mul(snf.left, a), snf.right) == snf.diagonal_matrix()
        for x, y in zip(snf.diagonal, snf.diagonal[1:]):
            assert x > 0 and y % x == 0


def test_rank_mod_p_examples():
    assert rank_mod_p([[2]], 2) == 0
    assert rank_mod_p([[2]], 3) == 1
    for p in (2, 3, 5, 7):
        assert rank_mod_p([[1, 1], [1, 1]], p) == 1
    with pytest.raises(NonPrimeModulus):
        rank_mod_p([[1]], 6)


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
    # 2^32 + 15 is prime, but residue products no longer fit in int64
    with pytest.raises(ModulusTooLarge):
        rank_mod_p([[1, 2], [3, 4]], 2**32 + 15)
    assert issubclass(ModulusTooLarge, DeflabError)
    p = 2**31 - 1  # the largest prime still accepted
    rng = random.Random(43)
    for _ in range(100):
        u = [[rng.randrange(p) for _ in range(3)] for _ in range(4)]
        v = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
        a = mat_mul(u, v)
        assert rank_mod_p(a, p) == exact_rank_mod_p(a, p)


def test_rank_agreement_away_from_torsion():
    rng = random.Random(37)
    for _ in range(100):
        a = rand_matrix(rng, max_dim=8, bound=5)
        snf = smith_normal_form(a)
        rq = rank_over_Q(a)
        assert rq == snf.rank
        for p in (2, 3, 5, 7, 11):
            if all(d % p for d in snf.diagonal):
                assert rank_mod_p(a, p) == rq


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


def test_rank_agreement_on_corpus_matrices():
    # corpus-derived integer matrices: abelianized relators, chain boundaries
    from deflab.corpus import CORPUS, corpus_presentation

    mats = []
    for name in CORPUS:
        p = corpus_presentation(name)
        m = p.abelianized_relator_matrix()
        if m:
            mats.append(m)
        c = presentation_chain_complex(p, FiniteGroup.trivial(p.num_generators))
        for b in c.boundaries:
            if b and b[0]:
                mats.append(b)
    assert mats
    for a in mats:
        snf = smith_normal_form(a)
        for p_ in (2, 3, 5, 7):
            if all(d % p_ for d in snf.diagonal):
                assert rank_mod_p(a, p_) == snf.rank


def test_b0_is_one_on_connected_corpus_complexes():
    from deflab.corpus import CORPUS, corpus_presentation

    for name in CORPUS:
        p = corpus_presentation(name)
        c = presentation_chain_complex(p, FiniteGroup.trivial(p.num_generators))
        assert betti_numbers(c, "Q").b[0] == 1, name


def test_snf_serializable():
    import json

    snf = smith_normal_form([[2, 0], [0, 3]])
    data = json.loads(json.dumps(snf.to_json()))
    assert data["diagonal"] == [1, 6] and data["rank"] == 2
