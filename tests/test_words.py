import random

from deflab.words import Word, commutator


def rand_letters(rng, ngens=3, maxlen=12):
    return tuple(
        (rng.randrange(ngens), rng.choice((1, -1)))
        for _ in range(rng.randrange(maxlen))
    )


def test_free_reduce_examples():
    assert Word(((0, 1), (0, -1), (1, 1))).letters == ((1, 1),)
    assert Word(()).letters == ()
    assert Word(((1, 1), (0, -1), (0, 1), (1, -1))).letters == ()


def test_free_reduce_idempotent_and_nonincreasing():
    rng = random.Random(0)
    for _ in range(500):
        raw = rand_letters(rng)
        w = Word(raw)
        assert len(w) <= len(raw)
        assert Word(w.letters).letters == w.letters


def test_inverse_and_products():
    rng = random.Random(1)
    for _ in range(200):
        u = Word(rand_letters(rng))
        v = Word(rand_letters(rng))
        assert (u * u.inverse()).letters == ()
        assert ((u * v).inverse()).letters == (v.inverse() * u.inverse()).letters
    a = Word(((0, 1),))
    assert (a ** 5).letters == ((0, 1),) * 5
    assert (a ** -2).letters == ((0, -1),) * 2


def test_cyclic_reduction_and_rotation():
    # a b a^-1 cyclically reduces to b
    w = Word(((0, 1), (1, 1), (0, -1)))
    assert w.cyclically_reduced().letters == ((1, 1),)
    # canonical rotation of the commutator starts with the positive a
    c = commutator(Word(((0, 1),)), Word(((1, 1),)))
    assert c.canonical_rotation().letters == c.letters
    # rotations all share the canonical form
    rng = random.Random(2)
    for _ in range(100):
        w = Word(rand_letters(rng)).cyclically_reduced()
        n = len(w)
        if n == 0:
            continue
        canon = w.canonical_rotation()
        for i in range(n):
            rot = Word(w.letters[i:] + w.letters[:i])
            if len(rot) == n:  # genuine rotation, no accidental reduction
                assert rot.canonical_rotation() == canon


def test_proper_power_detection():
    a, b = Word(((0, 1),)), Word(((1, 1),))
    assert (a ** 5).is_proper_power()
    assert not (a ** 2 * b ** -3).is_proper_power()
    assert not commutator(a, b).is_proper_power()
    assert ((a * b) ** 2).is_proper_power()


def test_exponent_sum():
    w = Word(((0, 1), (1, 1), (0, 1), (1, -1)))
    assert w.exponent_sum(0) == 2
    assert w.exponent_sum(1) == 0
