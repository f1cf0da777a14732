import random

from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=12))
def test_derived_words_are_reduced_property(letters):
    """Words derived without a second reduction equal the reduced Word of
    their letters, and the canonical rotation is the least rotation of the
    cyclically reduced core."""
    w = Word(tuple(letters))
    for derived in (w.canonical_rotation(), w.cyclically_reduced(), w.inverse()):
        assert derived == Word(derived.letters)
    core = w.letters
    while len(core) >= 2 and core[0] == (core[-1][0], -core[-1][1]):
        core = core[1:-1]
    assert w.cyclically_reduced().letters == core
    rotations = [core[i:] + core[:i] for i in range(len(core))] or [()]
    least = min(rotations, key=lambda ls: Word(ls).order_key())
    assert w.canonical_rotation().letters == least


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
