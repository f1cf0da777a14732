import itertools
from collections import Counter
from math import factorial

import pytest

from deflab.corpus import corpus_presentation
from deflab.errors import LimitExceeded
from deflab.lowindex import low_index_subgroups
from deflab.presentation import parse_presentation


def hall_counts(rank, up_to):
    """Subgroup counts of a free group by Hall's recursion."""
    a = {1: 1}
    for n in range(2, up_to + 1):
        a[n] = n * factorial(n) ** (rank - 1) - sum(
            factorial(n - i) ** (rank - 1) * a[i] for i in range(1, n)
        )
    return a


def brute_force_counts(p, up_to):
    """Independent oracle: enumerate all transitive relator-respecting tuples
    of permutations on {0..n-1}; each subgroup corresponds to (n-1)! of them."""
    counts = {}
    ngens = p.num_generators
    for n in range(1, up_to + 1):
        total = 0
        perms = list(itertools.permutations(range(n)))
        for choice in itertools.product(perms, repeat=ngens):
            inv = [None] * ngens
            for g, perm in enumerate(choice):
                q = [0] * n
                for i, j in enumerate(perm):
                    q[j] = i
                inv[g] = tuple(q)

            def act(c, word):
                for g, s in word:
                    c = choice[g][c] if s == 1 else inv[g][c]
                return c

            if any(any(act(c, r) != c for c in range(n)) for r in p.relators):
                continue
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for c in frontier:
                    for perm in choice:
                        if perm[c] not in seen:
                            seen.add(perm[c])
                            nxt.append(perm[c])
                frontier = nxt
            if len(seen) == n:
                total += 1
        counts[n] = total // factorial(n - 1)
    return counts


def test_f2_matches_hall():
    p = parse_presentation("< a, b | >")
    got = Counter(r.index for r in low_index_subgroups(p, 5))
    assert dict(got) == hall_counts(2, 5)
    assert got[2] == 3 and got[3] == 13


def test_f3_matches_hall_small():
    p = parse_presentation("< a, b, c | >")
    got = Counter(r.index for r in low_index_subgroups(p, 3))
    assert dict(got) == hall_counts(3, 3)  # 1, 7, 97


def test_brute_force_oracle_on_presentations_with_relators():
    for name in ("torus", "trefoil", "c4", "dup_relator"):
        p = corpus_presentation(name)
        got = Counter(r.index for r in low_index_subgroups(p, 4))
        assert dict(got) == {
            n: c for n, c in brute_force_counts(p, 4).items() if c
        }, name


def test_brute_force_oracle_free_group():
    p = parse_presentation("< a, b | >")
    got = Counter(r.index for r in low_index_subgroups(p, 5))
    assert dict(got) == brute_force_counts(p, 5) == hall_counts(2, 5)


def test_subgroups_of_z():
    p = parse_presentation("< a | >")
    recs = low_index_subgroups(p, 4)
    assert Counter(r.index for r in recs) == Counter({1: 1, 2: 1, 3: 1, 4: 1})


def test_includes_whole_group_and_canonical_order():
    p = corpus_presentation("torus")
    recs = low_index_subgroups(p, 3)
    assert recs[0].index == 1
    keys = [(r.index, r.table.action_key()) for r in recs]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_all_tables_valid():
    p = corpus_presentation("q8")
    recs = low_index_subgroups(p, 8)
    # whole group; <i>, <j>, <k>; the centre (the unique involution); trivial
    assert Counter(r.index for r in recs) == Counter({1: 1, 2: 3, 4: 1, 8: 1})
    for r in recs:
        r.table.verify()


def test_budget():
    p = parse_presentation("< a, b, c | >")
    with pytest.raises(LimitExceeded):
        low_index_subgroups(p, 6, max_nodes=100)
    # a misspelt policy must not return a silently truncated list
    with pytest.raises(ValueError, match="on_budget"):
        low_index_subgroups(parse_presentation("< a, b | >"), 6, max_nodes=50, on_budget="partal")


def test_brute_force_oracle_random_presentations():
    import random

    from deflab.presentation import Presentation
    from deflab.words import Word

    rng = random.Random(53)
    for _ in range(25):
        ngens = rng.randrange(1, 3)
        rels = []
        for _ in range(rng.randrange(3)):
            w = Word(tuple(
                (rng.randrange(ngens), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 6))
            ))
            if w:
                rels.append(w)
        p = Presentation(tuple("ab"[:ngens]), tuple(rels))
        got = Counter(r.index for r in low_index_subgroups(p, 3))
        want = {n: c for n, c in brute_force_counts(p, 3).items() if c}
        assert dict(got) == want, p
