import itertools
import random
import struct
from collections import Counter, defaultdict
from math import comb, factorial

import pytest
from conftest import ENUM_CAPS, node_budget, small_presentations
from hypothesis import given, settings
from lowindex_oracle import member_search

from deflab import lowindex
from deflab.corpus import CORPUS, corpus_presentation
from deflab.coset import CosetTable, todd_coxeter
from deflab.errors import LimitExceeded
from deflab.lowindex import (
    _ClassSearch,
    _NormalSearch,
    _key_format,
    class_members,
    low_index_subgroups,
    normal_subgroups,
)
from deflab.presentation import parse_presentation
from deflab.stability import stability_report
from deflab.words import Word


def hall_counts(homs, up_to):
    """Subgroup counts at index 1..up_to of a group G with homs(n) =
    |Hom(G, S_n)|, by Hall's transitive recursion: of those homomorphisms,
    t_n = h_n - sum_{k<n} C(n-1, k-1) t_k h_{n-k} are transitive, and
    (n-1)! of them share each index-n subgroup."""
    h = {n: homs(n) for n in range(1, up_to + 1)}
    t, counts = {}, {}
    for n in range(1, up_to + 1):
        t[n] = h[n] - sum(comb(n - 1, k - 1) * t[k] * h[n - k] for k in range(1, n))
        counts[n], rest = divmod(t[n], factorial(n - 1))
        assert rest == 0, (n, t[n])
    return counts


def free_homs(rank):
    """|Hom(F_rank, S_n)| = (n!)^rank."""
    return lambda n: factorial(n) ** rank


def partitions(n, largest=None):
    """The partitions of n into parts of at most largest, as tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def irreducible_dimension(shape):
    """f_shape, the dimension of the irreducible character of S_n for the
    partition shape, by the hook length formula."""
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (columns[j] - i) - 1
    return factorial(sum(shape)) // hooks


def surface_homs(genus):
    """Mednykh's |Hom(pi_1 of the genus surface, S_n)| =
    n! sum over partitions lambda of n of (n!/f_lambda)^(2 genus - 2)."""
    return lambda n: factorial(n) * sum(
        (factorial(n) // irreducible_dimension(shape)) ** (2 * genus - 2)
        for shape in partitions(n)
    )


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
    assert dict(got) == hall_counts(free_homs(2), 5)
    assert got[2] == 3 and got[3] == 13


def test_f3_matches_hall_small():
    p = parse_presentation("< a, b, c | >")
    got = Counter(r.index for r in low_index_subgroups(p, 3))
    assert dict(got) == hall_counts(free_homs(3), 3)  # 1, 7, 97


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
    assert dict(got) == brute_force_counts(p, 5) == hall_counts(free_homs(2), 5)


@pytest.mark.parametrize(
    "name, genus, max_index, counts",
    [("torus", 1, 4, [1, 3, 4, 7]), ("genus2", 2, 4, [1, 15, 220, 5_275]), ("genus3", 3, 2, [1, 63])],
)
def test_class_sizes_match_mednykh(name, genus, max_index, counts):
    # Mednykh's count of the index-n subgroups of a surface group, against
    # the class sizes of the stability report's rows
    mednykh = hall_counts(surface_homs(genus), max_index)
    assert list(mednykh.values()) == counts
    got = Counter()
    for row in stability_report(corpus_presentation(name), max_index).rows:
        got[row.index] += row.class_size
    assert dict(got) == mednykh


def test_subgroups_of_z():
    p = parse_presentation("< a | >")
    recs = low_index_subgroups(p, 4)
    assert Counter(r.index for r in recs) == Counter({1: 1, 2: 1, 3: 1, 4: 1})


def test_includes_whole_group_and_canonical_order():
    p = corpus_presentation("torus")
    recs = low_index_subgroups(p, 3)
    assert recs[0].index == 1
    keys = [(r.index, r.table.action) for r in recs]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_all_tables_valid():
    p = corpus_presentation("q8")
    recs = low_index_subgroups(p, 8)
    # whole group; <i>, <j>, <k>; the centre (the unique involution); trivial
    assert Counter(r.index for r in recs) == Counter({1: 1, 2: 3, 4: 1, 8: 1})
    for r in recs:
        r.table.verify()


def test_budget(monkeypatch):
    p = parse_presentation("< a, b, c | >")
    monkeypatch.setattr(lowindex, "MAX_NODES", 100)
    with pytest.raises(LimitExceeded, match="low-index search exceeded 100 nodes"):
        low_index_subgroups(p, 6)


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


def fingerprint(records):
    return [(r.table.action, r.tree, r.is_normal) for r in records]


def letter_rows(table):
    """Complete letter-code rows of a coset table, inverse columns included."""
    inverse = [[0] * table.index for _ in table.action]
    for g, perm in enumerate(table.action):
        for c, d in enumerate(perm):
            inverse[g][d] = c
    return [
        [x for g, perm in enumerate(table.action) for x in (perm[c], inverse[g][c])]
        for c in range(table.index)
    ]


def assert_classes_are_conjugacy_classes(records):
    classes = defaultdict(list)
    for rec in records:
        classes[rec.conjugacy_class].append(rec)
    assert sorted(classes) == list(range(len(classes)))
    for members in classes.values():
        rep = members[0]
        k, p = rep.index, rep.table.origin
        # the stabilisers of all k cosets are the conjugates of H; those
        # equal to H are the cosets of N(H)
        rows = letter_rows(rep.table)
        conjugates = [CosetTable.from_rows(rows, p, r).action for r in range(k)]
        normalizer_index = conjugates.count(rep.table.action)
        assert len(members) * normalizer_index == k
        assert {m.table.action for m in members} == set(conjugates)
        if rep.is_normal:
            assert len(members) == 1
    assert sum(len(members) for members in classes.values()) == len(records)


def assert_normal_search_matches(p, max_index, everything):
    """normal_subgroups is the normal part of everything, in its order."""
    records = normal_subgroups(p, max_index)
    assert fingerprint(records) == fingerprint([r for r in everything if r.is_normal])
    # each record is its own class
    assert sorted(r.conjugacy_class for r in records) == list(range(len(records)))


def assert_matches_the_member_search(p, max_index):
    """The class search and the normal search against the member oracle."""
    with node_budget(100_000):
        records = low_index_subgroups(p, max_index)
    want, _ = member_search(p, max_index, max_nodes=100_000)
    assert fingerprint(records) == fingerprint(want)
    assert_classes_are_conjugacy_classes(records)
    assert_normal_search_matches(p, max_index, records)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_class_search_matches_the_member_search_at_the_cap(name):
    assert_matches_the_member_search(corpus_presentation(name), ENUM_CAPS[name])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(small_presentations())
def test_class_search_matches_the_member_search_property(p):
    assert_matches_the_member_search(p, 4)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(small_presentations())
def test_todd_coxeter_on_the_schreier_generators_gives_the_table_back(p):
    with node_budget(100_000):
        records = low_index_subgroups(p, 3)
    for rec in records:
        t = rec.transversal
        gens = [
            t[c] * Word(((g, 1),)) * t[rec.table.action[g][c]].inverse()
            for c, g in rec.schreier_generators()
        ]
        assert todd_coxeter(p, gens, limit=50_000).action == rec.table.action


def test_the_node_budget_counts_class_search_nodes(monkeypatch):
    genus2 = corpus_presentation("genus2")
    monkeypatch.setattr(lowindex, "MAX_NODES", 30_000)
    records = low_index_subgroups(genus2, 4)
    assert len(records) == 5511
    assert len({r.conjugacy_class for r in records}) == 1731
    assert member_search(genus2, 4)[1] == 41_109


def conjugates_by_rerooting(rec):
    """The actions of rec's table re-rooted at each of its cosets."""
    rows = letter_rows(rec.table)
    return {CosetTable.from_rows(rows, rec.table.origin, r).action for r in range(rec.index)}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_class_records_expand_to_the_records_of_low_index_subgroups(name):
    p, cap = corpus_presentation(name), ENUM_CAPS[name]
    members, complete = class_members(p, cap)
    assert complete
    classes = [cls for cls, i in members if i == 0]
    assert sorted(cls.record.conjugacy_class for cls in classes) == list(range(len(classes)))
    assert all(cls.member(0) is cls.record for cls in classes)
    records = low_index_subgroups(p, cap)
    # below index 256 a key is one byte per action entry
    by_key = {bytes(x for perm in r.table.action for x in perm): r for r in records}
    for cls in classes:  # member 0 is the class's first subgroup
        assert list(cls.keys) == sorted(cls.keys)
        rec = by_key[cls.keys[0]]
        assert rec == cls.record and rec.conjugacy_class == cls.record.conjugacy_class
    # the oracle expansion: every re-rooting of each class's first member
    want = sorted(
        (cls.index, action, cls.record.conjugacy_class)
        for cls in classes
        for action in conjugates_by_rerooting(cls.record)
    )
    assert [(r.index, r.table.action, r.conjugacy_class) for r in records] == want
    assert [cls.keys[i] for cls, i in members] == list(by_key)


@pytest.mark.parametrize("k", [2, 255, 256, 257, 300, 65_536, 65_537, 70_000])
def test_action_keys_sort_like_the_actions(k):
    rng = random.Random(k)
    values = [0, 1, k - 2, k - 1] + [rng.randrange(k) for _ in range(4)]
    actions = {
        tuple(tuple(rng.choice(values) for _ in range(3)) for _ in range(2)) for _ in range(200)
    }
    keys = {action: struct.pack(_key_format(k, 6), *action[0], *action[1]) for action in actions}
    assert len(set(keys.values())) == len(actions)
    assert len({len(key) for key in keys.values()}) == 1
    assert sorted(actions, key=keys.get) == sorted(actions)


def test_one_verified_table_per_member(monkeypatch):
    verified = []
    real = CosetTable.verify

    def counting(table):
        verified.append(table.action)
        return real(table)

    monkeypatch.setattr(CosetTable, "verify", counting)
    records = low_index_subgroups(corpus_presentation("genus2"), 4)
    assert len(verified) == len(records) == 5511
    assert sorted(verified) == sorted(rec.table.action for rec in records)


def test_a_partial_result_holds_whole_classes(monkeypatch):
    p = corpus_presentation("free2")
    members, complete = class_members(p, 5)
    assert complete
    everything = [cls.member(i) for cls, i in members]
    keys = {r.table.action for r in everything}
    for budget in (10, 100, 500):
        monkeypatch.setattr(lowindex, "MAX_NODES", budget)
        members, complete = class_members(p, 5)
        records = [cls.member(i) for cls, i in members]
        assert not complete and 0 < len(records) < len(everything)
        assert {r.table.action for r in records} <= keys
        assert_classes_are_conjugacy_classes(records)


def test_normal_search_is_the_normal_part_of_the_class_search_past_the_cap():
    p = corpus_presentation("dup_relator")
    everything = low_index_subgroups(p, 6)
    assert_normal_search_matches(p, 6, everything)
    assert sum(r.is_normal for r in everything) == 13


def search_nodes(search, name, max_index):
    run = search(corpus_presentation(name), max_index)
    run.run()
    return run.nodes


def test_the_normal_search_prunes_every_branch_that_cannot_end_normal():
    # a branch is dropped once a re-rooting differs, not only once it is smaller
    assert search_nodes(_ClassSearch, "dup_relator", 6) == 587
    assert search_nodes(_NormalSearch, "dup_relator", 6) == 83
    assert search_nodes(_NormalSearch, "genus2", 4) < search_nodes(_ClassSearch, "genus2", 4)


def test_the_normal_search_shares_the_node_budget(monkeypatch):
    # node 83 of the normal search on dup_relator <= 6 is a dead end, so a
    # budget of 82 leaves no work undone; at 81 node 82 still has work
    p = corpus_presentation("dup_relator")
    for budget in (83, 82):
        monkeypatch.setattr(lowindex, "MAX_NODES", budget)
        assert len(normal_subgroups(p, 6)) == 13
    monkeypatch.setattr(lowindex, "MAX_NODES", 81)
    with pytest.raises(LimitExceeded, match="81 nodes"):
        normal_subgroups(p, 6)
    with pytest.raises(ValueError, match="max_index"):
        normal_subgroups(p, 0)


def test_one_budget_read_at_call_time_governs_every_search(monkeypatch):
    # the class search on dup_relator at index <= 6 takes 587 nodes, the
    # normal search 83, and the stability report's search (of the simplified
    # < a, b | b^3 >) 587 again; node 587 is a dead end, so a budget of 586
    # leaves no work undone, while at 585 node 586 would still descend
    p = corpus_presentation("dup_relator")
    for budget in (587, 586):
        monkeypatch.setattr(lowindex, "MAX_NODES", budget)
        assert len(low_index_subgroups(p, 6)) == 444
        rep = stability_report(p, 6)
        assert rep.enumeration_complete is True
        assert sum(row.class_size for row in rep.rows) == 444
    monkeypatch.setattr(lowindex, "MAX_NODES", 585)
    with pytest.raises(LimitExceeded, match="585 nodes"):
        low_index_subgroups(p, 6)
    assert len(normal_subgroups(p, 6)) == 13
    assert stability_report(p, 6).enumeration_complete is False


@pytest.mark.parametrize("search", [_ClassSearch, _NormalSearch])
@pytest.mark.parametrize("name,max_index", [("free2", 4), ("torus", 4), ("c2xc2", 4), ("trefoil", 3)])
def test_a_budget_one_node_short_raises_exactly_when_the_last_node_emits(search, name, max_index):
    # only the last node is past the budget, and it has no child: it leaves
    # work undone exactly when it emits a class
    p = corpus_presentation(name)
    full = search(p, max_index)
    emitted_at = []
    real_emit = full.emit
    full.emit = lambda ties: (emitted_at.append(full.nodes), real_emit(ties))
    full.run()
    short = search(p, max_index)
    short.max_nodes = full.nodes - 1
    try:
        short.run()
    except LimitExceeded:
        raised = True
    else:
        raised = False
        assert [c.keys for c in short.classes] == [c.keys for c in full.classes]
    assert raised == (emitted_at[-1] == full.nodes)
