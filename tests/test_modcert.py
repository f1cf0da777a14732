import random

import pytest

from deflab.corpus import CORPUS, corpus_presentation
from deflab.coset import CosetTable, product_orbit, schreier_transversal, subgroup_record
from deflab.errors import LimitExceeded, SeparationExhausted, WitnessNotInKernel, ZeroWitness
from deflab.groupring import GroupRingElement
from deflab.lowindex import low_index_subgroups
from deflab.modcert import (
    KernelWitness,
    ModulePresentation,
    coinvariant_rank_lower_bound,
    primitivize,
    rank_drop_certificate,
    separating_subgroup,
)
from deflab.presentation import parse_presentation, parse_word
from deflab.quotient import FiniteGroup, core_record
from deflab.schreier import rewrite_subgroup_presentation
from deflab.words import Word

# index caps for the separation oracles: the corpus entries with the most
# subgroups get smaller caps
SEPARATION_CAPS = {name: 4 for name in CORPUS} | {
    "genus2": 3, "free3": 3, "f2xf2": 3, "genus3": 2,
}


def one(c=1):
    return GroupRingElement.one() * c


def test_coinvariant_free_module():
    p = parse_presentation("< a, b | >")
    whole = low_index_subgroups(p, 1)[0]
    m = ModulePresentation(ambient=p, free_rank=1, relations=())
    assert coinvariant_rank_lower_bound(m, whole) == 1
    m3 = ModulePresentation(ambient=p, free_rank=3, relations=())
    rec2 = subgroup_record(p, [parse_word("a^2", p), parse_word("b", p), parse_word("a b a", p)])
    assert rec2.index == 2
    assert coinvariant_rank_lower_bound(m3, rec2) == 6


def test_coinvariant_augmentation_example():
    p = parse_presentation("< a | >")
    whole = low_index_subgroups(p, 1)[0]
    rel = GroupRingElement.of_word(Word(((0, 1),))) - GroupRingElement.one()
    m = ModulePresentation(ambient=p, free_rank=1, relations=((rel,),))
    assert coinvariant_rank_lower_bound(m, whole) == 1


def test_coinvariant_never_exceeds_rank_times_index():
    p = corpus_presentation("dup_relator")
    rel = (one(1), one(-1))
    m = ModulePresentation(ambient=p, free_rank=2, relations=(rel,))
    for rec in low_index_subgroups(p, 3):
        bound = coinvariant_rank_lower_bound(m, rec)
        assert 0 <= bound <= 2 * rec.index


def test_primitivize():
    w = KernelWitness(rho=(one(2), one(-4)))
    assert w.gcd == 2
    pw = primitivize(w)
    assert pw.gcd == 1
    assert [a.terms[0][1] for a in pw.rho] == [1, -2]
    already = KernelWitness(rho=(one(1), one(-2)))
    assert primitivize(already) == already
    with pytest.raises(ZeroWitness):
        KernelWitness(rho=(GroupRingElement.zero(), GroupRingElement.zero()))


def test_separating_subgroup_single_element():
    p = parse_presentation("< a, b | >")
    rec = separating_subgroup([Word()], p, 4)
    assert rec.index == 1


def test_separating_subgroup_two_elements():
    p = parse_presentation("< a, b | >")
    rec = separating_subgroup([Word(), parse_word("a", p)], p, 4)
    assert rec.index == 2 and rec.is_normal
    # post-hoc: support images are pairwise distinct
    cosets = {rec.table.trace(0, w) for w in (Word(), parse_word("a", p))}
    assert len(cosets) == 2


def test_separating_subgroup_exhaustion():
    p = parse_presentation("< a, b | >")
    with pytest.raises(SeparationExhausted):
        separating_subgroup(
            [Word(), parse_word("a", p), parse_word("a^2", p)], p, 2
        )


def test_three_words_are_separated_at_index_three():
    # three words need three cosets; the kernel of F2 -> Z/3 with a -> 1 and
    # b -> 2 is the least index-3 normal subgroup whose cosets separate them
    p = parse_presentation("< a, b | >")
    words = [Word(), parse_word("a", p), parse_word("b", p)]
    rec = separating_subgroup(words, p, 4)
    assert rec.index == 3 and rec.is_normal
    assert rec.table.action == ((1, 2, 0), (2, 0, 1))
    assert len({rec.table.trace(0, w) for w in words}) == 3


def random_supports(p, cap, rng, count=12):
    """count lists of 1..cap short words on the generators of p."""
    out = []
    for _ in range(count):
        support = []
        for _ in range(rng.randrange(1, cap + 1)):
            support.append(Word(tuple(
                (rng.randrange(p.num_generators), rng.choice((1, -1)))
                for _ in range(rng.randrange(0, 4))
            )))
        out.append(support)
    return out


def test_separation_matches_brute_force_on_the_corpus():
    """The least (index, action) normal subgroup of index <= cap with at
    least as many cosets as distinct words, among those that separate."""
    rng = random.Random(10)
    for name, cap in SEPARATION_CAPS.items():
        p = corpus_presentation(name)
        normals = [r for r in low_index_subgroups(p, cap) if r.is_normal]
        for support in random_supports(p, cap, rng):
            words = set(support)
            expected = [
                r for r in normals
                if r.index >= len(words)
                and len({r.table.trace(0, w) for w in words}) == len(words)
            ]
            if not expected:
                with pytest.raises(SeparationExhausted):
                    separating_subgroup(support, p, cap)
                continue
            best = min(expected, key=lambda r: (r.index, r.table.action))
            rec = separating_subgroup(support, p, cap)
            assert (rec.index, rec.table.action) == (
                best.index, best.table.action
            ), (name, support)


def test_cores_and_intersections_are_enumerated_normal_subgroups():
    """Normal cores of low-index subgroups and pairwise intersections of
    normal subgroups, each of index <= the bound, are already normal records
    of the same enumeration, so separation need not build them."""
    for name, bound in SEPARATION_CAPS.items():
        p = corpus_presentation(name)
        records = low_index_subgroups(p, bound)
        normal_keys = {r.table.action for r in records if r.is_normal}
        candidates = [r for r in records if r.is_normal]
        for rec in records:
            if not rec.is_normal:
                try:
                    core, _ = core_record(rec, max_order=bound)
                except LimitExceeded:
                    continue
                assert core.table.action in normal_keys, name
                candidates.append(core)
        for i, r1 in enumerate(candidates):
            for r2 in candidates[i + 1:]:
                a1, a2 = r1.table.action, r2.table.action
                try:
                    pairs, index = product_orbit(a1, a2, limit=bound)
                except LimitExceeded:
                    continue
                action = tuple(
                    tuple(index[a[x], b[y]] for x, y in pairs) for a, b in zip(a1, a2)
                )
                table = CosetTable(index=len(pairs), action=action, origin=p)
                table.verify()
                assert schreier_transversal(table).table.action in normal_keys, name


def test_certificate_on_duplicate_gadget():
    p = corpus_presentation("dup_relator")
    witness = KernelWitness(rho=(one(1), one(-1)))
    cert = rank_drop_certificate(p, witness, FiniteGroup.trivial(2), max_index=4)
    assert cert.subgroup_index == 1
    assert cert.drop_bound == 1 < cert.schreier_relators == 2
    assert cert.mu2_bound == 0
    assert cert.coinvariant_lower_bound <= cert.drop_bound
    assert cert.verification_quotient_order == 1
    data = cert.to_json()
    assert "necessary condition" in data["verification_level"]


def test_certificate_counts_equal_the_schreier_rewrite():
    """(x, -x) lies in ker d2 of dup_relator for every x; supports of one to
    four words need separating subgroups of index 1 to 4."""
    p = corpus_presentation("dup_relator")
    for support in (["1"], ["1", "a"], ["1", "a", "b"], ["1", "a", "a^2", "a^3"]):
        x = GroupRingElement.from_dict({parse_word(w, p): 1 for w in support})
        cert = rank_drop_certificate(
            p, KernelWitness(rho=(x, -x)), FiniteGroup.trivial(2), max_index=4
        )
        assert cert.subgroup_index == len(support)
        assert cert.drop_bound == 2 * len(support) - 1 < cert.schreier_relators
        sub = rewrite_subgroup_presentation(p, cert.subgroup).presentation
        assert cert.schreier_generators == sub.num_generators
        assert cert.schreier_relators == sub.num_relators


def test_certificate_primitivizes():
    p = corpus_presentation("dup_relator")
    witness = KernelWitness(rho=(one(2), one(-2)))
    cert = rank_drop_certificate(p, witness, FiniteGroup.trivial(2), max_index=4)
    assert cert.witness_gcd == 2
    assert cert.witness.gcd == 1


def test_certificate_rejects_non_kernel_witness():
    p = corpus_presentation("dup_relator")
    bad = KernelWitness(rho=(one(1), GroupRingElement.zero()))
    # push to C3 where the boundary image of (1, 0) is nonzero
    rec = subgroup_record(p, [parse_word("a", p), parse_word("b", p)])
    q3 = None
    for r in low_index_subgroups(p, 3):
        if r.index == 3 and r.is_normal:
            _, q = core_record(r)
            if q.order == 3:
                q3 = q
                break
    assert q3 is not None
    with pytest.raises(WitnessNotInKernel):
        rank_drop_certificate(p, bad, q3, max_index=3)


def test_certificate_over_nontrivial_quotient():
    p = corpus_presentation("dup_relator")
    witness = KernelWitness(rho=(one(1), one(-1)))
    for r in low_index_subgroups(p, 3):
        if r.index == 3 and r.is_normal:
            _, q = core_record(r)
            if q.order == 3:
                cert = rank_drop_certificate(p, witness, q, max_index=3)
                assert cert.verification_quotient_order == 3
                assert cert.drop_bound == 1
                return
    raise AssertionError("no C3 quotient found")
