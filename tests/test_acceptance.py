"""Acceptance gate: one test per criterion, each printing a PASS line.

Where a criterion quantifies over every subgroup of index <= 6 of every
corpus presentation, full enumeration is replaced by full enumeration up to
a per-presentation feasible cap plus direct cyclic covers at every index
k <= 6: several corpus groups have millions of subgroups at index 6 (a
rank-3 free group alone has 3,011,263), far beyond any minute-scale budget.
"""

import itertools
import random
import time
from collections import Counter
from math import factorial

from conftest import from_dense, to_dense

from deflab import lowindex
from deflab.chain import (
    collapse_to_point,
    presentation_chain_complex,
    restrict_to_subgroup,
)
from deflab.corpus import CORPUS, corpus_presentation
from deflab.coset import cyclic_cover_record
from deflab.groupring import GroupRingElement, fox_derivative
from deflab.intervals import deficiency_interval
from deflab.linalg import (
    betti_numbers,
    cokernel_invariants,
    mat_mul,
    morse_check,
    partial_euler_mu,
    smith_normal_form,
    transpose,
)
from deflab.lowindex import low_index_subgroups
from deflab.modcert import KernelWitness, primitivize, rank_drop_certificate, separating_subgroup
from deflab.modp import bar_cohomology_dims, dual_complex_dims
from deflab.presentation import Presentation, parse_presentation, parse_word
from deflab.quotient import FiniteGroup, core_record
from deflab.schreier import rewrite_subgroup_presentation
from deflab.stability import STATUS_CERTIFIED, STATUS_CONSISTENT, stability_report
from deflab.words import Word

COVER_WEIGHTS = {"trefoil": [3, 2], "q8": [1, 1], "d4": [0, 1]}


def test_criterion_1_schreier_counts(enum_caps):
    t0 = time.time()
    checked = 0
    for name in CORPUS:
        p = corpus_presentation(name)
        e1, e2 = p.num_generators, p.num_relators
        records = list(low_index_subgroups(p, enum_caps[name]))
        for k in range(1, 7):
            try:
                records.append(cyclic_cover_record(p, k, COVER_WEIGHTS.get(name)))
            except ValueError:
                pass  # no cover of this index along the chosen map
        for rec in records:
            k = rec.index
            sub = rewrite_subgroup_presentation(p, rec)
            assert sub.presentation.num_generators == k * (e1 - 1) + 1, (name, k)
            assert sub.presentation.num_relators == k * e2, (name, k)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 1 exceeded its budget: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (Schreier counts, {checked} subgroups, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_2_certified_stabilization():
    t0 = time.time()
    expected_slope = {"torus": 0, "genus2": 2, "free2": 1}
    for name, slope in expected_slope.items():
        p = corpus_presentation(name)
        rep = stability_report(p, 4, group_name=name)
        assert rep.verdict == STATUS_CERTIFIED, name
        for row in rep.rows:
            assert row.identity_status == STATUS_CERTIFIED, (name, row.index)
            assert row.interval.is_point
            assert row.interval.lower - 1 == slope * row.index, (name, row.index)
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 2 exceeded its budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE 2 (certified stabilization at index <= 4, "
          f"{elapsed:.1f}s): PASS")


def _hall_counts(rank, up_to):
    a = {1: 1}
    for n in range(2, up_to + 1):
        a[n] = n * factorial(n) ** (rank - 1) - sum(
            factorial(n - i) ** (rank - 1) * a[i] for i in range(1, n)
        )
    return a


def _brute_force_free2_counts(up_to):
    counts = {}
    for n in range(1, up_to + 1):
        total = 0
        perms = list(itertools.permutations(range(n)))
        for pa, pb in itertools.product(perms, repeat=2):
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for c in frontier:
                    for perm in (pa, pb):
                        if perm[c] not in seen:
                            seen.add(perm[c])
                            nxt.append(perm[c])
                frontier = nxt
            if len(seen) == n:
                total += 1
        counts[n] = total // factorial(n - 1)
    return counts


def test_criterion_3_subgroup_count_oracles():
    p = parse_presentation("< a, b | >")
    got = Counter(r.index for r in low_index_subgroups(p, 3))
    assert got[2] == 3 and got[3] == 13
    hall = _hall_counts(2, 3)
    brute = _brute_force_free2_counts(3)
    assert dict(got) == hall == brute
    print("ACCEPTANCE 3 (subgroup counts: 3 at index 2, 13 at index 3, "
          "Hall == brute force): PASS")


def test_criterion_4_fox_chain_soundness(monkeypatch):
    monkeypatch.setattr(lowindex, "MAX_NODES", 40_000)
    t0 = time.time()
    rng = random.Random(101)
    built = 0
    while built < 100:
        ngens = rng.randrange(1, 4)
        rels = []
        for _ in range(rng.randrange(1, 4)):
            w = Word(tuple(
                (rng.randrange(ngens), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 7))
            ))
            if w.cyclically_reduced():
                rels.append(w)
        if not rels:
            continue
        p = Presentation(tuple("abc"[:ngens]), tuple(rels))
        quotients = [FiniteGroup.trivial(ngens)]
        try:
            for rec in low_index_subgroups(p, 3)[:3]:
                try:
                    _, q = core_record(rec, max_order=24)
                    quotients.append(q)
                except Exception:
                    pass
        except Exception:
            pass
        for q in quotients:
            c = presentation_chain_complex(p, q)  # verifies d1 @ d2 == 0
            assert not any(mat_mul(c.boundaries[0], c.boundaries[1]))
            built += 1
            if built >= 100:
                break
    rng2 = random.Random(103)

    def rand_word():
        return Word(tuple(
            (rng2.randrange(3), rng2.choice((1, -1)))
            for _ in range(rng2.randrange(8))
        ))

    for _ in range(1000):
        u, v = rand_word(), rand_word()
        gen = rng2.randrange(3)
        lhs = fox_derivative(Word(u.letters + v.letters), gen)
        rhs = fox_derivative(u, gen) + GroupRingElement.of_word(u) * fox_derivative(v, gen)
        assert lhs == rhs
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 4 exceeded its budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 (100 complexes compose to zero, product rule on "
          f"1000 word pairs, {elapsed:.1f}s): PASS")


def test_criterion_5_morse_inequality():
    complexes = []
    for name in CORPUS:
        p = corpus_presentation(name)
        trivial = presentation_chain_complex(p, FiniteGroup.trivial(p.num_generators))
        complexes.append((name, trivial))
        for rec in low_index_subgroups(p, 2):
            if not rec.is_normal:
                continue
            try:
                _, q = core_record(rec, max_order=24)
            except Exception:
                continue
            c = presentation_chain_complex(p, q)
            complexes.append((name, c))
            complexes.append((name, collapse_to_point(restrict_to_subgroup(c, rec, q))))
    recorded = []
    for name, c in complexes:
        b = betti_numbers(c, "Q")
        e = partial_euler_mu(c.dims, 2)
        holds, slack = morse_check(b, e)
        assert holds, (name, slack)
        assert slack >= 0
        recorded.append(slack)
    # certified group level: aspherical complexes realize equality
    for name in ("torus", "genus2"):
        p = corpus_presentation(name)
        c = presentation_chain_complex(p, FiniteGroup.trivial(p.num_generators))
        b = betti_numbers(c, "Q")
        e = partial_euler_mu([1, p.num_generators, p.num_relators], 2)
        holds, slack = morse_check(b, e)
        assert holds and slack == 0, name
    print(f"ACCEPTANCE 5 (Morse inequality on {len(complexes)} complexes, "
          f"recorded slacks in [{min(recorded)}, {max(recorded)}], "
          "torus and genus-2 slack 0): PASS")


def test_criterion_6_snf_self_verification():
    rng = random.Random(107)
    for _ in range(500):
        rows = rng.randrange(1, 13)
        cols = rng.randrange(1, 13)
        a = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(from_dense(a), cols)  # verify() runs at construction
        product = mat_mul(mat_mul(snf.left, from_dense(a)), snf.right)
        assert to_dense(product, cols) == [
            [snf.diagonal[i] if i == j < snf.rank else 0 for j in range(cols)]
            for i in range(rows)
        ]
        for x, y in zip(snf.diagonal, snf.diagonal[1:]):
            assert x > 0 and y % x == 0
    print("ACCEPTANCE 6 (SNF transforms and divisibility on 500 random "
          "matrices): PASS")


def _h1_dim_mod_p(sub_presentation, prime):
    matrix = sub_presentation.abelianized_relator_matrix()
    n = sub_presentation.num_generators
    free, torsion = cokernel_invariants(transpose(matrix, n), len(matrix))
    return free + sum(1 for t in torsion if t % prime == 0)


def test_criterion_7_modp_oracle_agreement():
    t0 = time.time()
    for prime in (2, 3, 5):
        assert bar_cohomology_dims(FiniteGroup.cyclic(prime), prime).dims == (1, 1, 1)
    checked = 0
    caps = {"free1": 6, "free2": 3, "free3": 2, "torus": 4, "genus2": 2,
            "genus3": 2, "f2xf2": 2, "trefoil": 4, "dup_relator": 4,
            "redundant": 2, "c2": 6, "c3": 6, "c4": 6, "c5": 6,
            "c2xc2": 6, "q8": 8, "d4": 8}
    for name in CORPUS:
        p = corpus_presentation(name)
        records = list(low_index_subgroups(p, caps[name]))
        for k in range(caps[name] + 1, 17):
            try:
                records.append(cyclic_cover_record(p, k, COVER_WEIGHTS.get(name)))
            except ValueError:
                pass
        for rec in records:
            if not rec.is_normal or rec.index > 16:
                continue
            sub = rewrite_subgroup_presentation(p, rec)
            for prime in (2, 3):
                rep = dual_complex_dims(p, rec, prime)
                assert rep.dims[1] == _h1_dim_mod_p(sub.presentation, prime), (
                    name, rec.index, prime,
                )
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 7 exceeded its budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE 7 (bar oracle + dual-complex H1 agreement on "
          f"{checked} normal-subgroup cases, {elapsed:.1f}s): PASS")


def test_criterion_8_certificate_pipeline():
    p = corpus_presentation("dup_relator")
    e1, e2 = p.num_generators, p.num_relators
    witness = KernelWitness(rho=(GroupRingElement.one(), GroupRingElement.one() * -1))
    cert = rank_drop_certificate(p, witness, FiniteGroup.trivial(2), max_index=4)
    assert cert.drop_bound <= 1 < 2 == cert.schreier_relators
    assert cert.mu2_bound == 1 + cert.drop_bound - e2 == 0
    assert cert.mu2_bound < 1 - (e1 - e2) == 1
    w = primitivize(KernelWitness(rho=(GroupRingElement.one() * 2,
                                       GroupRingElement.one() * -4)))
    assert [a.terms[0][1] for a in w.rho] == [1, -2]
    f2 = parse_presentation("< a, b | >")
    sep = separating_subgroup([Word(), parse_word("a", f2)], f2, 4)
    support = [Word(), parse_word("a", f2)]
    assert len({sep.table.trace(0, x) for x in support}) == len(support)
    print("ACCEPTANCE 8 (drop certificate u=1<2, mu2 bound 0 < 1, "
          "primitivization, separation): PASS")


def test_criterion_9_interval_honesty():
    trefoil = corpus_presentation("trefoil")
    iv = deficiency_interval(trefoil)
    assert (iv.lower, iv.upper) == (1, 1)
    redundant = corpus_presentation("redundant")
    iv = deficiency_interval(redundant)
    assert iv.lower < iv.upper  # non-degenerate
    rep = stability_report(redundant, 2, group_name="redundant")
    assert rep.verdict == STATUS_CONSISTENT
    for row in rep.rows:
        assert row.identity_status == STATUS_CONSISTENT
        assert row.identity_status != STATUS_CERTIFIED
    print("ACCEPTANCE 9 (trefoil [1,1]; redundant presentation stays "
          "non-degenerate and consistent): PASS")
