import json
import random
from collections import Counter, defaultdict
from dataclasses import replace

import pytest
from conftest import ENUM_CAPS, from_dense, node_budget, small_presentations
from hypothesis import given, settings
from stability_oracle import member_stability_report

from deflab import intervals, lowindex, stability
from deflab.chain import cover_relation_matrix
from deflab.corpus import CORPUS, corpus_presentation
from deflab.coset import CosetTable
from deflab.intervals import CERT_NONE
from deflab.linalg import cokernel_invariants
from deflab.lowindex import class_members, low_index_subgroups
from deflab.presentation import Presentation, parse_presentation, serialize_presentation
from deflab.schreier import rewrite_subgroup_presentation
from deflab.stability import (
    STATUS_CERTIFIED,
    STATUS_CONSISTENT,
    stability_report,
)
from deflab.tietze import tietze_simplify
from deflab.words import Word


def test_torus_all_rows_certified():
    rep = stability_report(corpus_presentation("torus"), 3, group_name="torus")
    assert rep.verdict == STATUS_CERTIFIED
    for row in rep.rows:
        assert row.identity_status == STATUS_CERTIFIED
        assert row.interval.lower == row.interval.upper == 1


def test_genus2_rows_scale():
    rep = stability_report(corpus_presentation("genus2"), 3, group_name="genus2")
    assert rep.verdict == STATUS_CERTIFIED
    for row in rep.rows:
        assert row.interval.lower - 1 == 2 * row.index


def test_free2_rows_nielsen_schreier():
    rep = stability_report(corpus_presentation("free2"), 3, group_name="free2")
    assert rep.verdict == STATUS_CERTIFIED
    for row in rep.rows:
        assert row.interval.lower == row.index + 1  # rank k+1 at index k
        assert row.b1 == row.index + 1


def test_redundant_presentation_stays_consistent():
    rep = stability_report(corpus_presentation("redundant"), 2, group_name="redundant")
    assert rep.verdict == STATUS_CONSISTENT
    assert not rep.base_interval.is_point
    for row in rep.rows:
        assert row.identity_status == STATUS_CONSISTENT


def test_report_determinism():
    a = stability_report(corpus_presentation("trefoil"), 3, group_name="trefoil")
    b = stability_report(corpus_presentation("trefoil"), 3, group_name="trefoil")
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )


def test_a_report_without_generators_parses_back():
    rep = stability_report(parse_presentation("< a | a^-1, a >"), 2)
    p = parse_presentation(rep.presentation)
    assert (p.num_generators, p.num_relators) == (0, 0)


def test_report_schema():
    rep = stability_report(corpus_presentation("torus"), 2, group_name="torus")
    data = rep.to_json()
    assert set(data) == {
        "group", "presentation", "base_interval", "rows", "verdict",
        "enumeration_complete", "tool_version",
    }
    assert data["enumeration_complete"] is True
    row = data["rows"][0]
    assert set(row) == {"index", "ordinal", "class_size", "schreier_generators",
                        "schreier_relators", "b1", "torsion", "interval", "identity_status"}


def test_partial_report_flagged(monkeypatch):
    monkeypatch.setattr(lowindex, "MAX_NODES", 500)
    rep = stability_report(corpus_presentation("free3"), 5, group_name="free3")
    assert rep.enumeration_complete is False
    assert rep.rows  # some rows were still produced


def test_chi_multiplicativity_through_counts():
    # restricted complexes have cell counts k * (1, e1, e2): chi scales by k
    p = corpus_presentation("genus2")
    rep = stability_report(p, 3, group_name="genus2")
    chi_base = 1 - p.num_generators + p.num_relators
    for row in rep.rows:
        chi_row = 1 - row.schreier_generators + row.schreier_relators
        assert chi_row == row.index * chi_base


def test_f2xf2_asserted_certificate_rows():
    rep = stability_report(
        corpus_presentation("f2xf2"), 2, aspherical=True, group_name="f2xf2"
    )
    assert rep.verdict == STATUS_CERTIFIED
    for row in rep.rows:
        # delta(H) - 1 = k * (0 - 1) for the product of two free groups
        assert row.interval.lower - 1 == -row.index


def test_rows_canonically_ordered():
    rep = stability_report(corpus_presentation("trefoil"), 3, group_name="t")
    keys = [(row.index, row.ordinal) for row in rep.rows]
    assert keys == sorted(keys)


def test_simplification_exposes_one_relator_certificate():
    from deflab.presentation import parse_presentation, serialize_presentation

    p = parse_presentation("< a, b | [a, b], [b, a] >")
    rep = stability_report(p, 2, group_name="torus-redundant")
    assert rep.verdict == STATUS_CERTIFIED  # dedupe leaves the torus relator


def test_genus2_cover_first_betti_numbers():
    # the degree-k cover of a genus-2 surface is a surface of genus k+1,
    # so its first Betti number is 2k + 2 (independent topology oracle)
    rep = stability_report(corpus_presentation("genus2"), 3, group_name="genus2")
    for row in rep.rows:
        assert row.b1 == 2 * row.index + 2
        assert row.torsion == ()


def test_torus_cover_first_betti_numbers():
    rep = stability_report(corpus_presentation("torus"), 4, group_name="torus")
    for row in rep.rows:
        assert row.b1 == 2 and row.torsion == ()


def test_trefoil_covers_certified_flat():
    # chi = 0 for the trefoil complex, so delta(H) = 1 on every cover
    rep = stability_report(corpus_presentation("trefoil"), 5, group_name="trefoil")
    assert rep.verdict == STATUS_CERTIFIED
    for row in rep.rows:
        assert row.interval.lower == row.interval.upper == 1


def test_classifier_branches():
    from deflab.intervals import DeficiencyInterval
    from deflab.stability import (
        STATUS_INCONCLUSIVE,
        STATUS_VIOLATED,
        _classify,
    )

    point = lambda v: DeficiencyInterval(lower=v, upper=v, certificate="none")
    wide = lambda lo, hi: DeficiencyInterval(lower=lo, upper=hi, certificate="none")
    # certified: both points, exact identity at k = 2
    assert _classify(2, point(2), point(3)) == STATUS_CERTIFIED
    # equality possible inside the brackets
    assert _classify(2, wide(1, 2), wide(1, 3)) == STATUS_CONSISTENT
    # upper(H) - 1 < k (lower(G) - 1): impossible for sound bounds
    assert _classify(2, point(3), point(2)) == STATUS_VIOLATED
    # lower(H) - 1 > k (upper(G) - 1): excess beyond the bracket
    assert _classify(2, point(1), point(4)) == STATUS_INCONCLUSIVE
    # point intervals with inequality inside allowed range stay consistent
    assert _classify(1, wide(1, 3), point(2)) == STATUS_CONSISTENT


def schreier_route(p, rec):
    """The rewritten Schreier presentation, its abelianized relator matrix
    with the cover's row and column order, and (b1, torsion) from it."""
    sp = rewrite_subgroup_presentation(p, rec).presentation
    k, e2 = rec.index, p.num_relators
    relators = sp.abelianized_relator_matrix()  # row (coset h, relator j) at h*e2 + j
    gens = list(rec.schreier_generators())  # (coset, generator) order
    by_generator = sorted(range(len(gens)), key=lambda i: (gens[i][1], gens[i][0]))
    matrix = from_dense(
        [relators[h * e2 + j].get(i, 0) for j in range(e2) for h in range(k)] for i in by_generator
    )
    free, torsion = cokernel_invariants(matrix, k * e2)
    return sp, matrix, (free, tuple(torsion))


def assert_cover_matches_schreier(p, rec, row=None):
    sp, matrix, homology = schreier_route(p, rec)
    cover = cover_relation_matrix(p, rec)
    assert cover == matrix
    k = rec.index
    free, torsion = cokernel_invariants(cover, k * p.num_relators)
    assert (free, tuple(torsion)) == homology
    counts = (k * (p.num_generators - 1) + 1, k * p.num_relators)
    assert (sp.num_generators, sp.num_relators) == counts
    assert len(cover) == counts[0]
    # Tietze never lowers the Schreier count and no presentation beats b1
    lower = tietze_simplify(sp).deficiency_datum()
    assert counts[0] - counts[1] <= lower <= free
    if row is not None:
        assert (row.schreier_generators, row.schreier_relators) == counts
        assert (row.b1, row.torsion) == homology
    return lower


def rows_by_class(rep, records):
    """The report's row of each conjugacy class of records, checked to be
    one row per class: the record at a row's ordinal among the records of
    its index is the first member of the row's class, and the class has
    class_size members."""
    sizes = Counter(rec.conjugacy_class for rec in records)
    ordinals = Counter()
    first = {}
    for rec in records:
        ordinals[rec.index] += 1
        first.setdefault(rec.conjugacy_class, (rec.index, ordinals[rec.index]))
    at = {(row.index, row.ordinal): row for row in rep.rows}
    assert len(at) == len(rep.rows) == len(first)
    rows = {n: at[position] for n, position in first.items()}
    assert all(row.class_size == sizes[n] for n, row in rows.items())
    return rows


def test_cover_route_matches_schreier_route_on_the_corpus(enum_caps):
    for name in CORPUS:
        cap = enum_caps[name]
        rep = stability_report(corpus_presentation(name), cap, group_name=name)
        base = parse_presentation(rep.presentation)  # the presentation the rows come from
        records = low_index_subgroups(base, cap)
        rows = rows_by_class(rep, records)
        lowers = defaultdict(list)
        for rec in records:
            row = rows[rec.conjugacy_class]
            lowers[rec.conjugacy_class].append(assert_cover_matches_schreier(base, rec, row))
        for n, row in rows.items():
            if row.interval.certificate == CERT_NONE:
                assert row.interval.lower == max(lowers[n]), name


def test_cover_route_matches_schreier_route_on_random_presentations(random_presentations, monkeypatch):
    monkeypatch.setattr(lowindex, "MAX_NODES", 100_000)
    for p in random_presentations(61, 30):
        for rec in low_index_subgroups(p, 4):
            assert_cover_matches_schreier(p, rec)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(small_presentations())
def test_cover_route_matches_schreier_route_property(p):
    with node_budget(100_000):
        records = low_index_subgroups(p, 3)
    for rec in records:
        assert_cover_matches_schreier(p, rec)


def test_certified_rows_need_no_schreier_presentation(monkeypatch):
    def no_rewrite(p, rec):
        raise AssertionError("a closed row rewrote its Schreier presentation")

    monkeypatch.setattr(stability, "rewrite_subgroup_presentation", no_rewrite)
    rep = stability_report(corpus_presentation("genus2"), 3, group_name="genus2")
    assert rep.verdict == STATUS_CERTIFIED
    assert [row.b1 for row in rep.rows] == [2 * row.index + 2 for row in rep.rows]
    # free2 rows are uncertified, but the Schreier count k + 1 already meets b1
    rep = stability_report(corpus_presentation("free2"), 4, group_name="free2")
    assert rep.rows
    for row in rep.rows:
        assert row.interval.certificate == CERT_NONE
        assert row.interval.lower == row.interval.upper == row.b1 == row.index + 1


def test_one_smith_form_per_conjugacy_class(monkeypatch):
    calls = []

    def counting(p, rec):
        calls.append(rec.conjugacy_class)
        return cover_relation_matrix(p, rec)

    monkeypatch.setattr(stability, "cover_relation_matrix", counting)
    p = corpus_presentation("genus2")
    rep = stability_report(p, 4, group_name="genus2")
    assert len(rep.rows) == 1731
    assert sorted(calls) == list(range(1731))
    # per index, the class sizes sum to the number of subgroups
    members = Counter()
    for row in rep.rows:
        members[row.index] += row.class_size
    assert members == Counter(rec.index for rec in low_index_subgroups(p, 4))
    assert sum(members.values()) == 5511


def test_one_tietze_run_on_the_base_presentation(monkeypatch):
    p = corpus_presentation("f2xf2")
    inputs = []

    def counting(q):
        inputs.append(q)
        return tietze_simplify(q)

    monkeypatch.setattr(intervals, "tietze_simplify", counting)
    monkeypatch.setattr(stability, "tietze_simplify", counting)
    rep = stability_report(p, 1)
    assert sum(q is p for q in inputs) == 1
    assert rep.base_interval == intervals.deficiency_interval(p)
    assert rep.presentation == serialize_presentation(tietze_simplify(p))


def member_values(rows):
    """The multiset of (index, b1, torsion, interval, status) over the
    members of rows, a row counting class_size times."""
    out = Counter()
    for row in rows:
        out[row.index, row.b1, row.torsion, row.interval, row.identity_status] += row.class_size
    return out


def assert_class_rows_expand_to_member_rows(rep, oracle):
    """rep, one row per class, against the member-by-member oracle report:
    the same header, each row repeated class_size times gives the oracle's
    rows, and each row is the oracle's row of the class's first member."""
    assert replace(rep, rows=()) == replace(oracle, rows=())
    assert member_values(rep.rows) == member_values(oracle.rows)
    at = {(row.index, row.ordinal): row for row in oracle.rows}
    for row in rep.rows:
        assert replace(at[row.index, row.ordinal], class_size=row.class_size) == row


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_the_class_route_equals_the_member_route_at_the_cap(name):
    p, cap = corpus_presentation(name), ENUM_CAPS[name]
    rep = stability_report(p, cap, group_name=name)
    assert_class_rows_expand_to_member_rows(rep, member_stability_report(p, cap, group_name=name))


def test_the_class_route_equals_the_member_route_certified_and_partial(monkeypatch):
    f2xf2 = corpus_presentation("f2xf2")
    rep = stability_report(f2xf2, 2, aspherical=True)
    assert_class_rows_expand_to_member_rows(rep, member_stability_report(f2xf2, 2, aspherical=True))
    # a partial report holds the same whole classes on both routes
    monkeypatch.setattr(lowindex, "MAX_NODES", 500)
    free3 = corpus_presentation("free3")
    rep = stability_report(free3, 5)
    assert not rep.enumeration_complete
    assert_class_rows_expand_to_member_rows(rep, member_stability_report(free3, 5))


def test_a_class_row_keeps_the_best_member_bound_on_random_presentations(random_presentations, monkeypatch):
    # the members of one class have their own Schreier presentations, so
    # their Tietze bounds can differ; the row never ends below any of them
    monkeypatch.setattr(lowindex, "MAX_NODES", 100_000)
    for p in random_presentations(16, 40):
        rep = stability_report(p, 3)
        records = low_index_subgroups(intervals.witnessed_interval(p)[1], 3)
        rows = rows_by_class(rep, records)
        lowers = defaultdict(list)
        for rec, member in zip(records, member_stability_report(p, 3).rows, strict=True):
            lowers[rec.conjugacy_class].append(member.interval.lower)
        for n, row in rows.items():
            assert row.interval.lower == max(lowers[n]), serialize_presentation(p)


def test_stability_packages_one_table_per_class_plus_one_per_open_row(monkeypatch):
    verified, packaged, rewritten = [], [], []
    real_verify = CosetTable.verify
    real_package = lowindex.schreier_transversal
    real_rewrite = stability.rewrite_subgroup_presentation

    def verify(t):
        verified.append(t.action)
        return real_verify(t)

    def package(t, conjugacy_class=None):
        packaged.append(t.action)
        return real_package(t, conjugacy_class)

    def rewrite(p, rec):
        rewritten.append(rec)
        return real_rewrite(p, rec)

    monkeypatch.setattr(CosetTable, "verify", verify)
    monkeypatch.setattr(lowindex, "schreier_transversal", package)
    monkeypatch.setattr(stability, "rewrite_subgroup_presentation", rewrite)
    rep = stability_report(corpus_presentation("genus2"), 4)
    assert len(rep.rows) == 1731
    assert len(verified) == len(packaged) == 1731 and not rewritten  # every row is closed
    for name, k in (("redundant", 3), ("f2xf2", 2), ("dup_relator", 4)):
        verified.clear(), packaged.clear(), rewritten.clear()
        rep = stability_report(corpus_presentation(name), k)
        counts = len(verified), len(packaged), len(rewritten)
        members, _ = class_members(parse_presentation(rep.presentation), k)
        classes = sum(i == 0 for _, i in members)
        tables, transversals, opened = counts
        # every member of a class whose Schreier count is below its upper end
        open_members = sum(
            row.class_size for row in rep.rows
            if row.schreier_generators - row.schreier_relators < row.interval.upper
        )
        assert 0 < opened == open_members, name
        assert classes <= tables == transversals <= classes + opened, name


def relabelled(p, rng):
    """p with its generators permuted and inverted and its relators
    reordered, all drawn from rng."""
    n = p.num_generators
    image = rng.sample(range(n), n)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    relators = [Word(tuple((image[g], s * sign[g]) for g, s in r)) for r in p.relators]
    rng.shuffle(relators)
    return Presentation(p.generators, tuple(relators))


def invariant_rows(p, max_index):
    """The multiset of (index, b1, torsion, interval, status) over the
    subgroups of the report, each row counted class_size times."""
    return member_values(stability_report(p, max_index).rows)


@pytest.mark.parametrize(
    "name,max_index",
    [("dup_relator", 4), ("redundant", 3), ("f2xf2", 2), ("genus2", 3), ("d4", 4)],
)
def test_stability_rows_do_not_depend_on_the_labelling(name, max_index):
    p = corpus_presentation(name)
    want = invariant_rows(p, max_index)
    rng = random.Random(25)
    for _ in range(8):
        assert invariant_rows(relabelled(p, rng), max_index) == want, name
