from deflab.chain import collapse_to_point, presentation_chain_complex, restrict_to_subgroup
from deflab.corpus import corpus_presentation
from deflab.coset import cyclic_cover_record
from deflab.linalg import betti_numbers, cokernel_invariants, transpose
from deflab.lowindex import low_index_subgroups
from deflab.quotient import core_record
from deflab.schreier import rewrite_subgroup_presentation
from deflab.tietze import tietze_simplify


def abelian_invariants(p):
    matrix = p.abelianized_relator_matrix()
    return cokernel_invariants(transpose(matrix, p.num_generators), len(matrix))


def test_torus_index_two_counts():
    p = corpus_presentation("torus")
    for rec in low_index_subgroups(p, 2):
        sub = rewrite_subgroup_presentation(p, rec)
        k = rec.index
        assert sub.presentation.num_generators == k * (2 - 1) + 1
        assert sub.presentation.num_relators == k * 1


def test_genus2_index_two_counts():
    p = corpus_presentation("genus2")
    recs = [r for r in low_index_subgroups(p, 2) if r.index == 2]
    assert recs
    for rec in recs:
        sub = rewrite_subgroup_presentation(p, rec)
        assert sub.presentation.num_generators == 7
        assert sub.presentation.num_relators == 2


def test_identity_cover_keeps_counts():
    for name in ("torus", "trefoil", "q8", "dup_relator"):
        p = corpus_presentation(name)
        rec = low_index_subgroups(p, 1)[0]
        sub = rewrite_subgroup_presentation(p, rec)
        assert sub.presentation.num_generators == p.num_generators
        assert sub.presentation.num_relators == p.num_relators


def test_counts_across_corpus_samples():
    # full low-index sweep where cheap, cyclic covers elsewhere
    for name in ("torus", "trefoil", "c4", "dup_relator"):
        p = corpus_presentation(name)
        e1, e2 = p.num_generators, p.num_relators
        for rec in low_index_subgroups(p, 4):
            sub = rewrite_subgroup_presentation(p, rec)
            k = rec.index
            assert sub.presentation.num_generators == k * (e1 - 1) + 1
            assert sub.presentation.num_relators == k * e2
    for name, weights in (("genus3", None), ("f2xf2", None)):
        p = corpus_presentation(name)
        e1, e2 = p.num_generators, p.num_relators
        for k in range(1, 7):
            rec = cyclic_cover_record(p, k, weights=weights)
            sub = rewrite_subgroup_presentation(p, rec)
            assert sub.presentation.num_generators == k * (e1 - 1) + 1
            assert sub.presentation.num_relators == k * e2


def test_schreier_inequality_on_deficiency_data():
    # rewritten-then-simplified lower bounds respect the index scaling
    for name in ("torus", "genus2", "free2"):
        p = corpus_presentation(name)
        base = tietze_simplify(p).deficiency_datum()
        for rec in low_index_subgroups(p, 3):
            sub = rewrite_subgroup_presentation(p, rec)
            lower = tietze_simplify(sub.presentation).deficiency_datum()
            assert lower - 1 >= rec.index * (base - 1)


def test_generator_map_words_lie_in_subgroup():
    p = corpus_presentation("trefoil")
    for rec in low_index_subgroups(p, 3):
        sub = rewrite_subgroup_presentation(p, rec)
        for w in sub.generator_map:
            assert rec.table.trace(0, w) == 0


def test_abelianization_matches_restricted_complex():
    # H1 of the Schreier presentation == H1 of the restricted, collapsed
    # chain complex of the parent presentation
    for name in ("torus", "trefoil", "dup_relator"):
        p = corpus_presentation(name)
        for rec in low_index_subgroups(p, 3):
            sub = rewrite_subgroup_presentation(p, rec)
            free, torsion = abelian_invariants(sub.presentation)
            core, quotient = core_record(rec)
            complex_ = presentation_chain_complex(p, quotient)
            restricted = restrict_to_subgroup(complex_, rec, quotient)
            collapsed = collapse_to_point(restricted)
            betti = betti_numbers(collapsed, "Q")
            assert betti.b[1] == free, (name, rec.index)
            assert betti.torsion[1] == torsion, (name, rec.index)
