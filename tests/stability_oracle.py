"""The member-by-member stability report, kept as a test oracle.

It walks the members of `class_members`, one verified table per member,
and computes one row per member on its own: counts, bracket, Tietze and
status.  b1 and torsion come from the Smith form of each member's own
abelianized Schreier relator matrix, not from the cover's relation matrix
or `cokernel_invariants`, and conjugate members must agree on them.  Each
of its rows stands for one member (class_size 1).  `stability_report` has
one row per class; each of its rows, repeated class_size times, must give
the rows of its members here.
"""

from deflab.errors import InternalCheckFailed
from deflab.intervals import CERT_NONE, DeficiencyInterval, witnessed_interval
from deflab.linalg import smith_normal_form
from deflab.lowindex import class_members
from deflab.presentation import serialize_presentation
from deflab.schreier import rewrite_subgroup_presentation, schreier_counts
from deflab.stability import (
    STATUS_CERTIFIED,
    STATUS_CONSISTENT,
    STATUS_INCONCLUSIVE,
    STATUS_VIOLATED,
    StabilityReport,
    StabilityRow,
    _classify,
)
from deflab.tietze import tietze_simplify


def member_stability_report(p, max_index, aspherical=False, group_name="group"):
    base_interval, base_pres = witnessed_interval(p, aspherical)
    certificate = base_interval.certificate
    members, complete = class_members(base_pres, max_index)
    rows = []
    ordinals = {}
    homology = {}
    for cls, i in members:
        rec = cls.member(i)
        k = rec.index
        ordinals[k] = ordinals.get(k, 0) + 1
        gens, rels = schreier_counts(base_pres, k)
        sp = rewrite_subgroup_presentation(base_pres, rec).presentation
        snf = smith_normal_form(sp.abelianized_relator_matrix(), gens)
        b1, torsion = gens - snf.rank, [d for d in snf.diagonal if d > 1]
        # conjugate subgroups are isomorphic, so their H_1 agree
        assert homology.setdefault(rec.conjugacy_class, (b1, torsion)) == (b1, torsion), rec
        lower = gens - rels
        upper = lower if certificate != CERT_NONE else b1
        if lower < upper:
            lower = tietze_simplify(sp).deficiency_datum()
        interval = DeficiencyInterval(lower=lower, upper=upper, certificate=certificate)
        if interval.lower - 1 < k * (base_interval.lower - 1):
            raise InternalCheckFailed("Schreier inequality violated by reported lower bounds")
        status = _classify(k, base_interval, interval)
        if status == STATUS_VIOLATED:
            raise InternalCheckFailed("violated-upper row")
        rows.append(
            StabilityRow(
                index=k,
                ordinal=ordinals[k],
                class_size=1,
                schreier_generators=gens,
                schreier_relators=rels,
                b1=b1,
                torsion=tuple(torsion),
                interval=interval,
                identity_status=status,
            )
        )
    statuses = {row.identity_status for row in rows}
    if STATUS_INCONCLUSIVE in statuses:
        verdict = STATUS_INCONCLUSIVE
    elif statuses == {STATUS_CERTIFIED}:
        verdict = STATUS_CERTIFIED
    else:
        verdict = STATUS_CONSISTENT
    return StabilityReport(
        group=group_name,
        presentation=serialize_presentation(base_pres),
        base_interval=base_interval,
        rows=tuple(rows),
        verdict=verdict,
        enumeration_complete=complete,
    )
