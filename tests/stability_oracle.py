"""The member-by-member stability report, kept as a test oracle.

It walks the members of `class_members`, one verified table per member,
and computes one row per member on its own: counts, bracket, Tietze and
status, with b1 and torsion cached per conjugacy class.  Each of its rows
stands for one member (class_size 1).  `stability_report` has one row per
class; each of its rows, repeated class_size times, must give the rows of
its members here.
"""

from deflab.chain import cover_relation_matrix
from deflab.errors import InternalCheckFailed
from deflab.intervals import CERT_NONE, DeficiencyInterval, witnessed_interval
from deflab.linalg import cokernel_invariants
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
        if rec.conjugacy_class not in homology:
            homology[rec.conjugacy_class] = cokernel_invariants(
                cover_relation_matrix(base_pres, rec), rels
            )
        b1, torsion = homology[rec.conjugacy_class]
        lower = gens - rels
        upper = lower if certificate != CERT_NONE else b1
        if lower < upper:
            sp = rewrite_subgroup_presentation(base_pres, rec).presentation
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
