"""The stabilization experiment: deficiency intervals across finite covers.

For each subgroup H of index k <= n the report brackets delta(H) and
classifies the identity delta(H) - 1 = k * (delta(G) - 1):

* certified-holds: both intervals are points and the identity is exact;
* consistent: the intervals permit the identity;
* violated-upper: upper(H) - 1 < k * (lower(G) - 1), which contradicts the
  Schreier inequality and therefore signals an internal error if it ever
  fires on sound bounds;
* inconclusive: lower(H) - 1 > k * (upper(G) - 1); since lower(H) <= def(H)
  and def(G) <= upper(G), this proves def(H) - 1 > k * (def(G) - 1), so the
  identity fails at H, in the excess direction.

Without a certificate all rows are computed from the simplified base
presentation so the Schreier inequality holds between reported lower bounds
by construction; a row that breaks it, or any violated-upper row, raises
InternalCheckFailed.

Conjugate subgroups are isomorphic, so the report has one row per
conjugacy class.  The row stands where the class's first member stands in
(index, action) order; its ordinal is that member's ordinal among the
subgroups of its index, and class_size counts the members.  Everything but
Tietze is computed once per class (`class_members`), from the class's
first member: b1 and torsion from `cover_relation_matrix`, d2 of the finite
cover, and the bracket.  Every bracket starts at the Schreier count
k*(e1-1)+1 - k*e2; its upper end is that count under a certificate and b1
otherwise.  No presentation of H beats b1, so a certificate or count = b1
closes the bracket.  While the bracket is open, every member packages its
table and rewrites its Schreier presentation, as input to Tietze, which can
only raise the lower end; the members' presentations differ, and so can
their Tietze bounds, and the row keeps the best of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import __version__ as _tool_version
from .chain import cover_relation_matrix
from .errors import InternalCheckFailed
from .intervals import CERT_NONE, DeficiencyInterval, witnessed_interval
from .linalg import cokernel_invariants
from .lowindex import class_members
from .presentation import serialize_presentation
from .schreier import rewrite_subgroup_presentation, schreier_counts
from .tietze import tietze_simplify

STATUS_CERTIFIED = "certified-holds"
STATUS_CONSISTENT = "consistent"
STATUS_VIOLATED = "violated-upper"
STATUS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StabilityRow:
    index: int
    ordinal: int
    class_size: int
    schreier_generators: int
    schreier_relators: int
    b1: int
    torsion: tuple
    interval: DeficiencyInterval
    identity_status: str

    def to_json(self):
        return {
            "index": self.index,
            "ordinal": self.ordinal,
            "class_size": self.class_size,
            "schreier_generators": self.schreier_generators,
            "schreier_relators": self.schreier_relators,
            "b1": self.b1,
            "torsion": list(self.torsion),
            "interval": self.interval.to_json(),
            "identity_status": self.identity_status,
        }


@dataclass(frozen=True)
class StabilityReport:
    group: str
    presentation: str
    base_interval: DeficiencyInterval
    rows: tuple
    verdict: str
    enumeration_complete: bool = True

    def to_json(self):
        return {
            "group": self.group,
            "presentation": self.presentation,
            "base_interval": self.base_interval.to_json(),
            "rows": [row.to_json() for row in self.rows],
            "verdict": self.verdict,
            "enumeration_complete": self.enumeration_complete,
            "tool_version": _tool_version,
        }


def _classify(k, base, sub):
    target_low = k * (base.lower - 1)
    target_high = k * (base.upper - 1)
    if (
        base.is_point
        and sub.is_point
        and sub.lower - 1 == k * (base.lower - 1)
    ):
        return STATUS_CERTIFIED
    if sub.upper - 1 < target_low:
        return STATUS_VIOLATED
    if sub.lower - 1 > target_high:
        return STATUS_INCONCLUSIVE
    return STATUS_CONSISTENT


def _checked_status(k, base, interval):
    """The identity status of a row at index k, which must keep the Schreier
    inequality and must not be violated-upper."""
    if interval.lower - 1 < k * (base.lower - 1):
        raise InternalCheckFailed("Schreier inequality violated by reported lower bounds")
    status = _classify(k, base, interval)
    if status == STATUS_VIOLATED:
        raise InternalCheckFailed(
            "violated-upper row: contradicts the Schreier inequality, "
            "which means a bound above is unsound"
        )
    return status


def _class_row(p, base, cls, ordinal):
    """The row of the conjugacy class cls; ordinal is its first member's."""
    rec = cls.record
    k = rec.index
    gens, rels = schreier_counts(p, k)
    b1, torsion = cokernel_invariants(cover_relation_matrix(p, rec), rels)
    lower = gens - rels  # achieved by the Schreier presentation; 1 - k*chi
    upper = lower if base.certificate != CERT_NONE else b1
    interval = DeficiencyInterval(lower=lower, upper=upper, certificate=base.certificate)
    if lower < upper:
        lowers = []
        for i in range(len(cls.keys)):
            sp = rewrite_subgroup_presentation(p, cls.member(i)).presentation
            lowers.append(tietze_simplify(sp).deficiency_datum())
        # the Schreier inequality holds for every member's bound, and the row keeps the best
        _checked_status(k, base, replace(interval, lower=min(lowers)))
        interval = replace(interval, lower=max(lowers))
    return StabilityRow(
        index=k,
        ordinal=ordinal,
        class_size=len(cls.keys),
        schreier_generators=gens,
        schreier_relators=rels,
        b1=b1,
        torsion=tuple(torsion),
        interval=interval,
        identity_status=_checked_status(k, base, interval),
    )


def stability_report(p, max_index, aspherical=False, group_name="group"):
    """Enumerate all subgroups of index <= max_index and test stabilization,
    one row per conjugacy class.  Past the budget `lowindex.MAX_NODES`,
    enumeration_complete is False and the rows are those of the classes
    found before it ran out."""
    base_interval, base_pres = witnessed_interval(p, aspherical)
    members, complete = class_members(base_pres, max_index)
    ordinals, rows = {}, []
    for cls, i in members:
        k = cls.index
        ordinals[k] = ordinals.get(k, 0) + 1
        if i == 0:  # the class's first member
            rows.append(_class_row(base_pres, base_interval, cls, ordinals[k]))
    statuses = {row.identity_status for row in rows}
    if STATUS_INCONCLUSIVE in statuses:  # a violated-upper row raised above
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
