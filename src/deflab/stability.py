"""The stabilization experiment: deficiency intervals across finite covers.

For each subgroup H of index k <= n the report brackets delta(H) and
classifies the identity delta(H) - 1 = k * (delta(G) - 1):

* certified-holds: both intervals are points and the identity is exact;
* consistent: the intervals permit the identity;
* violated-upper: upper(H) - 1 < k * (lower(G) - 1), which contradicts the
  Schreier inequality and therefore signals an internal error if it ever
  fires on sound bounds;
* inconclusive: lower(H) - 1 > k * (upper(G) - 1), the excess direction the
  bounds cannot settle.

Without a certificate all rows are computed from the simplified base
presentation so the Schreier inequality holds between reported lower bounds
by construction; a row that breaks it, or any violated-upper row, raises
InternalCheckFailed.

The low-index search hands over conjugacy classes (`class_members`), and
conjugate subgroups are isomorphic, so everything but Tietze is computed
once per class, from the class's least table: b1 and torsion from
`cover_relation_matrix`, d2 of the finite cover, and the bracket.  Every
row's bracket starts at the Schreier count k*(e1-1)+1 - k*e2; its upper end
is that count under a certificate and b1 otherwise.  No presentation of H
beats b1, so a certificate or count = b1 closes the bracket, and the
class's interval and status serve each of its rows.  Only a row whose
bracket is still open packages its member (a verified table and its
transversal) and rewrites its Schreier presentation, as input to Tietze,
which can only raise the lower end.
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


def _class_values(p, base, rec):
    """(generators, relators, b1, torsion, interval, status) shared by every
    row of rec's conjugacy class; while the bracket is open, the interval
    starts at the Schreier count and the status is None."""
    k = rec.index
    gens, rels = schreier_counts(p, k)
    b1, torsion = cokernel_invariants(cover_relation_matrix(p, rec), rels)
    lower = gens - rels  # achieved by the Schreier presentation; 1 - k*chi
    upper = lower if base.certificate != CERT_NONE else b1
    interval = DeficiencyInterval(lower=lower, upper=upper, certificate=base.certificate)
    status = None if lower < upper else _checked_status(k, base, interval)
    return gens, rels, b1, tuple(torsion), interval, status


def stability_report(p, max_index, aspherical=False, group_name="group"):
    """Enumerate all subgroups of index <= max_index and test stabilization.
    Past the budget `lowindex.MAX_NODES`, enumeration_complete is False and
    the rows are those of whole conjugacy classes."""
    base_interval, base_pres = witnessed_interval(p, aspherical)
    members, complete = class_members(base_pres, max_index, on_budget="partial")
    rows = []
    ordinals = {}
    classes = {}
    for cls, i in members:
        k = cls.index
        ordinals[k] = ordinals.get(k, 0) + 1
        n = cls.record.conjugacy_class
        if n not in classes:
            classes[n] = _class_values(base_pres, base_interval, cls.record)
        gens, rels, b1, torsion, interval, status = classes[n]
        if status is None:
            sp = rewrite_subgroup_presentation(base_pres, cls.member(i)).presentation
            lower = tietze_simplify(sp).deficiency_datum()
            interval = replace(interval, lower=lower)
            status = _checked_status(k, base_interval, interval)
        rows.append(
            StabilityRow(
                index=k,
                ordinal=ordinals[k],
                schreier_generators=gens,
                schreier_relators=rels,
                b1=b1,
                torsion=torsion,
                interval=interval,
                identity_status=status,
            )
        )
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
