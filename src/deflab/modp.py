"""Mod-p cohomology of finite quotients.

Two routes: a truncated bar-cochain complex for a finite group given by its
multiplication table (the oracle), and the dual of the index-k cover of the
presentation complex for a normal subgroup N: h0 = 1, h1 = k*(e1-1)+1 - r2
and h2 = k*e2 - r2, with r2 the mod-p rank of `cover_relation_matrix`.
Positions 0 and 1 give dim H^0 and dim H^1 of N; the position-2 homology
of the truncated complex is reported as-is, since it contains an extra
summand beyond dim H^2 that finite-level data cannot split off in general.
The bar oracle reads the subgroup's multiplication table, which nothing
else in the package builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import cover_relation_matrix
from .coset import inverse_permutations, right_coset_positions, todd_coxeter
from .errors import (
    InternalCheckFailed,
    LimitExceeded,
    NonNormalSubgroup,
    NonPrimeModulus,
    OrderCapExceeded,
)
from .linalg import is_prime, rank_mod_p, sparse_row
from .quotient import FiniteGroup
from .schreier import schreier_counts

# the largest group order the bar oracle accepts, read at each call
BAR_ORDER_CAP = 64


@dataclass(frozen=True)
class CohomologyDims:
    """dim H^0, H^1, H^2 with trivial F_p coefficients."""

    p: int
    dims: tuple
    group_order: int


def bar_cohomology_dims(group, p):
    """Cohomology dims of a finite group from the truncated bar complex.

    Cochains are F_p-valued functions on tuples of group elements in degrees
    <= 3, enough to read off H^0, H^1 and H^2.  OrderCapExceeded when the
    group order exceeds BAR_ORDER_CAP.
    """
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    n = group.order
    if n > BAR_ORDER_CAP:
        raise OrderCapExceeded(f"group order {n} exceeds the cap {BAR_ORDER_CAP}")
    mult = group.mult
    # d1: C^1 -> C^2, (d1 f)(g, h) = f(h) - f(gh) + f(g)
    d1 = [
        sparse_row(((h, 1), (mult[g][h], -1), (g, 1))) for g in range(n) for h in range(n)
    ]
    # d2: C^2 -> C^3, (d2 f)(g,h,l) = f(h,l) - f(gh,l) + f(g,hl) - f(g,h)
    d2 = [
        sparse_row((
            (h * n + l, 1), (mult[g][h] * n + l, -1), (g * n + mult[h][l], 1), (g * n + h, -1)
        ))
        for g in range(n)
        for h in range(n)
        for l in range(n)
    ]
    r1 = rank_mod_p(d1, p)
    r2 = rank_mod_p(d2, p)
    h0 = 1  # d0 vanishes for trivial coefficients
    h1 = n - r1
    h2 = n * n - r2 - r1
    return CohomologyDims(p=p, dims=(h0, h1, h2), group_order=n)


@dataclass(frozen=True)
class DualComplexReport:
    """Homology dims of the transposed mod-p presentation complex.

    dims = (h0, h1, h2_truncated); positions 0 and 1 equal dim H^0(N, F_p)
    and dim H^1(N, F_p).  h2_truncated exceeds dim H^2(N, F_p) by the
    dimension of the reduced degree-2 kernel; jbar_dim carries that excess
    when an independent bar-complex reference for the subgroup exists (the
    whole group is finite and within BAR_ORDER_CAP), else None.
    """

    p: int
    index: int
    dims: tuple
    jbar_dim: int | None

    def to_json(self):
        return {
            "p": self.p,
            "index": self.index,
            "dims": list(self.dims),
            "h2_label": "h2 of the truncated dual complex",
            "jbar_dim": self.jbar_dim,
        }


def dual_complex_dims(p, record, prime):
    """Mod-p homology of the dual of the index-k cover, for a normal subgroup.

    h0 = 1 (the cover is connected, so d1 has rank k - 1); with r2 the mod-p
    rank of `cover_relation_matrix`, h1 = k*(e1-1)+1 - r2 and the truncated
    h2 = k*e2 - r2.  BAR_ORDER_CAP bounds only the bar-oracle cross-check,
    not the index.
    """
    if not is_prime(prime):
        raise NonPrimeModulus(f"{prime} is not prime")
    if not record.is_normal:
        raise NonNormalSubgroup("dual complex needs a normal subgroup")
    k = record.index
    gens, rels = schreier_counts(p, k)
    r2 = rank_mod_p(cover_relation_matrix(p, record), prime)
    h0, h1, h2t = 1, gens - r2, rels - r2
    jbar = None
    finite = _finite_subgroup_realization(p, record)
    if finite is not None:
        ref = bar_cohomology_dims(finite, prime)
        if ref.dims[:2] != (h0, h1):
            raise InternalCheckFailed("dual complex disagrees with the bar oracle in low degrees")
        jbar = h2t - ref.dims[2]
        if jbar < 0:
            raise InternalCheckFailed(f"bar oracle H^2 exceeds the truncated h2 by {-jbar}")
    return DualComplexReport(
        p=prime,
        index=k,
        dims=(h0, h1, h2t),
        jbar_dim=jbar,
    )


def _finite_subgroup_realization(p, record):
    """The subgroup H itself as a FiniteGroup, when the whole group is finite
    and small enough, by BAR_ORDER_CAP, to realize regularly.  Its elements are
    the positions of block 0 of `right_coset_positions`; the Schreier generator
    (c, g) sends h_i to h_j where h_i t_c g = h_j t_{c.g}."""
    try:
        regular = todd_coxeter(p, (), limit=4 * BAR_ORDER_CAP + 8)
    except LimitExceeded:
        return None
    if regular.index > BAR_ORDER_CAP * record.index:
        return None
    position = right_coset_positions(regular.action, record)
    (at,) = inverse_permutations((position,))
    m = regular.index // record.index
    perms = []
    for c, g in record.schreier_generators():
        start, end = c * m, record.table.action[g][c] * m
        perms.append(tuple(position[regular.action[g][x]] - end for x in at[start:start + m]))
    return FiniteGroup.from_permutations(perms)
