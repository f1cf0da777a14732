"""Mod-p cohomology of finite quotients.

Two routes: a truncated bar-cochain complex for a finite group given by its
multiplication table (the oracle, which the tests run), and the dual of the
index-k cover X_N of the presentation complex X for a normal subgroup N:
h0 = 1, h1 = k*(e1-1)+1 - r2 and h2 = k*e2 - r2, with r2 the mod-p rank of
`cover_relation_matrix`.  Positions 0 and 1 give dim H^0 and dim H^1 of N;
the position-2 homology of the truncated complex is reported as-is.  It
exceeds dim H^2 of N by jbar, the mod-p rank of the image of pi2(X) in the
2-chains of X_N (Hopf, Comment. Math. Helv. 14, 1942; Brown, Cohomology of
Groups, 1982, II.5).  When the whole group is finite, pi2(X) is ker d2 of
its regular cover, and `dual_complex_dims` reports jbar from it.  Only the
bar oracle reads a multiplication table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import cover_relation_matrix, relator_boundary
from .coset import product_orbit, todd_coxeter
from .errors import (
    InternalCheckFailed, LimitExceeded, NonNormalSubgroup, NonPrimeModulus, OrderCapExceeded,
)
from .linalg import is_prime, rank_mod_p, smith_normal_form, sparse_row, transpose
from .schreier import schreier_counts

# the largest group order the bar oracle accepts, and the largest |N| for
# which `dual_complex_dims` reports jbar_dim; read at each call
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
    and dim H^1(N, F_p).  h2_truncated exceeds dim H^2(N, F_p) by jbar_dim,
    the mod-p rank of the image of pi2 of the presentation complex in the
    2-chains of the cover, when the whole group is finite and |N| is within
    BAR_ORDER_CAP; else jbar_dim is None.
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
    h2 = k*e2 - r2.  jbar_dim comes from `_pi2_image_rank`; BAR_ORDER_CAP
    bounds only it, not the index.  The image of pi2 lies in ker d2 of the
    cover, so a jbar_dim above h2 raises InternalCheckFailed.
    """
    if not is_prime(prime):
        raise NonPrimeModulus(f"{prime} is not prime")
    if record.table.origin != p:
        raise ValueError("record does not belong to this presentation")
    if not record.is_normal:
        raise NonNormalSubgroup("dual complex needs a normal subgroup")
    k = record.index
    gens, rels = schreier_counts(p, k)
    r2 = rank_mod_p(cover_relation_matrix(p, record), prime)
    h0, h1, h2t = 1, gens - r2, rels - r2
    jbar = _pi2_image_rank(p, record, prime)
    if jbar is not None and jbar > h2t:
        raise InternalCheckFailed(f"the image of pi2 exceeds the truncated h2 by {jbar - h2t}")
    return DualComplexReport(p=prime, index=k, dims=(h0, h1, h2t), jbar_dim=jbar)


def _pi2_image_rank(p, record, prime):
    """The mod-p rank of the image of pi2(X) in C2 of the cover for N, when
    Todd-Coxeter closes the whole group G within 4 * BAR_ORDER_CAP + 8
    cosets and |N| is within BAR_ORDER_CAP, else None.  The rows of L past
    the rank of the Smith form of d2's transpose, for the regular cover, are
    a Z-basis of ker d2 = pi2(X); its cell (relator j, element e) goes to
    (j, the coset Ne), read off `product_orbit`."""
    try:
        regular = todd_coxeter(p, (), limit=4 * BAR_ORDER_CAP + 8)
    except LimitExceeded:
        return None
    n, k = regular.index, record.index
    if n > BAR_ORDER_CAP * k:
        return None
    d2 = relator_boundary(p.relators, regular.action, regular.inverse_action, n)
    snf = smith_normal_form(transpose(d2, p.num_relators * n), len(d2))
    coset = dict(product_orbit(regular.action, record.table.action, limit=n)[0])
    image = [
        sparse_row((c // n * k + coset[c % n], x) for c, x in row.items())
        for row in snf.left[snf.rank:]
    ]
    return rank_mod_p(image, prime)
