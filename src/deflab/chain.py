"""Chain complexes of presentation 2-complexes pushed to finite quotients.

Conventions, fixed once and used consistently:

* push_to_quotient(x, q) is the matrix R of right multiplication by the
  projected element in the regular representation, R[h][k] = coefficient of
  k in h*x.  With ordinary matrix products R is a ring homomorphism.
* Boundary matrices act on column vectors.  The basis of the degree-d module
  (ZQ)^f is (slot, group element) with elements in canonical order, identity
  first; the (slot i, slot j) block of a boundary is the transpose of the
  push of the corresponding group-ring entry, here the Fox derivative of
  relator j by generator i.  `relator_boundary` fills it without building
  the derivatives, by summing each relator's `relator_cycle` from each point
  of a permutation action; over the quotient's right-regular action that is
  the boundary above, over a coset action it is d2 of the finite cover, and
  `cover_relation_matrix` is that d2 without its spanning-tree rows.  d1
  composed after d2 is the zero matrix, verified at construction.
* Every matrix is deflab's one sparse format (see `linalg`): a list of
  {col: value} row dicts storing no zero.  A boundary's column count is the
  dimension of the degree above, so it is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coset import relator_cycle, right_coset_positions
from .errors import IncompatibleRestriction, InternalCheckFailed, InvalidQuotient, LimitExceeded
from .linalg import add_to, mat_mul, sparse_row


@dataclass(frozen=True)
class ChainComplex:
    """Free modules of the given ranks over a quotient of order q.

    boundaries[i] is the sparse matrix of the map from degree i+1 to
    degree i, shape (ranks[i]*q) x (ranks[i+1]*q), integer entries.
    """

    ranks: tuple
    boundaries: tuple
    quotient_order: int

    def __post_init__(self):
        q = self.quotient_order
        if q < 1:
            raise ValueError(f"quotient order {q} is not positive")
        if len(self.boundaries) != len(self.ranks) - 1:
            raise ValueError("need one boundary per pair of adjacent ranks")
        dims = self.dims
        for i, b in enumerate(self.boundaries):
            if len(b) != dims[i] or any(j >= dims[i + 1] for row in b for j in row):
                raise ValueError(
                    f"boundary {i} does not fit the shape {(dims[i], dims[i + 1])}"
                )
        for lower, upper in zip(self.boundaries, self.boundaries[1:]):
            if any(mat_mul(lower, upper)):
                raise InternalCheckFailed("boundary composition is nonzero")

    @property
    def dims(self):
        return [r * self.quotient_order for r in self.ranks]


def push_to_quotient(x, q):
    """q x q sparse matrix of right multiplication by the image of x."""
    return [sparse_row((q.trace(h, w), c) for w, c in x.terms) for h in range(q.order)]


def relator_boundary(relators, action, inverse_action, points):
    """d2 of the cover of a presentation complex over a permutation action.

    Rows are (generator g, point c) at g*points + c, columns (relator j,
    start h) at j*points + h; column (j, h) sums the signed edges of the
    `relator_cycle` of relator j from h.  A walk that does not close means
    d1 d2 != 0 on the cover and raises InternalCheckFailed.
    """
    d2 = [{} for _ in range(len(action) * points)]
    for j, r in enumerate(relators):
        for h in range(points):
            col = j * points + h
            for g, c, s in relator_cycle(r, h, action, inverse_action):
                add_to(d2[g * points + c], col, s)
    return d2


def cover_relation_matrix(p, rec):
    """Relation matrix of H_1 for the subgroup rec describes, from its cover.

    The cover's d2 with the rows of the k-1 spanning-tree edges (c, g)
    deleted.  It is the transposed abelianized Schreier relator matrix with
    rows (generator, coset) and columns (relator, coset), each in that
    lexicographic order, and of the same rank as d2 over every field: the
    tree carries no cycle.
    """
    table = rec.table
    k = table.index
    d2 = relator_boundary(p.relators, table.action, table.inverse_action, k)
    tree = {g * k + c for c, g in rec.tree[1:]}
    return [row for i, row in enumerate(d2) if i not in tree]


def presentation_chain_complex(p, q):
    """Degree-2 chain complex (ranks 1, e1, e2) pushed to the quotient q."""
    e1 = p.num_generators
    if len(q.right) != e1:
        raise InvalidQuotient(f"the quotient has {len(q.right)} generator images, not {e1}")
    for r in p.relators:
        if q.project_word(r) != 0:
            raise InvalidQuotient("not a quotient: a relator has nonzero image")
    n = q.order
    d1 = [{} for _ in range(n)]  # column (i, h) is the edge from h to h*x_i
    for i, perm in enumerate(q.right):
        for h, end in enumerate(perm):
            if end != h:  # a loop has zero boundary
                d1[end][i * n + h] = 1
                d1[h][i * n + h] = -1
    d2 = relator_boundary(p.relators, q.right, q.inverse_right, n)
    return ChainComplex(ranks=(1, e1, p.num_relators), boundaries=(d1, d2), quotient_order=n)


def restrict_to_subgroup(c, record, quotient):
    """View a complex over G/N as a complex over H/N for N <= H <= G.

    quotient is the FiniteGroup the complex was built over; record describes
    H inside the same presentation.  The basis element g = h_i t_d moves to
    position d*|H/N| + i of `right_coset_positions`, whose transversal t_d
    is spelled along the record's spanning tree.  Ranks multiply by [G:H];
    the matrices are only permuted, so total sizes and homology are unchanged.
    """
    q = quotient.order
    if q != c.quotient_order:
        raise ValueError(f"the complex is over order {c.quotient_order}, the quotient has {q}")
    images, gens = len(quotient.right), len(record.table.action)
    if images != gens:
        raise InvalidQuotient(f"the quotient has {images} generator images, not {gens}")
    k = record.index
    if k == 1:
        return c
    if q % k:
        raise IncompatibleRestriction("index does not divide the quotient order")
    try:
        perm = right_coset_positions(quotient.right, record)
    except LimitExceeded:
        raise IncompatibleRestriction("quotient kernel is not contained in the subgroup") from None

    def reindex(matrix):
        out = [None] * len(matrix)
        for i, row in enumerate(matrix):
            out[i - i % q + perm[i % q]] = {j - j % q + perm[j % q]: x for j, x in row.items()}
        return out

    return ChainComplex(
        ranks=tuple(r * k for r in c.ranks),
        boundaries=tuple(reindex(b) for b in c.boundaries),
        quotient_order=q // k,
    )


def collapse_to_point(c):
    """Coinvariants: push the complex along Q -> 1.

    Each q x q block of a boundary is right multiplication by some ring
    element, whose augmentation is the column sum over the identity column
    of the block; the collapsed matrix has one entry per block.
    """
    q = c.quotient_order
    out_boundaries = []
    for rows, b in zip(c.ranks, c.boundaries):
        m = [{} for _ in range(rows)]
        for i, row in enumerate(b):
            for j, x in row.items():
                if j % q == 0:
                    add_to(m[i // q], j // q, x)
        out_boundaries.append(m)
    return ChainComplex(
        ranks=c.ranks, boundaries=tuple(out_boundaries), quotient_order=1
    )
