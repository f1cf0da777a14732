"""Finitely presented group-ring modules and generator-drop certificates.

Kernel witnesses are inputs, never searched for; membership in the kernel of
the degree-2 boundary is verified modulo a supplied finite quotient (a
necessary condition), and the emitted report states that verification level.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .chain import presentation_chain_complex
from .coset import SubgroupRecord
from .errors import InternalCheckFailed, SeparationExhausted, WitnessNotInKernel, ZeroWitness
from .groupring import GroupRingElement
from .linalg import add_to, rank_over_Q, sparse_row
from .lowindex import normal_subgroups
from .schreier import schreier_counts


@dataclass(frozen=True)
class ModulePresentation:
    """Quotient of (ZG)^free_rank by the submodule the relation tuples generate."""

    ambient: object  # Presentation for G
    free_rank: int
    relations: tuple  # tuples of GroupRingElement, each of length free_rank

    def __post_init__(self):
        for rel in self.relations:
            if len(rel) != self.free_rank:
                raise ValueError(
                    f"relation tuple of arity {len(rel)}, not the free rank {self.free_rank}"
                )


@dataclass(frozen=True)
class KernelWitness:
    """A tuple rho in (ZG)^r with its support words and coefficient gcd."""

    rho: tuple  # GroupRingElement per coordinate

    def __post_init__(self):
        if not any(self.rho):
            raise ZeroWitness("witness must be a nonzero tuple")

    @property
    def supports(self):
        seen = []
        for a in self.rho:
            for w in a.support():
                if w not in seen:
                    seen.append(w)
        return tuple(seen)

    @property
    def gcd(self):
        g = 0
        for a in self.rho:
            g = gcd(g, a.coefficient_gcd())
        return g


def primitivize(w):
    """Divide every coefficient by the common gcd; afterwards the gcd is 1."""
    d = w.gcd
    if d == 1:
        return w
    rho = tuple(
        GroupRingElement(tuple((word, c // d) for word, c in a.terms)) for a in w.rho
    )
    return KernelWitness(rho=rho)


def coinvariant_rank_lower_bound(m, record):
    """Generator-count lower bound for the module restricted to the subgroup.

    Restrict to H (index k), then kill the H-action: the result is the
    abelian group Z^(r*k) modulo the coset-collapsed images of g*relation
    for g over a transversal.  Its rank over Q never exceeds the H-rank of
    the module.
    """
    table = record.table
    k = table.index
    n = m.free_rank * k
    matrix = [{} for _ in range(n)]  # row (slot i, coset), column (t, relation)
    col = 0
    for t in range(k):
        for rel in m.relations:
            for i, a in enumerate(rel):
                for w, c in a.terms:
                    add_to(matrix[i * k + table.trace(t, w)], col, c)
            col += 1
    return n - rank_over_Q(matrix)


def separating_subgroup(support, p, max_index):
    """A normal subgroup of index <= max_index whose cosets separate support.

    Every normal core or intersection of low-index subgroups is itself a
    normal subgroup of low index, so the records of `normal_subgroups` are
    the candidates; that search builds no record of any other subgroup.
    For each index k from the number of distinct support words up to
    max_index, the records of index exactly k are scanned in the search's
    (index, action) order; a smaller index was tried at its own bound or has
    too few cosets, so the canonically least separating subgroup of the
    smallest sufficient index wins.  Raises SeparationExhausted when nothing
    within budget works.
    """
    words = list(dict.fromkeys(support))
    for bound in range(max(1, len(words)), max_index + 1):
        for rec in normal_subgroups(p, bound):
            if rec.index == bound and len({rec.table.trace(0, w) for w in words}) == len(words):
                return rec
    raise SeparationExhausted(
        f"no normal subgroup of index <= {max_index} separates the "
        f"{len(words)} support elements"
    )


@dataclass(frozen=True)
class CertificateReport:
    """Everything the generator-drop certificate pipeline establishes."""

    presentation: object
    witness: KernelWitness
    witness_gcd: int
    subgroup_index: int
    subgroup: SubgroupRecord
    schreier_generators: int
    schreier_relators: int
    drop_bound: int  # u, with u < e2 * index
    mu2_bound: int  # 1 + u - (Schreier generator count)
    coinvariant_lower_bound: int
    primitive_coordinates: tuple  # (slot, coset, coefficient) with gcd 1
    verification_quotient_order: int

    def to_json(self):
        p = self.presentation
        return {
            "witness": [
                [[p.word_to_text(w), c] for w, c in a.terms] for a in self.witness.rho
            ],
            "gcd": self.witness_gcd,
            "subgroup_index": self.subgroup_index,
            "drop_bound_u": self.drop_bound,
            "relation_count": self.schreier_relators,
            "generator_count": self.schreier_generators,
            "mu2_bound": self.mu2_bound,
            "coinvariant_lower_bound": self.coinvariant_lower_bound,
            "primitive_coordinates": [list(c) for c in self.primitive_coordinates],
            "verification_quotient_order": self.verification_quotient_order,
            "verification_level": (
                "kernel membership checked modulo a finite quotient of order "
                f"{self.verification_quotient_order} (necessary condition only)"
            ),
        }


def rank_drop_certificate(p, witness, q, max_index):
    """Certify a generator drop for the restricted relation module.

    Steps: verify the witness lies in ker d2 after pushing to the quotient q;
    primitivize; find a normal separating subgroup H of index <= max_index
    (required: the CLI's --max-index holds the one default) for the support;
    the restricted module then needs at most u = e2*[G:H] - 1 generators
    because the separated witness is a primitive vector of the transversal
    lattice.
    The Schreier presentation of H has k*(e1-1)+1 generators and e2*k
    relators, read off `schreier_counts` without rewriting it; the amended
    partial resolution over H (u in degree 2 over those generators) gives the
    mu2 bound 1 + u - generators.
    """
    e2 = p.num_relators
    if len(witness.rho) != e2:
        raise ValueError("witness arity must match the relator count")
    complex_ = presentation_chain_complex(p, q)
    n = q.order
    vec = sparse_row(
        (j * n + q.project_word(w), c) for j, a in enumerate(witness.rho) for w, c in a.terms
    )
    for row in complex_.boundaries[1]:
        if sum(x * vec.get(j, 0) for j, x in row.items()):
            raise WitnessNotInKernel(
                "boundary image of the witness is nonzero in this quotient"
            )
    original_gcd = witness.gcd
    prim = primitivize(witness)
    sep = separating_subgroup(prim.supports, p, max_index)
    k = sep.index
    gens, rels = schreier_counts(p, k)
    u = rels - 1
    coords = []
    for i, a in enumerate(prim.rho):
        for w, c in a.terms:
            coords.append((i, sep.table.trace(0, w), c))
    if len({(i, t) for i, t, _ in coords}) != len(coords):
        raise InternalCheckFailed("separation failed: two support words share a coset")
    g = 0
    for _, _, c in coords:
        g = gcd(g, abs(c))
    if g != 1:
        raise InternalCheckFailed("primitivized witness must have coprime coefficients")
    module = ModulePresentation(ambient=p, free_rank=e2, relations=(tuple(prim.rho),))
    coinv = coinvariant_rank_lower_bound(module, sep)
    if coinv > u:
        raise InternalCheckFailed("coinvariant bound exceeds the certified drop")
    return CertificateReport(
        presentation=p,
        witness=prim,
        witness_gcd=original_gcd,
        subgroup_index=k,
        subgroup=sep,
        schreier_generators=gens,
        schreier_relators=rels,
        drop_bound=u,
        mu2_bound=1 + u - gens,
        coinvariant_lower_bound=coinv,
        primitive_coordinates=tuple(coords),
        verification_quotient_order=n,
    )
