"""Reidemeister-Schreier rewriting of finite-index subgroup presentations.

For a subgroup of index k in a group on e1 generators with e2 relators, the
rewritten presentation has exactly k*(e1-1)+1 generators (Schreier pairs
minus spanning-tree edges) and k*e2 relators (one conjugated rewrite per
transversal element per relator); `schreier_counts` is the one place that
spells both.  A relator is rewritten from the same `relator_cycle` whose
signs fill d2 of the cover in `chain`.  Rewritten relators are freely and
cyclically reduced but deliberately not simplified further, so the raw
counts stay observable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coset import relator_cycle
from .errors import InternalCheckFailed
from .presentation import Presentation
from .words import Word


@dataclass(frozen=True)
class SubgroupPresentation:
    """A presentation of a finite-index subgroup in its own generators.

    generator_map expresses each subgroup generator as a word in the parent
    generators (the Schreier word t_c x t_{c.x}^{-1}).
    """

    presentation: Presentation
    parent: Presentation
    record: object
    generator_map: tuple

    def __post_init__(self):
        gens, rels = schreier_counts(self.parent, self.record.index)
        if self.presentation.num_generators != gens:
            raise InternalCheckFailed("Schreier generator count is not k*(e1-1)+1")
        if self.presentation.num_relators != rels:
            raise InternalCheckFailed("Schreier relator count is not k*e2")
        for w in self.generator_map:
            if self.record.table.trace(0, w) != 0:
                raise InternalCheckFailed("subgroup generator word leaves the subgroup")


def schreier_counts(p, k):
    """Generator and relator counts k*(e1-1)+1, k*e2 at index k."""
    return k * (p.num_generators - 1) + 1, k * p.num_relators


def rewrite_subgroup_presentation(p, record):
    """Schreier presentation of the subgroup described by record: relator
    r from coset j is its `relator_cycle` from j, off-tree edges (g, c) read
    as the Schreier generator (c, g)."""
    table = record.table
    if table.origin != p:
        raise ValueError("record does not belong to this presentation")
    gens = list(record.schreier_generators())
    pair_index = {pair: i for i, pair in enumerate(gens)}

    names = tuple(f"g{c + 1}_{p.generators[g]}" for c, g in gens)
    relators = []
    for j in range(table.index):
        for r in p.relators:
            cycle = relator_cycle(r, j, table.action, table.inverse_action)
            w = Word(tuple((pair_index[c, g], s) for g, c, s in cycle if (c, g) in pair_index))
            if not w:
                raise InternalCheckFailed("rewritten relator collapsed to the identity")
            relators.append(w)

    t = record.transversal  # the words are spelled here, for output only
    generator_map = tuple(
        t[c] * Word(((g, 1),)) * t[table.action[g][c]].inverse() for c, g in gens
    )
    sub = Presentation(names, tuple(relators))
    return SubgroupPresentation(
        presentation=sub, parent=p, record=record, generator_map=generator_map
    )
