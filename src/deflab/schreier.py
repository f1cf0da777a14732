"""Reidemeister-Schreier rewriting of finite-index subgroup presentations.

For a subgroup of index k in a group on e1 generators with e2 relators, the
rewritten presentation has exactly k*(e1-1)+1 generators (Schreier pairs
minus spanning-tree edges) and k*e2 relators (one conjugated rewrite per
transversal element per relator).  Rewritten relators are freely and
cyclically reduced but deliberately not simplified further, so the raw
counts stay observable.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        k = self.record.index
        e1 = self.parent.num_generators
        e2 = self.parent.num_relators
        if self.presentation.num_generators != k * (e1 - 1) + 1:
            raise InternalCheckFailed("Schreier generator count is not k*(e1-1)+1")
        if self.presentation.num_relators != k * e2:
            raise InternalCheckFailed("Schreier relator count is not k*e2")
        for w in self.generator_map:
            if self.record.table.trace(0, w) != 0:
                raise InternalCheckFailed("subgroup generator word leaves the subgroup")


def rewrite_subgroup_presentation(p, record):
    """Schreier presentation of the subgroup described by record."""
    table = record.table
    if table.origin != p:
        raise ValueError("record does not belong to this presentation")
    k = table.index
    gens = list(record.schreier_generators())
    pair_index = {pair: i for i, pair in enumerate(gens)}
    inv = table.inverse_action

    names = tuple(f"g{c + 1}_{p.generators[g]}" for c, g in gens)

    def rewrite_from(coset, word):
        out = []
        c = coset
        for g, s in word:
            if s == 1:
                idx = pair_index.get((c, g))
                if idx is not None:
                    out.append((idx, 1))
                c = table.action[g][c]
            else:
                d = inv[g][c]
                idx = pair_index.get((d, g))
                if idx is not None:
                    out.append((idx, -1))
                c = d
        if c != coset:
            raise InternalCheckFailed("relator trace did not close")
        return Word(tuple(out))

    relators = []
    for j in range(k):
        for r in p.relators:
            w = rewrite_from(j, r)
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
