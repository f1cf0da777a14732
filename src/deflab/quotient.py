"""Finite quotient groups as right-regular permutation actions, plus the
projections used for group-ring pushforwards.

A FiniteGroup keeps only the generator columns of its right-regular action,
O(order * generators) entries; products are computed by tracing words.  The
order x order multiplication table and the inverses are derived on first
use.  Element 0 is always the identity and elements are numbered in BFS
order of right multiplication by the generator images, matching the
canonical coset numbering of the underlying tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coset import CosetTable, inverse_permutations, orbit, schreier_transversal


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by the right-regular action of its generators.

    right[i][e] is element e times the image of generator i.  The image of
    generator i is right[i][0]; with no generators the group is trivial.
    """

    right: tuple  # per generator, a permutation of range(order)

    def __post_init__(self):
        n = self.order
        for perm in self.right:
            if sorted(perm) != list(range(n)):
                raise ValueError("generator action is not a permutation of the elements")

    @property
    def order(self):
        return len(self.right[0]) if self.right else 1

    @cached_property
    def inverse_right(self):
        """inverse_right[i][e] is element e times the inverse image of generator i."""
        return inverse_permutations(self.right)

    def trace(self, e, w):
        """Element e times the image of the word w."""
        for g, s in w:
            e = (self.right if s == 1 else self.inverse_right)[g][e]
        return e

    def project_word(self, w):
        return self.trace(0, w)

    @cached_property
    def mult(self):
        """mult[a][b] is the product a * b; built here, order^2 entries.

        Column b of the table is the map a -> a * b.  The columns form one
        orbit under right multiplication by the generators, starting at the
        identity column; more than `order` of them means the action is not
        regular.
        """
        columns, _ = orbit(
            tuple(range(self.order)),
            lambda col: [tuple(perm[a] for a in col) for perm in self.right],
            limit=self.order,
        )
        return tuple(zip(*sorted(columns)))  # column b starts with 0 * b = b

    @cached_property
    def inverse(self):
        return tuple(row.index(0) for row in self.mult)

    @staticmethod
    def trivial(ngens):
        return FiniteGroup(right=((0,),) * ngens)

    @staticmethod
    def cyclic(n, ngens=1):
        """Cyclic group of order n with every generator mapping to 1 mod n."""
        return FiniteGroup(right=(tuple((e + 1) % n for e in range(n)),) * ngens)

    @staticmethod
    def from_permutations(gen_perms, max_order=20_000):
        """Closure of permutations under composition, BFS from the identity.

        Permutations act on the right: (p * q)(x) = q(p(x)).
        """
        if not gen_perms:
            raise ValueError("need at least one generator permutation")
        elements, index = orbit(
            tuple(range(len(gen_perms[0]))),
            lambda e: [tuple(gp[x] for x in e) for gp in gen_perms],
            limit=max_order,
        )
        return FiniteGroup(right=tuple(
            tuple(index[tuple(gp[x] for x in e)] for e in elements) for gp in gen_perms
        ))

    def subgroup_closure(self, seeds):
        """Element set of the subgroup generated by seeds, in BFS order."""
        steps = [t for s in seeds for t in (s, self.inverse[s])]
        elements, _ = orbit(0, lambda e: [self.mult[e][t] for t in steps])
        return elements


def core_quotient(record, max_order=20_000):
    """Normal core of a subgroup and the finite quotient by it.

    The core is the kernel of the permutation representation on cosets; the
    quotient is realized as the closure of the generator images.  Returns
    (CosetTable of the core, FiniteGroup of G/core).
    """
    table = record.table
    group = FiniteGroup.from_permutations(
        [tuple(perm) for perm in table.action], max_order=max_order
    )
    # the core's coset table is the regular action of G/core on itself
    pairs = list(zip(group.right, group.inverse_right))
    rows = [[perm[e] for pair in pairs for perm in pair] for e in range(group.order)]
    return CosetTable.from_rows(rows, table.origin), group


def core_record(record, max_order=20_000):
    core_table, group = core_quotient(record, max_order=max_order)
    return schreier_transversal(core_table), group
