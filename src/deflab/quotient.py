"""Finite quotient groups as right-regular permutation actions, plus the
projections used for group-ring pushforwards.

A FiniteGroup keeps only the generator columns of its right-regular action,
O(order * generators) entries; products are computed by tracing words.  The
order x order multiplication table is built on first read, and only the bar
oracle reads it.  Element 0 is always the identity and elements are numbered
in BFS order of right multiplication by the generator images, which is the
canonical coset numbering, so the regular action is the core's coset table.
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
        if n < 1:
            raise ValueError("a finite group has order >= 1")
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

    @staticmethod
    def trivial(ngens):
        return FiniteGroup(right=((0,),) * ngens)

    @staticmethod
    def cyclic(n, ngens=1):
        """Cyclic group of order n with every generator mapping to 1 mod n."""
        if ngens < 1:
            raise ValueError(f"a cyclic group needs a generator, not {ngens}; use trivial(0)")
        return FiniteGroup(right=(tuple((e + 1) % n for e in range(n)),) * ngens)

    @staticmethod
    def from_permutations(gen_perms, max_order=20_000):
        """Closure of permutations under composition, BFS from the identity.

        Permutations act on the right: (p * q)(x) = q(p(x)).  Every input
        must permute one common range(n), else ValueError.
        """
        if not gen_perms:
            raise ValueError("need at least one generator permutation")
        points = list(range(len(gen_perms[0])))
        if any(sorted(gp) != points for gp in gen_perms):
            raise ValueError("generators are not permutations of one common range(n)")
        elements, index = orbit(
            tuple(points),
            lambda e: [tuple(gp[x] for x in e) for gp in gen_perms],
            limit=max_order,
        )
        return FiniteGroup(right=tuple(
            tuple(index[tuple(gp[x] for x in e)] for e in elements) for gp in gen_perms
        ))


def core_quotient(record, max_order=20_000):
    """Normal core of a subgroup and the finite quotient by it.

    The core is the kernel of the permutation representation on cosets; the
    quotient is realized as the closure of the generator images.  Returns
    (CosetTable of the core, FiniteGroup of G/core): the core's coset table
    is the regular action of G/core, already in canonical BFS numbering.
    """
    table = record.table
    group = FiniteGroup.from_permutations(table.action, max_order=max_order)
    core_table = CosetTable(index=group.order, action=group.right, origin=table.origin)
    core_table.verify()
    return core_table, group


def core_record(record, max_order=20_000):
    core_table, group = core_quotient(record, max_order=max_order)
    return schreier_transversal(core_table), group
