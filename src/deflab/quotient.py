"""Finite quotient groups: permutation-image closures and multiplication
tables, plus projections used for group-ring pushforwards.

Element 0 is always the identity and elements are numbered in BFS order of
right multiplication by the generator images, matching the canonical coset
numbering of the underlying tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coset import CosetTable, orbit, schreier_transversal


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    mult[i][j] is the product (element i) * (element j); inverse and the
    identity (element 0) are derived.  gen_images projects the generators of
    an ambient presentation into the group; the projection of a word folds
    the table over its letters.
    """

    mult: tuple
    gen_images: tuple

    @property
    def order(self):
        return len(self.mult)

    def __post_init__(self):
        n = len(self.mult)
        assert all(len(row) == n for row in self.mult)
        assert all(self.mult[0][j] == j and self.mult[j][0] == j for j in range(n)), (
            "element 0 must be the identity"
        )
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self.mult[i][j] == 0:
                    inv[i] = j
        assert None not in inv, "multiplication table has no inverses"
        object.__setattr__(self, "_inv", tuple(inv))

    @property
    def inverse(self):
        return self._inv

    def project_word(self, w):
        e = 0
        for g, s in w:
            img = self.gen_images[g]
            e = self.mult[e][img if s == 1 else self._inv[img]]
        return e

    def verify_group_axioms(self):
        n = self.order
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert (
                        self.mult[self.mult[i][j]][k] == self.mult[i][self.mult[j][k]]
                    ), "multiplication is not associative"

    @staticmethod
    def trivial(ngens):
        return FiniteGroup(mult=((0,),), gen_images=(0,) * ngens)

    @staticmethod
    def cyclic(n, ngens=1):
        """Cyclic group of order n with every generator mapping to 1 mod n."""
        mult = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return FiniteGroup(mult=mult, gen_images=(1 % n,) * ngens)

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
        mult = []
        for a in elements:
            row = []
            for b in elements:
                row.append(index[tuple(b[x] for x in a)])
            mult.append(tuple(row))
        gen_images = tuple(index[tuple(gp)] for gp in gen_perms)
        return FiniteGroup(mult=tuple(mult), gen_images=gen_images)

    def subgroup_closure(self, seeds):
        """Element set of the subgroup generated by seeds, in BFS order."""
        steps = [t for s in seeds for t in (s, self._inv[s])]
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
    steps = [x for img in group.gen_images for x in (img, group.inverse[img])]
    rows = [[group.mult[e][x] for x in steps] for e in range(group.order)]
    return CosetTable.from_rows(rows, table.origin), group


def core_record(record, max_order=20_000):
    core_table, group = core_quotient(record, max_order=max_order)
    return schreier_transversal(core_table), group
