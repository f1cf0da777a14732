"""Coset tables: Todd-Coxeter enumeration, numbering, orbits and Schreier data.

This module owns everything about how a coset table is built, numbered,
walked and packaged; the low-index search, core quotients and Schreier
rewriting all go through it; `relator_cycle` is the one signed walk of a
relator.  Tables use 0-based cosets internally (coset 0 is the subgroup);
the JSON serialization is 1-based.
Canonical numbering everywhere: cosets are renumbered by first appearance
when scanning rows in order over the positive generator columns, which makes
every downstream report byte-stable.  A subgroup record stores its BFS
spanning tree: Schreier words are spelled only for output and rewriting, and
subgroup membership in a regular action is read from one `product_orbit`.

Partial tables are rows of letter codes: column 2*g is generator g, column
2*g+1 its inverse, and UNDEF marks an entry not yet defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from .errors import InternalCheckFailed, LimitExceeded
from .presentation import Presentation
from .words import Word

UNDEF = -1


def letters_of(word):
    """Word as a sequence of letter codes 2*g (positive) / 2*g+1 (inverse)."""
    return [2 * g if s == 1 else 2 * g + 1 for g, s in word]


def orbit(start, successors, limit=None):
    """Breadth-first orbit of start under successors(point) -> points.

    Returns (points in discovery order, point -> position).  Raises
    LimitExceeded as soon as a point beyond the first `limit` is found.
    """
    order = [start]
    index = {start: 0}
    for point in order:
        for nxt in successors(point):
            if nxt not in index:
                if limit is not None and len(order) >= limit:
                    raise LimitExceeded(f"orbit exceeded the budget of {limit} points")
                index[nxt] = len(order)
                order.append(nxt)
    return order, index


def product_orbit(first, second, limit=None):
    """`orbit` of (0, 0) with generator g acting as (first[g], second[g]).

    For the regular action of G/N and the coset action of H it has one pair
    per element exactly when N lies in H; H/N is then the pairs (e, 0).
    """
    actions = tuple(zip(first, second))
    return orbit((0, 0), lambda pair: [(a[pair[0]], b[pair[1]]) for a, b in actions], limit)


def right_coset_positions(right, record):
    """Position d*|H/N| + i of each element of G/N, for N <= H <= G.

    right is the regular action of G/N and record describes H.  Block 0 is
    H/N in `product_orbit` order; the tree edge (c, g) into coset d gives
    block d = (block c) g, so its i-th element is h_i t_d.  LimitExceeded
    from `product_orbit` passes on (N does not lie in H); InternalCheckFailed
    unless the blocks split the elements exactly.
    """
    order = len(right[0]) if right else 1
    pairs, _ = product_orbit(right, record.table.action, limit=order)
    blocks, position = [], [None] * order
    for d, edge in enumerate(record.tree):
        if edge is None:
            block = [e for e, coset in pairs if coset == 0]
        else:
            c, g = edge
            block = [right[g][e] for e in blocks[c]]
        blocks.append(block)
        for i, e in enumerate(block, d * len(block)):
            if position[e] is not None:
                raise InternalCheckFailed("element placed in two right-coset blocks")
            position[e] = i
    if None in position:
        raise InternalCheckFailed("element placed in no right-coset block")
    return position


def rerooted_entries(rows, ngens, root=0):
    """The action of complete letter-code rows, canonically numbered from
    root, as one list, generator by generator: entry g*k + c is the coset
    generator g sends c to.  Cosets are numbered by first appearance in a
    row-major scan of the positive generator columns from root, which
    becomes coset 0: the action on the cosets of the stabiliser of root."""
    order, rename = orbit(root, lambda c: rows[c][::2])
    if len(order) != len(rows):
        raise InternalCheckFailed("table not transitive")
    return [rename[rows[c][l]] for l in range(0, 2 * ngens, 2) for c in order]


def inverse_permutations(perms):
    """The inverse of each permutation of range(n) in perms."""
    inv = []
    for perm in perms:
        q = [0] * len(perm)
        for i, j in enumerate(perm):
            q[j] = i
        inv.append(tuple(q))
    return tuple(inv)


def relator_cycle(word, start, action, inverse_action):
    """Edges (g, c, sign) a word crosses from start; action[g][c] is the
    point generator g sends c to.  A positive letter records the edge it
    leaves c by, then steps; an inverse letter steps back first and records
    the edge it came along with sign -1.  Raises InternalCheckFailed unless
    the walk returns to start."""
    edges, c = [], start
    for g, s in word:
        if s == 1:
            edges.append((g, c, 1))
            c = action[g][c]
        else:
            c = inverse_action[g][c]
            edges.append((g, c, -1))
    if c != start:
        raise InternalCheckFailed("relator walk did not close")
    return edges


@dataclass(frozen=True)
class CosetTable:
    """Permutation action of the generators on the cosets of a subgroup.

    action[g][c] is the coset reached from c by generator g; every relator
    of the origin presentation acts as the identity and the action is
    transitive with coset 0 equal to the subgroup.
    """

    index: int
    action: tuple  # per generator, a tuple of length index
    origin: Presentation

    @classmethod
    def from_rows(cls, rows, origin, root=0):
        """Verified table of the `rerooted_entries` of complete letter-code
        rows: the table of the stabiliser of root."""
        entries = rerooted_entries(rows, origin.num_generators, root)
        return cls.from_entries(entries, len(rows), origin)

    @classmethod
    def from_entries(cls, entries, k, origin):
        """Verified index-k table whose action is entries, generator by
        generator."""
        action = tuple(tuple(entries[i:i + k]) for i in range(0, k * origin.num_generators, k))
        table = cls(index=k, action=action, origin=origin)
        table.verify()
        return table

    def __post_init__(self):
        n = self.index
        if n < 1:
            raise ValueError(f"coset table index {n} is not positive")
        if len(self.action) != self.origin.num_generators:
            raise ValueError(
                f"{len(self.action)} generator columns for "
                f"{self.origin.num_generators} generators"
            )
        for perm in self.action:
            if len(perm) != n or sorted(perm) != list(range(n)):
                raise ValueError("generator action is not a bijection")

    @cached_property
    def inverse_action(self):
        return inverse_permutations(self.action)

    def trace(self, coset, word):
        inv = self.inverse_action
        c = coset
        for g, s in word:
            c = self.action[g][c] if s == 1 else inv[g][c]
        return c

    def verify(self):
        """Check relator actions are the identity and the action is transitive.

        The inverse permutations are not cached here: most verified tables
        are never walked backwards again.
        """
        action, inverse = self.action, inverse_permutations(self.action)
        for r in self.origin.relators:
            for c in range(self.index):
                d = c
                for g, s in r:
                    d = action[g][d] if s == 1 else inverse[g][d]
                if d != c:
                    raise InternalCheckFailed("relator does not act trivially")
        reached, _ = orbit(0, lambda c: [perm[c] for perm in self.action])
        if len(reached) != self.index:
            raise InternalCheckFailed("action is not transitive")

    def to_json(self):
        return {
            "index": self.index,
            "action": [[c + 1 for c in perm] for perm in self.action],
        }


@dataclass(frozen=True)
class SubgroupRecord:
    """Coset table plus its BFS spanning tree and normality flag.

    conjugacy_class numbers its conjugacy class among the records of one
    low-index search, in the order the search found the classes; it is None
    outside a search.  In `normal_subgroups` each record is its own class,
    numbered in the order the pruned search found it.
    """

    table: CosetTable
    tree: tuple  # tree[d] = (c, g) with c < d and c.g = d; tree[0] is None
    is_normal: bool
    conjugacy_class: int | None = field(default=None, compare=False)

    @property
    def index(self):
        return self.table.index

    @cached_property
    def transversal(self):
        """Words t_d with t_0 = 1 and t_d = t_c g along the tree edge (c, g)."""
        words = [Word()]
        for c, g in self.tree[1:]:
            words.append(words[c] * Word(((g, 1),)))
        return tuple(words)

    def schreier_generators(self):
        """Pairs (c, g) off the tree, naming t_c g t_{c.g}^-1, in that order."""
        for c in range(self.index):
            for g, perm in enumerate(self.table.action):
                if self.tree[perm[c]] != (c, g):
                    yield c, g

    def to_json(self):
        p = self.table.origin
        data = self.table.to_json()
        data["transversal"] = [p.word_to_text(t) for t in self.transversal]
        data["is_normal"] = self.is_normal
        return data


class _Enumerator:
    """HLT-style enumeration with a union-find over provisional cosets."""

    def __init__(self, ngens, limit):
        self.ngens = ngens
        self.limit = limit
        self.parent = []
        self.rows = []
        self.created = 0
        self.add_coset()

    def add_coset(self):
        if self.created >= self.limit:
            raise LimitExceeded(
                f"coset enumeration exceeded the budget of {self.limit} cosets"
            )
        self.created += 1
        self.parent.append(len(self.parent))
        self.rows.append([UNDEF] * (2 * self.ngens))
        return len(self.parent) - 1

    def find(self, c):
        while self.parent[c] != c:
            self.parent[c] = self.parent[self.parent[c]]
            c = self.parent[c]
        return c

    def step(self, c, l):
        c = self.find(c)
        d = self.rows[c][l]
        if d == UNDEF:
            d = self.add_coset()
            self.rows[c][l] = d
            self.rows[d][l ^ 1] = c
        return self.find(d)

    def follow(self, c, letters):
        for l in letters:
            c = self.step(c, l)
        return c

    def unify(self, c1, c2):
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            self.parent[b] = a
            for l in range(2 * self.ngens):
                nb = self.rows[b][l]
                if nb == UNDEF:
                    continue
                na = self.rows[a][l]
                if na == UNDEF:
                    self.rows[a][l] = nb
                    self.rows[self.find(nb)][l ^ 1] = a
                else:
                    stack.append((na, nb))

    def live_rows(self):
        live = [c for c in range(len(self.parent)) if self.find(c) == c]
        rename = {c: i for i, c in enumerate(live)}
        rows = []
        for c in live:
            row = []
            for l in range(2 * self.ngens):
                d = self.rows[c][l]
                if d == UNDEF:
                    raise InternalCheckFailed("table incomplete after enumeration")
                row.append(rename[self.find(d)])
            rows.append(row)
        return rows


def todd_coxeter(p, subgens=(), limit=100_000):
    """Enumerate cosets of the subgroup generated by subgens.

    Raises LimitExceeded when more than `limit` cosets get defined before the
    table closes (possibly infinite index, or budget too small).
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    ngens = p.num_generators
    enum = _Enumerator(ngens, limit)
    rel_letters = [letters_of(r) for r in p.relators]
    for w in subgens:
        enum.unify(enum.follow(0, letters_of(w)), 0)
    scan = 0
    while scan < len(enum.parent):
        c = enum.find(scan)
        if c == scan:
            for letters in rel_letters:
                enum.unify(enum.follow(c, letters), c)
            # fill in free directions so the table closes even without relators
            for l in range(2 * ngens):
                enum.step(c, l)
        scan += 1
    return CosetTable.from_rows(enum.live_rows(), p)


def schreier_transversal(t, conjugacy_class=None):
    """Record of the BFS spanning tree over positive generator letters.

    With canonical table numbering the BFS discovers cosets in numeric order,
    so each tree edge comes from a lower coset and the transversal spelled
    from the tree is prefix-closed.

    The same walk decides normality on permutations.  For each generator x,
    images[x] extends H -> Hx along the spanning tree; it commutes with every
    generator column iff it is a G-map, i.e. iff H lies in x^-1 H x, and at
    finite index that inclusion is an equality.
    """
    n = t.index
    tree = [None] * n
    images = [[perm[0]] + [None] * (n - 1) for perm in t.action]
    is_normal = True
    for c in range(n):
        if c and tree[c] is None:
            raise InternalCheckFailed("table numbering is not canonical")
        for g, perm in enumerate(t.action):
            d = perm[c]
            if d and tree[d] is None:
                tree[d] = (c, g)
                for img in images:
                    img[d] = perm[img[c]]
            elif is_normal:
                is_normal = all(img[d] == perm[img[c]] for img in images)
    return SubgroupRecord(
        table=t, tree=tuple(tree), is_normal=is_normal, conjugacy_class=conjugacy_class
    )


def subgroup_record(p, subgens=()):
    """Convenience: enumerate and package a full SubgroupRecord, under
    `todd_coxeter`'s default coset limit."""
    return schreier_transversal(todd_coxeter(p, subgens))


def cyclic_cover_record(p, k, weights=None):
    """Record of the index-k kernel of the map sending generator i to
    weights[i] in Z/k; weights default to (1, 0, ..., 0).

    Every relator must map to 0 and the weights must generate Z/k, otherwise
    ValueError.  Used to sample covers of every index without a search.
    """
    if k < 1:
        raise ValueError("index must be >= 1")
    ngens = p.num_generators
    if weights is None:
        weights = [int(g == 0) for g in range(ngens)]
    elif len(weights) != ngens:
        raise ValueError(f"{len(weights)} weights for {ngens} generators")
    if gcd(k, *weights) != 1:
        raise ValueError("weights do not generate Z/k")
    for r in p.relators:
        if sum(r.exponent_sum(i) * weights[i] for i in range(ngens)) % k:
            raise ValueError("relator has nonzero image in Z/k")
    rows = []
    for c in range(k):
        row = []
        for g in range(ngens):
            row.append((c + weights[g]) % k)
            row.append((c - weights[g]) % k)
        rows.append(row)
    return schreier_transversal(CosetTable.from_rows(rows, p))
