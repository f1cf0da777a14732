"""Low-index subgroups: one search over conjugacy classes (Sims, ch. 5).

The search fills one partial coset table in place.  It always defines the
first undefined entry in row-major order over all letter columns and brings
in new cosets only in increasing order, so every complete table is the
standard table of its subgroup rooted at coset 0.  A definition is undone
from a trail when its branch is done.

Each new edge (c, l) is pushed on a deduction queue; it rescans only the
cyclic conjugates of every relator and its inverse that start with l, from
c.  Those are all the relator walks that cross the edge: a walk that
crosses it backwards, starting with l^-1 from c.l, is the reverse of a
walk of the inverse word, which crosses it forwards from c and closes or
leaves a gap exactly when the first does.  A walk with one undefined edge
left defines it; a closed walk that misses its start is a contradiction.

Conjugate subgroups are the stabilisers of the other cosets of one action.
Re-rooting a table at coset r and standardising it gives the table of that
stabiliser; a partial table is pruned as soon as some re-rooting is already
smaller on the entries defined in both, so only the least table of each
class reaches a leaf.  There every root is re-rooted once, the roots that
reproduce the table number [N(H):H], and the class becomes one
`ClassRecord`: the members' distinct sort keys in ascending order, and its
first member verified and packaged once.  `low_index_subgroups` expands
the class records to one verified record per member and sorts them;
`stability` reads the class records through `class_members` and packages
a member only when it needs one.

A node is charged to the budget MAX_NODES when the search enters it, but a
node past the budget raises LimitExceeded only when it would emit a class or
descend to a child: a dead end past the budget leaves no work undone.

`normal_subgroups` runs the same search for the normal subgroups alone.  A
complete table is normal exactly when every root ties with it, and a
re-rooting that differs from a partial table on an entry defined in both
keeps differing in every table below, so the search prunes a table as soon
as any re-rooting differs (`_NormalSearch.compare_roots`).  That is a smaller search, not a filter of
the full one: on dup_relator at index <= 6 it visits 83 nodes, not 587.
Each leaf is one record, the table rooted at 0.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .coset import (
    UNDEF,
    CosetTable,
    SubgroupRecord,
    letters_of,
    rerooted_entries,
    schreier_transversal,
)
from .errors import InternalCheckFailed, LimitExceeded

# the node budget of every low-index search, read when a search starts
MAX_NODES = 2_000_000


def _key_format(k, length):
    """The struct format of a member's sort key: the length entries of an
    index-k action, generator by generator, as big-endian unsigned integers
    of one width taken from k, so that keys of one length compare like the
    action tuples they encode."""
    return f">{length}" + ("B" if k <= 1 << 8 else "H" if k <= 1 << 16 else "Q")


def _member_record(key, k, p, conjugacy_class):
    """The record of the index-k subgroup of p whose sort key is key: the
    table the key encodes, verified, and its transversal."""
    entries = struct.unpack(_key_format(k, k * p.num_generators), key)
    return schreier_transversal(CosetTable.from_entries(entries, k, p), conjugacy_class)


@dataclass(frozen=True)
class ClassRecord:
    """One conjugacy class of subgroups, as the class search found it.

    keys[i] is the sort key (`_key_format`) of member i, in ascending
    order, so member 0 is the class's first subgroup in (index, action)
    order.  record is member 0, verified and packaged once; its
    conjugacy_class numbers the class.
    """

    record: SubgroupRecord
    keys: tuple

    @property
    def index(self):
        return self.record.index

    def member(self, i):
        """The record of member i: the class's own record for i = 0, else
        one built and verified from its key."""
        if i == 0:
            return self.record
        rec = self.record
        return _member_record(self.keys[i], rec.index, rec.table.origin, rec.conjugacy_class)


class _ClassSearch:
    def __init__(self, p, max_index):
        if max_index < 1:
            raise ValueError("max_index must be >= 1")
        self.p = p
        self.ncols = 2 * p.num_generators
        self.max_index = max_index
        self.max_nodes = MAX_NODES
        self.nodes = 0
        self.table = [[UNDEF] * self.ncols]
        self.trail = []
        self.classes = []
        # starting[l]: the distinct cyclic conjugates, of every relator and
        # its inverse, whose first letter is l
        starting = [set() for _ in range(self.ncols)]
        for r in p.relators:
            letters = letters_of(r)
            for word in (letters, [l ^ 1 for l in reversed(letters)]):
                for i in range(len(word)):
                    starting[word[i]].add(tuple(word[i:] + word[:i]))
        self.starting = [sorted(words) for words in starting]

    def run(self):
        self.extend(0, 0)

    def extend(self, pos, larger):
        """Search below the current table; entries before pos are defined.

        Bit r of larger is set when the table re-rooted at r is already
        larger than the table, which no definition below can change.  The
        node is charged on entry; past the budget it raises only before it
        would emit or descend.
        """
        self.nodes += 1
        spent = self.nodes > self.max_nodes
        table, ncols = self.table, self.ncols
        m = len(table)
        end = m * ncols
        while pos < end and table[pos // ncols][pos % ncols] != UNDEF:
            pos += 1
        if pos == end:
            if spent:
                self.exceeded()
            self.emit([r for r in range(m) if not larger >> r & 1])
            return
        c, l = divmod(pos, ncols)
        linv = l ^ 1
        candidates = [d for d in range(m) if table[d][linv] == UNDEF]
        if m < self.max_index:
            candidates.append(m)
        for d in candidates:
            mark = len(self.trail)
            if d == m:
                table.append([UNDEF] * ncols)
            table[c][l] = d
            table[d][linv] = c
            self.trail.append((c, l))
            if self.deduce(c, l):
                below = self.compare_roots(larger)
                if below is not None:
                    if spent:
                        self.exceeded()
                    self.extend(pos + 1, below)
            self.undo(mark)
            if d == m:
                table.pop()

    def exceeded(self):
        raise LimitExceeded(f"low-index search exceeded {self.max_nodes} nodes")

    def undo(self, mark):
        table, trail = self.table, self.trail
        while len(trail) > mark:
            c, l = trail.pop()
            table[table[c][l]][l ^ 1] = UNDEF
            table[c][l] = UNDEF

    def deduce(self, c, l):
        """Close the relator walks through the new edge (c, l); False on
        contradiction."""
        starting = self.starting
        queue = [(c, l)]
        while queue:
            c, l = queue.pop()
            for word in starting[l]:
                if not self.scan(c, word, queue):
                    return False
        return True

    def scan(self, c, word, queue):
        """Walk word from c forwards and its end backwards; one gap left
        is defined and queued.  False on contradiction."""
        table = self.table
        k = len(word)
        fwd, i = c, 0
        while i < k:
            nxt = table[fwd][word[i]]
            if nxt == UNDEF:
                break
            fwd = nxt
            i += 1
        else:
            return fwd == c
        bwd, j = c, k
        while j > i + 1:
            prv = table[bwd][word[j - 1] ^ 1]
            if prv == UNDEF:
                return True
            bwd = prv
            j -= 1
        l = word[i]
        if table[bwd][l ^ 1] != UNDEF:
            return False  # l already leads into bwd from another coset
        table[fwd][l] = bwd
        table[bwd][l ^ 1] = fwd
        self.trail.append((fwd, l))
        queue.append((fwd, l))
        return True

    def rerooted_order(self, r):
        """Compare the table re-rooted at r with the table itself, entry by
        entry in row-major order: -1 or 1 at the first entry where they
        differ, 0 if they agree up to an entry undefined in either."""
        table = self.table
        rename = [UNDEF] * len(table)
        rename[r] = 0
        order = [r]
        for i, mine in enumerate(table):
            for x, y in zip(table[order[i]], mine):
                if x == UNDEF or y == UNDEF:
                    return 0
                z = rename[x]
                if z == UNDEF:
                    z = rename[x] = len(order)
                    order.append(x)
                if z != y:
                    return -1 if z < y else 1
        return 0

    def compare_roots(self, larger):
        """larger plus the roots whose re-rooting has become larger; None
        when one is smaller, so the table is not the least of its class."""
        for r in range(1, len(self.table)):
            if not larger >> r & 1:
                order = self.rerooted_order(r)
                if order < 0:
                    return None
                if order > 0:
                    larger |= 1 << r
        return larger

    def emit(self, ties):
        """Record the class of the complete table as one ClassRecord.

        The table re-rooted at each root is a member, keyed by its packed
        `rerooted_entries` (which checks that it is transitive); the members
        are the distinct keys.  The ties, the roots the search found to
        reproduce the table, must be exactly the roots whose key is root
        0's, and class size times their number [N(H):H] must be the index.
        Only the first member (the least key) is built and verified here:
        every member is the first one with its cosets renamed by a
        bijection, so its relators act trivially exactly when the first
        member's do.  Another member's table is built and verified only
        when `ClassRecord.member` packages it.
        """
        k, ngens = len(self.table), self.p.num_generators
        fmt = _key_format(k, k * ngens)
        roots = [struct.pack(fmt, *rerooted_entries(self.table, ngens, r)) for r in range(k)]
        if ties != [r for r in range(k) if roots[r] == roots[0]]:
            raise InternalCheckFailed("the ties are not the roots that reproduce the table")
        keys = sorted(set(roots))
        if len(keys) * len(ties) != k:
            raise InternalCheckFailed("class size times [N(H):H] is not the index")
        record = _member_record(keys[0], k, self.p, len(self.classes))
        self.classes.append(ClassRecord(record=record, keys=tuple(keys)))


class _NormalSearch(_ClassSearch):
    """The class search cut down to the normal subgroups."""

    def compare_roots(self, larger):
        """0 while every re-rooting agrees with the table on the entries
        defined in both; None as soon as one differs, since it then differs
        in every table below and the leaf could not tie at that root."""
        for r in range(1, len(self.table)):
            if self.rerooted_order(r):
                return None
        return 0

    def emit(self, ties):
        """Record the one member of a normal class through the class
        search's `emit`, checked three ways: every root ties, each tie
        reproduces the table, and the permutation test of
        `schreier_transversal` finds the record normal."""
        if len(ties) != len(self.table):
            raise InternalCheckFailed("a normal-search leaf does not tie at every root")
        super().emit(ties)
        if not self.classes[-1].record.is_normal:
            raise InternalCheckFailed("a normal-search leaf is not a normal subgroup")


def _in_order(classes):
    """(class, member number) of every member of classes, in (index,
    action) order: by key, then stably by index.  A class's keys ascend,
    so its member 0 comes first."""
    members = [(cls, i) for cls in classes for i in range(len(cls.keys))]
    members.sort(key=lambda m: m[0].keys[m[1]])
    members.sort(key=lambda m: m[0].index)
    return members


def normal_subgroups(p, max_index):
    """The normal subgroups of index <= max_index: exactly the records of
    `low_index_subgroups(p, max_index)` with is_normal set, in the same
    (index, action) order.

    A table is normal exactly when every root reproduces it.  Once a
    re-rooting differs from the table on an entry defined in both, it
    differs in every table below, so the search drops that branch; the full
    search keeps it while the re-rooting is only larger.  Each record is its
    own conjugacy class, numbered in the order this search found it.  The
    nodes share the budget MAX_NODES of `low_index_subgroups`; LimitExceeded
    when it runs out.
    """
    search = _NormalSearch(p, max_index)
    search.run()
    return [cls.member(i) for cls, i in _in_order(search.classes)]


def class_members(p, max_index):
    """(members, complete): every subgroup of index <= max_index as a pair
    (ClassRecord, member number), in (index, action) order, from one class
    search.

    The module's MAX_NODES, read at the call, bounds the nodes of the
    search.  When it runs out, complete is False and the members are those
    of every class found before it ran out, so they form whole classes.
    """
    search = _ClassSearch(p, max_index)
    try:
        search.run()
    except LimitExceeded:
        return _in_order(search.classes), False
    return _in_order(search.classes), True


def low_index_subgroups(p, max_index):
    """All subgroups of index <= max_index, one SubgroupRecord each,
    canonically ordered by (index, action).

    The class search's records, each expanded to its members: one
    verified table per member, the first one verified when its class was
    found, every other one by `ClassRecord.member`.  Each record's
    conjugacy_class numbers its class in the order the search found the
    classes.  LimitExceeded when the node budget MAX_NODES runs out.
    """
    search = _ClassSearch(p, max_index)
    search.run()
    return [cls.member(i) for cls, i in _in_order(search.classes)]
