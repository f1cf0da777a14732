"""Backtracking enumeration of all subgroups of index <= n.

The search fills partial coset tables in row-major scan order, introducing
new coset numbers only in increasing order, so every complete table is in
standard form and each subgroup of index <= n is emitted exactly once (all
subgroups, not conjugacy classes).  Relator traces prune the search and
force deductions.
"""

from __future__ import annotations

from .coset import UNDEF, CosetTable, letters_of, schreier_transversal
from .errors import LimitExceeded


class _Search:
    def __init__(self, p, max_index, max_nodes):
        self.p = p
        self.ngens = p.num_generators
        self.ncols = 2 * self.ngens
        self.max_index = max_index
        self.max_nodes = max_nodes
        self.nodes = 0
        self.rel_letters = [letters_of(r) for r in p.relators]
        self.found = []

    def run(self):
        table = [[UNDEF] * self.ncols]
        self.extend(table)
        return self.found

    def extend(self, table):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise LimitExceeded(
                f"low-index search exceeded {self.max_nodes} nodes"
            )
        pos = self.first_undefined(table)
        if pos is None:
            self.emit(table)
            return
        c, l = pos
        m = len(table)
        linv = l ^ 1
        candidates = [d for d in range(m) if table[d][linv] == UNDEF]
        if m < self.max_index:
            candidates.append(m)
        for d in candidates:
            work = [row[:] for row in table]
            if d == m:
                work.append([UNDEF] * self.ncols)
            work[c][l] = d
            work[d][linv] = c
            if self.deduce(work):
                self.extend(work)

    def first_undefined(self, table):
        for c, row in enumerate(table):
            for l in range(self.ncols):
                if row[l] == UNDEF:
                    return c, l
        return None

    def deduce(self, table):
        """Propagate relator closures; False on contradiction."""
        changed = True
        while changed:
            changed = False
            for letters in self.rel_letters:
                k = len(letters)
                for c in range(len(table)):
                    # walk forward until undefined
                    fwd = c
                    i = 0
                    while i < k:
                        nxt = table[fwd][letters[i]]
                        if nxt == UNDEF:
                            break
                        fwd = nxt
                        i += 1
                    if i == k:
                        if fwd != c:
                            return False
                        continue
                    # walk backward from the end until undefined
                    bwd = c
                    j = k
                    while j > i + 1:
                        prv = table[bwd][letters[j - 1] ^ 1]
                        if prv == UNDEF:
                            break
                        bwd = prv
                        j -= 1
                    if j == i + 1:  # the forward walk stopped at an undefined table[fwd][l]
                        l = letters[i]
                        if table[bwd][l ^ 1] != UNDEF:
                            return False  # l already leads into bwd from another coset
                        table[fwd][l] = bwd
                        table[bwd][l ^ 1] = fwd
                        changed = True
        return True

    def emit(self, table):
        self.found.append(CosetTable.from_rows(table, self.p))


def low_index_subgroups(p, max_index, max_nodes=2_000_000, on_budget="raise"):
    """All subgroups of index <= max_index, one SubgroupRecord each,
    canonically ordered by (index, action).

    on_budget: "raise" (default) raises LimitExceeded when the node budget
    runs out; "partial" returns (records_found_so_far, complete_flag); any
    other value raises ValueError before the search starts.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    if on_budget not in ("raise", "partial"):
        raise ValueError(f"on_budget must be 'raise' or 'partial', not {on_budget!r}")
    search = _Search(p, max_index, max_nodes)
    complete = True
    try:
        search.run()
    except LimitExceeded:
        if on_budget == "raise":
            raise
        complete = False
    tables = search.found
    tables.sort(key=lambda t: (t.index, t.action_key()))
    records = [schreier_transversal(t) for t in tables]
    if on_budget == "partial":
        return records, complete
    return records
