"""The member-by-member low-index enumerator, kept as a test oracle.

It fills copies of partial coset tables in row-major scan order, brings in
new coset numbers only in increasing order and rescans every relator from
every coset after each definition, so every complete table is in standard
form and each subgroup of index <= n is emitted exactly once, with no
notion of conjugacy.
"""

from deflab.coset import UNDEF, CosetTable, letters_of, schreier_transversal
from deflab.errors import LimitExceeded


class MemberSearch:
    def __init__(self, p, max_index, max_nodes):
        self.p = p
        self.ncols = 2 * p.num_generators
        self.max_index = max_index
        self.max_nodes = max_nodes
        self.nodes = 0
        self.rel_letters = [letters_of(r) for r in p.relators]
        self.found = []

    def run(self):
        self.extend([[UNDEF] * self.ncols])
        return self.found

    def extend(self, table):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise LimitExceeded(f"low-index search exceeded {self.max_nodes} nodes")
        pos = self.first_undefined(table)
        if pos is None:
            self.found.append(CosetTable.from_rows(table, self.p))
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
                    fwd, i = c, 0
                    while i < k and table[fwd][letters[i]] != UNDEF:
                        fwd = table[fwd][letters[i]]
                        i += 1
                    if i == k:
                        if fwd != c:
                            return False
                        continue
                    bwd, j = c, k
                    while j > i + 1 and table[bwd][letters[j - 1] ^ 1] != UNDEF:
                        bwd = table[bwd][letters[j - 1] ^ 1]
                        j -= 1
                    if j == i + 1:
                        l = letters[i]
                        if table[bwd][l ^ 1] != UNDEF:
                            return False
                        table[fwd][l] = bwd
                        table[bwd][l ^ 1] = fwd
                        changed = True
        return True


def member_search(p, max_index, max_nodes=2_000_000):
    """(records in (index, action) order, search nodes) of every subgroup
    of index <= max_index."""
    search = MemberSearch(p, max_index, max_nodes)
    tables = sorted(search.run(), key=lambda t: (t.index, t.action))
    return [schreier_transversal(t) for t in tables], search.nodes
