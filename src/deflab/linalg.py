"""Exact integer and mod-p linear algebra.

All arithmetic uses Python ints (arbitrary precision), so nothing can
overflow.  deflab has one matrix format: a list of {col: value} row dicts
that store no zero.  The column count is not stored; it is passed where it
cannot be read off (`smith_normal_form(a, ncols)`, `to_dense`).  The
eliminations copy the rows and keep a column -> rows index (`_sparse_rows`).
Ranks over Q and over F_p come from one sparse elimination, `_rank`; primes
are certified by deterministic Miller-Rabin, which is exact below 2^64.

`smith_normal_form` runs in two phases.  Phase 1 clears every +-1 pivot it
can find with sparse unimodular row and column operations, recording L and
R sparsely; phase 2 runs the dense min-abs elimination `_dense_snf` only on
the leftover core, which has no +-1 entry and is the only dense matrix in
deflab besides the JSON output (cf. Dumas, Saunders and Villard,
J. Symbolic Comput. 32, 2001).  The composed transforms are checked on the
whole input, L @ A @ R = diag and d_i | d_{i+1}, on every call.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import InternalCheckFailed, ModulusTooLarge, NonPrimeModulus


# ---------------------------------------------------------------------------
# sparse matrices: lists of {col: value} row dicts that store no zero

def add_to(row, j, x):
    """row[j] += x in a sparse row, deleting the entry when it becomes zero."""
    x += row.pop(j, 0)
    if x:
        row[j] = x


def sparse_row(terms):
    """The sparse row holding the sum of the (col, value) terms."""
    row = {}
    for j, x in terms:
        add_to(row, j, x)
    return row


def from_dense(a):
    """The sparse rows of a dense list of lists."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def to_dense(m, ncols):
    """The dense list of lists of a sparse matrix with ncols columns."""
    return [[row.get(j, 0) for j in range(ncols)] for row in m]


def transpose(m, ncols):
    """The transpose of the sparse matrix m with ncols columns."""
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(m):
        for j, x in row.items():
            out[j][i] = x
    return out


def mat_mul(a, b):
    """Exact product a @ b of sparse matrices, as sparse rows."""
    out = []
    try:
        for row in a:
            acc = {}
            for t, x in row.items():
                for j, y in b[t].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append({j: v for j, v in acc.items() if v})
    except IndexError:
        raise ValueError(f"shape mismatch: a has a column past the {len(b)} rows of b") from None
    return out


def _sparse_rows(a, p):
    """Copies of the rows of `a` (mod p when p) and a column -> rows index."""
    rows, where = {}, defaultdict(set)
    for i, row in enumerate(a):
        rows[i] = row = {j: y for j, x in row.items() if (y := x % p if p else x)}
        for j in row:
            where[j].add(i)
    return rows, where


def _rank(a, p):
    """Rank of a sparse integer matrix over F_p, or over Q when p == 0.

    Works on copies of the rows with a column -> rows index.  Each step pivots on
    the sparsest row, at a +-1 entry if any, else in the shortest column, and
    clears that column from the other rows by s*row - t*pivot: mod p with the
    pivot scaled to 1 over F_p, divided by the row's content over Q.
    """
    rows, where = _sparse_rows(a, p)
    heap = [(len(row), i) for i, row in rows.items() if row]
    heapify(heap)
    units = (1, p - 1) if p else (1, -1)
    while heap:
        n, i = heappop(heap)
        if len(rows.get(i, ())) != n:
            continue  # stale entry: the row was pivoted or changed length
        piv = rows.pop(i)
        for j in piv:
            where[j].discard(i)
        c = min(piv, key=lambda j: (piv[j] not in units, len(where[j]), j))
        v = piv.pop(c)
        if p and v != 1:
            inv = pow(v, -1, p)
            piv, v = {j: x * inv % p for j, x in piv.items()}, 1
        for k in where.pop(c):
            row = rows[k]
            w = row.pop(c)
            g = gcd(v, w)
            s, t = v // g, w // g
            if s != 1:
                rows[k] = row = {j: x * s for j, x in row.items()}
            for j, x in piv.items():
                y = row.get(j, 0) - t * x
                if p:
                    y %= p
                if y:
                    if j not in row:
                        where[j].add(k)
                    row[j] = y
                elif j in row:
                    del row[j]
                    where[j].discard(k)
            if row:
                if not p and (g := gcd(*row.values())) > 1:
                    rows[k] = {j: x // g for j, x in row.items()}
                heappush(heap, (len(row), k))
    return len(a) - len(rows)  # each pivot popped its row; the rest are now empty


def rank_over_Q(a):
    """Exact rational rank of an integer matrix; `a` is not modified."""
    return _rank(a, 0)


def is_prime(n):
    """Deterministic Miller-Rabin with bases 2..37, exact for every n < 2^64.

    Larger n raise ModulusTooLarge rather than get an uncertified answer.
    """
    if n >= 2**64:
        raise ModulusTooLarge(f"{n} too large: primality is certified only below 2^64")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for q in bases:
        if pow(q, d, n) != 1 and all(pow(q, d << i, n) != n - 1 for i in range(s)):
            return False  # q witnesses that n is composite
    return True


def rank_mod_p(a, p):
    """Rank of an integer matrix over F_p, prime p < 2^64; `a` is not modified."""
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    return _rank(a, p)


# ---------------------------------------------------------------------------
# Smith normal form

def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


@dataclass
class SNFResult:
    """Diagonalization L @ A @ R = diag(d1..dr) with unimodular L, R.

    The diagonal lists only the nonzero invariant factors, each dividing
    the next.  L and R are sparse rows, like A.
    """

    diagonal: list
    rank: int
    left: list
    right: list
    shape: tuple

    def to_json(self):
        rows, cols = self.shape
        return {
            "diagonal": list(self.diagonal),
            "rank": self.rank,
            "left": to_dense(self.left, rows),
            "right": to_dense(self.right, cols),
            "shape": list(self.shape),
        }

    def verify(self, a):
        diagonal = [{i: d} for i, d in enumerate(self.diagonal)]
        diagonal += [{}] * (self.shape[0] - len(diagonal))
        if mat_mul(mat_mul(self.left, a), self.right) != diagonal:
            raise InternalCheckFailed("L @ A @ R is not the Smith diagonal")
        if any(x <= 0 or y % x for x, y in zip(self.diagonal, self.diagonal[1:])):
            raise InternalCheckFailed(f"divisibility fails: {self.diagonal}")


class _SNFWork:
    """Mutable elimination state on the block matrix [[A, I], [I, 0]].

    Row operations touch only the top rows and column operations only the
    left columns, so each one moves A together with L (top right block) or
    R (bottom left block): at every step the blocks hold L @ A @ R, L and R.
    """

    def __init__(self, a):
        self.rows, self.cols = rows, cols = len(a), len(a[0])
        self.m = [list(row) + [0] * rows for row in a]
        self.m += [[0] * (cols + rows) for _ in range(cols)]
        for k in range(rows):
            self.m[k][cols + k] = 1
        for k in range(cols):
            self.m[rows + k][k] = 1

    @property
    def left(self):
        return [row[self.cols:] for row in self.m[:self.rows]]

    @property
    def right(self):
        return [row[:self.cols] for row in self.m[self.rows:]]

    def swap_rows(self, i, j):
        self.m[i], self.m[j] = self.m[j], self.m[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.m:
            row[i], row[j] = row[j], row[i]

    def negate_row(self, i):
        self.m[i] = [-x for x in self.m[i]]

    def add_col(self, src, dst, c):
        for row in self.m:
            row[dst] += c * row[src]

    def combine_rows(self, i, j, col):
        """Row-unimodular 2x2 combo putting gcd(m[i][col], m[j][col]) at (i, col)."""
        a, b = self.m[i][col], self.m[j][col]
        if b == 0:
            return
        mi, mj = self.m[i], self.m[j]
        if a != 0 and b % a == 0:
            c = b // a
            self.m[j] = [v - c * u for u, v in zip(mi, mj)]
            return
        g, x, y = _xgcd(a, b)
        ag, bg = a // g, b // g
        self.m[i] = [x * u + y * v for u, v in zip(mi, mj)]
        self.m[j] = [-bg * u + ag * v for u, v in zip(mi, mj)]
        # determinant of [[x, y], [-bg, ag]] is x*ag + y*bg = 1

    def combine_cols(self, i, j, row):
        a, b = self.m[row][i], self.m[row][j]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            self.add_col(i, j, -(b // a))
            return
        g, x, y = _xgcd(a, b)
        ag, bg = a // g, b // g
        for mrow in self.m:
            u, v = mrow[i], mrow[j]
            mrow[i] = x * u + y * v
            mrow[j] = -bg * u + ag * v


def _dense_snf(a):
    """Smith normal form of a dense matrix by min-abs pivoting on `_SNFWork`.

    Returns (diagonal, L, R) with L @ a @ R = diag(diagonal).  The pivot is
    the first entry of least absolute value in row-major order, so the search
    stops after the row holding the first +-1.
    """
    w = _SNFWork(a)
    m, rows, cols = w.m, w.rows, w.cols
    t = 0
    while t < min(rows, cols):
        piv = best = None
        for i in range(t, rows):
            for j, v in enumerate(m[i][t:cols], t):
                if v and (best is None or abs(v) < best):
                    best, piv = abs(v), (i, j)
            if best == 1:
                break  # no entry is smaller, and a later one would not win the tie
        if piv is None:
            break
        w.swap_rows(t, piv[0])
        w.swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, rows):
                w.combine_rows(t, i, t)
            if any(m[t][j] for j in range(t + 1, cols)):
                for j in range(t + 1, cols):
                    w.combine_cols(t, j, t)
            if all(m[i][t] == 0 for i in range(t + 1, rows)) and all(
                m[t][j] == 0 for j in range(t + 1, cols)
            ):
                break
        if m[t][t] < 0:
            w.negate_row(t)
        t += 1
    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a_, b_ = m[i][i], m[i + 1][i + 1]
            if b_ % a_ != 0:
                changed = True
                w.add_col(i + 1, i, 1)
                w.combine_rows(i, i + 1, i)
                while m[i][i + 1] or m[i + 1][i]:
                    w.combine_cols(i, i + 1, i)
                    w.combine_rows(i, i + 1, i)
                if m[i][i] < 0:
                    w.negate_row(i)
                if m[i + 1][i + 1] < 0:
                    w.negate_row(i + 1)
    return [m[i][i] for i in range(t)], w.left, w.right


def _add_multiple(dst, src, f):
    """dst += f * src for sparse {index: value} vectors, dropping zeros."""
    for j, x in src.items():
        y = dst.get(j, 0) + f * x
        if y:
            dst[j] = y
        else:
            del dst[j]


def smith_normal_form(a, ncols):
    """Smith normal form L @ a @ R = diag of a sparse matrix with ncols columns.

    Phase 1 eliminates +-1 pivots sparsely: rows are {col: value} dicts with
    a column -> rows index, and each step takes the sparsest row (lazy heap)
    and its +-1 entry in the shortest column, clears that column with row
    operations and the pivot row with column operations, which in the matrix
    touch the pivot row alone.  L is kept as sparse rows, R as sparse
    columns.  Phase 2 runs the dense `_dense_snf` on the leftover core of
    un-pivoted rows and columns, which has no +-1 entry, and composes its
    transforms with L and R; a zero core needs no composition.  The diagonal
    is one 1 per pivot followed by the core's.  Every result is verified on
    the whole input before it is returned.
    """
    m, where = _sparse_rows(a, 0)
    left = [{i: 1} for i in range(len(a))]
    right = [{j: 1} for j in range(ncols)]
    pivots = []  # (row, column, unit)
    heap = [(len(row), i) for i, row in m.items() if row]
    heapify(heap)
    while heap:
        n, i = heappop(heap)
        piv = m.get(i, ())
        if len(piv) != n:
            continue  # stale entry: the row was pivoted or changed length
        units = [j for j, x in piv.items() if x == 1 or x == -1]
        if not units:
            continue  # back on the heap only if a row operation changes it
        c = min(units, key=lambda j: (len(where[j]), j))
        del m[i]
        for j in piv:
            where[j].discard(i)
        v = piv.pop(c)
        pivots.append((i, c, v))
        for k in where.pop(c):  # row k -= w * v * row i, with w = m[k][c]
            row = m[k]
            f = row.pop(c) * v
            for j, x in piv.items():
                y = row.get(j, 0) - f * x
                if y:
                    if j not in row:
                        where[j].add(k)
                    row[j] = y
                else:
                    del row[j]
                    where[j].discard(k)
            _add_multiple(left[k], left[i], -f)
            if row:
                heappush(heap, (len(row), k))
        for j, x in piv.items():  # column j -= x * v * column c
            _add_multiple(right[j], right[c], -x * v)
    pivot_cols = {c for _, c, _ in pivots}
    core_rows = list(m)  # ascending: row dicts are only ever deleted
    core_cols = [j for j in range(ncols) if j not in pivot_cols]
    lefts = [{j: v * x for j, x in left[i].items()} for i, _, v in pivots]
    rights = [right[c] for _, c, _ in pivots]
    core_left = [left[i] for i in core_rows]
    core_right = [right[j] for j in core_cols]
    if any(m.values()):
        core = [[m[i].get(j, 0) for j in core_cols] for i in core_rows]
        core_diagonal, lc, rc = _dense_snf(core)
        core_left = mat_mul(from_dense(lc), core_left)
        core_right = mat_mul(from_dense(zip(*rc)), core_right)
    else:
        core_diagonal = []  # L and R of a zero core are identities
    diagonal = [1] * len(pivots) + core_diagonal
    result = SNFResult(
        diagonal=diagonal,
        rank=len(diagonal),
        left=lefts + core_left,
        right=transpose(rights + core_right, ncols),
        shape=(len(a), ncols),
    )
    result.verify(a)
    return result


def cokernel_invariants(a, ncols):
    """Invariant factors of Z^len(a) / column span of A, with ncols columns.

    Returns (free_rank, torsion) where torsion lists the factors > 1.
    """
    if not any(a):
        return len(a), []
    snf = smith_normal_form(a, ncols)
    return len(a) - snf.rank, [d for d in snf.diagonal if d > 1]


# ---------------------------------------------------------------------------
# Betti numbers, partial Euler characteristics, Morse inequality

@dataclass
class BettiVector:
    """Homology dimensions b_0..b_n of a chain complex over Q or F_p.

    Torsion (per degree, invariant factors > 1) is filled for the rational
    field from Smith normal forms of the boundary maps.
    """

    b: list
    torsion: list
    field: str  # "Q" or "p" rendered as e.g. "F2"


@dataclass
class EulerData:
    n: int
    ranks: list
    mu: int
    chi: int
    nu2: int | None = None


def betti_numbers(c, fieldspec="Q"):
    """Betti numbers of a ChainComplex over Q (with torsion) or F_p.

    fieldspec is "Q" or a prime integer.
    """
    dims = c.dims
    n = len(dims) - 1
    if fieldspec == "Q":
        snfs = [
            smith_normal_form(b, dims[i + 1]) if any(b) else None
            for i, b in enumerate(c.boundaries)
        ]
        ranks = [s.rank if s else 0 for s in snfs]
        torsion = []
        for i in range(n + 1):
            if i < n and snfs[i] is not None:
                torsion.append([d for d in snfs[i].diagonal if d > 1])
            else:
                torsion.append([])
        field = "Q"
    else:
        p = int(fieldspec)
        ranks = [rank_mod_p(b, p) for b in c.boundaries]
        torsion = [[] for _ in range(n + 1)]
        field = f"F{p}"
    b = []
    for i in range(n + 1):
        incoming = ranks[i] if i < n else 0  # rank of boundary from degree i+1
        outgoing = ranks[i - 1] if i > 0 else 0  # rank of boundary out of degree i
        b.append(dims[i] - outgoing - incoming)
    return BettiVector(b=b, torsion=torsion, field=field)


def partial_euler_mu(ranks, n):
    """Alternating sums of free-module ranks f_0..f_n."""
    ranks = list(ranks)
    if len(ranks) != n + 1:
        raise ValueError(f"need exactly n+1 = {n + 1} ranks, not {len(ranks)}")
    mu = sum((-1) ** (n - i) * f for i, f in enumerate(ranks))
    chi = sum((-1) ** i * f for i, f in enumerate(ranks))
    return EulerData(n=n, ranks=ranks, mu=mu, chi=chi, nu2=mu if n == 2 else None)


def morse_check(b, e):
    """Morse inequality sum_i (-1)^(n-i) b_i <= mu_n; returns (holds, slack)."""
    n = e.n
    if len(b.b) < n + 1:
        raise ValueError(f"Betti vector of length {len(b.b)} too short for degree {n}")
    lhs = sum((-1) ** (n - i) * b.b[i] for i in range(n + 1))
    slack = e.mu - lhs
    return slack >= 0, slack
