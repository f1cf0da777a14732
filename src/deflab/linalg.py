"""Exact integer and mod-p linear algebra.

All arithmetic uses Python ints (arbitrary precision), so nothing can
overflow.  deflab has one matrix format: a list of {col: value} row dicts
that store no zero.  The column count is not stored; it is passed where it
cannot be read off (`smith_normal_form(a, ncols)`, `transpose`); an entry
past it is a ValueError naming the shape.  The eliminations copy the rows
and keep a column -> rows index (`_sparse_rows`).  Ranks over Q and over odd
F_p come from one sparse elimination, `_rank`; ranks over F_2 come from a
packed one, `_rank_mod_2`, that holds each line's odd entries as the bits of
a Python int, so a row operation is one XOR (the method of M4RI: Albrecht,
Bard and Hart, ACM TOMS 37, 2010).  Primes are certified by deterministic
Miller-Rabin, which is exact below 2^64.

Ranks eliminate the shorter side: a matrix with more non-empty rows than
non-empty columns is eliminated as its transpose (over F_2, packed by
columns).  That is exact, because A and A^T have the same rank; it is
faster, because each dependent row of a tall matrix must be driven to zero
one at a time (the bar oracle's d2 is n^3 x n^2).  `smith_normal_form`
eliminates the matrix as given, since L and R belong to that matrix;
`cokernel_invariants` eliminates the columns, which span what it quotients
by.

Both share one +-1 elimination, `_unit_pivots`: it clears every +-1 pivot
it can find with sparse line operations that it records in L (cf. Dumas,
Saunders and Villard, J. Symbolic Comput. 32, 2001).  `smith_normal_form`
runs it on the rows as phase 1 and then clears each pivot row with column
operations recorded in R; phase 2 runs a Euclidean elimination on the least
entry of the rows that are left and finalises a pivot only once it divides
every entry still left, so the diagonal comes out in divisibility order.  L
and R are checked on the whole input, L @ A @ R = diag and d_i | d_{i+1},
on every call.  `cokernel_invariants` runs it on the columns and keeps no
R: the span that the +-1 pivots clear is a direct summand (Newman, Integral
Matrices, 1972), so it checks the reduced columns against L and their
shape, and runs `smith_normal_form` only on the core that is left.
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


def transpose(m, ncols):
    """The transpose of the sparse matrix m with ncols columns."""
    out = [{} for _ in range(ncols)]
    try:
        for i, row in enumerate(m):
            for j, x in row.items():
                out[j][i] = x
    except IndexError:
        raise ValueError(f"shape mismatch: a {len(m)} x {ncols} matrix has an entry in column {j}") from None
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

    Works on copies of the rows with a column -> rows index.  When `a` has more
    non-empty rows than non-empty columns (counted on the integer entries,
    before any reduction mod p), it works on the rows of a transpose instead:
    A^T has the rank of A, and the fewer lines there are, the fewer dependent
    ones must be cleared to zero.  Picking the side is one pass over the
    entries; the transpose is dropped once its rows are copied.  Each step
    pivots on the sparsest row, at a +-1 entry if any, else in the shortest
    column, and clears that column from the other rows by s*row - t*pivot:
    mod p with the pivot scaled to 1 over F_p, divided by the row's content
    over Q.
    """
    cols = set().union(*a)
    rows, where = _sparse_rows(transpose(a, max(cols) + 1) if sum(map(bool, a)) > len(cols) else a, p)
    lines = len(rows)
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
    return lines - len(rows)  # each pivot popped its row; the rest are now empty


def _packed_lines(a):
    """The lines of `a` over F_2 as ints, bit j set when entry j is odd.

    The lines are the columns when `a` has more non-empty rows than non-empty
    columns (the rule of `_rank`), packed straight from the row dicts, else
    the rows.  Each line is set bit by bit in a bytearray and read once by
    `int.from_bytes`: `|=` into an int would copy the whole int every time.
    """
    cols = set().union(*a)
    if sum(map(bool, a)) > len(cols):
        packed = [bytearray((len(a) + 7) >> 3) for _ in range(max(cols) + 1)]
        for i, row in enumerate(a):
            byte, bit = i >> 3, 1 << (i & 7)
            for j, x in row.items():
                if x & 1:
                    packed[j][byte] |= bit
        while packed:  # each column is dropped once it is read
            yield int.from_bytes(packed.pop(), "little")
        return
    for row in a:
        if row:
            bits = bytearray((max(row) >> 3) + 1)
            for j, x in row.items():
                if x & 1:
                    bits[j >> 3] |= 1 << (j & 7)
            yield int.from_bytes(bits, "little")


def _rank_mod_2(a):
    """Rank of a sparse integer matrix over F_2, by XOR on packed lines.

    Over F_2 a row operation adds one line to another, which on the packed
    lines of `_packed_lines` is one XOR.  Each line is reduced by the basis
    line with its leading bit until that bit is new, which adds it to the
    basis, or the line is zero, which makes it dependent.
    """
    basis = {}  # bit_length -> line
    for line in _packed_lines(a):
        while line:
            n = line.bit_length()
            if n not in basis:
                basis[n] = line
                break
            line ^= basis[n]
    return len(basis)


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
    """Rank of an integer matrix over F_p, prime p < 2^64; `a` is not modified.

    Over F_2 the rank comes from `_rank_mod_2`, a packed XOR elimination on
    the shorter side; it is exact, because a row operation over F_2 is an XOR
    of bit strings and A^T has the rank of A.  Odd p runs the sparse `_rank`.
    """
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    return _rank_mod_2(a) if p == 2 else _rank(a, p)


# ---------------------------------------------------------------------------
# Smith normal form

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

    def verify(self, a):
        diagonal = [{i: d} for i, d in enumerate(self.diagonal)]
        diagonal += [{}] * (self.shape[0] - len(diagonal))
        if mat_mul(mat_mul(self.left, a), self.right) != diagonal:
            raise InternalCheckFailed("L @ A @ R is not the Smith diagonal")
        if any(x <= 0 or y % x for x, y in zip(self.diagonal, self.diagonal[1:])):
            raise InternalCheckFailed(f"divisibility fails: {self.diagonal}")


def _add_multiple(dst, src, f):
    """dst += f * src for sparse {index: value} vectors, dropping zeros."""
    for j, x in src.items():
        y = dst.get(j, 0) + f * x
        if y:
            dst[j] = y
        else:
            del dst[j]


def _non_multiple_row(m, v):
    """The first row of m holding an entry that v does not divide, or None."""
    return next((k for k, row in m.items() if any(x % v for x in row.values())), None)


def _unit_pivots(lines, where, left):
    """Clear every +-1 pivot of the sparse `lines` by line operations.

    `lines` maps each line to its {coordinate: value} dict and `where` maps
    each coordinate to the lines that hold it; both change in place.  Each
    step takes the sparsest line (lazy heap) that holds a +-1, pivots on its
    +-1 in the coordinate held by the fewest lines (ties by coordinate), and
    clears that coordinate from every other line by line k -= f * line i,
    which it also applies to the rows of `left`.  A pivot line leaves `lines`
    and never changes again, so it is 0 at every earlier pivot's coordinate.
    Returns the pivots in order, as (line, coordinate, pivot line).
    """
    pivots = []
    heap = [(len(line), i) for i, line in lines.items() if line]
    heapify(heap)
    while heap:
        n, i = heappop(heap)
        piv = lines.get(i, ())
        if len(piv) != n:
            continue  # stale entry: the line was pivoted or changed length
        units = [j for j, x in piv.items() if x == 1 or x == -1]
        if not units:
            continue  # back on the heap only if a line operation changes it
        c = min(units, key=lambda j: (len(where[j]), j))
        del lines[i]
        for j in piv:
            where[j].discard(i)
        v = piv.pop(c)
        for k in where.pop(c):  # line k -= w * v * line i, with w = lines[k][c]
            line = lines[k]
            f = line.pop(c) * v
            for j, x in piv.items():
                y = line.get(j, 0) - f * x
                if y:
                    if j not in line:
                        where[j].add(k)
                    line[j] = y
                else:
                    del line[j]
                    where[j].discard(k)
            _add_multiple(left[k], left[i], -f)
            if line:
                heappush(heap, (len(line), k))
        piv[c] = v
        pivots.append((i, c, piv))
    return pivots


def smith_normal_form(a, ncols):
    """Smith normal form L @ a @ R = diag of a sparse matrix with ncols columns.

    Phase 1 eliminates +-1 pivots sparsely: `_unit_pivots` takes the rows as
    {col: value} dicts with a column -> rows index, and each step takes the
    sparsest row (lazy heap) and its +-1 entry in the shortest column and
    clears that column with row operations.  Each pivot row is then cleared
    with column operations, which in the matrix touch the pivot row alone.
    L is kept as sparse rows, R as sparse columns.  Phase 2 works on the
    rows that are left, which hold no +-1 entry: it pivots on the entry of
    least absolute value (ties by row, then column), reduces the other rows
    in its column and then its row's other columns by floor division, and
    starts again at the least remainder until the pivot stands alone.  Each
    remainder is smaller than the pivot, so entries stay near the input's
    size instead of growing as in a dense elimination (Kannan and Bachem,
    SIAM J. Comput. 8, 1979).  A pivot is final only once it divides every
    entry left (Newman, Integral Matrices, 1972): one that divides its row
    but not some other row first adds that row to its own, which leaves a
    remainder.  So the +-1 pivots of phase 1 and then those of phase 2 come
    out in divisibility order.  Every result is verified on the whole input
    before it is returned.  The input is eliminated as given, never
    transposed, because L and R must factor the caller's own matrix.
    """
    m, where = _sparse_rows(a, 0)
    if where and (j := max(where)) >= ncols:
        raise ValueError(f"shape mismatch: a {len(a)} x {ncols} matrix has an entry in column {j}")
    left = [{i: 1} for i in range(len(a))]
    right = [{j: 1} for j in range(ncols)]
    pivots = []  # (row, column, value)
    for i, c, piv in _unit_pivots(m, where, left):
        v = piv[c]
        pivots.append((i, c, v))
        for j, x in piv.items():  # column j -= x * v * column c: row i only
            if j != c:
                _add_multiple(right[j], right[c], -x * v)
    while any(m.values()):  # phase 2: Euclid on the entry of least |v|
        _, i, c = min((abs(x), i, j) for i, row in m.items() for j, x in row.items())
        piv = m[i]
        v = piv[c]
        for k, row in m.items():  # row k -= (m[k][c] // v) * row i
            if k != i and c in row:
                f = row[c] // v
                _add_multiple(row, piv, -f)
                _add_multiple(left[k], left[i], -f)
        if any(c in row for row in m.values() if row is not piv):
            continue  # each remainder is smaller than |v|, so the least is next
        if not any(x % v for x in piv.values()) and (k := _non_multiple_row(m, v)) is not None:
            _add_multiple(piv, m[k], 1)  # row i += row k: its column steps leave a remainder
            _add_multiple(left[i], left[k], 1)
        for j, x in list(piv.items()):  # column j -= (x // v) * column c: row i only
            if j != c and (f := x // v):
                add_to(piv, j, -f * v)
                _add_multiple(right[j], right[c], -f)
        if len(piv) == 1:  # v divides every entry left
            del m[i]
            pivots.append((i, c, v))
    for i, _, v in pivots:
        if v < 0:
            left[i] = {j: -x for j, x in left[i].items()}
    diagonal = [abs(v) for _, _, v in pivots]
    pivot_cols = {c for _, c, _ in pivots}
    result = SNFResult(
        diagonal=diagonal,
        rank=len(diagonal),
        left=[left[i] for i, _, _ in pivots] + [left[i] for i in m],  # m: zero rows, ascending
        right=transpose(
            [right[c] for _, c, _ in pivots] + [right[j] for j in range(ncols) if j not in pivot_cols],
            ncols,
        ),
        shape=(len(a), ncols),
    )
    result.verify(a)
    return result


def cokernel_invariants(a, ncols):
    """Invariant factors of Z^len(a) / column span of A, with ncols columns.

    Returns (free_rank, torsion) where torsion lists the factors > 1.

    The columns of A are eliminated as lines over the coordinates 0..len(a)-1
    by `_unit_pivots`, so the span never changes and no R is kept.  The
    result is certified before it is used:
    * each pivot line is +-1 at its own coordinate and 0 at every earlier
      pivot's, so the r pivot lines and the unit vectors of the other
      coordinates are a basis of Z^len(a);
    * every other line, the core, is 0 at every pivot coordinate, so the
      cokernel is that of the core on the other coordinates;
    * L @ (columns of A) is the reduced lines, and L is unit triangular in
      pivot order (the other lines last), so it is unimodular and the
      reduced lines span the columns of A.
    So the cokernel is Z^(len(a) - r - rank(core)) plus the core's factors
    > 1, which `smith_normal_form` finds and checks with its own L @ A @ R;
    an empty core needs no Smith form.
    """
    cols = [{} for _ in range(ncols)]
    where = {}  # coordinate -> lines
    try:
        for i, row in enumerate(a):
            where[i] = set(row)
            for j, x in row.items():
                cols[j][i] = x
    except IndexError:
        raise ValueError(f"shape mismatch: a {len(a)} x {ncols} matrix has an entry in column {j}") from None
    lines = {j: dict(col) for j, col in enumerate(cols) if col}
    left = [{j: 1} for j in range(ncols)]
    pivots = _unit_pivots(lines, where, left)
    done = set()  # the coordinates pivoted so far
    for _, c, piv in pivots:
        if piv.get(c) not in (1, -1) or not done.isdisjoint(piv):
            raise InternalCheckFailed("a pivot line is not +-1 at its coordinate and 0 at every earlier one")
        done.add(c)
    if not all(done.isdisjoint(line) for line in lines.values()):
        raise InternalCheckFailed("a core line is not 0 at every pivot coordinate")
    reduced = [lines.get(j, {}) for j in range(ncols)]
    order = {}  # pivot line -> its step
    for s, (i, _, piv) in enumerate(pivots):
        reduced[i] = piv
        order[i] = s
    if mat_mul(left, cols) != reduced:
        raise InternalCheckFailed("L @ (columns of A) is not the reduced lines")
    r = len(pivots)
    for k, row in enumerate(left):  # the other lines come after every pivot line
        if row.get(k) != 1 or any(order.get(j, r) >= order.get(k, r) for j in row if j != k):
            raise InternalCheckFailed("L is not unit triangular in pivot order")
    core = [line for line in lines.values() if line]
    if not core:
        return len(a) - r, []
    snf = smith_normal_form(core, len(a))
    return len(a) - r - snf.rank, [d for d in snf.diagonal if d > 1]


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
        cokernels = [cokernel_invariants(b, cols) for b, cols in zip(c.boundaries, dims[1:])]
        ranks = [len(b) - free for b, (free, _) in zip(c.boundaries, cokernels)]
        torsion = [factors for _, factors in cokernels] + [[]]
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
