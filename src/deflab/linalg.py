"""Exact integer and mod-p linear algebra.

All integer work uses Python ints (arbitrary precision).  Mod-p ranks go
through int64 numpy with entries reduced after every elimination step, so
they take primes below 2^31.  Smith normal form tracks unimodular
transforms and self-verifies on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModulusTooLarge, NonPrimeModulus


# ---------------------------------------------------------------------------
# dense integer matrix helpers (lists of lists of python ints)

def zero_matrix(rows, cols):
    return [[0] * cols for _ in range(rows)]


def identity_matrix(n):
    m = zero_matrix(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_shape(a):
    return (len(a), len(a[0]) if a else 0)


def mat_mul(a, b):
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    assert k == k2, f"shape mismatch {k} != {k2}"
    if n == 0 or m == 0 or k == 0:
        return zero_matrix(n, m)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_transpose(a):
    if not a:
        return []
    return [list(row) for row in zip(*a)]


def mat_is_zero(a):
    return all(all(x == 0 for x in row) for row in a)


def rank_over_Q(a):
    """Exact rational rank via fraction-free (Bareiss) elimination."""
    m = [row[:] for row in a]
    rows, cols = mat_shape(a)
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        piv = None
        best = None
        for i in range(r, rows):
            v = m[i][c]
            if v != 0 and (best is None or abs(v) < best):
                best, piv = abs(v), i
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def rank_mod_p(a, p):
    """Rank of an integer matrix over the field with p elements.

    Elimination runs in int64, where products of two residues stay exact
    only while p < 2^31; larger p raise ModulusTooLarge.
    """
    if p >= 2**31:
        raise ModulusTooLarge(f"prime {p} is too large: mod-p ranks need p < 2^31")
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    rows, cols = mat_shape(a)
    if rows == 0 or cols == 0:
        return 0
    # reduce in python first: entries may exceed int64
    m = np.array([[x % p for x in row] for row in a], dtype=np.int64)
    rank = 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % p
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


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
    the next.
    """

    diagonal: list
    rank: int
    left: list
    right: list
    shape: tuple

    def diagonal_matrix(self):
        m = zero_matrix(*self.shape)
        for i, d in enumerate(self.diagonal):
            m[i][i] = d
        return m

    def to_json(self):
        return {
            "diagonal": list(self.diagonal),
            "rank": self.rank,
            "left": [list(row) for row in self.left],
            "right": [list(row) for row in self.right],
            "shape": list(self.shape),
        }

    def verify(self, a):
        assert mat_mul(mat_mul(self.left, a), self.right) == self.diagonal_matrix()
        for x, y in zip(self.diagonal, self.diagonal[1:]):
            assert x > 0 and y % x == 0, f"divisibility fails: {self.diagonal}"


class _SNFWork:
    """Mutable elimination state; row ops mirror into L, column ops into R."""

    def __init__(self, a):
        self.m = [row[:] for row in a]
        self.rows, self.cols = mat_shape(a)
        self.left = identity_matrix(self.rows)
        self.right = identity_matrix(self.cols)
        self.det_left = 1
        self.det_right = 1

    def swap_rows(self, i, j):
        if i == j:
            return
        self.m[i], self.m[j] = self.m[j], self.m[i]
        self.left[i], self.left[j] = self.left[j], self.left[i]
        self.det_left = -self.det_left

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.m:
            row[i], row[j] = row[j], row[i]
        for row in self.right:
            row[i], row[j] = row[j], row[i]
        self.det_right = -self.det_right

    def negate_row(self, i):
        self.m[i] = [-x for x in self.m[i]]
        self.left[i] = [-x for x in self.left[i]]
        self.det_left = -self.det_left

    def add_row(self, src, dst, c):
        # row[dst] += c * row[src]
        self.m[dst] = [x + c * y for x, y in zip(self.m[dst], self.m[src])]
        self.left[dst] = [x + c * y for x, y in zip(self.left[dst], self.left[src])]

    def add_col(self, src, dst, c):
        for row in self.m:
            row[dst] += c * row[src]
        for row in self.right:
            row[dst] += c * row[src]

    def combine_rows(self, i, j, col):
        """Row-unimodular 2x2 combo putting gcd(m[i][col], m[j][col]) at (i, col)."""
        a, b = self.m[i][col], self.m[j][col]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            self.add_row(i, j, -(b // a))
            return
        g, x, y = _xgcd(a, b)
        ag, bg = a // g, b // g
        mi, mj = self.m[i], self.m[j]
        li, lj = self.left[i], self.left[j]
        self.m[i] = [x * u + y * v for u, v in zip(mi, mj)]
        self.m[j] = [-bg * u + ag * v for u, v in zip(mi, mj)]
        self.left[i] = [x * u + y * v for u, v in zip(li, lj)]
        self.left[j] = [-bg * u + ag * v for u, v in zip(li, lj)]
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
        for rrow in self.right:
            u, v = rrow[i], rrow[j]
            rrow[i] = x * u + y * v
            rrow[j] = -bg * u + ag * v


def smith_normal_form(a):
    """Smith normal form with transforms; deterministic min-abs pivoting."""
    w = _SNFWork(a)
    m, rows, cols = w.m, w.rows, w.cols
    t = 0
    while True:
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = m[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best, piv = abs(v), (i, j)
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
        if t == min(rows, cols):
            break
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
    diagonal = [m[i][i] for i in range(t)]
    result = SNFResult(
        diagonal=diagonal,
        rank=t,
        left=w.left,
        right=w.right,
        shape=(rows, cols),
    )
    result.verify(a)
    assert abs(w.det_left) == 1 and abs(w.det_right) == 1
    return result


def cokernel_invariants(a, ambient_rank):
    """Invariant factors of Z^ambient / column span of A (rows = ambient).

    Returns (free_rank, torsion) where torsion lists the factors > 1.
    """
    if not a or not a[0]:
        return ambient_rank, []
    snf = smith_normal_form(a)
    torsion = [d for d in snf.diagonal if d > 1]
    return ambient_rank - snf.rank, torsion


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
    dims = [r * c.quotient_order for r in c.ranks]
    n = len(dims) - 1
    if fieldspec == "Q":
        snfs = [smith_normal_form(b) if b and b[0] else None for b in c.boundaries]
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
        ranks = [rank_mod_p(b, p) if b and b[0] else 0 for b in c.boundaries]
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
    assert len(ranks) == n + 1, "need exactly n+1 ranks"
    mu = sum((-1) ** (n - i) * f for i, f in enumerate(ranks))
    chi = sum((-1) ** i * f for i, f in enumerate(ranks))
    return EulerData(n=n, ranks=ranks, mu=mu, chi=chi, nu2=mu if n == 2 else None)


def morse_check(b, e):
    """Morse inequality sum_i (-1)^(n-i) b_i <= mu_n; returns (holds, slack)."""
    n = e.n
    assert len(b.b) >= n + 1, "Betti vector too short for this degree"
    lhs = sum((-1) ** (n - i) * b.b[i] for i in range(n + 1))
    slack = e.mu - lhs
    return slack >= 0, slack
