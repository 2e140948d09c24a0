"""Exact integer matrix arithmetic: Smith normal form and lattice subquotients.

All computations use Python integers, so there is no overflow and no loss of
precision anywhere.  The central decomposition is U * A * V = S with U and V
unimodular and S diagonal, the diagonal entries nonnegative and each dividing
the next.  Kernels, cokernels, integer linear solving, and finitely generated
subquotients of Z^n all reduce to that decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Vector = tuple[int, ...]


class IntMatrix:
    """Immutable integer matrix.

    Rows are stored as a tuple of tuples, which makes instances hashable and
    safe to share.  Zero-row and zero-column shapes are allowed; the column
    count is kept explicitly so empty matrices still know their width.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rs = tuple(tuple(int(x) for x in row) for row in rows)
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("explicit ncols does not match row width")
            ncols = width
        elif ncols is None:
            ncols = 0
        self.rows = rs
        self.nrows = len(rs)
        self.ncols = ncols

    # -- construction helpers ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(m)], ncols=n)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], nrows: int | None = None) -> "IntMatrix":
        """Build a matrix whose columns are the given vectors."""
        cols = [tuple(c) for c in cols]
        if cols:
            if nrows is not None and nrows != len(cols[0]):
                raise ValueError("explicit nrows does not match column height")
            nrows = len(cols[0])
            if any(len(c) != nrows for c in cols):
                raise ValueError("ragged columns")
        elif nrows is None:
            nrows = 0
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(nrows)], ncols=len(cols))

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    # -- basic structure -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def col(self, j: int) -> Vector:
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def columns(self) -> list[Vector]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
                         ncols=self.nrows)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ocols = other.ncols
        out = []
        for i in range(self.nrows):
            ri = self.rows[i]
            out.append([sum(ri[k] * other.rows[k][j] for k in range(self.ncols))
                        for j in range(ocols)])
        return IntMatrix(out, ncols=ocols)

    def apply(self, v: Sequence[int]) -> Vector:
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} does not match {self.shape}")
        return tuple(sum(row[k] * v[k] for k in range(self.ncols)) for row in self.rows)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return IntMatrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
                         ncols=self.ncols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in row] for row in self.rows], ncols=self.ncols)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * a for a in row] for row in self.rows], ncols=self.ncols)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntMatrix)
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"

    def det(self) -> int:
        """Exact determinant by the Bareiss fraction-free algorithm."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _bareiss(self.rows, [()] * self.nrows)[1]


def hstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise ValueError("hstack of nothing")
    m = mats[0].nrows
    if any(a.nrows != m for a in mats):
        raise ValueError("row count mismatch in hstack")
    rows = [[x for a in mats for x in a.rows[i]] for i in range(m)]
    return IntMatrix(rows, ncols=sum(a.ncols for a in mats))


def vstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise ValueError("vstack of nothing")
    n = mats[0].ncols
    if any(a.ncols != n for a in mats):
        raise ValueError("column count mismatch in vstack")
    return IntMatrix([row for a in mats for row in a.rows], ncols=n)


def block_diagonal(mats: Sequence[IntMatrix]) -> IntMatrix:
    total_r = sum(a.nrows for a in mats)
    total_c = sum(a.ncols for a in mats)
    out = [[0] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for a in mats:
        for i in range(a.nrows):
            out[r0 + i][c0:c0 + a.ncols] = list(a.rows[i])
        r0 += a.nrows
        c0 += a.ncols
    return IntMatrix(out, ncols=total_c)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == S with U, V unimodular and S in Smith normal form."""

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S.rows[i][i] for i in range(min(self.S.nrows, self.S.ncols)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """gcd(a, b) >= 0 together with coefficients x, y with x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms.

    Returns S, U, V with U @ A @ V == S, det(U) = +-1, det(V) = +-1, S diagonal
    with nonnegative entries d1 | d2 | ... and zero entries trailing.

    Entries in the pivot's row and column are cleared with two-by-two Bezout
    transforms, which turn the pivot into a gcd in a single step instead of
    chipping at it with repeated division; the pivot value strictly decreases
    whenever a cleared entry was not a multiple of it, so each stage
    terminates without the entry blow-up of the naive remainder dance.
    Divisibility of later pivots is forced by folding any non-divisible entry
    into the pivot row before moving on.
    """
    m, n = A.shape
    S = [list(row) for row in A.rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_add(i: int, j: int, c: int) -> None:
        # row i += c * row j, applied to S and U alike
        S[i] = [a + c * b for a, b in zip(S[i], S[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def row_swap(i: int, j: int) -> None:
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def row_negate(i: int) -> None:
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]

    def row_combine(i: int, j: int, x: int, y: int, u: int, v: int) -> None:
        # (row i, row j) <- (x*row i + y*row j, u*row i + v*row j)
        for M in (S, U):
            ri, rj = M[i], M[j]
            M[i] = [x * a + y * b for a, b in zip(ri, rj)]
            M[j] = [u * a + v * b for a, b in zip(ri, rj)]

    def col_add(j: int, k: int, c: int) -> None:
        # column j += c * column k, applied to S and V alike
        for r in S:
            r[j] += c * r[k]
        for r in V:
            r[j] += c * r[k]

    def col_swap(j: int, k: int) -> None:
        for r in S:
            r[j], r[k] = r[k], r[j]
        for r in V:
            r[j], r[k] = r[k], r[j]

    def col_combine(j: int, k: int, x: int, y: int, u: int, v: int) -> None:
        # (col j, col k) <- (x*col j + y*col k, u*col j + v*col k)
        for M in (S, V):
            for r in M:
                a, b = r[j], r[k]
                r[j] = x * a + y * b
                r[k] = u * a + v * b

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = S[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                b = S[i][t]
                if b == 0:
                    continue
                a = S[t][t]
                if b % a == 0:
                    row_add(i, t, -(b // a))
                else:
                    g, x, y = _bezout(a, b)
                    row_combine(t, i, x, y, -(b // g), a // g)
            dirty = False
            for j in range(t + 1, n):
                b = S[t][j]
                if b == 0:
                    continue
                a = S[t][t]
                if b % a == 0:
                    col_add(j, t, -(b // a))
                else:
                    g, x, y = _bezout(a, b)
                    col_combine(t, j, x, y, -(b // g), a // g)
                    # a column transform mixes column t with column j in
                    # every row, so the cleared part of column t is dirty
                    dirty = True
            if dirty and any(S[i][t] for i in range(t + 1, m)):
                continue
            # pivot now clears its row and column; force divisibility
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % S[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1

    for i in range(min(m, n)):
        if S[i][i] < 0:
            row_negate(i)

    diag = [S[i][i] for i in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            raise AssertionError("zero diagonal entry before a nonzero one")
        if a != 0 and b % a != 0:
            raise AssertionError("Smith diagonal not a divisibility chain")

    return SmithDecomposition(S=IntMatrix(S, ncols=n), U=IntMatrix(U, ncols=m),
                              V=IntMatrix(V, ncols=n))


def kernel_basis(A: IntMatrix, dec: SmithDecomposition | None = None) -> list[Vector]:
    """Basis of the integer kernel lattice of A.

    The basis is the set of columns of V sitting over zero columns of S, which
    is automatically a basis of a direct summand of Z^n (the kernel of an
    integer matrix is always saturated).
    """
    if dec is None:
        dec = smith_normal_form(A)
    n = A.ncols
    diag = dec.diagonal
    out = []
    for j in range(n):
        if j >= len(diag) or diag[j] == 0:
            out.append(dec.V.col(j))
    return out


def cokernel_structure(A: IntMatrix, dec: SmithDecomposition | None = None) -> tuple[int, tuple[int, ...]]:
    """Structure of Z^m / (column space of A) as (free_rank, torsion_invariants).

    Torsion invariants are the Smith diagonal entries greater than 1, in
    divisibility order.
    """
    if dec is None:
        dec = smith_normal_form(A)
    diag = dec.diagonal
    free = A.nrows - sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return free, torsion


def solve(A: IntMatrix, b: Sequence[int], dec: SmithDecomposition | None = None) -> Vector | None:
    """One integer solution x of A x = b, or None when none exists."""
    if len(b) != A.nrows:
        raise ValueError("right-hand side has wrong length")
    if dec is None:
        dec = smith_normal_form(A)
    c = dec.U.apply(b)
    diag = dec.diagonal
    y = [0] * A.ncols
    for i in range(A.nrows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return dec.V.apply(y)


def _bareiss(A: Sequence[Sequence[int]],
             B: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination of [A | B] (Bareiss 1968).

    A is square and B has as many rows.  Returns (X, d) with A X = d B and
    d = det(A), all in integers: every division below is exact, and when
    the elimination ends each pivot equals det(A) up to the sign of the row
    swaps.  When A is singular, d is 0 and X is empty.
    """
    n = len(A)
    m = [list(a) + list(b) for a, b in zip(A, B)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return [], 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot_row = m[k]
        akk = pivot_row[k]
        for i in range(n):
            aik = m[i][k]
            if i == k or (aik == 0 and akk == prev):
                continue  # the update would leave row i as it is
            m[i] = [(akk * x - aik * y) // prev for x, y in zip(m[i], pivot_row)]
        prev = akk
    return [[sign * x for x in row[n:]] for row in m], sign * prev


def unimodular_inverse(M: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1.

    One fraction-free solve M X = d I; M is unimodular exactly when d = +-1,
    and then the inverse is d X.
    """
    if M.nrows != M.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = M.nrows
    X, d = _bareiss(M.rows, IntMatrix.identity(n).rows)
    if d == 0:
        raise ValueError("matrix is singular")
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return IntMatrix([[d * x for x in row] for row in X], ncols=n)


def solution_lattice(dim: int,
                     blocks: Sequence[tuple[IntMatrix, Sequence[Sequence[int]]]]) -> list[Vector]:
    """Generators of the lattice {x in Z^dim : C x in lattice(R) for every block (C, R)}.

    Each block contributes the condition that C x lies in the lattice spanned
    by the columns R.  Blocks are intersected one at a time, so each Smith
    computation stays at the size of a single block instead of the full
    stacked system.
    """
    L = IntMatrix.identity(dim)
    for C, rels in blocks:
        if L.ncols == 0:
            break
        reduced = C @ L
        R = IntMatrix.from_columns([tuple(r) for r in rels], nrows=C.nrows)
        big = hstack(reduced, R.scale(-1)) if R.ncols else reduced
        ker = kernel_basis(big)
        T = IntMatrix.from_columns([v[:L.ncols] for v in ker], nrows=L.ncols)
        L = L @ T
    return L.columns()


class LatticeSubquotient:
    """The finitely generated abelian group (numerator lattice)/(denominator lattice).

    Both lattices live in Z^ambient_dim and are given by generating vectors;
    the denominator must be contained in the numerator.  The group is put in
    coordinates by two Smith decompositions.  The first, U num V = S with
    rank r and diagonal d_1..d_r, gives a basis of the numerator lattice
    (the first r columns of num V, which equal U^-1 S) and with it the basis
    coordinates of every vector: (U v)_i / d_i for i < r, where v lies in
    the lattice exactly when these divisions are exact and (U v)_i = 0 for
    i >= r.  The second diagonalizes the denominator's basis coordinates.

    Attributes:
        invariants: cyclic decomposition orders, torsion entries first in
            divisibility order, then one 0 per free summand.  Entries equal
            to 1 are dropped.
        generators: ambient representatives, one per invariant.
        order: group order, or None when there is a free part.
    """

    def __init__(self, ambient_dim: int,
                 numerator_gens: Sequence[Sequence[int]],
                 denominator_gens: Sequence[Sequence[int]]):
        self.ambient_dim = ambient_dim
        num = IntMatrix.from_columns(numerator_gens, nrows=ambient_dim)
        dec_num = smith_normal_form(num)
        r = dec_num.rank
        self._u = dec_num.U
        self._d = dec_num.diagonal[:r]
        basis = IntMatrix.from_columns((num @ dec_num.V).columns()[:r], nrows=ambient_dim)

        den_cols = []
        for g in denominator_gens:
            x = self._basis_coords(g)
            if x is None:
                raise ValueError("denominator generator lies outside the numerator lattice")
            den_cols.append(x)
        X = IntMatrix.from_columns(den_cols, nrows=r)
        dec_x = smith_normal_form(X)
        xdiag = dec_x.diagonal
        full = [xdiag[i] if i < len(xdiag) else 0 for i in range(r)]
        self._ux = dec_x.U
        ux_inv = unimodular_inverse(dec_x.U)
        kept = [i for i in range(r) if full[i] != 1]
        self._kept = kept
        self.invariants: tuple[int, ...] = tuple(full[i] for i in kept)
        gen_matrix = basis @ ux_inv
        self.generators: list[Vector] = [gen_matrix.col(i) for i in kept]
        self.order: int | None = None
        if all(d != 0 for d in self.invariants):
            o = 1
            for d in self.invariants:
                o *= d
            self.order = o

    def _basis_coords(self, v: Sequence[int]) -> Vector | None:
        """Coordinates of v in the numerator basis, or None when v is outside."""
        c = self._u.apply(v)
        r = len(self._d)
        if any(c[r:]) or any(ci % d for ci, d in zip(c, self._d)):
            return None
        return tuple(ci // d for ci, d in zip(c, self._d))

    def contains(self, v: Sequence[int]) -> bool:
        """Membership of an ambient vector in the numerator lattice."""
        return self._basis_coords(v) is not None

    def coords(self, v: Sequence[int]) -> Vector:
        """Coordinates of an ambient vector, reduced modulo the invariants.

        Raises ValueError when v is not in the numerator lattice.
        """
        y = self._basis_coords(v)
        if y is None:
            raise ValueError("vector not in the numerator lattice")
        w = self._ux.apply(y)
        out = []
        for pos, i in enumerate(self._kept):
            d = self.invariants[pos]
            out.append(w[i] % d if d != 0 else w[i])
        return tuple(out)

    def lift(self, coords: Sequence[int]) -> Vector:
        """An ambient representative of the element with the given coordinates."""
        if len(coords) != len(self.generators):
            raise ValueError("coordinate length mismatch")
        v = [0] * self.ambient_dim
        for c, g in zip(coords, self.generators):
            for k in range(self.ambient_dim):
                v[k] += c * g[k]
        return tuple(v)

    def is_zero_element(self, v: Sequence[int]) -> bool:
        return all(c == 0 for c in self.coords(v))

    @property
    def is_trivial(self) -> bool:
        return not self.invariants

    def reduce_coords(self, coords: Sequence[int]) -> Vector:
        """Normalize a raw coordinate tuple modulo the invariants."""
        if len(coords) != len(self.invariants):
            raise ValueError("coordinate length mismatch")
        return tuple(c % d if d != 0 else c for c, d in zip(coords, self.invariants))
