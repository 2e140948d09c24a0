"""Exact integer matrix arithmetic: Smith normal form and lattice subquotients.

All computations use Python integers, so there is no overflow and no loss of
precision anywhere.  Lattices rest on one routine, the reduced row echelon
form of `_echelon` (Kannan and Bachem 1979).  A lattice given by generators
is kept as its echelon basis: coordinates and membership are read off it
pivot by pivot (`_coordinates`), and `solution_lattice` finds the x with
C x in a relation lattice from the rows of one echelon per map whose first
part vanishes, skipping a later map that its basis already satisfies.  The
Smith form U * A * V = S, with U and V unimodular and S diagonal with each
entry dividing the next, is built from alternating echelon sweeps.  It is
computed where invariants are read (the cyclic decomposition of a
subquotient, `cokernel_structure`) and by the public `kernel_basis` and
`solve`.  Determinants and exact inverses come from fraction-free Bareiss
elimination (`_bareiss`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[int, ...]


class IntMatrix:
    """Immutable integer matrix.

    Rows are stored as a tuple of tuples, which makes instances hashable and
    safe to share.  Zero-row and zero-column shapes are allowed; the column
    count is kept explicitly so empty matrices still know their width.

    The constructor, `from_columns`, `diagonal` and `scale` take entries from
    outside and convert each through `int()`, rejecting ragged rows.  Results
    built from entries that are already Python ints (`identity`, `zeros`,
    sums, negations and products) go through `_wrap`, which does not check.
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
    def _wrap(cls, rows: Sequence[Sequence[int]], ncols: int) -> "IntMatrix":
        """A matrix over rows of Python ints of width ncols, taken as given."""
        M = cls.__new__(cls)
        M.rows = tuple(map(tuple, rows))
        M.nrows = len(M.rows)
        M.ncols = ncols
        return M

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._wrap([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls._wrap([[0] * n for _ in range(m)], n)

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
        """The product, each of its rows a sum of rows of other: one per
        nonzero entry of the matching row of self."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ocols = other.ncols
        out = []
        for ri in self.rows:
            acc = [0] * ocols
            for a, b in zip(ri, other.rows):
                if a:
                    acc = [s + a * t for s, t in zip(acc, b)]
            out.append(acc)
        return IntMatrix._wrap(out, ocols)

    def apply(self, v: Sequence[int]) -> Vector:
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} does not match {self.shape}")
        return tuple(sum(map(mul, row, v)) for row in self.rows)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return IntMatrix._wrap([[a + b for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.rows, other.rows)], self.ncols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._wrap([[-a for a in row] for row in self.rows], self.ncols)

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


def _echelon(rows: list[list[int]], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Row echelon form of augmented rows [s | t], built by insertion.

    The first n entries s of a row are its matrix part and the rest t its
    transform part, which every operation carries along.  A transform part
    may end early, its missing entries being zeros, as long as no row is
    shorter than one before it: identity rows cost nothing past their one,
    and placed rows are padded when a longer row arrives.

    Rows are inserted one at a time (Kannan and Bachem 1979).  A new row is
    cleared down the pivots in column order: one exact subtraction when the
    pivot divides its entry, otherwise a two-by-two Bezout step that
    replaces the pivot by the gcd.  After each insertion, every pivot that
    it placed or changed reduces the entries above it into [0, pivot), left
    to right.  So the echelon stays near the Hermite form of the rows
    inserted so far, and its entries stay near the size of the minors of
    those rows.  Pivots are positive.

    Returns the pivot rows in order of their pivot columns, and the rows
    whose matrix part vanished, in insertion order.
    """
    piv: list[list[int]] = []
    cols: list[int] = []
    zero = []
    width = 0
    for r in rows:
        if len(r) > width:
            pad = [0] * (len(r) - width)
            for P in piv:
                P += pad
            width = len(r)
        changed = []
        c = 0
        while c < n and not r[c]:
            c += 1
        i = 0
        k = len(cols)
        while c < n:
            while i < k and cols[i] < c:
                i += 1
            if i == k or cols[i] > c:
                if r[c] < 0:
                    r[c:] = [-x for x in r[c:]]
                piv.insert(i, r)
                cols.insert(i, c)
                changed.append(i)
                break
            P = piv[i]
            a = P[c]
            b = r[c]
            if b % a:
                g, x, y = _bezout(a, b)
                a //= g
                b //= g
                Pc, rc = P[c:], r[c:]
                P[c:] = [x * p + y * s for p, s in zip(Pc, rc)]
                r[c:] = [a * s - b * p for p, s in zip(Pc, rc)]
                changed.append(i)
            else:
                q = b // a
                r[c:] = [s - q * p for s, p in zip(r[c:], P[c:])]
            c += 1
            while c < n and not r[c]:
                c += 1
            i += 1
        else:
            zero.append(r)
        # changed pivots come in column order, and an insertion lands after
        # every pivot it changed, so these indices are still current
        for i in changed:
            c = cols[i]
            P = piv[i][c:]
            p = P[0]
            for R in piv[:i]:
                q = R[c] // p
                if q:
                    R[c:] = [s - q * t for s, t in zip(R[c:], P)]
    return piv, zero


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms.

    Returns S, U, V with U @ A @ V == S, det(U) = +-1, det(V) = +-1, S diagonal
    with nonnegative entries d1 | d2 | ... and zero entries trailing.

    S is reached through Hermite forms (Kannan and Bachem 1979).  A row
    sweep puts [A | I] in reduced echelon form (`_echelon`); its rows with a
    zero matrix part are the last rows of U.  A column sweep does the same
    to the r = rank(A) nonzero rows, over [S^T | I]; its zero rows are the
    last columns of V.  What is left is an r x r triangular matrix, and row
    and column sweeps alternate on it until it is diagonal.  Two-by-two
    steps on the diagonal alone then turn each pair (a, b) with a not
    dividing b into (gcd, lcm).  Because every sweep keeps its echelon
    reduced, the entries of U and V stay near the size of the largest
    minors of A, where unreduced elimination can grow them without bound
    (README states the bound the tests hold them to).  The transforms are
    one deterministic choice among many; S is unique.
    """
    m, n = A.shape
    piv, zero = _echelon([list(row) + [0] * i + [1] for i, row in enumerate(A.rows)], n)
    r = len(piv)
    # transforms as rows of U and of V^T; rows past r stay as the sweeps left them
    trans = [_transforms(piv + zero, n, m)]
    piv, zero = _echelon([[P[j] for P in piv] + [0] * j + [1] for j in range(n)], r)
    trans.append(_transforms(piv + zero, r, n))
    # T is upper triangular: S^T after a column sweep, S after a row sweep;
    # the columns of T are the lines the next sweep inserts
    T = [P[:r] for P in piv]
    side = 0
    while any(any(row[i + 1:]) for i, row in enumerate(T)):
        piv, _ = _echelon([list(col) + t for col, t in zip(zip(*T), trans[side])], r)
        trans[side][:r] = [P[r:] for P in piv]
        T = [P[:r] for P in piv]
        side ^= 1
    U, VT = trans
    d = [T[i][i] for i in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            a, b = d[i], d[j]
            if b % a:
                # diag(a, b) -> diag(g, ab/g) with [[x, y], [-b/g, a/g]] on
                # the left and [[1, -yb/g], [1, xa/g]] on the right
                g, x, y = _bezout(a, b)
                a //= g
                b //= g
                Ui, Uj = U[i], U[j]
                U[i] = [x * s + y * t for s, t in zip(Ui, Uj)]
                U[j] = [a * t - b * s for s, t in zip(Ui, Uj)]
                Vi, Vj = VT[i], VT[j]
                yb, xa = y * b, x * a
                VT[i] = [s + t for s, t in zip(Vi, Vj)]
                VT[j] = [xa * t - yb * s for s, t in zip(Vi, Vj)]
                d[i], d[j] = g, a * b * g
    S = [[0] * n for _ in range(m)]
    for i in range(r):
        S[i][i] = d[i]
    return SmithDecomposition(S=IntMatrix._wrap(S, n), U=IntMatrix._wrap(U, m),
                              V=IntMatrix._wrap(zip(*VT), n))


def _transforms(rows: list[list[int]], start: int, size: int) -> list[list[int]]:
    """The transform parts of augmented rows, padded with zeros to size."""
    return [R[start:] + [0] * (start + size - len(R)) for R in rows]


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


def _lattice_basis(vectors: Iterable[Sequence[int]], n: int) -> list[tuple[int, Vector]]:
    """The reduced echelon basis of the lattice spanned by vectors of length n,
    as (c, P[c:]) for each basis row P with pivot column c."""
    piv, _ = _echelon([list(v) for v in IntMatrix(vectors, ncols=n).rows], n)
    cols = [next(i for i, x in enumerate(P) if x) for P in piv]
    return [(c, tuple(P[c:])) for c, P in zip(cols, piv)]


def _coordinates(basis: Sequence[tuple[int, Vector]], v: Sequence[int], n: int) -> Vector | None:
    """Coordinates of a vector v of length n over an echelon basis
    (`_lattice_basis`), or None when v lies outside the lattice.

    Each pivot in turn divides its entry of v, and that multiple of its row
    is subtracted; v lies in the lattice exactly when every division is
    exact and nothing is left.
    """
    if len(v) != n:
        raise ValueError(f"vector length {len(v)} does not match dimension {n}")
    v = list(v)
    out = []
    for c, P in basis:
        q, rem = divmod(v[c], P[0])
        if rem:
            return None
        if q:
            v[c:] = [s - q * p for s, p in zip(v[c:], P)]
        out.append(q)
    return None if any(v) else tuple(out)


def solution_lattice(dim: int, maps: Sequence[IntMatrix],
                     relations: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis of the lattice {x in Z^dim : C x in lattice(relations) for every C in maps}.

    The maps are intersected one at a time, starting from the standard
    basis of Z^dim.  For a map C and the current basis x_1..x_k, one
    product C X, with the x_j as the columns of X, gives every image C x_j.

    From the second map on, a map whose images all lie in the relation
    lattice (are all zero, when there are no relations) keeps the basis as
    it is.  Membership is read off one echelon of the relations
    (`_coordinates`), built the first time it is needed.  The first map is
    always solved: the basis is then all of Z^dim, which a map rarely keeps.

    Otherwise one echelon (`_echelon`) of the rows [r | 0], one per
    relation r, and [C x_j | x_j] keeps the rows whose first part vanished:
    their tails are combinations x of the x_j with C x in the relation
    lattice, and every such x is a combination of them.  The relation rows
    go first, so one that depends on the others vanishes whole and is
    dropped; the other tails come from independent rows and form the next
    basis.
    """
    basis = list(IntMatrix.identity(dim).rows)
    rel_basis = None
    for i, C in enumerate(maps):
        if not basis:
            break
        m = C.nrows
        CX = C @ IntMatrix._wrap(zip(*basis), len(basis))
        # the columns of C X; a map with no rows sends every x to ()
        images = list(zip(*CX.rows)) or [()] * len(basis)
        if i:
            if rel_basis is None:
                rel_basis = _lattice_basis(relations, m)
            if all(_coordinates(rel_basis, y, m) is not None for y in images):
                continue
        rows = [list(r) for r in relations] + [[*y, *x] for y, x in zip(images, basis)]
        _, zero = _echelon(rows, m)
        basis = [tuple(R[m:]) for R in zero if any(R[m:])]
    return basis


def reduce_mod(coords: Sequence[int], invariants: Sequence[int]) -> Vector:
    """Each coordinate modulo its cyclic order; free coordinates (order 0) kept."""
    return tuple(c % d if d != 0 else c for c, d in zip(coords, invariants))


def _combination(coeffs: Sequence[int], vectors: Sequence[Sequence[int]], n: int) -> Vector:
    """The sum of c * v over coefficients c and vectors v of length n."""
    return tuple(sum(c * v[k] for c, v in zip(coeffs, vectors)) for k in range(n))


class LatticeSubquotient:
    """The finitely generated abelian group (numerator lattice)/(denominator lattice).

    Both lattices live in Z^ambient_dim and are given by generating vectors;
    the denominator must be contained in the numerator.  The numerator is
    kept as its reduced echelon basis (`_echelon`), which gives the basis
    coordinates of every vector (`_coordinates`) and decides membership on
    the way.  A Smith decomposition U X V = S of the denominator's basis
    coordinates X then reads off the invariants, and the columns of U^-1
    give the generators.

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
        self._basis = _lattice_basis(numerator_gens, ambient_dim)
        r = len(self._basis)

        den_cols = []
        for g in denominator_gens:
            x = _coordinates(self._basis, g, ambient_dim)
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
        basis = [(0,) * c + P for c, P in self._basis]
        self.generators: list[Vector] = [_combination(ux_inv.col(i), basis, ambient_dim)
                                         for i in kept]
        self.order: int | None = prod(self.invariants) if all(self.invariants) else None

    def contains(self, v: Sequence[int]) -> bool:
        """Membership of an ambient vector in the numerator lattice."""
        return _coordinates(self._basis, v, self.ambient_dim) is not None

    def coords(self, v: Sequence[int]) -> Vector:
        """Coordinates of an ambient vector, reduced modulo the invariants.

        Raises ValueError when v is not in the numerator lattice.
        """
        y = _coordinates(self._basis, v, self.ambient_dim)
        if y is None:
            raise ValueError("vector not in the numerator lattice")
        w = self._ux.apply(y)
        return self.reduce_coords([w[i] for i in self._kept])

    def lift(self, coords: Sequence[int]) -> Vector:
        """An ambient representative of the element with the given coordinates."""
        if len(coords) != len(self.generators):
            raise ValueError("coordinate length mismatch")
        return _combination(coords, self.generators, self.ambient_dim)

    def is_zero_element(self, v: Sequence[int]) -> bool:
        return all(c == 0 for c in self.coords(v))

    @property
    def is_trivial(self) -> bool:
        return not self.invariants

    def reduce_coords(self, coords: Sequence[int]) -> Vector:
        """Normalize a raw coordinate tuple modulo the invariants."""
        if len(coords) != len(self.invariants):
            raise ValueError("coordinate length mismatch")
        return reduce_mod(coords, self.invariants)
