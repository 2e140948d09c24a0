"""Tests for exact integer matrix arithmetic and lattice subquotients."""

import math
import random
from fractions import Fraction
from itertools import chain, combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatelet import intmat
from chatelet.cli import _as_matrix
from chatelet.groups import cyclic_group
from chatelet.intmat import (
    IntMatrix,
    LatticeSubquotient,
    _bareiss,
    block_diagonal,
    cokernel_structure,
    hstack,
    kernel_basis,
    smith_normal_form,
    solution_lattice,
    solve,
    unimodular_inverse,
    vstack,
)
from chatelet.modules import GModule, trivial_module

from helpers import (
    first_map_by_identity_product,
    solution_lattice_by_smith,
    subquotient_by_full_transform,
)


def random_matrix(rng, m, n, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def minor_gcds(A):
    """gcd of all k x k minors for each k, the classical Smith invariant oracle."""
    m, n = A.shape
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = IntMatrix([[A.rows[i][j] for j in cols] for i in rows])
                g = math.gcd(g, sub.det())
        out.append(g)
    return out


def test_snf_known_values():
    dec = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert dec.diagonal == (1, 6)
    dec = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert dec.diagonal == (2, 4)
    dec = smith_normal_form(IntMatrix.zeros(3, 2))
    assert dec.diagonal == (0, 0)


def test_non_integer_entries_are_refused():
    # int() would truncate these: the Smith form of [[2.9]] would read (2,)
    with pytest.raises(TypeError):
        smith_normal_form(IntMatrix([[2.9]]))
    with pytest.raises(TypeError):
        IntMatrix([[2.7, "3"]])
    assert IntMatrix([[True, -3]]).rows == ((1, -3),)


def test_lattice_subquotient_refuses_non_integer_generators():
    # a trivial quotient is decided without a Smith form, so the
    # denominator is converted where it comes in, not by a later builder
    for num, den in (([[1]], [[1.0]]), ([[1]], [[2.0]]), ([[1.0]], [[1]]), ([[2.5]], [])):
        with pytest.raises(TypeError):
            LatticeSubquotient(1, num, den)
    assert LatticeSubquotient(1, [[True]], [[2]]).invariants == (2,)


def test_generators_and_relations_of_the_wrong_length_are_refused():
    # the echelon behind a lattice takes rows as given, so each entry point
    # checks lengths itself
    for num in ([[1, 0], [0]], [[1, 0, 0]], [[1]]):
        with pytest.raises(ValueError):
            LatticeSubquotient(2, num, [])
    G = cyclic_group(2)
    eye = IntMatrix.identity(2)
    for relations in ([(2,)], [(2, 0, 0)], [(2, 0), (1,)]):
        with pytest.raises(ValueError):
            GModule(G, 2, relations, [eye, eye], check=False)
    assert GModule(G, 2, [(2, 0)], [eye, eye], check=False).relations == ((2, 0),)


def test_every_public_builder_refuses_non_integers():
    # the builders that take entries from outside convert them through
    # operator.index; only the library's own builders, over entries that
    # are already ints, skip the check
    for build in (lambda: IntMatrix([[1.5]]),
                  lambda: IntMatrix.from_columns([[1.5]]),
                  lambda: IntMatrix.from_columns([[1], ["2"]]),
                  lambda: IntMatrix.diagonal([1.5]),
                  lambda: IntMatrix([[1]]).scale(1.5)):
        with pytest.raises(TypeError):
            build()
    # a job document's matrix is refused with a message, not a traceback
    errors = []
    assert _as_matrix([[1, 1.5]], "m", errors) is None
    assert errors
    assert _as_matrix([[1, 2]], "m", []) == IntMatrix([[1, 2]])


def test_snf_decomposition_property():
    rng = random.Random(2024)
    for _ in range(150):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = random_matrix(rng, m, n)
        dec = smith_normal_form(A)
        assert dec.U @ A @ dec.V == dec.S
        assert abs(dec.U.det()) == 1
        assert abs(dec.V.det()) == 1
        diag = dec.diagonal
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # off-diagonal entries of S vanish
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert dec.S.rows[i][j] == 0


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(77)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_matrix(rng, m, n, bound=6)
        diag = smith_normal_form(A).diagonal
        gs = minor_gcds(A)
        prev = 1
        for k, g in enumerate(gs):
            if g == 0:
                assert diag[k] == 0
            else:
                assert diag[k] == g // prev
                prev = g


def test_kernel_basis():
    rng = random.Random(5)
    for _ in range(80):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        dec = smith_normal_form(A)
        ker = kernel_basis(A, dec)
        assert len(ker) == n - dec.rank
        for v in ker:
            assert A.apply(v) == tuple([0] * m)
        # random combinations stay in the kernel
        if ker:
            coeffs = [rng.randint(-3, 3) for _ in ker]
            combo = [sum(c * v[i] for c, v in zip(coeffs, ker)) for i in range(n)]
            assert A.apply(combo) == tuple([0] * m)


def test_cokernel_structure():
    assert cokernel_structure(IntMatrix([[2, 0], [0, 3]])) == (0, (6,))
    assert cokernel_structure(IntMatrix([[2, 4], [6, 8]])) == (0, (2, 4))
    assert cokernel_structure(IntMatrix.zeros(2, 1)) == (2, ())
    assert cokernel_structure(IntMatrix([[1, 0], [0, 1]])) == (0, ())
    free, torsion = cokernel_structure(IntMatrix([[2, 0], [0, 0]]))
    assert free == 1 and torsion == (2,)


def test_solve_roundtrip():
    rng = random.Random(31)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = A.apply(x)
        got = solve(A, b)
        assert got is not None
        assert A.apply(got) == b


def test_solve_unsolvable():
    assert solve(IntMatrix([[2]]), (1,)) is None
    assert solve(IntMatrix([[1], [0]]), (0, 3)) is None
    assert solve(IntMatrix.zeros(1, 0), (5,)) is None
    assert solve(IntMatrix.zeros(1, 0), (0,)) == ()


def test_unimodular_inverse():
    rng = random.Random(9)
    sizes = chain((rng.randint(1, 5) for _ in range(40)), range(6, 17))
    for n in sizes:
        # random unimodular matrix as a product of elementary operations
        M = IntMatrix.identity(n)
        rows = [list(r) for r in M.rows]
        for _ in range(12 if n <= 5 else 4 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        M = IntMatrix(rows)
        inv = unimodular_inverse(M)
        assert M @ inv == IntMatrix.identity(n)
        assert inv @ M == IntMatrix.identity(n)
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix([[1, 1], [1, 1]]))
    singular = random_matrix(rng, 6, 6).rows
    with pytest.raises(ValueError, match="singular"):
        unimodular_inverse(IntMatrix(singular[:5] + (tuple(2 * x for x in singular[0]),)))

    # the shared solve itself: A X = d B with d = det(A), for A not unimodular
    A = IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    B = IntMatrix([[1, 0], [0, 5], [-2, 1]])
    X, d = _bareiss(A.rows, B.rows)
    assert d == A.det() == 18
    assert A @ IntMatrix(X) == B.scale(d)
    for n in range(1, 9):
        A = random_matrix(rng, n, n)
        B = random_matrix(rng, n, 2)
        X, d = _bareiss(A.rows, B.rows)
        assert d == A.det()
        if d:
            assert A @ IntMatrix(X, ncols=2) == B.scale(d)
    assert _bareiss([[1, 2], [2, 4]], [[1], [0]]) == ([], 0)


def test_det_matches_fraction_elimination():
    def det_fractions(A):
        n = A.nrows
        a = [[Fraction(x) for x in row] for row in A.rows]
        d = Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                return 0
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                d = -d
            d *= a[col][col]
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(col + 1, n):
                f = a[r][col]
                if f:
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return int(d)

    rng = random.Random(100)
    for _ in range(60):
        n = rng.randint(1, 6)
        A = random_matrix(rng, n, n)
        assert A.det() == det_fractions(A)


def test_stacking_and_blocks():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[5], [6]])
    assert hstack(a, b) == IntMatrix([[1, 2, 5], [3, 4, 6]])
    assert vstack(a, IntMatrix([[7, 8]])) == IntMatrix([[1, 2], [3, 4], [7, 8]])
    blk = block_diagonal([a, IntMatrix([[9]])])
    assert blk == IntMatrix([[1, 2, 0], [3, 4, 0], [0, 0, 9]])


@st.composite
def _products(draw):
    """(A, B) with A m x k and B k x n, each side 0 to 5: dense matrices of
    zeros, +-1 and entries up to 10^30, or mostly-zero ones."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    nonzero = st.one_of(st.sampled_from([1, -1]), st.integers(-10**30, 10**30))
    dense = st.one_of(st.just(0), nonzero)
    sparse = st.integers(0, 9).flatmap(lambda z: nonzero if z == 0 else st.just(0))

    def matrix(rows, cols):
        entry = draw(st.sampled_from([dense, sparse]))
        line = st.lists(entry, min_size=cols, max_size=cols)
        return IntMatrix(draw(st.lists(line, min_size=rows, max_size=rows)), ncols=cols)

    return matrix(m, k), matrix(k, n)


@settings(max_examples=300, deadline=None)
@given(pair=_products())
def test_matmul_equals_the_schoolbook_sum(pair):
    A, B = pair
    (m, k), n = A.shape, B.ncols
    P = A @ B
    assert P.shape == (m, n)
    assert P.rows == tuple(tuple(sum(A.rows[i][l] * B.rows[l][j] for l in range(k))
                                 for j in range(n)) for i in range(m))
    assert all(type(x) is int for row in P.rows for x in row)


def test_matrix_basics():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.transpose() == IntMatrix([[1, 3], [2, 4]])
    assert a.apply((1, 1)) == (3, 7)
    assert a.col(1) == (2, 4)
    assert (a @ IntMatrix.identity(2)) == a
    assert IntMatrix.from_columns([(1, 3), (2, 4)]) == a
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    empty = IntMatrix([], ncols=3)
    assert empty.shape == (0, 3)
    assert empty.transpose().shape == (3, 0)


def test_subquotient_basic():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
    q = LatticeSubquotient(2, [(1, 0), (0, 1)], [(2, 0), (0, 3)])
    assert q.invariants == (6,)
    assert q.order == 6
    g = q.generators[0]
    seen = {tuple(q.coords([k * g[0], k * g[1]])) for k in range(6)}
    assert len(seen) == 6


def test_subquotient_free_part():
    q = LatticeSubquotient(2, [(1, 0), (0, 1)], [(2, 0)])
    assert q.invariants == (2, 0)
    assert q.order is None
    assert not q.is_trivial


def test_subquotient_trivial():
    q = LatticeSubquotient(2, [(1, 0), (0, 1)], [(1, 0), (0, 1)])
    assert q.invariants == ()
    assert q.order == 1
    assert q.is_trivial
    assert q.coords((5, -7)) == ()


def test_subquotient_proper_sublattice():
    # (2Z)^2 / lattice generated by (2,2) and (4,-4): quotient Z/4... computed honestly
    q = LatticeSubquotient(2, [(2, 0), (0, 2)], [(2, 2), (4, -4)])
    # index = |det[[1,2],[1,-2]]| = 4 in the coordinate lattice
    assert q.order == 4
    assert q.contains((2, 4))
    assert not q.contains((1, 0))
    with pytest.raises(ValueError):
        q.coords((1, 1))


def test_subquotient_rejects_bad_denominator():
    with pytest.raises(ValueError):
        LatticeSubquotient(2, [(2, 0), (0, 2)], [(1, 0)])


def test_subquotient_coords_additive():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 4)
        num = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n + 1)]
        den = []
        for _ in range(rng.randint(0, n)):
            c = [rng.randint(-2, 2) for _ in num]
            scalar = rng.choice([2, 3, 4])
            den.append(tuple(scalar * sum(c[i] * num[i][k] for i in range(len(num)))
                             for k in range(n)))
        q = LatticeSubquotient(n, num, den)
        a = [rng.randint(-2, 2) for _ in num]
        b = [rng.randint(-2, 2) for _ in num]
        va = tuple(sum(a[i] * num[i][k] for i in range(len(num))) for k in range(n))
        vb = tuple(sum(b[i] * num[i][k] for i in range(len(num))) for k in range(n))
        vsum = tuple(x + y for x, y in zip(va, vb))
        ca, cb, cs = q.coords(va), q.coords(vb), q.coords(vsum)
        assert cs == q.reduce_coords([x + y for x, y in zip(ca, cb)])
        # lift then coords is the identity on coordinates
        assert q.coords(q.lift(ca)) == ca


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_subquotient_membership_matches_solve(data):
    """Membership, coordinates and lifts against `solve`, and the group
    against the Smith diagonal of the denominator's coordinates over a
    numerator basis that a Smith form of the numerator gives.  Half the
    draws push the numerator's generators through a unimodular matrix for
    the denominator, sometimes doubling one of them, so the quotient is
    often trivial, the case decided without a Smith form."""
    n = data.draw(st.integers(1, 4), label="dim")
    vec = st.tuples(*[st.integers(-6, 6)] * n)
    num = data.draw(st.lists(vec, max_size=4), label="num")
    k = len(num)
    combo = st.tuples(*[st.integers(-3, 3)] * k)
    N = IntMatrix.from_columns(num, nrows=n)
    if k and data.draw(st.booleans(), label="spanning"):
        # column operations and a permutation: the columns of N W, W unimodular
        den = [list(g) for g in num]
        index = st.integers(0, k - 1)
        for i, j, t in data.draw(st.lists(st.tuples(index, index, st.integers(-3, 3)),
                                          max_size=6), label="column operations"):
            if i != j:
                den[i] = [a + t * b for a, b in zip(den[i], den[j])]
        den = [tuple(den[i]) for i in data.draw(st.permutations(range(k)), label="order")]
        if data.draw(st.booleans(), label="double"):
            j = data.draw(index, label="doubled")
            den[j] = tuple(2 * x for x in den[j])
    else:
        den = [N.apply(c) for c in data.draw(st.lists(combo, max_size=3), label="den")]
    D = IntMatrix.from_columns(den, nrows=n)
    q = LatticeSubquotient(n, num, den)

    dec = smith_normal_form(N)
    u_inv = unimodular_inverse(dec.U)
    basis = [tuple(d * x for x in u_inv.col(i)) for i, d in enumerate(dec.diagonal) if d]
    B = IntMatrix.from_columns(basis, nrows=n)
    free, torsion = cokernel_structure(
        IntMatrix.from_columns([solve(B, g) for g in den], nrows=len(basis)))
    assert q.invariants == torsion + (0,) * free
    assert q.order == (None if free else math.prod(torsion))
    assert q.is_trivial == (not free and not torsion)
    assert len(q.generators) == len(q.invariants)

    members = [N.apply(c) for c in data.draw(st.lists(combo, min_size=1, max_size=3),
                                              label="members")]
    probes = data.draw(st.lists(vec, min_size=1, max_size=4), label="probes")
    # a lattice short of Z^n misses one of the unit vectors
    units = list(IntMatrix.identity(n).rows)
    for v in members + probes + units:
        inside = solve(N, v) is not None
        assert q.contains(v) == inside
        if not inside:
            with pytest.raises(ValueError):
                q.coords(v)
    for v in members:
        back = q.lift(q.coords(v))
        assert solve(D, [a - b for a, b in zip(back, v)]) is not None
    if q.is_trivial:
        assert q.lift(()) == (0,) * n
        assert all(q.coords(v) == () for v in members)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_coords_read_the_kept_rows_of_the_full_transform(data):
    """Coordinates and generators against the whole Smith transform of the
    same denominator coordinates (`subquotient_by_full_transform`), over a
    trivial quotient (the numerator's own generators), a torsion one (each
    generator scaled) and one with a free part (fewer generators than the
    rank)."""
    kind = data.draw(st.sampled_from(["trivial", "torsion", "free"]), label="kind")
    n = data.draw(st.integers(1, 5), label="dim")
    vec = st.tuples(*[st.integers(-6, 6)] * n)
    num = data.draw(st.lists(vec, min_size=1, max_size=5), label="num")
    N = IntMatrix.from_columns(num, nrows=n)
    r = len(intmat._lattice_basis(num, n))
    combo = st.tuples(*[st.integers(-3, 3)] * len(num))
    if kind == "trivial":
        den = num
    elif kind == "torsion":
        scales = data.draw(st.lists(st.integers(1, 6), min_size=len(num), max_size=len(num)),
                           label="scales")
        den = [tuple(s * x for x in g) for s, g in zip(scales, num)]
    else:
        den = [N.apply(c) for c in data.draw(st.lists(combo, max_size=max(r - 1, 0)),
                                              label="den")]
    q = LatticeSubquotient(n, num, den)
    invariants, coords, generators = subquotient_by_full_transform(n, num, den)
    assert q.invariants == invariants
    assert {"trivial": q.is_trivial, "torsion": q.order is not None,
            "free": q.order is None or r == 0}[kind]
    members = [N.apply(c) for c in data.draw(st.lists(combo, min_size=1, max_size=4),
                                              label="members")]
    for v in members + num + den + generators:
        assert q.coords(v) == coords(v)
    assert q.generators == generators


def test_coords_take_no_matrix_product():
    """`coords` reads the kept rows of U one by one: no `IntMatrix.apply`,
    also when U is the identity (a free quotient, here Z^3 / 0) or the
    quotient is trivial."""
    quotients = [LatticeSubquotient(3, IntMatrix.identity(3).rows, []),
                 LatticeSubquotient(2, [(1, 0), (0, 1)], [(2, 0), (0, 3)]),
                 LatticeSubquotient(2, [(2, 0), (0, 2)], [(2, 2), (4, -4)]),
                 LatticeSubquotient(2, [(1, 0), (0, 1)], [(1, 1), (0, 1)])]
    with patch.object(IntMatrix, "apply", autospec=True,
                      side_effect=IntMatrix.apply) as apply:
        assert quotients[0].coords((4, -1, 7)) == (4, -1, 7)
        assert quotients[1].coords((1, 1)) == (5,)
        assert quotients[2].coords((2, 4)) == (3,)
        assert quotients[3].coords((5, -7)) == ()
    assert apply.call_count == 0


# -- echelon lattices against the Smith-form paths ------------------------------------


@st.composite
def _relations(draw, length):
    """Up to four relation vectors, sometimes with a duplicate and a
    dependent one (a combination of two others) appended."""
    vec = st.lists(st.integers(-4, 4), min_size=length, max_size=length)
    rels = draw(st.lists(vec, max_size=4))
    if rels and draw(st.booleans()):
        a, b = draw(st.sampled_from(rels)), draw(st.sampled_from(rels))
        k = draw(st.integers(-2, 2))
        rels.append([x + k * y for x, y in zip(a, b)])
    if rels and draw(st.booleans()):
        rels.append(list(draw(st.sampled_from(rels))))
    return rels


@st.composite
def _lattice_problems(draw):
    """(dim, maps, relations) with dim 0 to 4, up to three m x dim maps, some
    of them zero, and relations of length m, possibly none.  Sometimes a map
    that every solution of the others already satisfies is appended: an
    integer combination of the earlier maps plus r l^T, r a relation and l
    any row, so the solve meets nonzero maps that cut the lattice no
    further."""
    dim = draw(st.integers(0, 4))
    m = draw(st.integers(0, 3))
    rels = draw(_relations(m))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    drawn = st.lists(row, min_size=m, max_size=m).map(lambda rows: IntMatrix(rows, ncols=dim))
    maps = draw(st.lists(st.one_of(st.just(IntMatrix.zeros(m, dim)), drawn), max_size=3))
    if draw(st.booleans()):
        held = IntMatrix.zeros(m, dim)
        for C in maps:
            held = held + C.scale(draw(st.integers(-3, 3)))
        if rels:
            r, l = draw(st.sampled_from(rels)), draw(row)
            held = held + IntMatrix([[a * b for b in l] for a in r], ncols=dim)
        maps.append(held)
    return dim, maps, rels


def _same_lattice(dim, a, b):
    """Whether two generating sets in Z^dim span the same lattice: each
    vector of one is an integer combination of the other (`solve`)."""
    A = IntMatrix.from_columns(a, nrows=dim)
    B = IntMatrix.from_columns(b, nrows=dim)
    return all(solve(A, v) is not None for v in b) and all(solve(B, v) is not None for v in a)


def test_solution_lattice_solves_every_map_in_one_echelon():
    """However many maps there are, one echelon of the stacked rows solves
    them, with no product.  A map that every solution of the others
    satisfies leaves the lattice as it is, and one that fails shrinks it."""
    C = IntMatrix([[1, 2, 0], [0, 3, 1]])
    rels = [(4, 0), (0, 6)]
    held = C.scale(-2) + IntMatrix([[4, -4, 8], [0, 0, 0]])
    fails = IntMatrix([[1, 0, 0], [0, 0, 0]])

    def solve_once(maps, relations=rels):
        with patch.object(intmat, "_echelon", wraps=intmat._echelon) as echelon, \
                patch.object(IntMatrix, "__matmul__", autospec=True,
                             side_effect=IntMatrix.__matmul__) as product:
            got = solution_lattice(3, maps, relations)
        assert (echelon.call_count, product.call_count) == (1, 0), len(maps)
        return got

    alone = solve_once([C])
    for maps in ([C, held], [C, held, held.scale(3)]):
        assert _same_lattice(3, solve_once(maps), alone)
    # without relations a map holds when it sends the lattice to zero
    kernel = solve_once([C], [])
    assert _same_lattice(3, solve_once([C, C.scale(5), C.scale(-2)], []), kernel)
    shrunk = solve_once([C, fails])
    assert all(solve(IntMatrix.from_columns(alone, nrows=3), v) is not None for v in shrunk)
    assert not _same_lattice(3, shrunk, alone)
    assert _same_lattice(3, solve_once([fails, C, held]), shrunk)


def test_solution_lattice_takes_the_first_map_without_a_product():
    """The images of the standard basis under one map are the columns of C:
    the same basis as through the product C I, and no product."""
    rng = random.Random(137)
    cases = [(0, IntMatrix.zeros(0, 0), []), (0, IntMatrix.zeros(2, 0), [(2, 0)]),
             (3, IntMatrix.zeros(0, 3), []), (3, IntMatrix.zeros(2, 3), [(0, 4)])]
    for _ in range(300):
        dim, m = rng.randint(0, 5), rng.randint(0, 4)
        C = IntMatrix([[rng.choice((0, 0, 1, -1, rng.randint(-6, 6))) for _ in range(dim)]
                       for _ in range(m)], ncols=dim)
        rels = [tuple(rng.randint(-4, 4) for _ in range(m))
                for _ in range(rng.choice((0, 0, 1, 2, 3)))]
        cases.append((dim, C, rels))
    for dim, C, rels in cases:
        with patch.object(IntMatrix, "__matmul__", autospec=True,
                          side_effect=IntMatrix.__matmul__) as product:
            got = solution_lattice(dim, [C], rels)
        assert product.call_count == 0
        assert got == first_map_by_identity_product(dim, C, rels), (dim, C, rels)
    with pytest.raises(ValueError):
        solution_lattice(2, [IntMatrix([[1, 2, 3]])], [])


@settings(max_examples=200, deadline=None)
@given(problem=_lattice_problems())
def test_solution_lattice_equals_the_smith_kernel_lattice(problem):
    dim, maps, rels = problem
    new = solution_lattice(dim, maps, rels)
    old = solution_lattice_by_smith(dim, maps, rels)
    assert _same_lattice(dim, new, old)


@settings(max_examples=200, deadline=None)
@given(problem=_lattice_problems())
def test_solution_lattice_generators_are_independent(problem):
    dim, maps, rels = problem
    new = solution_lattice(dim, maps, rels)
    assert all(len(v) == dim for v in new)
    assert smith_normal_form(IntMatrix.from_columns(new, nrows=dim)).rank == len(new)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_solution_lattice_ignores_the_order_and_repeats_of_maps(data):
    """The lattice is an intersection over the maps, so permuting them or
    repeating some gives the same lattice, though maybe another basis."""
    dim, maps, rels = data.draw(_lattice_problems(), label="problem")
    want = solution_lattice(dim, maps, rels)
    shuffled = data.draw(st.permutations(maps), label="permuted")
    repeats = data.draw(st.lists(st.sampled_from(maps), max_size=3), label="repeats") if maps else []
    spots = [data.draw(st.integers(0, len(shuffled) + i), label="spot") for i in range(len(repeats))]
    repeated = list(shuffled)
    for C, i in zip(repeats, spots):
        repeated.insert(i, C)
    for variant in (shuffled, repeated):
        got = solution_lattice(dim, variant, rels)
        assert len(got) == len(want)
        assert _same_lattice(dim, got, want)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_in_relation_lattice_matches_solve(data):
    rank = data.draw(st.integers(0, 4), label="rank")
    rels = data.draw(_relations(rank), label="relations")
    M = trivial_module(cyclic_group(2), rank, rels)
    R = IntMatrix.from_columns(rels, nrows=rank)
    combo = st.lists(st.integers(-3, 3), min_size=len(rels), max_size=len(rels))
    members = [R.apply(c) for c in data.draw(st.lists(combo, max_size=3), label="members")]
    vec = st.lists(st.integers(-6, 6), min_size=rank, max_size=rank)
    probes = data.draw(st.lists(vec, min_size=1, max_size=4), label="probes")
    assert all(M.in_relation_lattice(v) for v in members)
    for v in probes:
        assert M.in_relation_lattice(v) == (solve(R, v) is not None)


def _snf_draws():
    """Seeded (matrix, entry bound) pairs: empty shapes, 1 x 1, zero matrices,
    square, tall and wide (n = m +- 3, m +- 6), and rank-deficient draws whose
    rows are partly differences of two others, with entries in +-9 and +-99."""
    rng = random.Random(20261018)
    draws = [(IntMatrix([], ncols=k), 9) for k in (0, 1, 4)]
    draws += [(IntMatrix.zeros(k, 0), 9) for k in (1, 4)]
    draws += [(IntMatrix.zeros(m, n), 9) for m, n in ((1, 1), (3, 5), (6, 2))]
    for bound in (9, 99):
        draws.append((random_matrix(rng, 1, 1, bound), bound))
        shapes = [(m, m) for m in (2, 5, 9, 14, 20, 30)]
        shapes += [(m, m + d) for m in (4, 12, 24) for d in (-6, -3, 3, 6)]
        for m, n in shapes:
            draws.append((random_matrix(rng, m, n, bound), bound))
        for m, n in ((8, 8), (16, 12), (12, 16), (25, 25), (30, 27)):
            rows = [list(r) for r in random_matrix(rng, m, n, bound).rows]
            replaced = rng.sample(range(m), m // 3)
            kept = [k for k in range(m) if k not in replaced]
            for i in replaced:
                a, b = rng.sample(kept, 2)
                rows[i] = [x - y for x, y in zip(rows[a], rows[b])]
            draws.append((IntMatrix(rows, ncols=n), bound))
    return draws


def test_snf_transforms_are_unimodular_and_bounded():
    """U A V = S with the divisibility chain, det U = +-1 and det V = +-1 also
    for singular A, and every entry of U and V has at most 8 h + 8 digits,
    h = min(m, n) log10(B sqrt(max(m, n))) being about the digits of the
    largest minor of A (Hadamard) for entries bounded by B."""
    for A, bound in _snf_draws():
        m, n = A.shape
        dec = smith_normal_form(A)
        # the size bound first: determinants of blown-up transforms take long
        h = min(m, n) * math.log10(bound * math.sqrt(max(m, n, 1)))
        limit = 10 ** math.floor(8 * h + 8)
        assert all(abs(x) < limit for M in (dec.U, dec.V) for row in M.rows for x in row)
        assert dec.U.shape == (m, m) and dec.V.shape == (n, n)
        assert dec.U @ A @ dec.V == dec.S
        for i in range(m):
            for j in range(n):
                assert dec.S.rows[i][j] == 0 or i == j
        diag = dec.diagonal
        r = dec.rank
        assert all(d > 0 for d in diag[:r]) and not any(diag[r:])
        assert all(b % a == 0 for a, b in zip(diag[:r], diag[1:r]))
        assert abs(dec.U.det()) == 1 and abs(dec.V.det()) == 1
