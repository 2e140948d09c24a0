"""Shared builders for randomized tests.

Random modules are drawn from a library of constructions that are valid by
construction (trivial modules, coset permutation modules, index-two sign
twists, direct sums, hom modules), so seeded loops never have to reject and
retry action matrices.

`h1_cyclic` is an independent H^1 for cyclic groups that the tests compare
the general cocycle machinery against, `h1_reference` solves the same
closing-edge system as the library's `h1` with whole-matrix arithmetic and
Smith kernels, `solution_lattice_by_smith` is the
Smith-kernel lattice solve that the library's echelon version is compared
against, the `*_all_pairs` checks test the module, cocycle and
permutation-action laws on every pair of group elements where the library
tests generator edges only, `reference_mul` is an independent product for
p-adic towers that the tests compare the library's structure-constant
tables against, and `is_square_by_search` and `square_mask_by_search`
decide squareness and square classes over 2-adic towers by exhaustive
search, against the library's quadratic-defect reduction.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import product

from chatelet.cohomology import CohomologyGroup, _identity_cocycle_check
from chatelet.groups import FiniteGroup, Subgroup, all_subgroups
from chatelet.intmat import (
    IntMatrix,
    LatticeSubquotient,
    hstack,
    kernel_basis,
    solution_lattice,
)
from chatelet.modules import (
    GModule,
    direct_sum,
    hom_module,
    permutation_module,
    trivial_module,
)
from chatelet.padic import LocalField, PadicElement


def coset_permutation_module(G: FiniteGroup, H: Subgroup, name: str = "cosets") -> GModule:
    """Free module on the left cosets of H with the translation action."""
    reps = H.left_coset_reps()
    perms = [tuple(H.coset_of(G.mul(g, r)) for r in reps) for g in G.elements()]
    return permutation_module(G, perms, name=name)


def index_two_sign_module(G: FiniteGroup, K: Subgroup,
                          modulus: int = 0) -> GModule:
    """Z (or Z/modulus) where elements outside an index-two subgroup act as -1."""
    if K.index != 2:
        raise ValueError("need an index-two subgroup")
    mats = [IntMatrix([[1 if K.contains(g) else -1]]) for g in G.elements()]
    relations = [(modulus,)] if modulus else ()
    return GModule(G, 1, relations, mats, name="sign", check=False)


def module_library(G: FiniteGroup, rng: random.Random) -> list[GModule]:
    """A pool of small valid modules over G to draw test instances from."""
    subs = all_subgroups(G)
    pool = [
        trivial_module(G),
        trivial_module(G, relations=[(rng.choice([2, 3, 4]),)]),
        trivial_module(G, rank=2, relations=[(2, 0)]),
    ]
    proper = [s for s in subs if 1 < s.index <= 4]
    if proper:
        pool.append(coset_permutation_module(G, rng.choice(proper)))
    index2 = [s for s in subs if s.index == 2]
    if index2:
        K = rng.choice(index2)
        pool.append(index_two_sign_module(G, K))
        pool.append(index_two_sign_module(G, K, modulus=4))
    return pool


def random_module(G: FiniteGroup, rng: random.Random, max_rank: int = 4) -> GModule:
    pool = module_library(G, rng)
    choice = rng.random()
    if choice < 0.55:
        M = rng.choice(pool)
    elif choice < 0.85:
        M = direct_sum(rng.choice(pool), rng.choice(pool))
    else:
        small = [m for m in pool if m.rank == 1]
        M = hom_module(rng.choice(small), rng.choice(small))
    if M.rank > max_rank:
        M = rng.choice(pool)
    return M


def random_cocycle(coh, rng: random.Random):
    """A random honest cocycle (degree one) drawn through the coordinates."""
    coords = [rng.randrange(d) if d else rng.randint(-2, 2) for d in coh.invariants]
    return coh.cocycle_from_coords(coords), tuple(coords)


# -- all-pairs law checks ------------------------------------------------------------


def module_axioms_all_pairs(M: GModule) -> bool:
    """Shapes, identity, relation stability, and the homomorphism law for
    every pair of group elements."""
    if any(len(r) != M.rank for r in M.relations):
        return False
    G = M.group
    if any(M.act(g).shape != (M.rank, M.rank) for g in G.elements()):
        return False
    if not M.matrices_equal(M.act(G.identity), IntMatrix.identity(M.rank)):
        return False
    for g in G.elements():
        if not all(M.in_relation_lattice(M.act(g).apply(r)) for r in M.relations):
            return False
    return all(M.matrices_equal(M.act(g) @ M.act(h), M.act(G.mul(g, h)))
               for g in G.elements() for h in G.elements())


def is_cocycle_all_pairs(M: GModule, cocycle) -> bool:
    """c(gh) = c(g) + g c(h) modulo the relation lattice for every pair."""
    G = M.group
    _identity_cocycle_check(G, cocycle, M.rank)
    for g in G.elements():
        for h in G.elements():
            rhs = [a + b for a, b in zip(cocycle[g], M.act(g).apply(cocycle[h]))]
            if not M.vectors_equal(cocycle[G.mul(g, h)], rhs):
                return False
    return True


def permutation_action_all_pairs(G: FiniteGroup, perms) -> bool:
    """perms[g] o perms[h] == perms[gh] for every pair."""
    size = len(perms[0])
    return all(perms[g][perms[h][x]] == perms[G.mul(g, h)][x]
               for g in G.elements() for h in G.elements() for x in range(size))


# -- H^1 oracle for cyclic groups -------------------------------------------------


def h1_cyclic(G: FiniteGroup, M: GModule) -> CohomologyGroup:
    """Independent H^1 for cyclic groups: kernel of the norm over the image
    of (generator - 1).  Used as an oracle against the general machinery."""
    if M.group != G:
        raise ValueError("module is not over the given group")
    n = G.order
    sigma = next((g for g in G.elements() if G.element_order(g) == n), None)
    if sigma is None:
        raise ValueError("group is not cyclic")
    r = M.rank
    powers = [G.power(sigma, k) for k in range(n)]
    norm = IntMatrix.zeros(r, r)
    for g in powers:
        norm = norm + M.act(g)
    numerator = solution_lattice(r, [norm], M.relations)
    diff = M.act(sigma) - IntMatrix.identity(r)
    denominator = [diff.col(j) for j in range(r)] + [tuple(rel) for rel in M.relations]
    subq = LatticeSubquotient(r, numerator, denominator)

    def to_ambient(cocycle):
        _identity_cocycle_check(G, cocycle, r)
        return tuple(cocycle[sigma])

    def from_ambient(a):
        out = {}
        acc = [0] * r
        for k in range(n):
            out[powers[k]] = tuple(acc)
            step = M.act(powers[k]).apply(a)
            acc = [x + y for x, y in zip(acc, step)]
        return out

    return CohomologyGroup(1, G, M, subq, to_ambient, from_ambient)


# -- reference H^1 through IntMatrix blocks and Smith kernels ----------------------


def h1_reference(G: FiniteGroup, M: GModule) -> CohomologyGroup:
    """H^1 by the closing-edge system built from whole IntMatrix blocks and
    solved with `solution_lattice_by_smith`: the same parametrization of
    cocycles by their values on generators as `chatelet.cohomology.h1`,
    with none of its row arithmetic, zero-skipping products or skipped
    blocks.  Used as an oracle against the library."""
    if M.group != G:
        raise ValueError("module is not over the given group")
    r = M.rank
    gens = G.generating_set()
    u_dim = len(gens) * r
    exprs = {G.identity: IntMatrix.zeros(r, u_dim)}
    constraints = []
    queue = deque([G.identity])
    while queue:
        g = queue.popleft()
        for t, s in enumerate(gens):
            gs = G.mul(g, s)
            rows = [list(row) for row in exprs[g].rows]
            lo = t * r
            for row, act_row in zip(rows, M.act(g).rows):
                row[lo:lo + r] = [a + b for a, b in zip(row[lo:lo + r], act_row)]
            expr = IntMatrix(rows, ncols=u_dim)
            known = exprs.get(gs)
            if known is None:
                exprs[gs] = expr
                queue.append(gs)
            elif not (expr - known).is_zero():
                constraints.append(expr - known)
    z1 = solution_lattice_by_smith(u_dim, constraints, M.relations)
    eye = IntMatrix.identity(r)
    b1 = [tuple(x for s in gens for x in (M.act(s) - eye).col(j)) for j in range(r)]
    for t in range(len(gens)):
        for rel in M.relations:
            v = [0] * u_dim
            v[t * r:(t + 1) * r] = list(rel)
            b1.append(tuple(v))
    subq = LatticeSubquotient(u_dim, z1, b1)

    def to_ambient(cocycle):
        _identity_cocycle_check(G, cocycle, r)
        return tuple(x for s in gens for x in cocycle[s])

    def from_ambient(u):
        return {g: exprs[g].apply(u) for g in G.elements()}

    return CohomologyGroup(1, G, M, subq, to_ambient, from_ambient)


# -- Smith-kernel solution lattice -------------------------------------------------


def solution_lattice_by_smith(dim: int, maps, relations) -> list:
    """Generators of {x in Z^dim : C x in lattice(relations) for every C in maps},
    by one Smith-form kernel per map: the kernel of [C L | -R] over the current
    generators L, cut back to its first part.  The result may be redundant."""
    L = IntMatrix.identity(dim)
    for C in maps:
        if L.ncols == 0:
            break
        reduced = C @ L
        R = IntMatrix.from_columns([tuple(r) for r in relations], nrows=C.nrows)
        big = hstack(reduced, R.scale(-1)) if R.ncols else reduced
        ker = kernel_basis(big)
        T = IntMatrix.from_columns([v[:L.ncols] for v in ker], nrows=L.ncols)
        L = L @ T
    return L.columns()


# -- reference multiplication for p-adic towers -----------------------------------
# Elements as nested tuples, the outermost level being the last step; a product
# is a polynomial product followed by reduction by each monic step polynomial.


class _FractionRing:
    def zero(self):
        return Fraction(0)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == 0


class _QuotientRing:
    """sub[x] / (x^d + c_{d-1} x^{d-1} + ... + c_0), elements as tuples."""

    def __init__(self, sub, coeffs: tuple):
        self.sub = sub
        self.coeffs = coeffs
        self.deg = len(coeffs)

    def zero(self):
        return tuple(self.sub.zero() for _ in range(self.deg))

    def add(self, a, b):
        return tuple(self.sub.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.sub.neg(x) for x in a)

    def mul(self, a, b):
        d = self.deg
        conv = [self.sub.zero() for _ in range(2 * d - 1)]
        for i, x in enumerate(a):
            if self.sub.is_zero(x):
                continue
            for j, y in enumerate(b):
                conv[i + j] = self.sub.add(conv[i + j], self.sub.mul(x, y))
        # reduce by the monic modulus, top down
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            if self.sub.is_zero(c):
                continue
            conv[k] = self.sub.zero()
            for j, m in enumerate(self.coeffs):
                conv[k - d + j] = self.sub.add(conv[k - d + j],
                                               self.sub.neg(self.sub.mul(c, m)))
        return tuple(conv[:d])

    def is_zero(self, a) -> bool:
        return all(self.sub.is_zero(x) for x in a)


def _unflatten(field: LocalField, flat):
    items = list(flat)

    def build(level):
        if level == 0:
            return items.pop(0)
        d = len(field.steps[level - 1].coeffs)
        return tuple(build(level - 1) for _ in range(d))

    return build(len(field.steps))


def _flatten(data, level: int) -> list:
    if level == 0:
        return [data]
    return [c for part in data for c in _flatten(part, level - 1)]


def reference_mul(x, y) -> tuple:
    """Coordinates of x * y by the recursive nested-tuple product."""
    field = x.field
    ring = _FractionRing()
    for level, st in enumerate(field.steps):
        below = LocalField.make(field.p, field.steps[:level])
        ring = _QuotientRing(ring, tuple(_unflatten(below, c.coords()) for c in st.coeffs))
    nested = ring.mul(_unflatten(field, x.coords()), _unflatten(field, y.coords()))
    return tuple(_flatten(nested, len(field.steps)))


# -- squareness by search over 2-adic towers -----------------------------------------


def is_square_by_search(x: PadicElement) -> bool:
    """Squareness over a 2-adic tower by search: the unit part u is compared
    against every candidate s(1 + pi z), s a lifted residue square root of u
    and z over a transversal of O / pi^e with e = v(2).  A candidate
    certifies squareness exactly when v(y^2 - u) > 2e, since
    1 + pi^(2e + 1) O consists of squares.  2^(degree) candidates."""
    field = x.field
    if field.p != 2:
        raise ValueError("the search covers 2-adic towers only")
    if x.is_zero():
        return True
    v = x.valuation()
    if v % 2 != 0:
        return False
    u = x / field.uniformizer() ** v if v else x
    q = 2 ** field.residue_degree
    sbar = field._res_pow(field._to_residue(u), q // 2)  # the square root in characteristic 2
    s = field._lift_residue(sbar)
    pi = field.uniformizer()
    e2 = field.ramification_index
    ranges = []
    for w in field._weights:
        t = 0
        while e2 * t < e2 - w:
            t += 1
        ranges.append(range(2 ** t))
    for assignment in product(*ranges):
        y = s * (field.one() + pi * PadicElement(field, assignment, 1))
        if (y * y - u).valuation() >= 2 * e2 + 1:
            return True
    return False


def square_mask_by_search(x: PadicElement, basis) -> int | None:
    """The first mask (bit i selects basis[i]) for which x times the selected
    basis elements is a square by `is_square_by_search`, or None when no
    product is."""
    for mask in range(2 ** len(basis)):
        prod_elem = x
        for i, b in enumerate(basis):
            if mask >> i & 1:
                prod_elem = prod_elem * b
        if is_square_by_search(prod_elem):
            return mask
    return None
