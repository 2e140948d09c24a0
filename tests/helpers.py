"""Shared builders for randomized tests.

Random modules are drawn from a library of constructions that are valid by
construction (trivial modules, coset permutation modules, index-two sign
twists, direct sums, hom modules), so seeded loops never have to reject and
retry action matrices; `module_from_spec` names one of the first three for
a fixed list of cases.  `trivial_subgroup` and `full_subgroup` build the
two extreme subgroups of a group.  `equivariant_square_instance` and
`torsion_annihilated_instance` draw the two sound families of
`lemma52_check` instances of acceptance criterion 5, and `norm_of_map` is
the norm N(h) of a subgroup map h, the map over the whole group along which
pushing out gives the check's restrict / push / corestrict route.

`h1_cyclic` is an independent H^1 for cyclic groups that the tests compare
the general cocycle machinery against, `h1_reference` is the closing-edge
oracle: it constrains cocycles by one block per edge of the breadth-first
walk that closes a cycle, |G|(|gens| - 1) + 1 blocks, where the library's
`h1` takes one Fox-calculus block per relator of a presentation, and it
solves them with whole-matrix arithmetic and Smith kernels,
`coset_count_hlt` is an HLT coset enumeration that checks the library's
presentations close, `word_value` evaluates a relator word in its group,
`solution_lattice_by_smith` is the
Smith-kernel lattice solve, one map at a time, that the library's single
echelon over every map is compared against, `first_map_by_identity_product`
is that echelon for one map through the product C I, where the library
reads the images off the columns of C with no product,
`subquotient_by_full_transform` reads a lattice subquotient's coordinates
and generators through its whole Smith transform, where the library keeps
only the rows it reads, `hom_action_by_conjugation` builds the action of a hom module by
conjugating with every group element, where the library conjugates with
the generators only, `cores_ext_by_induction` corestricts an extension
by inducing its total module and pulling back along the unit `ind_unit`
and pushing out along the counit `ind_counit`, where the library sums the
coset transfer on its blocks, `mackey_res_cor` and `mackey_res_cor_ext`
compute res^G_K cor^G_H on H^1 and on Ext^1 by Mackey's double-coset
formula, the `*_all_pairs` checks test the module, cocycle and
permutation-action laws on every pair of group elements where the library
tests generator edges only, `reference_mul` is an independent product for
p-adic towers that the tests compare the library's structure-constant
tables against, `product_by_table` and `inverse_by_elimination` multiply
and invert through the whole table where the library scales by a rational
factor and inverts a rational directly, `structure_constants_by_fractions` and
`residue_table_by_fractions` build those tables through Fraction
coordinates, `poly_irreducible_by_enumeration` decides irreducibility over
a residue field by trying every root and quadratic divisor, against the
library's Frobenius unit test, `square_class_group_by_full_pool` runs the
greedy square class search without skipping the units of F_p* or of the
residue fields of unramified steps, and
`is_square_by_search` and `square_mask_by_search` decide squareness and
square classes over 2-adic towers by exhaustive search, against the
library's quadratic-defect reduction, `det_by_cofactors` is the
cofactor-expansion determinant that the library's elimination in `norm` is
compared against, and `as_string_by_fractions` writes an element through
its Fraction coordinates, where the library reduces each numerator over the
denominator with one gcd.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import chain, islice, product
from math import gcd, lcm

from chatelet.cohomology import CohomologyGroup, _identity_cocycle_check
from chatelet.extensions import ExtensionClass, class_of, cores_ext, ext1
from chatelet.groups import FiniteGroup, Subgroup, all_subgroups, cyclic_group, dihedral_group
from chatelet.intmat import (
    IntMatrix,
    LatticeSubquotient,
    _bareiss,
    _coordinates,
    _echelon,
    _lattice_basis,
    hstack,
    kernel_basis,
    reduce_mod,
    smith_normal_form,
    solution_lattice,
    unimodular_inverse,
    vstack,
)
from chatelet.modules import (
    GModule,
    GModuleMap,
    direct_sum,
    equivariant_hom_basis,
    hom_module,
    induce_module,
    permutation_module,
    restrict_module,
    trivial_module,
)
from chatelet.padic import (
    LocalField,
    PadicElement,
    _class_vector,
    _contract,
    _reduce,
    _square_class_pool,
)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, [G.identity], check=False)


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, range(G.order), check=False)


def coset_permutation_module(G: FiniteGroup, H: Subgroup, name: str = "cosets",
                             modulus: int = 0) -> GModule:
    """Free module (over Z, or Z/modulus) on the left cosets of H with the
    translation action."""
    reps = H.left_coset_reps()
    perms = [tuple(H.coset_of(G.mul(g, r)) for r in reps) for g in G.elements()]
    M = permutation_module(G, perms, name=name)
    if not modulus:
        return M
    relations = [tuple(modulus if i == j else 0 for j in range(M.rank)) for i in range(M.rank)]
    return GModule(G, M.rank, relations, M.action, name=name, check=False)


def index_two_sign_module(G: FiniteGroup, K: Subgroup,
                          modulus: int = 0) -> GModule:
    """Z (or Z/modulus) where elements outside an index-two subgroup act as -1."""
    if K.index != 2:
        raise ValueError("need an index-two subgroup")
    mats = [IntMatrix([[1 if K.contains(g) else -1]]) for g in G.elements()]
    relations = [(modulus,)] if modulus else ()
    return GModule(G, 1, relations, mats, name="sign", check=False)


def module_from_spec(G: FiniteGroup, kind: str, elements=(), modulus: int = 0) -> GModule:
    """A small module named by a spec: the trivial Z/modulus ("trivial"), the
    free Z/modulus module on the cosets of the subgroup with these elements
    ("cosets"), or the sign twist by that index-two subgroup ("sign")."""
    if kind == "trivial":
        return trivial_module(G, relations=[(modulus,)] if modulus else ())
    S = Subgroup(G, elements)
    if kind == "cosets":
        return coset_permutation_module(G, S, modulus=modulus)
    return index_two_sign_module(G, S, modulus=modulus)


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


# -- commuting-square instances and the norm of a subgroup map ---------------------


def _random_combination(basis, rows, cols, rng):
    matrix = IntMatrix.zeros(rows, cols)
    for b in basis:
        matrix = matrix + b.scale(rng.randint(-2, 2))
    return matrix


def equivariant_square_instance(rng: random.Random):
    """A commuting-square instance (H, P, Q, R, h) whose comparison map is
    equivariant over the whole group, restricted to the subgroup."""
    G = rng.choice([cyclic_group(4), cyclic_group(6), cyclic_group(8),
                    cyclic_group(9), dihedral_group(3)])
    subs = [s for s in all_subgroups(G) if 1 < s.order < G.order]
    H = rng.choice(subs)
    P = random_module(G, rng, max_rank=2)
    Q = random_module(G, rng, max_rank=2)
    R = random_module(G, rng, max_rank=2)
    basis = equivariant_hom_basis(Q, R)
    matrix = _random_combination(basis, R.rank, Q.rank, rng)
    h = GModuleMap(restrict_module(Q, H), restrict_module(R, H), matrix)
    return H, P, Q, R, h


def torsion_annihilated_instance(rng: random.Random):
    """A commuting-square instance with R killed by the subgroup index and
    the index coprime to the subgroup order; the comparison map is merely
    subgroup-equivariant."""
    G6 = cyclic_group(6)
    D3 = dihedral_group(3)
    case = rng.choice([
        (G6, [0, 2, 4], 2),
        (G6, [0, 3], 3),
        (D3, None, 2),
    ])
    G, members, exponent = case
    if members is None:
        H = next(s for s in all_subgroups(G) if s.order == 3)
    else:
        H = Subgroup(G, members)
    assert H.index == exponent and gcd(H.order, exponent) == 1
    P = random_module(G, rng, max_rank=2)
    Q = random_module(G, rng, max_rank=2)
    rank = rng.choice([1, 2])
    relations = [[exponent if i == j else 0 for j in range(rank)]
                 for i in range(rank)]
    R = trivial_module(G, rank=rank, relations=relations)
    QH = restrict_module(Q, H)
    RH = restrict_module(R, H)
    basis = equivariant_hom_basis(QH, RH)
    matrix = _random_combination(basis, R.rank, Q.rank, rng)
    h = GModuleMap(QH, RH, matrix)
    return H, P, Q, R, h


def norm_of_map(H: Subgroup, Q: GModule, R: GModule, h: GModuleMap) -> GModuleMap:
    """The norm N(h) = sum over the left coset representatives r_i of H of
    R(r_i) . h . Q(r_i^{-1}) of a map h from Res Q to Res R over H: a map
    Q -> R over the whole group, checked as one, and index * h when h already
    is one.  Corestricting the pushout along h of a restricted extension is
    the pushout along N(h) (Brown, ch. III §9)."""
    G = H.parent
    total = IntMatrix.zeros(R.rank, Q.rank)
    for r in H.left_coset_reps():
        total = total + R.act(r) @ h.matrix @ Q.act(G.inv(r))
    return GModuleMap(Q, R, total)


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


# -- presentations -------------------------------------------------------------------


def word_value(G: FiniteGroup, word) -> int:
    """The element of G a word spells: letter t + 1 is generator t of
    `G.generating_set()`, -(t + 1) its inverse."""
    gens = G.generating_set()
    g = G.identity
    for a in word:
        g = G.mul(g, gens[a - 1] if a > 0 else G.inv(gens[-a - 1]))
    return g


class _Overflow(Exception):
    pass


def coset_count_hlt(ngens: int, relators, limit=None):
    """Cosets of the trivial subgroup in <x_1 .. x_ngens | relators> by an
    HLT enumeration with coincidences (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 5.1), or None once more than `limit`
    cosets have been defined.  Without a limit it only returns when the
    presented group is finite.  Unlike the library, which enumerates along
    a group's own Cayley graph, this knows nothing of the group."""
    ncol = 2 * ngens
    rels = [[2 * a - 2 if a > 0 else -2 * a - 1 for a in w] for w in relators]
    table = [[-1] * ncol]
    parent = [0]

    def define(c, x):
        n = len(table)
        if limit is not None and n >= limit:
            raise _Overflow
        table.append([-1] * ncol)
        parent.append(n)
        table[c][x] = n
        table[n][x ^ 1] = c

    def rep(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def merge(a, b, queue):
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        for e in queue:
            for x in range(ncol):
                f = table[e][x]
                if f < 0:
                    continue
                table[f][x ^ 1] = -1
                e1, f1 = rep(e), rep(f)
                if table[e1][x] >= 0:
                    merge(f1, table[e1][x], queue)
                elif table[f1][x ^ 1] >= 0:
                    merge(e1, table[f1][x ^ 1], queue)
                else:
                    table[e1][x] = f1
                    table[f1][x ^ 1] = e1

    def scan_and_fill(a, w):
        f = b = a
        i, j = 0, len(w) - 1
        while True:
            while i <= j and table[f][w[i]] >= 0:
                f = table[f][w[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][w[j] ^ 1] >= 0:
                b = table[b][w[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
                return
            define(f, w[i])

    try:
        a = 0
        while a < len(table):
            if parent[a] == a:
                for w in rels:
                    scan_and_fill(a, w)
                    if parent[a] != a:
                        break
                else:
                    for x in range(ncol):
                        if table[a][x] < 0:
                            define(a, x)
            a += 1
    except _Overflow:
        return None
    return sum(1 for c, p in enumerate(parent) if c == p)


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


def first_map_by_identity_product(dim: int, C: IntMatrix, relations) -> list:
    """The basis `solution_lattice(dim, [C], relations)` gives, with the
    images of the standard basis taken from the product C I: one echelon of
    the rows [r | 0] and [C e_j | e_j], keeping the nonzero tails of the
    rows whose first part vanished."""
    basis = list(IntMatrix.identity(dim).rows)
    if not basis:
        return []
    m = C.nrows
    CX = C @ IntMatrix._wrap(zip(*basis), len(basis))
    images = list(zip(*CX.rows)) or [()] * len(basis)
    rows = [list(r) for r in relations] + [[*y, *x] for y, x in zip(images, basis)]
    _, zero = _echelon(rows, m)
    return [tuple(R[m:]) for R in zero if any(R[m:])]


# -- a subquotient through its whole Smith transform ---------------------------------


def subquotient_by_full_transform(n: int, numerator, denominator):
    """The invariants, coordinate map and generators of numerator/denominator
    in Z^n, through the whole Smith transform U of the denominator's
    coordinates X over the numerator's echelon basis, taken even when the
    quotient is trivial: coordinates multiply all of U into a vector's basis
    coordinates and keep the rows whose invariant is not 1, reduced, and the
    generators are the matching columns of the full U^-1 over the basis."""
    basis = _lattice_basis(numerator, n)
    r = len(basis)
    X = IntMatrix.from_columns([_coordinates(basis, g, n) for g in denominator], nrows=r)
    dec = smith_normal_form(X)
    diag = dec.diagonal + (0,) * r
    kept = [i for i in range(r) if diag[i] != 1]
    invariants = tuple(diag[i] for i in kept)
    B = IntMatrix.from_columns([(0,) * c + P for c, P in basis], nrows=n)
    inverse = unimodular_inverse(dec.U)
    generators = [B.apply(inverse.col(i)) for i in kept]

    def coords(v):
        w = dec.U.apply(_coordinates(basis, v, n))
        return reduce_mod([w[i] for i in kept], invariants)

    return invariants, coords, generators


# -- the action of a hom module by conjugation ---------------------------------------


def hom_action_by_conjugation(M: GModule, N: GModule) -> list:
    """The action matrices of Hom(M, N), one per group element g: column i
    holds the coordinates of g f_i g^-1 for the i-th hom generator f_i, one
    conjugation and one coordinate solve per element and generator."""
    hm = hom_module(M, N)
    G = M.group
    n = hm.rank
    gens = [hm.matrix_of([int(i == j) for j in range(n)]) for i in range(n)]
    return [IntMatrix.from_columns([hm.coords_of(N.act(g) @ F @ M.act(G.inv(g))) for F in gens],
                                   nrows=n)
            for g in G.elements()]


# -- corestriction by induction, and Mackey's double-coset formula ---------------


def ind_unit(M: GModule, H: Subgroup) -> GModuleMap:
    """The unit M -> Ind(Res(M)) of induction, m |-> sum over cosets of
    (copy at coset i of r_i^{-1} m).  Equivariant over the full group."""
    target = induce_module(restrict_module(M, H), H)
    blocks = [M.act(M.group.inv(rep)) for rep in H.left_coset_reps()]
    return GModuleMap(M, target, vstack(*blocks), check=False)


def ind_counit(N: GModule, H: Subgroup) -> GModuleMap:
    """The counit Ind(Res(N)) -> N, (copy at coset j of n) |-> r_j n."""
    source = induce_module(restrict_module(N, H), H)
    blocks = [N.act(rep) for rep in H.left_coset_reps()]
    return GModuleMap(source, N, hstack(*blocks), check=False)


def cores_ext_by_induction(E: ExtensionClass, H: Subgroup, M: GModule,
                           N: GModule) -> ExtensionClass:
    """Corestriction of an extension over H to one of M by N over H's parent,
    by the induction route: E's total module is induced up to the parent, the
    block of each g from the quot copies to the sub copies is read off, and
    that extension of Ind(Res M) by Ind(Res N) is pulled back along the unit
    and pushed out along the counit."""
    rn, rm = E.sub.rank, E.quot.rank
    width = rn + rm
    cosets = range(H.index)
    sub_rows = [i * width + a for i in cosets for a in range(rn)]
    quot_cols = [i * width + rn + b for i in cosets for b in range(rm)]
    induced = induce_module(E.total_module(), H)
    unit, counit = ind_unit(M, H), ind_counit(N, H)
    phi = []
    for g in H.parent.elements():
        rows = induced.act(g).rows
        block = IntMatrix([[rows[r][c] for c in quot_cols] for r in sub_rows],
                          ncols=len(quot_cols))
        phi.append(counit.matrix @ block @ unit.matrix)
    return ExtensionClass(H.parent, N, M, phi)


def double_coset_reps(K: Subgroup, H: Subgroup) -> list[int]:
    """One element g of each double coset K g H of their common parent."""
    G = H.parent
    seen, reps = set(), []
    for g in G.elements():
        if g not in seen:
            reps.append(g)
            seen.update(G.mul(G.mul(k, g), h) for k in K.elements for h in H.elements)
    return reps


def _conjugate_into(K: Subgroup, H: Subgroup, g: int) -> dict[int, int]:
    """l |-> g^-1 l g on L = K cap g H g^-1, as parent elements."""
    G = H.parent
    g_inv = G.inv(g)
    conj = {l: G.mul(G.mul(g_inv, l), g) for l in K.elements}
    return {l: h for l, h in conj.items() if H.contains(h)}


def mackey_res_cor(H: Subgroup, K: Subgroup, M: GModule, cocycle) -> dict:
    """res^G_K cor^G_H of a 1-cocycle of H with values in M (a module over
    the parent G), by Mackey's formula: the sum over double cosets K g H of
    cor^K_L c_g res^H_{H cap g^-1 K g}, with L = K cap g H g^-1 and
    (c_g f)(l) = g . f(g^-1 l g).  cor^K_L is the coset transfer
    k t = u l |-> u . f(l) over left coset representatives t of L in K.
    Returns a cocycle of K, keyed by K's local elements."""
    G = H.parent
    total = {k: [0] * M.rank for k in K.elements}
    for g in double_coset_reps(K, H):
        conj = {l: M.act(g).apply(cocycle[H.locate(h)])
                for l, h in _conjugate_into(K, H, g).items()}
        reps, covered = [], set()
        for t in K.elements:
            if t not in covered:
                reps.append(t)
                covered.update(G.mul(t, l) for l in conj)
        for k in K.elements:
            for t in reps:
                kt = G.mul(k, t)
                u = next(u for u in reps if G.mul(G.inv(u), kt) in conj)
                value = M.act(u).apply(conj[G.mul(G.inv(u), kt)])
                total[k] = [a + b for a, b in zip(total[k], value)]
    return {K.locate(k): tuple(v) for k, v in total.items()}


def mackey_res_cor_ext(E: ExtensionClass, H: Subgroup, K: Subgroup, M: GModule,
                       N: GModule) -> tuple:
    """The class of res^G_K cor^G_H of an extension E over H (of Res M by
    Res N) in Ext^1_K(Res M, Res N), by Mackey's formula: the sum over double
    cosets K g H of the classes of cor^K_L of the extension over
    L = K cap g H g^-1 with blocks N(g) . phi_E(g^-1 l g) . M(g^-1)."""
    G = H.parent
    MK, NK = restrict_module(M, K), restrict_module(N, K)
    ext = ext1(K.group, MK, NK)
    total = ext.zero_coords()
    for g in double_coset_reps(K, H):
        conj = _conjugate_into(K, H, g)
        L = Subgroup(K.group, [K.locate(l) for l in conj])
        phi = [N.act(g) @ E.phi[H.locate(conj[K.embed(L.embed(i))])] @ M.act(G.inv(g))
               for i in L.group.elements()]
        C = ExtensionClass(L.group, restrict_module(NK, L), restrict_module(MK, L), phi)
        cls = class_of(cores_ext(C, L, MK, NK), ext)
        total = tuple(a + b for a, b in zip(total, cls))
    return ext.reduce_coords(total)


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


# -- products and inverses through the whole table ----------------------------------


def product_by_table(x: PadicElement, y: PadicElement) -> PadicElement:
    """x * y by the full contraction with the field's structure-constant
    table, which the library skips when one factor is rational."""
    field = x.field
    return PadicElement(field, _contract(field._table, x.nums, y.nums),
                        x.den * y.den * field._table_den)


def inverse_by_elimination(x: PadicElement) -> PadicElement:
    """The inverse of a nonzero x by one fraction-free solve of the
    multiplication matrix of x, which the library skips for a rational."""
    field = x.field
    n = len(x.nums)
    cols = [_contract(field._table, x.nums, field._monomial(j).nums) for j in range(n)]
    X, d = _bareiss(list(zip(*cols)), [[int(k == 0)] for k in range(n)])
    return PadicElement(field, [x.den * field._table_den * row[0] for row in X], d)


# -- structure-constant tables through Fractions ------------------------------------


def structure_constants_by_fractions(par: LocalField, coeffs: tuple) -> tuple[tuple, int]:
    """Table (T, D) of par[t]/(t^d + c_{d-1} t^{d-1} + ... + c_0), in the
    library's layout: every product m_i m_j t^(a + b) is formed anew for
    each pair of monomials, read as Fraction coordinates, and scaled by the
    lcm of their reduced denominators."""
    d = len(coeffs)
    n = len(par._monomials)
    zero = par.zero()
    powers = [[par.one() if l == s else zero for l in range(d)] for s in range(d)]
    for _ in range(d - 1):
        prev = powers[-1]
        powers.append([(prev[l - 1] if l else zero) - prev[-1] * c
                       for l, c in enumerate(coeffs)])
    basis = [par._monomial(i) for i in range(n)]
    rows = []
    for a in range(d):
        for i in range(n):
            row = []
            for b in range(d):
                for j in range(n):
                    mij = basis[i] * basis[j]
                    row.append([c for r in powers[a + b] for c in (mij * r).coords()])
            rows.append(row)
    den = lcm(*(c.denominator for row in rows for coords in row for c in coords))
    table = tuple(tuple(tuple((k, int(c * den)) for k, c in enumerate(coords) if c)
                        for coords in row) for row in rows)
    return table, den


def residue_table_by_fractions(field: LocalField) -> tuple:
    """The residue field's table over the unramified monomials, in the
    library's layout: each product of two of them by `reference_mul`, its
    Fraction coordinates reduced mod p."""
    p = field.p
    unram = [idx for idx, mono in enumerate(field._monomials)
             if all(k == 0 or field.steps[i].kind == "unramified"
                    for i, k in enumerate(mono))]
    rows = []
    for i in unram:
        row = []
        for j in unram:
            coords = reference_mul(field._monomial(i), field._monomial(j))
            residues = [(r, coords[k].numerator * pow(coords[k].denominator, -1, p) % p)
                        for r, k in enumerate(unram)]
            row.append(tuple((r, v) for r, v in residues if v))
        rows.append(tuple(row))
    return tuple(rows)


# -- irreducibility over a residue field by enumeration ----------------------------


def poly_irreducible_by_enumeration(field: LocalField, residues: list) -> bool:
    """Irreducibility of the monic polynomial with these lower coefficients
    over the residue field of `field`, for degrees up to four: no root, and
    for quartics no monic quadratic divisor, tried over every residue."""
    p = field.p
    d = len(residues)
    elems = list(product(range(p), repeat=field.residue_degree))
    one = field._res_one()
    zero = elems[0]

    def add(a, b, sign=1):
        return tuple((x + sign * y) % p for x, y in zip(a, b))

    for t in elems:
        acc = one
        for j in range(d - 1, -1, -1):
            acc = add(field._res_mul(acc, t), residues[j])
        if acc == zero:
            return False
    if d == 4:
        for b in elems:
            for c in elems:
                # remainder of the quartic modulo x^2 + b x + c, kept as
                # coefficients r1 x + r0 while dividing down
                r = list(residues) + [one]
                for k in range(4, 1, -1):
                    lead = r[k]
                    if lead == zero:
                        continue
                    r[k] = zero
                    r[k - 1] = add(r[k - 1], field._res_mul(lead, b), -1)
                    r[k - 2] = add(r[k - 2], field._res_mul(lead, c), -1)
                if r[0] == zero and r[1] == zero:
                    return False
    return True


# -- the greedy square class search over the whole pool -----------------------------


def square_class_group_by_full_pool(K: LocalField) -> list[PadicElement]:
    """The greedy square class basis read from the uniformizer, -1, 2, ...,
    p - 1, then g and g + c (c = 1, ..., p - 1) for the generator g of every
    unramified step, and then the rest of the library's pool; the library
    leaves out the units of F_p* and of each step's residue field when they
    are all squares in the residue field of K."""
    target = K.degree + 2 if K.p == 2 else 2
    pool = [K.uniformizer(), K.integer(-1)] + [K.integer(c) for c in range(2, K.p)]
    for i, st in enumerate(K.steps):
        if st.kind == "unramified":
            pool += [K.gen(i) + K.integer(c) for c in range(K.p)]
    basis: list[PadicElement] = []
    rows: dict = {}
    for cand in chain(pool, islice(_square_class_pool(K), 1, None)):
        if cand.is_zero():
            continue
        vec, _ = _reduce(rows, _class_vector(K, cand.nums, cand.den))
        if vec:
            rows[vec.bit_length() - 1] = (vec, 0)
            basis.append(cand)
            if len(basis) == target:
                break
    return basis


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


# -- determinants by cofactor expansion ---------------------------------------------


def det_by_cofactors(m: list) -> PadicElement:
    """Determinant of a square matrix of field elements by cofactor
    expansion along the first row: d! products for size d."""
    if len(m) == 1:
        return m[0][0]
    total = m[0][0].field.zero()
    for j, a in enumerate(m[0]):
        if a.is_zero():
            continue
        term = a * det_by_cofactors([row[:j] + row[j + 1:] for row in m[1:]])
        total = total - term if j % 2 else total + term
    return total


# -- element strings through Fraction coordinates ------------------------------------


def as_string_by_fractions(x: PadicElement) -> str:
    """x written term by term, each nonzero coordinate as its Fraction
    followed by the names of its monomial's generators."""
    parts = []
    for a, mono in zip(x.coords(), x.field._monomials):
        if a == 0:
            continue
        names = [f"t{i + 1}" + (f"^{k}" if k > 1 else "")
                 for i, k in enumerate(mono) if k > 0]
        if names:
            parts.append("*".join([str(a)] + names))
        else:
            parts.append(str(a))
    return " + ".join(parts) if parts else "0"
