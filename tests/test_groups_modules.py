"""Tests for finite groups, subgroup bookkeeping, and presented modules."""

import random

import pytest

from chatelet.cohomology import h1, is_cocycle
from chatelet.groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    cyclic_group,
    dihedral_group,
    direct_product,
    full_subgroup,
    quaternion_group,
    symmetric_group,
    trivial_subgroup,
)
from chatelet.intmat import IntMatrix
from chatelet.modules import (
    FpAbGroup,
    GModule,
    GModuleMap,
    chatelet_picard_module,
    direct_sum,
    equivariant_hom_basis,
    hom_module,
    ind_counit,
    ind_unit,
    induce_module,
    invariant_subquotient,
    permutation_module,
    regular_module,
    restrict_module,
    trivial_module,
)

from helpers import (
    is_cocycle_all_pairs,
    module_axioms_all_pairs,
    module_library,
    permutation_action_all_pairs,
    random_cocycle,
)

C2 = cyclic_group(2)
C4 = cyclic_group(4)
C6 = cyclic_group(6)
LAW_GROUPS = (C4, symmetric_group(3), dihedral_group(4), quaternion_group())


def sign_module(n):
    """Z with the generator of Z/n acting as -1 (n must be even)."""
    G = cyclic_group(n)
    mats = [IntMatrix([[(-1) ** (k % 2)]]) for k in range(n)]
    return GModule(G, 1, (), mats, name="sign")


# -- groups ----------------------------------------------------------------


def test_cyclic_group_structure():
    G = cyclic_group(6)
    assert G.order == 6
    assert G.identity == 0
    assert G.mul(4, 5) == 3
    assert G.inv(2) == 4
    assert G.element_order(2) == 3
    assert G.is_abelian()
    assert G.generating_set() == [1]
    assert G.power(5, -1) == 1


def test_dihedral_group_structure():
    D4 = dihedral_group(4)
    assert D4.order == 8
    assert not D4.is_abelian()
    # a flip squares to the identity, a rotation has order 4
    assert D4.element_order(4) == 2
    assert D4.element_order(1) == 4
    # validate associativity by rebuilding with the full check on
    FiniteGroup(D4.table)


def test_symmetric_group_structure():
    S3 = symmetric_group(3)
    assert S3.order == 6
    assert not S3.is_abelian()
    assert sorted(S3.element_order(g) for g in S3.elements()) == [1, 2, 2, 2, 3, 3]
    FiniteGroup(S3.table)


def test_quaternion_group_structure():
    Q8 = quaternion_group()
    assert Q8.order == 8
    assert not Q8.is_abelian()
    orders = sorted(Q8.element_order(g) for g in Q8.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    FiniteGroup(Q8.table)


def test_quaternion_table_is_the_hamilton_product():
    # element 2 b + s is (-1)^s times unit b of (1, i, j, k), as a 4-tuple
    def quaternion(x):
        q = [0, 0, 0, 0]
        q[x // 2] = -1 if x % 2 else 1
        return tuple(q)

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    Q8 = quaternion_group()
    for x in Q8.elements():
        for y in Q8.elements():
            assert quaternion(Q8.mul(x, y)) == hamilton(quaternion(x), quaternion(y))


def test_direct_product():
    G = direct_product(C2, C4)
    assert G.order == 8
    assert G.is_abelian()
    assert sorted(G.element_order(g) for g in G.elements()) == [1, 2, 2, 2, 4, 4, 4, 4]
    FiniteGroup(G.table)


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse row behaviour
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 0]])  # no two-sided identity consistency
    # non-associative magma with identity and "inverses"
    with pytest.raises(ValueError):
        FiniteGroup([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])



@pytest.mark.parametrize("n", [64, 65])
def test_associativity_checked_at_every_order(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    assert FiniteGroup(table).order == n
    # identity and inverses survive the swap, associativity does not
    table[1][2], table[1][3] = table[1][3], table[1][2]
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(table)

def test_subgroup_basics():
    G = cyclic_group(6)
    H = Subgroup(G, [0, 2, 4])
    assert H.order == 3
    assert H.index == 2
    assert H.group.order == 3
    assert H.embed(H.locate(4)) == 4
    assert H.contains(2) and not H.contains(1)
    with pytest.raises(ValueError):
        Subgroup(G, [0, 1, 2])  # not closed
    with pytest.raises(ValueError):
        Subgroup(G, [2, 4])  # missing identity


def test_subgroup_cosets_and_transfer():
    G = dihedral_group(3)  # order 6
    H = Subgroup(G, [0, 3])  # a flip of order 2
    reps = H.left_coset_reps()
    assert len(reps) == 3
    assert reps[0] == G.identity
    seen = set()
    for r in reps:
        for h in H.elements:
            seen.add(G.mul(r, h))
    assert seen == set(range(6))
    # transfer factors satisfy g * r_i = r_j * h with h in H
    for g in G.elements():
        for i in range(len(reps)):
            j, h = H.transfer_factor(g, i)
            assert h in H.elements
            assert G.mul(g, reps[i]) == G.mul(reps[j], h)


def test_all_subgroups():
    orders = sorted(s.order for s in all_subgroups(cyclic_group(12)))
    assert orders == [1, 2, 3, 4, 6, 12]
    subs = all_subgroups(quaternion_group())
    assert sorted(s.order for s in subs) == [1, 2, 4, 4, 4, 8]
    assert all(s.is_normal() for s in subs)
    s3 = all_subgroups(symmetric_group(3))
    assert sorted(s.order for s in s3) == [1, 2, 2, 2, 3, 6]
    assert trivial_subgroup(C4).order == 1
    assert full_subgroup(C4).index == 1


# -- modules -----------------------------------------------------------------


def test_trivial_and_sign_modules():
    T = trivial_module(C4, rank=2)
    T.validate()
    M = sign_module(2)
    M.validate()
    assert M.act_on(1, (3,)) == (-3,)


def test_module_axioms_enforced():
    # wrong identity action
    with pytest.raises(ValueError):
        GModule(C2, 1, (), [IntMatrix([[2]]), IntMatrix([[1]])])
    # not a homomorphism: sigma^2 = e must act trivially
    with pytest.raises(ValueError):
        GModule(C2, 1, (), [IntMatrix([[1]]), IntMatrix([[2]])])
    # relation lattice not preserved: the swap moves (2,0) to (0,2)
    with pytest.raises(ValueError):
        GModule(C2, 2, [(2, 0)], [IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]])])
    # mod-relation axioms are accepted: multiplication by 2 on Z/5 over C4
    GModule(C4, 1, [(5,)], [IntMatrix([[pow(2, k, 5)]]) for k in range(4)]).validate()


def test_regular_module():
    R = regular_module(symmetric_group(3))
    R.validate()
    # left translation matrices are permutation matrices
    for g in R.group.elements():
        m = R.act(g)
        assert sorted(sum(row) for row in m.rows) == [1] * 6
        assert m.det() in (1, -1)


def test_permutation_module():
    G = cyclic_group(3)
    perms = [tuple((x + k) % 3 for x in range(3)) for k in range(3)]
    P = permutation_module(G, perms)
    P.validate()
    assert P.act_on(1, (1, 0, 0)) == (0, 1, 0)
    with pytest.raises(ValueError):
        permutation_module(G, [perms[0], perms[1], perms[1]])


def test_chatelet_picard_module():
    P = chatelet_picard_module()
    P.validate()
    assert P.rank == 2
    assert P.act(1) == IntMatrix([[-1, 0], [0, -1]])


def test_direct_sum():
    M = sign_module(2)
    S = direct_sum(M, trivial_module(C2, rank=1, relations=[(4,)]))
    S.validate()
    assert S.rank == 2
    assert S.relations == ((0, 4),)
    assert S.act_on(1, (1, 1)) == (-1, 1)


def test_fp_ab_group():
    A = FpAbGroup(2, [(2, 0), (0, 4)])
    assert A.invariants == (2, 4)
    assert A.order == 8
    assert A.describe() == "Z/2 x Z/4"
    assert len(list(A.elements())) == 8
    B = FpAbGroup(1)
    assert B.invariants == (0,)
    assert B.order is None
    with pytest.raises(ValueError):
        list(B.elements())
    assert FpAbGroup(1, [(1,)]).is_trivial


def test_restrict_module():
    G = cyclic_group(4)
    M = sign_module(4)
    H = Subgroup(G, [0, 2])
    R = restrict_module(M, H)
    R.validate()
    # sigma^2 acts trivially on the sign module
    assert R.act(1) == IntMatrix([[1]])


def test_induce_module_regular():
    # inducing the trivial module from the trivial subgroup gives the regular module
    G = symmetric_group(3)
    H = trivial_subgroup(G)
    T = trivial_module(H.group)
    ind = induce_module(T, H)
    ind.validate()
    reg = regular_module(G)
    # same permutation action up to the coset labelling, which here is the identity
    assert ind.rank == 6
    for g in G.elements():
        assert ind.act(g) == reg.act(g)


def test_induce_module_axioms():
    G = cyclic_group(6)
    H = Subgroup(G, [0, 3])
    M = GModule(H.group, 1, [(4,)], [IntMatrix([[1]]), IntMatrix([[3]])], check=True)
    ind = induce_module(M, H)
    ind.validate()
    assert ind.rank == 3
    assert len(ind.relations) == 3


def test_unit_and_counit():
    G = cyclic_group(4)
    rot = IntMatrix([[0, -1], [1, 0]])
    mats = [IntMatrix.identity(2)]
    for _ in range(3):
        mats.append(rot @ mats[-1])
    M = GModule(G, 2, (), mats, check=True)
    H = Subgroup(G, [0, 2])
    unit = ind_unit(M, H)
    counit = ind_counit(M, H)
    unit.validate()
    counit.validate()
    # counit after unit is multiplication by the index
    comp = unit.then(counit)
    n = H.index
    assert M.matrices_equal(comp.matrix, IntMatrix.identity(M.rank).scale(n))


def test_hom_module_basic():
    # Hom(Z, Z/4) = Z/4 with trivial C2-action when both modules are trivial
    Z = trivial_module(C2)
    Z4 = trivial_module(C2, relations=[(4,)])
    H = hom_module(Z, Z4)
    H.validate()
    assert H.coeff_group().invariants == (4,)
    # Hom(Z/2, Z/4) = Z/2
    Z2 = trivial_module(C2, relations=[(2,)])
    H2 = hom_module(Z2, Z4)
    assert H2.coeff_group().invariants == (2,)
    # a matrix that is not well defined on relations is rejected
    with pytest.raises(ValueError):
        H2.coords_of(IntMatrix([[1]]))
    assert H2.coords_of(IntMatrix([[2]])) != ()


def test_hom_module_action():
    # Hom(sign, Z) over C2: conjugation negates, since (g.f)(m) = g f(g^-1 m)
    M = sign_module(2)
    Z = trivial_module(C2)
    H = hom_module(M, Z)
    H.validate()
    assert H.coeff_group().invariants == (0,)
    assert H.act(1) == IntMatrix([[-1]])


def test_hom_module_roundtrip():
    rng = random.Random(7)
    M = sign_module(2)
    N = trivial_module(C2, rank=2, relations=[(2, 0)])
    H = hom_module(M, N)
    H.validate()
    for _ in range(10):
        coords = [rng.randrange(d) if d else rng.randint(-3, 3)
                  for d in H.coeff_group().invariants]
        F = H.matrix_of(coords)
        assert H.coords_of(F) == H.coeff_group().reduce_coords(coords)


def test_invariant_subquotient():
    # invariants of the sign module are 0, of the trivial module everything
    M = sign_module(2)
    assert invariant_subquotient(M).invariants == ()
    T = trivial_module(C2, rank=2)
    assert invariant_subquotient(T).invariants == (0, 0)
    # regular module of C2: invariants are the norm line, one copy of Z
    R = regular_module(C2)
    q = invariant_subquotient(R)
    assert q.invariants == (0,)
    # the generator is (1, 1) up to sign
    assert tuple(map(abs, q.generators[0])) == (1, 1)


def test_equivariant_hom_basis():
    # G-maps sign -> sign over C2 are all multiplications by an integer
    M = sign_module(2)
    basis = equivariant_hom_basis(M, M)
    assert len(basis) == 1
    assert abs(basis[0].rows[0][0]) == 1
    # G-maps sign -> trivial over C2: only zero
    assert equivariant_hom_basis(M, trivial_module(C2)) == []


def test_module_map_scope():
    G = cyclic_group(4)
    M = sign_module(4)
    T = trivial_module(G)
    # identity matrix is not G-equivariant sign -> trivial
    with pytest.raises(ValueError):
        GModuleMap(M, T, IntMatrix([[1]]))
    # but it is equivariant over the subgroup acting trivially
    H = Subgroup(G, [0, 2])
    GModuleMap(M, T, IntMatrix([[1]]), scope=H)
    with pytest.raises(ValueError):
        GModuleMap(M, T, IntMatrix([[1]]), scope=Subgroup(G, range(4)))


def test_module_map_composition():
    M = sign_module(2)
    double = GModuleMap(M, M, IntMatrix([[2]]))
    triple = GModuleMap(M, M, IntMatrix([[3]]))
    assert double.then(triple).matrix == IntMatrix([[6]])
    assert double.apply((5,)) == (10,)


# -- generator-edge law checks against the all-pairs oracles -------------------------


def _compare(check_edges, check_all_pairs, G, g0, outcomes):
    """Assert both checks agree; record (defect at a generator, verdict)."""
    verdict = check_all_pairs()
    assert check_edges() == verdict
    outcomes.add((g0 in G.generating_set(), verdict))


def _accepts(fn) -> bool:
    """False when fn raises ValueError, True when it returns."""
    try:
        fn()
    except ValueError:
        return False
    return True


def test_validate_agrees_with_all_pairs_oracle():
    rng = random.Random(101)
    for G in LAW_GROUPS:
        outcomes = set()
        for M in module_library(G, rng):
            for g0 in G.elements():
                for k in (1, -1, 2, 4):
                    a, b = rng.randrange(M.rank), rng.randrange(M.rank)
                    bump = [[k if (i, j) == (a, b) else 0 for j in range(M.rank)]
                            for i in range(M.rank)]
                    mats = list(M.action)
                    mats[g0] = mats[g0] + IntMatrix(bump)
                    P = GModule(G, M.rank, M.relations, mats, check=False)
                    _compare(lambda: _accepts(P.validate),
                             lambda: module_axioms_all_pairs(P), G, g0, outcomes)
        # rejections at generators and elsewhere, and perturbations that stay valid
        assert {(True, False), (False, False), (False, True)} <= outcomes, G.name


def test_is_cocycle_agrees_with_all_pairs_oracle():
    rng = random.Random(103)
    for G in LAW_GROUPS:
        outcomes = set()
        for M in module_library(G, rng):
            cocycle, _ = random_cocycle(h1(G, M), rng)
            for g0 in G.elements():
                for k in (1, 2, 4):
                    c = dict(cocycle)
                    i = rng.randrange(M.rank)
                    c[g0] = tuple(x + (k if j == i else 0) for j, x in enumerate(c[g0]))
                    _compare(lambda: is_cocycle(M, c),
                             lambda: is_cocycle_all_pairs(M, c), G, g0, outcomes)
        assert {(True, False), (False, False), (False, True)} <= outcomes, G.name


def test_permutation_module_agrees_with_all_pairs_oracle():
    rng = random.Random(107)
    for G in LAW_GROUPS:
        outcomes = set()
        for H in all_subgroups(G):
            if H.index < 2:
                continue
            reps = H.left_coset_reps()
            perms = [tuple(H.coset_of(G.mul(g, r)) for r in reps) for g in G.elements()]
            for g0 in (None, *G.elements()):  # None: the valid action itself
                bad = [list(p) for p in perms]
                if g0 is not None:
                    x, y = rng.sample(range(H.index), 2)
                    bad[g0][x], bad[g0][y] = bad[g0][y], bad[g0][x]
                _compare(lambda: _accepts(lambda: permutation_module(G, bad)),
                         lambda: permutation_action_all_pairs(G, bad), G, g0, outcomes)
        assert {(True, False), (False, False), (False, True)} <= outcomes, G.name


# -- lattices built by solution_lattice -----------------------------------------------


def test_hom_module_generators_are_well_defined():
    rng = random.Random(109)
    for G in LAW_GROUPS:
        pool = module_library(G, rng)
        for M in pool:
            for N in pool:
                hm = hom_module(M, N)
                for i in range(hm.rank):
                    F = hm.matrix_of([1 if j == i else 0 for j in range(hm.rank)])
                    assert all(N.in_relation_lattice(F.apply(r)) for r in M.relations)


def test_invariant_subquotient_generators_are_fixed():
    rng = random.Random(113)
    for G in LAW_GROUPS:
        pool = module_library(G, rng)
        pool += [hom_module(M, N) for M, N in zip(pool, reversed(pool))]
        for M in pool:
            for v in invariant_subquotient(M).generators:
                assert all(M.vectors_equal(M.act_on(g, v), v) for g in G.elements())
