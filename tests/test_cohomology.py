"""Tests for H^0, H^1, and the maps between them."""

import random
from math import gcd
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chatelet import intmat

from chatelet.cohomology import (
    CohMap,
    corestriction_map,
    dual_group,
    dual_map,
    h0,
    h1,
    induced_map,
    is_cocycle,
    restriction_map,
)
from chatelet.groups import (
    Subgroup,
    all_subgroups,
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    symmetric_group,
)
from chatelet.intmat import IntMatrix, LatticeSubquotient
from chatelet.modules import (
    CACHE_SIZE,
    GModule,
    GModuleMap,
    chatelet_picard_module,
    hom_module,
    induce_module,
    regular_module,
    restrict_module,
    trivial_module,
)
from chatelet.padic import LocalField, _class_vector, is_square
from chatelet.surfaces import _descent_verdicts
from helpers import (
    h1_cyclic,
    h1_reference,
    index_two_sign_module,
    mackey_res_cor,
    module_from_spec,
    module_library,
    random_cocycle,
    random_module,
    trivial_subgroup,
)

C2 = cyclic_group(2)


def sign_over(n):
    G = cyclic_group(n)
    return index_two_sign_module(G, Subgroup(G, [g for g in range(n) if g % 2 == 0]))


# -- degree zero ---------------------------------------------------------------


def test_h0_known_values():
    assert h0(C2, trivial_module(C2)).invariants == (0,)
    assert h0(C2, sign_over(2)).invariants == ()
    # invariants of the regular module form the norm line
    assert h0(C2, regular_module(C2)).invariants == (0,)
    # Z/4 with sign action over C2: invariants {0, 2} = Z/2
    M = index_two_sign_module(C2, trivial_subgroup(C2), modulus=4)
    assert h0(C2, M).invariants == (2,)


def test_h0_coords_roundtrip():
    M = trivial_module(C2, rank=2)
    coh = h0(C2, M)
    assert coh.coords_of_cocycle((3, -1)) is not None
    v = coh.cocycle_from_coords(coh.coords_of_cocycle((3, -1)))
    assert coh.coords_of_cocycle(v) == coh.coords_of_cocycle((3, -1))
    with pytest.raises(ValueError):
        h0(C2, sign_over(2)).coords_of_cocycle((1,))  # not invariant


# -- degree one: known values ----------------------------------------------------


def test_h1_sign_module():
    assert h1(C2, sign_over(2)).invariants == (2,)
    assert h1(C2, trivial_module(C2)).invariants == ()


def test_h1_trivial_action_is_hom_group():
    # with trivial action, H^1(G, M) = Hom(G, M)
    cases = [
        (cyclic_group(6), (4,), (2,)),
        (direct_product(C2, C2), (2,), (2, 2)),
        (symmetric_group(3), (2,), (2,)),
        (symmetric_group(3), (3,), ()),
        (quaternion_group(), (2,), (2, 2)),
        (dihedral_group(4), (2,), (2, 2)),
        (cyclic_group(5), (0,), ()),
    ]
    for G, rel, expected in cases:
        M = trivial_module(G, relations=[rel] if rel != (0,) else ())
        assert h1(G, M).invariants == expected, (G.name, rel)


def test_h1_regular_module_vanishes():
    for G in (C2, cyclic_group(3), symmetric_group(3)):
        assert h1(G, regular_module(G)).is_trivial


def test_a_trivial_h1_takes_no_smith_form_and_no_inverse():
    """H^1(G, Z[G]) = 0 is decided by one echelon of the coboundaries: no
    Smith form, and no inverse when its generators and coordinates are read.
    A nontrivial H^1 still takes its one Smith form."""
    cases = [(G, regular_module(G)) for G in (cyclic_group(4), symmetric_group(3),
                                                 quaternion_group())]
    sign = sign_over(2)
    h1.cache_clear()
    with patch.object(intmat, "smith_normal_form", wraps=intmat.smith_normal_form) as snf, \
            patch.object(intmat, "unimodular_inverse",
                         wraps=intmat.unimodular_inverse) as inverse:
        for G, M in cases:
            H = h1(G, M)
            assert H.invariants == ()
            assert H.generator_cocycles() == []
            zero = {g: (0,) * M.rank for g in G.elements()}
            assert H.coords_of_cocycle(zero) == ()
        assert snf.call_count == 0
        assert inverse.call_count == 0
        assert h1(C2, sign).invariants == (2,)
        assert snf.call_count == 1


def test_h1_picard_module():
    P = chatelet_picard_module()
    assert h1(P.group, P).invariants == (2, 2)


def test_h1_trivial_group():
    G = cyclic_group(1)
    assert h1(G, trivial_module(G, relations=[(5,)])).is_trivial


@pytest.mark.parametrize("G", [cyclic_group(1), trivial_subgroup(symmetric_group(3)).group],
                         ids=["C1", "trivial-subgroup-of-S3"])
def test_h1_group_without_generators(G):
    # the generator walk stops at the identity: H^1 is zero and its one
    # class is the zero cocycle, for free, regular and finite coefficients
    assert G.generating_set() == []
    for M in (trivial_module(G, rank=2), regular_module(G),
              trivial_module(G, rank=2, relations=[(3, 0), (1, 4)])):
        coh = h1(G, M)
        zero = {G.identity: (0,) * M.rank}
        assert coh.invariants == ()
        assert coh.generator_cocycles() == []
        assert coh.cocycle_from_coords(()) == zero
        assert coh.coords_of_cocycle(zero) == ()


def test_h1_generator_cocycles_are_cocycles():
    rng = random.Random(11)
    for G in (cyclic_group(4), dihedral_group(3), direct_product(C2, C2)):
        for _ in range(5):
            M = random_module(G, rng)
            coh = h1(G, M)
            for c in coh.generator_cocycles():
                assert is_cocycle(M, c)
                assert c[G.identity] == (0,) * M.rank


def test_h1_coords_roundtrip():
    rng = random.Random(23)
    for G in (cyclic_group(6), dihedral_group(4), quaternion_group()):
        for _ in range(4):
            M = random_module(G, rng)
            coh = h1(G, M)
            if not coh.invariants:
                continue
            cocycle, coords = random_cocycle(coh, rng)
            assert coh.coords_of_cocycle(cocycle) == coh.reduce_coords(coords)


def test_h1_rejects_non_cocycle():
    M = trivial_module(C2, relations=[(4,)])
    coh = h1(C2, M)
    # c(sigma) = 1 forces c(sigma^2) = 2 != 0 = c(identity) in Z/4
    with pytest.raises(ValueError):
        coh.coords_of_cocycle({0: (0,), 1: (1,)})


def test_h1_cyclic_agrees_with_general():
    rng = random.Random(37)
    for n in (2, 3, 4, 5, 6, 8, 9, 12):
        G = cyclic_group(n)
        for _ in range(6):
            M = random_module(G, rng)
            a = h1(G, M)
            b = h1_cyclic(G, M)
            assert a.invariants == b.invariants, (n, M.name)
            # generators of either computation map to the same classes:
            # the cross-coordinates must generate the full group
            if a.invariants:
                for c in b.generator_cocycles():
                    assert is_cocycle(M, c)
                cross = IntMatrix.from_columns(
                    [a.coords_of_cocycle(c) for c in b.generator_cocycles()],
                    nrows=len(a.invariants))
                cm = CohMap(b, a, cross, kind="oracle-comparison")
                assert cm.is_injective() and cm.is_surjective()


def _twisted_torsion_module(G, m):
    """(Z/m)^2 on which the elements outside an index-two subgroup act by
    [[1, 1], [0, -1]], an involution, and the others trivially."""
    K = next(s for s in all_subgroups(G) if s.index == 2)
    A = IntMatrix([[1, 1], [0, -1]])
    mats = [IntMatrix.identity(2) if K.contains(g) else A for g in G.elements()]
    return GModule(G, 2, [(m, 0), (0, m)], mats, name="twisted")


def test_h1_matches_the_whole_matrix_reference():
    Q8, D4 = quaternion_group(), dihedral_group(4)
    modules = [regular_module(G) for G in (symmetric_group(4), D4, Q8, cyclic_group(6))]
    modules.append(trivial_module(Q8, rank=2, relations=[(2, 0), (0, 6)]))
    modules.append(_twisted_torsion_module(D4, 4))
    for M in modules:
        ours, ref = h1(M.group, M), h1_reference(M.group, M)
        assert ours.invariants == ref.invariants, M.name
        assert ours.generator_cocycles() == ref.generator_cocycles(), M.name
    assert h1(Q8, modules[-2]).invariants == (2, 2, 2, 2)
    assert h1(D4, modules[-1]).invariants == (4,)


def _numerator_basis(coh):
    """The Z^1 lattice of a degree-one group, as its echelon basis vectors."""
    return [(0,) * c + P for c, P in coh._subq._basis]


def test_relator_blocks_cut_out_the_closing_edge_cocycles():
    """One Fox block per relator gives the Z^1 lattice of the closing-edge
    system, each lattice containing the other's basis.  Q8 needs closing
    words past its candidate relators, and Z/2 or Z/4 coefficients there
    see a relator that is missing."""
    rng = random.Random(16)
    groups = (quaternion_group(), dihedral_group(4), symmetric_group(3),
              direct_product(quaternion_group(), cyclic_group(2)), cyclic_group(6),
              direct_product(cyclic_group(2), cyclic_group(4)))
    checked = 0
    for G in groups:
        for M in module_library(G, rng):
            ours, ref = h1(G, M), h1_reference(G, M)
            assert all(ref._subq.contains(v) for v in _numerator_basis(ours)), (G, M)
            assert all(ours._subq.contains(v) for v in _numerator_basis(ref)), (G, M)
            checked += 1
    assert checked >= 30


def test_cohomology_caches_are_bounded():
    caches = (h0, h1, hom_module, restrict_module)
    bound = max(cache.cache_info().maxsize for cache in caches)
    target = trivial_module(C2)
    H = trivial_subgroup(C2)
    for k in range(2, bound + 12):
        M = trivial_module(C2, relations=[(k,)])
        h0(C2, M)
        h1(C2, M)
        hom_module(M, target)
        restrict_module(M, H)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert info.currsize <= info.maxsize


def test_a_restricted_module_is_built_once_and_its_h1_looked_up_once():
    G = dihedral_group(4)
    H = Subgroup(G, [0, 2, 4, 6])
    M = trivial_module(G, relations=[(2,)])
    first = restrict_module(M, H)
    assert restrict_module(M, H) is first
    h1(H.group, first)
    hits = h1.cache_info().hits
    assert h1(H.group, restrict_module(M, H)) is h1(H.group, first)
    assert h1.cache_info().hits == hits + 2


def test_padic_caches_are_bounded():
    q3 = LocalField.qp(3)
    for k in range(CACHE_SIZE + 12):
        q3.extend_eisenstein([3 * (3 * k + 1), 0])
    info = LocalField.make.cache_info()
    assert info.maxsize == CACHE_SIZE and info.currsize == CACHE_SIZE
    K = q3.extend_eisenstein([-3, 0])
    for n in range(CACHE_SIZE + 12):
        x = K.integer(n) + K.gen(0)
        is_square(x)
    info = _class_vector.cache_info()
    assert info.maxsize == CACHE_SIZE and info.currsize == CACHE_SIZE
    is_square(x)
    assert _class_vector.cache_info().hits == info.hits + 1


def test_descent_verdict_cache_is_bounded():
    for n in range(1, CACHE_SIZE + 12):
        _descent_verdicts(n)
    info = _descent_verdicts.cache_info()
    assert info.maxsize == CACHE_SIZE
    assert info.currsize <= info.maxsize


def test_maps_compose_after_their_groups_left_the_cache():
    G = cyclic_group(4)
    H = Subgroup(G, [0, 2])
    M = trivial_module(G, relations=[(8,)])
    res = restriction_map(H, M)
    for k in range(2, h1.cache_info().maxsize + 12):
        h1(C2, trivial_module(C2, relations=[(k,)]))
    cor = corestriction_map(H, M)
    assert cor.source is not res.target and cor.source == res.target
    assert hash(cor.source) == hash(res.target)
    assert res.then(cor).matrix == IntMatrix([[2]])
    assert cor.target != res.target and cor.source != h0(H.group, cor.source.module)


def test_h1_cyclic_rejects_non_cyclic():
    with pytest.raises(ValueError):
        h1_cyclic(direct_product(C2, C2), trivial_module(direct_product(C2, C2)))


# -- restriction and corestriction ------------------------------------------------


def test_restriction_to_self_is_identity():
    G = cyclic_group(6)
    M = sign_over(6)
    H = Subgroup(G, range(6))
    res = restriction_map(H, M)
    assert res.is_identity()


def test_restriction_to_trivial_subgroup_is_zero():
    G = cyclic_group(4)
    M = index_two_sign_module(G, Subgroup(G, [0, 2]))
    res = restriction_map(trivial_subgroup(G), M)
    assert res.is_zero()


def test_corestriction_after_restriction_is_index():
    # G = Z/6 > H = Z/2 on the sign module: H^1(G) = Z/2 -> Z/2,
    # cor res = multiplication by the index 3, the identity here
    G = cyclic_group(6)
    M = sign_over(6)
    H = Subgroup(G, [0, 3])
    res = restriction_map(H, M)
    cor = corestriction_map(H, M)
    comp = res.then(cor)
    assert h1(G, M).invariants == (2,)
    assert comp.is_identity()
    # index 2 case kills the class
    K = Subgroup(G, [0, 2, 4])
    comp2 = restriction_map(K, M).then(corestriction_map(K, M))
    assert comp2.is_zero()


def test_corestriction_degree_zero_is_norm():
    G = cyclic_group(4)
    M = trivial_module(G)
    H = Subgroup(G, [0, 2])
    cor = corestriction_map(H, M, degree=0)
    # the norm of 1 over two cosets is 2
    assert cor.apply((1,)) == (2,)


def test_cor_res_identity_randomized():
    rng = random.Random(77)
    groups = [cyclic_group(n) for n in (4, 6, 9)] + [dihedral_group(3)]
    for G in groups:
        from chatelet.groups import all_subgroups

        subs = [s for s in all_subgroups(G) if s.order not in (1, G.order)]
        for _ in range(6):
            M = random_module(G, rng)
            H = rng.choice(subs)
            coh = h1(G, M)
            if not coh.invariants:
                continue
            comp = restriction_map(H, M).then(corestriction_map(H, M))
            n = H.index
            cocycle, coords = random_cocycle(coh, rng)
            expected = coh.reduce_coords([n * x for x in coords])
            assert comp.apply(coords) == expected


S3, D4, Q8, S4 = symmetric_group(3), dihedral_group(4), quaternion_group(), symmetric_group(4)
C2xS3, D6 = direct_product(C2, S3), dihedral_group(6)
# the even permutations of S4, whose elements are listed in lexicographic order
A4 = (0, 3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 23)

# (group, H, K, module spec): res^G_K cor^G_H on H^1 against Mackey's
# double-coset formula.  The free Z/n modules on the cosets of a non-normal
# subgroup are ones on which conjugation moves classes, so dropping the
# g-action of c_g changes the sum there
MACKEY_CASES = [
    (S3, (0, 1), (0, 2), ("cosets", (0, 1), 2)),
    (S3, (0, 2), (0, 1, 2, 3, 4, 5), ("cosets", (0, 1), 4)),
    (S3, (0, 3, 4), (0, 1), ("trivial", (), 6)),
    (D4, (0, 4), (0, 6), ("cosets", (0, 4), 4)),
    (D4, (0, 2, 4, 6), (0, 4), ("cosets", (0, 4), 2)),
    (D4, (0, 5), (0, 2, 4, 6), ("sign", (0, 1, 2, 3), 4)),
    (Q8, (0, 1, 2, 3), (0, 1, 2, 3), ("sign", (0, 1, 2, 3), 4)),
    (Q8, (0, 1), (0, 1, 4, 5), ("trivial", (), 4)),
    (S4, (0, 1, 2, 3, 4, 5), (0, 2, 6, 8, 12, 14), ("cosets", (0, 1, 6, 7), 2)),
    (S4, (0, 1, 2, 3, 4, 5), (0, 8, 12), ("cosets", (0, 1, 6, 7), 2)),
    (S4, A4, (0, 1, 14, 15, 20, 21), ("sign", A4, 3)),
    (C2xS3, (0, 1), (0, 2, 6, 8), ("cosets", (0, 1), 2)),
    (C2xS3, (0, 3, 4, 6, 9, 10), (0, 1), ("sign", (0, 1, 2, 3, 4, 5), 4)),
    (D6, (0, 6), (0, 3, 8, 11), ("cosets", (0, 6), 2)),
    (D6, (0, 2, 4), (0, 6), ("trivial", (), 6)),
]


def test_res_after_cor_on_h1_is_the_double_coset_sum():
    for G, h_elements, k_elements, spec in MACKEY_CASES:
        H, K = Subgroup(G, h_elements), Subgroup(G, k_elements)
        M = module_from_spec(G, *spec)
        source = h1(H.group, restrict_module(M, H))
        target = h1(K.group, restrict_module(M, K))
        assert source.invariants
        composite = corestriction_map(H, M).then(restriction_map(K, M))
        units = IntMatrix.identity(len(source.invariants)).rows
        for unit, cocycle in zip(units, source.generator_cocycles()):
            oracle = target.coords_of_cocycle(mackey_res_cor(H, K, M, cocycle))
            assert composite.apply(unit) == oracle


# (group, subgroup elements, module, degrees): the subgroups of the cases
# above, and ones whose maps have free parts, Z -> Z^12 among them
SUBGROUP_MAP_CASES = [
    (G, elements, module_from_spec(G, *spec), (0, 1))
    for G, h_elements, k_elements, spec in MACKEY_CASES
    for elements in (h_elements, k_elements)
] + [
    (cyclic_group(6), (0, 3), sign_over(6), (0, 1)),
    (cyclic_group(6), (0, 2, 4), sign_over(6), (0, 1)),
    (cyclic_group(6), range(6), sign_over(6), (0, 1)),
    (cyclic_group(4), (0,), index_two_sign_module(cyclic_group(4),
                                                  Subgroup(cyclic_group(4), [0, 2])), (0, 1)),
    (cyclic_group(4), (0, 2), trivial_module(cyclic_group(4)), (0, 1)),
    (cyclic_group(4), (0, 2), trivial_module(cyclic_group(4), relations=[(4,)]), (0, 1)),
    (D4, (0, 2), trivial_module(D4), (0, 1)),
    (D4, (0, 1, 2, 3), trivial_module(D4, relations=[(2,)]), (0, 1)),
    (cyclic_group(6), (0, 2, 4), trivial_module(cyclic_group(6), rank=2), (0, 1)),
    (S4, (0, 1), regular_module(S4), (0,)),
]


def test_subgroup_map_flags_agree_with_their_subquotients():
    """The flags read off one solve or one echelon say what the kernel and
    cokernel subquotients say, on every restriction and corestriction."""
    for G, elements, M, degrees in SUBGROUP_MAP_CASES:
        H = Subgroup(G, elements)
        for degree in degrees:
            for f in (restriction_map(H, M, degree), corestriction_map(H, M, degree)):
                label = (G.name, tuple(elements), f.kind, degree)
                assert f.is_injective() == (f.kernel_invariants() == ()), label
                assert f.is_surjective() == (f.cokernel_invariants() == ()), label


def test_subgroup_map_flags_build_no_subquotient_and_take_no_smith_form():
    """Once the maps of an h1 job with a subgroup are built, its zero,
    injective and surjective flags build no LatticeSubquotient and take no
    Smith form."""
    maps = []
    for G, elements, M, degree in [(D4, (0, 2), trivial_module(D4), 0),
                                   (S4, (0, 1), regular_module(S4), 0),
                                   (cyclic_group(4), (0, 2),
                                    trivial_module(cyclic_group(4), relations=[(4,)]), 1),
                                   (D6, (0, 2, 4), module_from_spec(D6, "trivial", (), 6), 1)]:
        H = Subgroup(G, elements)
        maps += [restriction_map(H, M, degree), corestriction_map(H, M, degree)]
    with patch.object(LatticeSubquotient, "__init__", autospec=True,
                      side_effect=LatticeSubquotient.__init__) as built, \
            patch.object(intmat, "smith_normal_form", wraps=intmat.smith_normal_form) as snf:
        flags = [(f.is_zero(), f.is_injective(), f.is_surjective()) for f in maps]
    assert built.call_count == 0
    assert snf.call_count == 0
    assert flags == [(f.is_zero(), f.kernel_invariants() == (), f.cokernel_invariants() == ())
                     for f in maps]


def test_shapiro_invariants():
    # H^1(G, induced module) matches H^1(H, original module)
    G = cyclic_group(6)
    H = Subgroup(G, [0, 3])
    M = index_two_sign_module(H.parent, Subgroup(G, [0, 2, 4]))  # parent module
    MH = restrict_module(M, H)
    ind = induce_module(MH, H)
    assert h1(G, ind).invariants == h1(H.group, MH).invariants


# -- induced maps -------------------------------------------------------------------


def test_induced_map_multiplication():
    M = sign_over(2)
    doubling = GModuleMap(M, M, IntMatrix([[2]]))
    ind = induced_map(doubling)
    assert ind.is_zero()  # H^1 = Z/2, multiplication by 2 kills it
    identity = GModuleMap(M, M, IntMatrix([[1]]))
    assert induced_map(identity).is_identity()


def test_induced_map_projection():
    # project sign + trivial onto sign: surjective on H^1
    from chatelet.modules import direct_sum

    M = sign_over(2)
    S = direct_sum(M, trivial_module(C2))
    proj = GModuleMap(S, M, IntMatrix([[1, 0]]))
    ind = induced_map(proj)
    assert ind.is_surjective()


@pytest.mark.parametrize("degree", [2, -1])
@pytest.mark.parametrize("build", [
    lambda H, M, d: restriction_map(H, M, degree=d),
    lambda H, M, d: corestriction_map(H, M, degree=d),
    lambda H, M, d: induced_map(GModuleMap(M, M, IntMatrix.identity(M.rank)), degree=d),
], ids=["restriction", "corestriction", "induced"])
def test_maps_refuse_other_degrees(build, degree):
    G = cyclic_group(4)
    H = Subgroup(G, [0, 2])
    M = index_two_sign_module(G, H)
    with pytest.raises(ValueError, match="only degrees 0 and 1 are supported"):
        build(H, M, degree)


@pytest.mark.parametrize("build", [restriction_map, corestriction_map],
                         ids=["restriction", "corestriction"])
def test_maps_refuse_a_module_over_another_group(build):
    G = cyclic_group(4)
    with pytest.raises(ValueError, match="module is not over the subgroup's parent"):
        build(Subgroup(G, [0, 2]), trivial_module(cyclic_group(2)))


def test_induced_map_requires_full_equivariance():
    G = cyclic_group(4)
    M = index_two_sign_module(G, Subgroup(G, [0, 2]))
    T = trivial_module(G)
    half = GModuleMap(M, T, IntMatrix([[1]]), scope=Subgroup(G, [0, 2]))
    with pytest.raises(ValueError):
        induced_map(half)


# -- CohMap structure ---------------------------------------------------------------


def test_cohmap_predicates():
    A = dual_group_holder((2,))
    B = dual_group_holder((4,))
    inc = CohMap(A, B, IntMatrix([[2]]), kind="test")
    assert inc.is_injective() and not inc.is_surjective()
    assert inc.kernel_invariants() == ()
    assert inc.image_invariants() == (2,)
    assert inc.cokernel_invariants() == (2,)
    quo = CohMap(B, A, IntMatrix([[1]]), kind="test")
    assert quo.is_surjective() and not quo.is_injective()
    zero = CohMap(A, B, IntMatrix([[0]]), kind="test")
    assert zero.is_zero() and zero.describe() == "zero"
    with pytest.raises(ValueError):
        CohMap(A, B, IntMatrix([[1]]), kind="bad")  # 2*1 != 0 mod 4


def _invariants_holder(invariants):
    return SimpleNamespace(invariants=tuple(invariants))


INVARIANT = st.sampled_from([0, 2, 3, 4, 6])


@st.composite
def coh_maps(draw):
    """A well-defined map between finite and free abelian groups of rank at
    most 3: entry (j, i) is a multiple of the least x with a_i x = 0 mod b_j,
    and 0 when that needs b_j = 0 with a_i finite."""
    a = draw(st.lists(INVARIANT, max_size=3))
    b = draw(st.lists(INVARIANT, max_size=3))

    def step(ai, bj):
        if bj == 0:
            return 0 if ai else 1
        return bj // gcd(bj, ai)

    rows = [[step(ai, bj) * draw(st.integers(-3, 3)) for ai in a] for bj in b]
    return CohMap(_invariants_holder(a), _invariants_holder(b),
                  IntMatrix(rows, ncols=len(a)), kind="test")


@settings(max_examples=300, deadline=None)
@given(coh_maps())
@example(CohMap(_invariants_holder(()), _invariants_holder((0, 2)),
                IntMatrix([[], []], ncols=0), kind="rank 0 source"))
@example(CohMap(_invariants_holder((0, 4)), _invariants_holder(()),
                IntMatrix([], ncols=2), kind="rank 0 target"))
@example(CohMap(_invariants_holder((0,)), _invariants_holder((0,)),
                IntMatrix([[2]]), kind="free, cokernel Z/2"))
@example(CohMap(_invariants_holder((4, 0)), _invariants_holder((2, 0)),
                IntMatrix([[1, 0], [0, 0]]), kind="kernel Z/2 x Z, cokernel Z"))
def test_flags_agree_with_the_kernel_and_cokernel(f):
    assert f.is_injective() == (f.kernel_invariants() == ())
    assert f.is_surjective() == (f.cokernel_invariants() == ())


def dual_group_holder(invariants):
    from chatelet.modules import FpAbGroup

    relations = [tuple(d if i == j else 0 for j in range(len(invariants)))
                 for i, d in enumerate(invariants)]
    return FpAbGroup(len(invariants), relations)


# -- duality ------------------------------------------------------------------------


def test_dual_group():
    assert dual_group(dual_group_holder((2, 4))).invariants == (2, 4)
    with pytest.raises(ValueError):
        dual_group(dual_group_holder((0,)))


def test_the_dual_group_reads_coordinates_modulo_its_invariants():
    D = dual_group(dual_group_holder((2, 4)))
    diagonal = dual_group_holder((2, 4))
    assert D == diagonal and hash(D) == hash(diagonal)
    assert D != dual_group_holder((4, 2))
    assert [D.coords(g) for g in D.generators()] == [(1, 0), (0, 1)]
    for v in [(3, 7), (-1, -1), (0, 4), (5, -6)]:
        assert D.coords(v) == (v[0] % 2, v[1] % 4)
        assert D.coords(D.lift(D.coords(v))) == D.coords(v)


def test_dual_map_known():
    A = dual_group_holder((2,))
    B = dual_group_holder((4,))
    inc = CohMap(A, B, IntMatrix([[2]]), kind="test")  # injective
    d = dual_map(inc)
    assert d.matrix == IntMatrix([[1]])
    assert d.is_surjective()
    quo = CohMap(B, A, IntMatrix([[1]]), kind="test")  # surjective
    dq = dual_map(quo)
    assert dq.matrix == IntMatrix([[2]])
    assert dq.is_injective()


def test_dual_map_randomized():
    # dual of surjective is injective, dual of zero is zero, and duality
    # reverses composition on a seeded family of maps
    rng = random.Random(5)

    def chain():
        # invariants in divisibility order, so coordinates stay aligned
        d = rng.choice([2, 3, 4])
        out = [d]
        for _ in range(rng.randint(0, 2)):
            d *= rng.choice([1, 2])
            out.append(d)
        return out

    for _ in range(40):
        a = chain()
        b = chain()
        A = dual_group_holder(tuple(a))
        B = dual_group_holder(tuple(b))
        rows = []
        for j, bj in enumerate(b):
            row = []
            for i, ai in enumerate(a):
                # a valid entry must satisfy ai * x = 0 mod bj
                step = bj // gcd(bj, ai)
                row.append(step * rng.randint(0, 3))
            rows.append(row)
        f = CohMap(A, B, IntMatrix(rows, ncols=len(a)), kind="test")
        d = dual_map(f)
        if f.is_surjective():
            assert d.is_injective()
        if f.is_injective():
            assert d.is_surjective()
        if f.is_zero():
            assert d.is_zero()
        assert dual_map(d).matrix.shape == f.matrix.shape
