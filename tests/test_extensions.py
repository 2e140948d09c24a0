"""Tests for extension classes, Ext^1, and the transfer of extensions."""

import random

import pytest

from chatelet.cohomology import corestriction_map, h1, induced_map
from chatelet.extensions import (
    ExtensionClass,
    class_of,
    cores_ext,
    ext1,
    extension_from_cocycle,
    lemma52_check,
    pullback,
    pushout,
    res_ext,
    scaled_map,
)
from chatelet.groups import (
    Subgroup,
    all_subgroups,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from chatelet.intmat import IntMatrix
from chatelet.modules import (
    GModule,
    GModuleMap,
    equivariant_hom_basis,
    hom_module,
    restrict_module,
    trivial_module,
)
from helpers import (
    cores_ext_by_induction,
    coset_permutation_module,
    equivariant_square_instance,
    index_two_sign_module,
    mackey_res_cor_ext,
    module_from_spec,
    norm_of_map,
    random_module,
    torsion_annihilated_instance,
    trivial_subgroup,
)

C2 = cyclic_group(2)
C4 = cyclic_group(4)
C6 = cyclic_group(6)
S3 = symmetric_group(3)
D4 = dihedral_group(4)
S4 = symmetric_group(4)


def sign(G):
    even = Subgroup(G, [g for g in range(G.order) if g % 2 == 0])
    return index_two_sign_module(G, even)


def test_ext1_known_values():
    # Ext of the sign module by itself over C2: Hom is Z with trivial action
    M = sign(C2)
    assert ext1(C2, M, M).is_trivial
    # Ext^1(Z, Z/2) over C2 with trivial actions: Z/2
    Z = trivial_module(C2)
    Z2 = trivial_module(C2, relations=[(2,)])
    assert ext1(C2, Z, Z2).invariants == (2,)


def test_extension_class_validation():
    Z = trivial_module(C2)
    Z2 = trivial_module(C2, relations=[(2,)])
    # the nonsplit extension of Z by Z/2: sigma adds the parity of the Z part
    E = ExtensionClass(C2, Z2, Z, [IntMatrix.zeros(1, 1), IntMatrix([[1]])])
    assert class_of(E) == (1,)
    # an invalid block table is rejected: sigma^2 must act as the identity
    with pytest.raises(ValueError):
        ExtensionClass(C2, trivial_module(C2), Z,
                       [IntMatrix.zeros(1, 1), IntMatrix([[1]])])


def test_split_extension_is_zero():
    Z = trivial_module(C2)
    Z2 = trivial_module(C2, relations=[(2,)])
    E = ExtensionClass(C2, Z2, Z, [IntMatrix.zeros(1, 1)] * 2)
    assert class_of(E) == (0,)


def test_the_hom_cocycle_defaults_to_the_hom_module_of_quot_and_sub():
    rng = random.Random(23)
    for G in (C2, C4, S3):
        M = random_module(G, rng, max_rank=2)
        N = random_module(G, rng, max_rank=2)
        ext = ext1(G, M, N)
        coords = tuple(rng.randrange(d) if d else 1 for d in ext.invariants)
        E = extension_from_cocycle(G, M, N, coords)
        assert E.hom_cocycle() == E.hom_cocycle(hom_module(M, N))


def test_extension_roundtrip():
    rng = random.Random(19)
    for G in (C2, C4, C6):
        for _ in range(6):
            M = random_module(G, rng, max_rank=2)
            N = random_module(G, rng, max_rank=2)
            ext = ext1(G, M, N)
            if not ext.invariants:
                continue
            coords = tuple(rng.randrange(d) if d else rng.randint(-2, 2)
                           for d in ext.invariants)
            E = extension_from_cocycle(G, M, N, coords)
            assert E.sub == N and E.quot == M
            assert class_of(E, ext) == ext.reduce_coords(coords)


def test_pushout_known_value():
    # push the nonsplit extension of Z by Z/2 into Z/4 along t -> 2t:
    # the image class is the extension with block 2, still nonsplit
    Z = trivial_module(C2)
    Z2 = trivial_module(C2, relations=[(2,)])
    Z4 = trivial_module(C2, relations=[(4,)])
    E = ExtensionClass(C2, Z2, Z, [IntMatrix.zeros(1, 1), IntMatrix([[1]])])
    doubling = GModuleMap(Z2, Z4, IntMatrix([[2]]))
    E2 = pushout(E, doubling)
    assert E2.phi[1] == IntMatrix([[2]])
    ext = ext1(C2, Z, Z4)
    assert ext.invariants == (2,)
    assert class_of(E2, ext) != (0,)


def test_pushout_matches_induced_map_on_hom():
    rng = random.Random(3)
    G = C4
    for _ in range(8):
        M = random_module(G, rng, max_rank=2)
        N = trivial_module(G, relations=[(2,)])
        N2 = trivial_module(G, relations=[(4,)])
        ext = ext1(G, M, N)
        if not ext.invariants:
            continue
        coords = tuple(rng.randrange(d) if d else 1 for d in ext.invariants)
        E = extension_from_cocycle(G, M, N, coords)
        a = GModuleMap(N, N2, IntMatrix([[2]]))
        # hom-level post-composition map, built on hom generators
        hom_a = hom_module(M, N)
        hom_b = hom_module(M, N2)
        cols = [hom_b.coords_of(a.matrix @ hom_a.matrix_of(
            tuple(1 if i == j else 0 for j in range(hom_a.rank))))
            for i in range(hom_a.rank)]
        post = GModuleMap(hom_a, hom_b,
                          IntMatrix.from_columns(cols, nrows=hom_b.rank))
        lhs = class_of(pushout(E, a), ext1(G, M, N2))
        rhs = induced_map(post).apply(class_of(E, ext))
        assert lhs == rhs


def test_pullback_on_classes():
    # pulling back along multiplication by 2 on Z doubles the class
    Z = trivial_module(C2)
    Z2 = trivial_module(C2, relations=[(2,)])
    E = ExtensionClass(C2, Z2, Z, [IntMatrix.zeros(1, 1), IntMatrix([[1]])])
    two = GModuleMap(Z, Z, IntMatrix([[2]]))
    assert class_of(pullback(E, two)) == (0,)
    one = GModuleMap(Z, Z, IntMatrix([[1]]))
    assert class_of(pullback(E, one)) == (1,)


def test_res_ext_to_trivial_subgroup_splits():
    Z = trivial_module(C2)
    Z2 = trivial_module(C2, relations=[(2,)])
    E = ExtensionClass(C2, Z2, Z, [IntMatrix.zeros(1, 1), IntMatrix([[1]])])
    EH = res_ext(E, trivial_subgroup(C2))
    assert class_of(EH) == ()  # Ext over the trivial group is trivial


def test_hom_of_restrictions_is_restriction_of_hom():
    # the corestriction comparison below relies on this structural identity
    rng = random.Random(8)
    for G, hsub in ((C4, [0, 2]), (C6, [0, 3]), (C6, [0, 2, 4])):
        H = Subgroup(G, hsub)
        for _ in range(4):
            M = random_module(G, rng, max_rank=2)
            N = random_module(G, rng, max_rank=2)
            lhs = hom_module(restrict_module(M, H), restrict_module(N, H))
            rhs = restrict_module(hom_module(M, N), H)
            assert lhs.rank == rhs.rank
            assert lhs.relations == rhs.relations
            assert lhs.action == rhs.action


def test_cores_ext_matches_cocycle_transfer():
    rng = random.Random(41)
    cases = [(C4, [0, 2]), (C6, [0, 3]), (C6, [0, 2, 4])]
    for G, hsub in cases:
        H = Subgroup(G, hsub)
        for _ in range(5):
            M = random_module(G, rng, max_rank=2)
            N = random_module(G, rng, max_rank=2)
            hom = hom_module(M, N)
            cor = corestriction_map(H, hom)
            ext_h = h1(H.group, restrict_module(hom, H))
            if not ext_h.invariants:
                continue
            coords = tuple(rng.randrange(d) if d else 1 for d in ext_h.invariants)
            EH = extension_from_cocycle(H.group, restrict_module(M, H),
                                        restrict_module(N, H), coords)
            lhs = class_of(cores_ext(EH, H, M, N), ext1(G, M, N))
            rhs = cor.apply(ext_h.reduce_coords(coords))
            assert lhs == rhs


def test_cores_after_res_is_index_multiple():
    rng = random.Random(53)
    cases = [(C4, [0, 2]), (C6, [0, 3]), (C6, [0, 2, 4])]
    for G, hsub in cases:
        H = Subgroup(G, hsub)
        n = H.index
        for _ in range(5):
            M = random_module(G, rng, max_rank=2)
            N = random_module(G, rng, max_rank=2)
            ext = ext1(G, M, N)
            if not ext.invariants:
                continue
            coords = tuple(rng.randrange(d) if d else 1 for d in ext.invariants)
            E = extension_from_cocycle(G, M, N, coords)
            back = class_of(cores_ext(res_ext(E, H), H, M, N), ext)
            assert back == ext.reduce_coords([n * x for x in coords])


# S3 at index 3, D4 at index 4 over a reflection (not normal), and S4 at
# index 4 (a point stabiliser), 6 and 12
TRANSFER_CASES = [
    (S3, (0, 1)),
    (D4, (0, 4)),
    (S4, (0, 1, 2, 3, 4, 5)),
    (S4, (0, 1, 6, 7)),
    (S4, (0, 1)),
]


def test_cores_ext_equals_the_induction_route_block_for_block():
    rng = random.Random(67)
    for G, elements in TRANSFER_CASES:
        H = Subgroup(G, elements)
        for _ in range(4):
            M = random_module(G, rng, max_rank=2)
            N = random_module(G, rng, max_rank=2)
            MH, NH = restrict_module(M, H), restrict_module(N, H)
            ext = ext1(H.group, MH, NH)
            coords = [rng.randrange(d) if d else rng.randint(-2, 2) for d in ext.invariants]
            E = extension_from_cocycle(H.group, MH, NH, coords)
            # the same class through another section, so that even a split
            # extension has blocks that are not zero: phi(h) + N(h) F - F M(h)
            hom = hom_module(MH, NH)
            F = hom.matrix_of([rng.randint(-2, 2) for _ in range(hom.rank)])
            E = ExtensionClass(H.group, NH, MH, [E.phi[h] + NH.act(h) @ F - F @ MH.act(h)
                                                 for h in H.group.elements()])
            assert cores_ext(E, H, M, N).phi == cores_ext_by_induction(E, H, M, N).phi


# (group, H, K, spec of M, spec of N), each with Ext^1_H and Ext^1_K not zero
MACKEY_EXT_CASES = [
    (S3, (0, 1), (0, 2), ("trivial", (), 0), ("cosets", (0, 1), 2)),
    (S3, (0, 3, 4), (0, 3, 4), ("sign", (0, 3, 4), 0), ("trivial", (), 6)),
    (D4, (0, 4), (0, 6), ("sign", (0, 2, 4, 6), 4), ("cosets", (0, 4), 4)),
    (D4, (0, 2, 4, 6), (0, 4), ("trivial", (), 0), ("cosets", (0, 4), 2)),
    (S4, (0, 1, 2, 3, 4, 5), (0, 2, 6, 8, 12, 14), ("trivial", (), 0),
     ("cosets", (0, 1, 6, 7), 2)),
    (S4, (0, 1, 2, 3, 4, 5), (0, 1, 6, 7), ("trivial", (), 0), ("cosets", (0, 1, 6, 7), 2)),
]


def test_res_after_cor_on_ext1_is_the_double_coset_sum():
    for G, h_elements, k_elements, m_spec, n_spec in MACKEY_EXT_CASES:
        H, K = Subgroup(G, h_elements), Subgroup(G, k_elements)
        M, N = module_from_spec(G, *m_spec), module_from_spec(G, *n_spec)
        MH, NH = restrict_module(M, H), restrict_module(N, H)
        source = ext1(H.group, MH, NH)
        target = ext1(K.group, restrict_module(M, K), restrict_module(N, K))
        assert source.invariants and target.invariants
        for unit in IntMatrix.identity(len(source.invariants)).rows:
            E = extension_from_cocycle(H.group, MH, NH, unit)
            composite = class_of(res_ext(cores_ext(E, H, M, N), K), target)
            assert composite == mackey_res_cor_ext(E, H, K, M, N)


# -- the commuting-square checker -------------------------------------------------


def unipotent_mod2_module(G):
    """(Z/2)^2 over Z/4 with the generator acting by the unipotent matrix."""
    J = IntMatrix([[1, 1], [0, 1]])
    mats = [IntMatrix.identity(2)]
    for _ in range(3):
        mats.append(J @ mats[-1])
    return GModule(G, 2, [(2, 0), (0, 2)], mats, name="unipotent")


def test_lemma52_holds_for_equivariant_h():
    # h already a map of modules over the whole group: both routes agree
    G = C4
    H = Subgroup(G, [0, 2])
    P = trivial_module(G)
    Q = trivial_module(G, relations=[(2,)])
    R = trivial_module(G, relations=[(2,)])
    h = GModuleMap(restrict_module(Q, H), restrict_module(R, H), IntMatrix([[1]]))
    result = lemma52_check(H, P, Q, R, h)
    assert result.holds
    assert result.norm_multiple_equivariant
    assert result.index == 2
    assert result.witnesses  # Ext^1(Z, Z/2) over C4 is nonzero


def test_lemma52_fails_on_twisted_projection():
    # the recipe-shaped counterexample: norm-multiple route is zero while the
    # restrict/push/corestrict route is not, so the square cannot commute
    G = C4
    H = Subgroup(G, [0, 2])
    P = trivial_module(G)
    Q = unipotent_mod2_module(G)
    R = trivial_module(G, relations=[(2,)])
    h = GModuleMap(restrict_module(Q, H), restrict_module(R, H),
                   IntMatrix([[1, 0]]))
    result = lemma52_check(H, P, Q, R, h)
    assert not result.holds
    assert result.norm_multiple_equivariant  # 2h = 0 is equivariant
    assert any(a == (0,) and b != (0,) for a, b in result.witnesses)
    # the honest norm of h (sum of conjugates over coset reps) does commute
    # with everything and reproduces the second route exactly
    other = GModuleMap(Q, R, IntMatrix([[0, 1]]))
    ext_pr = ext1(G, P, R)
    for coords, (_, route_b) in zip(((1,),), result.witnesses):
        E = extension_from_cocycle(G, P, Q, coords)
        assert class_of(pushout(E, other), ext_pr) == route_b


def test_lemma52_zero_family():
    # exponent of R divides the index and gcd(|H|, index) = 1: both routes
    # are provably zero, so the square commutes
    G = C6
    H = Subgroup(G, [0, 2, 4])  # order 3, index 2
    P = trivial_module(G)
    Q = trivial_module(G, rank=2, relations=[(2, 0), (0, 2)])
    R = trivial_module(G, relations=[(2,)])
    h = GModuleMap(restrict_module(Q, H), restrict_module(R, H),
                   IntMatrix([[1, 1]]))
    result = lemma52_check(H, P, Q, R, h)
    assert result.holds
    for a, b in result.witnesses:
        assert a == b
        assert all(x == 0 for x in b)


def test_scaled_map_detects_equivariance():
    G = C4
    H = Subgroup(G, [0, 2])
    M = index_two_sign_module(G, H)
    T = trivial_module(G)
    half = GModuleMap(restrict_module(M, H), restrict_module(T, H), IntMatrix([[1]]))
    lifted = GModuleMap(M, T, half.matrix, check=False)
    assert scaled_map(lifted, 1) is None  # the identity is not equivariant here
    assert scaled_map(lifted, 0) is not None  # the zero map always is


def _transfer_route(E, H, P, R, h):
    """The class of e restricted to H, pushed out along h and corestricted:
    route B of lemma52_check."""
    return class_of(cores_ext(pushout(res_ext(E, H), h), H, P, R))


def _is_g_map(Q, R, matrix):
    try:
        GModuleMap(Q, R, matrix)
    except ValueError:
        return False
    return True


def test_the_transfer_route_is_the_pushout_along_the_norm_of_h():
    # Q = R a Z/2 or Z/4 coset permutation module and h an H-map whose index
    # multiple is not a G-map, so lemma52_check has no route A to compare
    cases = {}
    for G in (S3, D4):
        P = trivial_module(G)
        subs = [s for s in all_subgroups(G) if 1 < s.order < G.order]
        for H in subs:
            for K in subs:
                for modulus in (2, 4):
                    Q = coset_permutation_module(G, K, modulus=modulus)
                    ext = ext1(G, P, Q)
                    QH = restrict_module(Q, H)
                    bad = [m for m in equivariant_hom_basis(QH, QH)
                           if not _is_g_map(Q, Q, m.scale(H.index))]
                    if not ext.invariants or not bad:
                        continue
                    h = GModuleMap(QH, QH, bad[0])
                    norm = norm_of_map(H, Q, Q, h)
                    for coords in IntMatrix.identity(len(ext.invariants)).rows:
                        E = extension_from_cocycle(G, P, Q, coords)
                        assert _transfer_route(E, H, P, Q, h) == class_of(pushout(E, norm))
                    cases[G.name] = cases.get(G.name, 0) + 1
    assert cases == {S3.name: 21, D4.name: 18}
    # criterion 5's sound families: the norm of a restricted G-map is its
    # index multiple, and over an R killed by the index both push out alike
    rng = random.Random(52)
    for i in range(40):
        make = equivariant_square_instance if i % 2 == 0 else torsion_annihilated_instance
        H, P, Q, R, h = make(rng)
        norm = norm_of_map(H, Q, R, h)
        multiple = h.matrix.scale(H.index)
        if i % 2 == 0:
            assert R.matrices_equal(norm.matrix, multiple)
            continue
        ext = ext1(H.parent, P, Q)
        for coords in IntMatrix.identity(len(ext.invariants)).rows:
            E = extension_from_cocycle(H.parent, P, Q, coords)
            want = class_of(pushout(E, GModuleMap(Q, R, multiple)))
            assert _transfer_route(E, H, P, R, h) == class_of(pushout(E, norm)) == want
