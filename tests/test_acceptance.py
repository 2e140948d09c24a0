"""Acceptance suite: nine headline checks, one test and one report line each.

Each test is self-contained and asserts the full claim it is named after;
run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from chatelet.cohomology import (
    corestriction_map,
    dual_map,
    h1,
    restriction_map,
)
from chatelet.extensions import (
    class_of,
    cores_ext,
    ext1,
    extension_from_cocycle,
    lemma52_check,
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
from chatelet.intmat import IntMatrix, smith_normal_form
from chatelet.modules import (
    GModule,
    chatelet_picard_module,
    restrict_module,
    trivial_module,
)
from chatelet.padic import (
    LocalField,
    embed,
    is_square,
    square_class,
    square_class_group,
    valuation,
)
from chatelet.surfaces import (
    ChateletSurface,
    analyze_local,
    corestriction_on_h1,
    restriction_on_h1,
)
from helpers import (
    coset_permutation_module,
    equivariant_square_instance,
    h1_cyclic,
    random_module,
    torsion_annihilated_instance,
)


# -- shared p-adic tower builders --------------------------------------------------


def _residue_lifts(field):
    """Representatives of the residue field, as elements of the field.

    Only needed for the base fields of the verdict grid, whose residue degree
    is one (prime field) or two (generated by the first unramified step).
    """
    if field.residue_degree == 1:
        return [field.integer(i) for i in range(field.p)]
    g = field.gen(0)
    return [field.integer(a) + field.integer(b) * g
            for a in range(field.p) for b in range(field.p)]


def _unramified_step(field, degree):
    """A degree-`degree` unramified extension, found by deterministic search
    over residue-lift coefficients; the field validator is the judge."""
    rng = random.Random(90_001 + 17 * field.degree + degree + field.p)
    pool = _residue_lifts(field)
    for _ in range(5000):
        coeffs = [rng.choice(pool) for _ in range(degree)]
        try:
            return field.extend_unramified(coeffs)
        except ValueError:
            continue
    raise RuntimeError("found no irreducible residue polynomial")


def _eisenstein_step(field, degree):
    pi = field.uniformizer()
    return field.extend_eisenstein([-pi] + [field.zero()] * (degree - 1))


def _extension_towers(base):
    """Degree 2, 3, 4 extensions of `base`: both tower kinds per degree, plus
    the mixed unramified-then-ramified shape in degree four."""
    towers = []
    for degree in (2, 3, 4):
        towers.append((f"unramified-{degree}", _unramified_step(base, degree)))
        towers.append((f"eisenstein-{degree}", _eisenstein_step(base, degree)))
    mid = _unramified_step(base, 2)
    towers.append(("mixed-4", _eisenstein_step(mid, 2)))
    return towers


# -- criterion 2/9 grid, computed once ----------------------------------------------


_GRID_CACHE = {}


def _grid():
    """All verdict-grid rows: p in {2,3,5}, three base fields each, every
    nonsquare class as d, seven extension towers. Rows carry the report and,
    off the degenerate branch, the two computed descent maps."""
    if _GRID_CACHE:
        return _GRID_CACHE
    started = time.perf_counter()
    rows = []
    for p in (2, 3, 5):
        qp = LocalField.qp(p)
        bases = [
            ("base", qp),
            ("ramified-quadratic", _eisenstein_step(qp, 2)),
            ("unramified-quadratic", _unramified_step(qp, 2)),
        ]
        for base_kind, K in bases:
            gens = square_class_group(K)
            ds = []
            for r in range(1, len(gens) + 1):
                for chosen in combinations(gens, r):
                    d = K.one()
                    for g in chosen:
                        d = d * g
                    ds.append(d)
            roots = tuple(K.integer(i) for i in (1, 2, 3, 4))
            towers = _extension_towers(K)
            for d in ds:
                surface = ChateletSurface(K, d, roots)
                for tower_kind, L in towers:
                    report = analyze_local(surface, L)
                    res_map = cor_map = None
                    if not report.degenerate:
                        res_map = restriction_on_h1(surface, L)
                        cor_map = corestriction_on_h1(surface, L)
                    rows.append({
                        "p": p,
                        "base_kind": base_kind,
                        "tower_kind": tower_kind,
                        "K": K,
                        "L": L,
                        "d": d,
                        "n": report.degree,
                        "report": report,
                        "res": res_map,
                        "cor": cor_map,
                    })
    _GRID_CACHE["rows"] = rows
    _GRID_CACHE["elapsed"] = time.perf_counter() - started
    return _GRID_CACHE


# -- criteria -----------------------------------------------------------------------


def test_criterion_1_descent_cohomology_isomorphism_type():
    started = time.perf_counter()
    module = chatelet_picard_module()
    assert h1(module.group, module).invariants == (2, 2)
    assert h1_cyclic(module.group, module).invariants == (2, 2)
    assert time.perf_counter() - started < 1.0


def test_criterion_2_local_verdict_grid():
    grid = _grid()
    rows = grid["rows"]
    assert len(rows) >= 300
    assert any(row["p"] == 2 for row in rows)
    degenerate_rows = 0
    for row in rows:
        verdicts = row["report"].verdicts
        n = row["n"]
        K, L, d = row["K"], row["L"], row["d"]

        # square-class-only oracle: degeneracy plus degree parity decide all
        # four verdicts, with no cohomology involved
        degenerate = is_square(embed(d, L))
        assert any(c != 0 for c in square_class(K, d))
        if n % 2 == 1:
            assert not degenerate
        if (K.p != 2 and L.residue_degree != K.residue_degree
                and L.ramification_index == K.ramification_index):
            # odd p, unramified tower: squareness is decided by valuation
            # parity and the residue degree of the step (Euler criterion in
            # the residue field), a closed form independent of the library's
            # root search; in residue characteristic two no such shortcut
            # exists and the exhaustive oracle of criterion 8 takes over
            f = L.residue_degree // K.residue_degree
            v = valuation(d)
            unit = d / K.uniformizer() ** v
            expected = v % 2 == 0 and (f % 2 == 0 or is_square(unit))
            assert degenerate == expected

        assert row["report"].degenerate == degenerate
        expected_chow_res = "BIJECTIVE" if n % 2 == 1 else "ZERO"
        expected_chow_cor = "INJECTIVE" if degenerate else "BIJECTIVE"
        expected_h1_res = "ZERO" if degenerate else "BIJECTIVE"
        expected_h1_cor = ("ZERO" if (degenerate or n % 2 == 0)
                           else "BIJECTIVE")
        assert verdicts["chow_restriction"] == expected_chow_res
        assert verdicts["chow_corestriction"] == expected_chow_cor
        assert verdicts["h1_restriction"] == expected_h1_res
        assert verdicts["h1_corestriction"] == expected_h1_cor
        assert verdicts["chow_corestriction"] in ("INJECTIVE", "BIJECTIVE")
        degenerate_rows += degenerate
    assert degenerate_rows > 0
    assert degenerate_rows < len(rows)
    assert grid["elapsed"] < 30.0


def test_criterion_3_transfer_composite_is_index_multiple():
    rng = random.Random(20_260_815)
    pool = [cyclic_group(n) for n in (4, 6, 8, 9, 10, 12)]
    pool += [dihedral_group(n) for n in (3, 4, 5, 6)]
    pool += [quaternion_group(), symmetric_group(3),
             direct_product(cyclic_group(2), cyclic_group(6))]
    checked = 0
    while checked < 100:
        G = rng.choice(pool)
        subs = [s for s in all_subgroups(G) if 1 < s.order < G.order]
        if not subs:
            continue
        H = rng.choice(subs)
        if rng.random() < 0.15:
            M = trivial_module(G, relations=[(8,)])
        else:
            M = random_module(G, rng, max_rank=4)
        coh = h1(G, M)
        comp = restriction_map(H, M).then(corestriction_map(H, M))
        n = H.index
        for i in range(len(coh.invariants)):
            unit = tuple(1 if j == i else 0 for j in range(len(coh.invariants)))
            assert comp.apply(unit) == coh.reduce_coords([n * x for x in unit])
        checked += 1
    assert checked == 100


def test_criterion_4_coset_module_cohomology_vanishes():
    C2 = cyclic_group(2)
    groups = [cyclic_group(n) for n in range(2, 13)]
    groups += [dihedral_group(n) for n in (2, 3, 4, 5, 6)]
    groups += [quaternion_group(), symmetric_group(3),
               direct_product(C2, cyclic_group(4)),
               direct_product(C2, cyclic_group(6)),
               direct_product(cyclic_group(3), cyclic_group(3)),
               direct_product(C2, direct_product(C2, C2))]
    checked = 0
    for G in groups:
        assert G.order <= 12
        for H in all_subgroups(G):
            module = coset_permutation_module(G, H)
            assert h1(G, module).invariants == ()
            checked += 1
    assert checked > 60


def test_criterion_5_commuting_square_on_sound_instances():
    rng = random.Random(52)
    for i in range(100):
        if i % 2 == 0:
            H, P, Q, R, h = equivariant_square_instance(rng)
        else:
            H, P, Q, R, h = torsion_annihilated_instance(rng)
        result = lemma52_check(H, P, Q, R, h)
        assert result.norm_multiple_equivariant
        assert result.holds
        # the two routes agree coordinate-by-coordinate, not just as a verdict
        for multiplied, transferred in result.witnesses:
            assert multiplied is not None
            assert multiplied == transferred


def test_criterion_6_extension_transfer_matches_cocycle_transfer():
    from chatelet.modules import hom_module

    rng = random.Random(41_041)
    C4, C6 = cyclic_group(4), cyclic_group(6)
    cases = [(C4, [0, 2]), (C6, [0, 3]), (C6, [0, 2, 4])]
    checked = 0
    while checked < 100:
        G, members = cases[checked % len(cases)]
        H = Subgroup(G, members)
        M = random_module(G, rng, max_rank=2)
        N = random_module(G, rng, max_rank=2)
        hom = hom_module(M, N)
        ext_h = h1(H.group, restrict_module(hom, H))
        if not ext_h.invariants:
            continue
        coords = tuple(rng.randrange(d) if d else rng.randint(-2, 2)
                       for d in ext_h.invariants)
        E = extension_from_cocycle(H.group, restrict_module(M, H),
                                   restrict_module(N, H), coords)
        lhs = class_of(cores_ext(E, H, M, N), ext1(G, M, N))
        rhs = corestriction_map(H, hom).apply(ext_h.reduce_coords(coords))
        assert lhs == rhs
        checked += 1
    assert checked == 100


def _minor_gcd_factors(matrix: IntMatrix):
    m, n = matrix.shape
    factors = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = IntMatrix([[matrix.rows[i][j] for j in cols]
                                 for i in rows])
                d = gcd(d, sub.det())
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return factors


def test_criterion_7_smith_form_oracles():
    rng = random.Random(7_007)
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)]
                       for _ in range(m)])
        dec = smith_normal_form(A)
        nonzero = [d for d in dec.diagonal if d != 0]
        assert nonzero == _minor_gcd_factors(A)
    for _ in range(1000):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)]
                       for _ in range(m)])
        dec = smith_normal_form(A)
        assert dec.U @ A @ dec.V == dec.S
        diag = dec.diagonal
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        assert all(d >= 0 for d in diag)


def _quadratic_fields(p):
    """Every quadratic extension of Q_p up to isomorphism, as towers."""
    qp = LocalField.qp(p)
    fields = [qp, _unramified_step(qp, 2)]
    if p == 2:
        ramified = [[-2, 0], [2, 0], [-10, 0], [10, 0], [2, -2], [6, -2]]
    else:
        ramified = [[-p, 0], [-2 * p, 0]]
    for coeffs in ramified:
        fields.append(qp.extend_eisenstein(coeffs))
    return fields


def _coords_mod(x, modulus):
    out = []
    for a in x.coords():
        a = Fraction(a)
        out.append(a.numerator * pow(a.denominator, -1, modulus) % modulus)
    return tuple(out)


def _unit_square_table(field, modulus):
    """All reduced coordinate tuples of squares of units, by brute force;
    units agreeing coordinatewise mod `modulus` have the same square status."""
    squares = set()
    units = set()
    for coords in product(range(modulus), repeat=field.degree):
        y = field.from_coords([Fraction(c) for c in coords])
        if y.is_zero() or valuation(y) != 0:
            continue
        units.add(_coords_mod(y, modulus))
        squares.add(_coords_mod(y * y, modulus))
    return units, squares


def test_criterion_8_squareness_against_modular_enumeration():
    rng = random.Random(88)
    for p in (2, 3, 5):
        # enough precision to make squareness a property of the reduction:
        # above twice the valuation of 2 every unit congruence class is
        # settled one way or the other
        modulus = 8 if p == 2 else p
        for field in _quadratic_fields(p):
            units, squares = _unit_square_table(field, modulus)
            order = 2 ** len(square_class_group(field))
            assert order == 2 * len(units) // len(squares)
            if field.degree == 1:
                assert order == (8 if p == 2 else 4)
            pi = field.uniformizer()
            for _ in range(50):
                x = field.from_coords(
                    [Fraction(rng.randint(-40, 40))
                     for _ in range(field.degree)])
                if x.is_zero():
                    continue
                v = valuation(x)
                unit = x / pi ** v
                expected = v % 2 == 0 and _coords_mod(unit, modulus) in squares
                assert is_square(x) == expected


def test_criterion_9_duality_preserves_verdict_directions():
    rows = _grid()["rows"]
    surjective_seen = 0
    zero_seen = 0
    for row in rows:
        for f in (row["res"], row["cor"]):
            if f is None:
                continue
            if f.is_surjective():
                assert dual_map(f).is_injective()
                surjective_seen += 1
            if f.is_zero():
                assert dual_map(f).is_zero()
                zero_seen += 1
    assert surjective_seen > 0
    assert zero_seen > 0
