from fractions import Fraction
from itertools import product

import pytest

from chatelet.cohomology import CohMap, dual_map, h1
from chatelet.intmat import IntMatrix
from chatelet.modules import FpAbGroup, chatelet_picard_module
from chatelet.padic import LocalField, is_square, embed
from chatelet.surfaces import (
    _DUAL_VERDICT,
    AnalysisReport,
    ChateletSurface,
    RationalChateletSurface,
    _descent_maps,
    _descent_verdicts,
    _rules,
    _verdict,
    analyze_global,
    analyze_local,
    brauer_h1,
    corestriction_on_h1,
    picard_module,
    restriction_on_h1,
)


Q5 = LocalField.qp(5)


def _surface(field=Q5, d=2, root_ints=(1, 2, 3, 4)):
    return ChateletSurface(field, field.integer(d),
                           tuple(field.integer(e) for e in root_ints))


def test_surface_validation():
    s = _surface()
    assert s.half_degree == 2
    with pytest.raises(ValueError):
        _surface(d=4)            # square
    with pytest.raises(ValueError):
        _surface(d=0)
    with pytest.raises(ValueError):
        _surface(root_ints=(1, 2, 3))       # odd count
    with pytest.raises(ValueError):
        _surface(root_ints=(1, 2))          # too small
    with pytest.raises(ValueError):
        _surface(root_ints=(1, 2, 3, 3))    # repeated
    with pytest.raises(ValueError):
        _surface(root_ints=(0, 1, 2, 3))    # zero root
    with pytest.raises(ValueError):
        ChateletSurface(Q5, LocalField.qp(3).integer(2),
                        tuple(Q5.integer(e) for e in (1, 2, 3, 4)))
    ram = Q5.extend_eisenstein([-5, 0])
    t = ram.gen(0)
    assert ChateletSurface(ram, ram.integer(2), (t, t + 1, t + 2, ram.integer(2))).half_degree == 2
    with pytest.raises(ValueError):
        ChateletSurface(ram, ram.integer(2), (t, t + 1, t * 3 / 3, ram.integer(2)))


def test_picard_module_and_brauer_group():
    s = _surface()
    m = picard_module(s)
    m.validate()
    assert m.rank == 2
    assert brauer_h1(s).invariants == (2, 2)
    six = _surface(root_ints=(1, 2, 3, 4, 6, 7))
    with pytest.raises(ValueError):
        picard_module(six)


def test_descent_verdicts_match_fresh_maps():
    module = chatelet_picard_module()
    coh = h1(module.group, module)
    for n in range(1, 13):
        res, cor = _descent_maps(coh, n)
        assert _descent_verdicts(n) == (coh.invariants, (_verdict(res), _verdict(cor)))
    assert _descent_verdicts(3) == ((2, 2), ("BIJECTIVE", "BIJECTIVE"))
    assert _descent_verdicts(4) == ((2, 2), ("BIJECTIVE", "ZERO"))


def test_descent_maps_refuse_half_degree_three():
    six = _surface(root_ints=(1, 2, 3, 4, 6, 7))
    cubic = Q5.extend_unramified([2, -1, 0])
    with pytest.raises(ValueError):
        brauer_h1(six)
    with pytest.raises(ValueError):
        restriction_on_h1(six, cubic)
    with pytest.raises(ValueError):
        corestriction_on_h1(six, cubic)


def test_restriction_is_identity_when_nonsquare_survives():
    s = _surface()
    ram = Q5.extend_eisenstein([-5, 0])
    res = restriction_on_h1(s, ram)
    assert res.is_identity()
    assert res.kind == "restriction"


def test_restriction_refuses_degenerate_extension():
    s = _surface()
    split = Q5.extend_unramified([-2, 0])   # adjoins a square root of d
    assert is_square(embed(s.d, split))
    with pytest.raises(ValueError):
        restriction_on_h1(s, split)
    with pytest.raises(ValueError):
        corestriction_on_h1(s, split)


def test_corestriction_parity():
    s = _surface()
    ram = Q5.extend_eisenstein([-5, 0])
    cubic = Q5.extend_unramified([2, -1, 0])   # x^3 - x + 2, no roots mod 5
    assert corestriction_on_h1(s, ram).is_zero()
    assert corestriction_on_h1(s, cubic).is_identity()


def test_analyze_local_rank_two_verdicts():
    s = _surface()
    cases = [
        (Q5.extend_eisenstein([-5, 0]),
         {"h1_restriction": "BIJECTIVE", "h1_corestriction": "ZERO",
          "chow_restriction": "ZERO", "chow_corestriction": "BIJECTIVE"}),
        (Q5.extend_unramified([2, -1, 0]),
         {"h1_restriction": "BIJECTIVE", "h1_corestriction": "BIJECTIVE",
          "chow_restriction": "BIJECTIVE", "chow_corestriction": "BIJECTIVE"}),
        (Q5.extend_eisenstein([-5, 0, 0, 0]),
         {"h1_restriction": "BIJECTIVE", "h1_corestriction": "ZERO",
          "chow_restriction": "ZERO", "chow_corestriction": "BIJECTIVE"}),
    ]
    for L, expected in cases:
        report = analyze_local(s, L)
        assert report.verdicts == expected, L.describe()
        assert report.degenerate is False
        assert report.brauer_invariants == (2, 2)
        assert "nonsquare_class_survives_extension" in report.rule_trace


def test_analyze_local_degenerate_cases():
    s = _surface()
    split_unram = Q5.extend_unramified([-2, 0])
    split_mixed = Q5.extend_eisenstein([-5, 0]).extend_unramified([-3, 0])
    for L in [split_unram, split_mixed]:
        report = analyze_local(s, L)
        assert report.degenerate is True
        assert report.degree % 2 == 0
        assert report.verdicts == {
            "h1_restriction": "ZERO", "h1_corestriction": "ZERO",
            "chow_restriction": "ZERO", "chow_corestriction": "INJECTIVE"}
        assert "degenerate_base_change" in report.rule_trace


def test_analyze_local_higher_half_degree_uses_parity():
    s = _surface(root_ints=(1, 2, 3, 4, 6, 7))
    cubic = Q5.extend_unramified([2, -1, 0])
    report = analyze_local(s, cubic)
    assert report.brauer_invariants is None
    assert report.verdicts["h1_restriction"] == "NOT_COMPUTED"
    assert report.verdicts["chow_restriction"] == "INJECTIVE"
    assert report.verdicts["chow_corestriction"] == "SURJECTIVE"

    ram = Q5.extend_eisenstein([-5, 0])
    report = analyze_local(s, ram)
    assert report.verdicts["chow_restriction"] == "UNKNOWN"
    assert report.verdicts["chow_corestriction"] == "UNKNOWN"

    split = Q5.extend_unramified([-2, 0])
    report = analyze_local(s, split)
    assert report.verdicts["chow_restriction"] == "ZERO"
    assert report.verdicts["chow_corestriction"] == "INJECTIVE"


def test_analyze_local_requires_tower_extension():
    s = _surface()
    with pytest.raises(ValueError):
        analyze_local(s, LocalField.qp(3))
    other_tower = LocalField.qp(5).extend_unramified([2, -1, 0]).extend_eisenstein([-5, 0])
    report = analyze_local(s, other_tower)   # a genuine extension tower of Q5
    assert report.degree == 6


def test_report_dict_shape():
    s = _surface()
    report = analyze_local(s, Q5.extend_eisenstein([-5, 0]))
    data = report.as_dict()
    assert set(data) == {"base", "extension", "degree", "half_degree",
                         "degenerate", "brauer_invariants", "verdicts",
                         "rule_trace", "assumptions", "conventions"}
    assert data["brauer_invariants"] == [2, 2]
    assert data["degree"] == 2
    assert all(isinstance(r, str) for r in data["rule_trace"])
    assert data["conventions"]


def test_rational_surface_validation():
    s = RationalChateletSurface(Fraction(2), (Fraction(1), Fraction(2),
                                              Fraction(3), Fraction(4)))
    assert s.half_degree == 2
    with pytest.raises(ValueError):
        RationalChateletSurface(Fraction(9, 4), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        RationalChateletSurface(Fraction(2), (1, 2, 3))
    with pytest.raises(ValueError):
        RationalChateletSurface(Fraction(2), (0, 1, 2, 3))


def test_global_odd_degree_needs_no_evidence():
    s = RationalChateletSurface(Fraction(2), (1, 2, 3, 4))
    report = analyze_global(s, 3)
    assert report.degenerate is False
    assert report.verdicts == {
        "h1_restriction": "BIJECTIVE", "h1_corestriction": "BIJECTIVE",
        "chow_restriction": "INJECTIVE", "chow_corestriction": "SURJECTIVE"}
    assert "odd_degree_extension_cannot_absorb_a_nonsquare" in report.rule_trace


def test_global_even_degree_without_evidence_is_unknown():
    s = RationalChateletSurface(Fraction(2), (1, 2, 3, 4))
    report = analyze_global(s, 2)
    assert report.degenerate is None
    assert set(report.verdicts.values()) == {"UNKNOWN"}


def test_global_asserted_degeneracy():
    s = RationalChateletSurface(Fraction(2), (1, 2, 3, 4))
    report = analyze_global(s, 2, assert_degenerate=True)
    assert report.degenerate is True
    assert report.verdicts["chow_restriction"] == "ZERO"
    assert report.verdicts["chow_corestriction"] == "INJECTIVE"
    assert any("asserted" in a for a in report.assumptions)
    with pytest.raises(ValueError):
        analyze_global(s, 3, assert_degenerate=True)


def test_global_completion_certificate():
    s = RationalChateletSurface(Fraction(2), (1, 2, 3, 4))
    # two stays a nonsquare in the five-adic completion: certified nondegenerate
    report = analyze_global(s, 2, completion=LocalField.qp(5))
    assert report.degenerate is False
    assert report.verdicts["h1_restriction"] == "BIJECTIVE"
    assert report.verdicts["h1_corestriction"] == "ZERO"
    assert report.verdicts["chow_restriction"] == "UNKNOWN"
    assert "local_certificate_confirms_nonsquare" in report.rule_trace
    # two is a square seven-adically, which proves nothing either way
    report = analyze_global(s, 2, completion=LocalField.qp(7))
    assert report.degenerate is None
    assert "local_certificate_inconclusive" in report.rule_trace


def test_global_degree_validation():
    s = RationalChateletSurface(Fraction(2), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        analyze_global(s, 1)


# -- the verdict rule ---------------------------------------------------------------

KILLED_BY_TWO = ("point classes of these surfaces are killed by two; "
                 "only the composite of the two maps is used")
ASSERTED = "degeneracy of the base change was asserted by the caller, not verified"
TRUSTED = "the supplied local field is trusted to be a completion of the extension field"
DESCENT = ("restriction_acts_as_identity_on_descent_classes",
           "corestriction_multiplies_by_extension_degree")
SPLIT = "split_surface_has_no_point_class_kernel"
ODD_COMPOSITE = "odd_degree_composite_is_identity_on_exponent_two"
PARITY = "even_degree_parity_gives_no_conclusion"
KEYS = ("h1_restriction", "h1_corestriction", "chow_restriction", "chow_corestriction")
Z, I, S, B, U, N = "ZERO", "INJECTIVE", "SURJECTIVE", "BIJECTIVE", "UNKNOWN", "NOT_COMPUTED"

# every reachable report shape: (degenerate, brauer invariants, verdicts in
# KEYS order, rule trace, assumptions)
SHAPES = {
    ("local", 2, "split"): (True, (2, 2), (Z, Z, Z, I),
                            ("degenerate_base_change", SPLIT), ()),
    ("local", 2, "odd"): (False, (2, 2), (B, B, B, B),
                          ("nonsquare_class_survives_extension", *DESCENT,
                           "point_class_maps_are_exact_duals_of_descent_maps"), ()),
    ("local", 2, "even"): (False, (2, 2), (B, Z, Z, B),
                           ("nonsquare_class_survives_extension", *DESCENT,
                            "point_class_maps_are_exact_duals_of_descent_maps"), ()),
    ("local", 3, "split"): (True, None, (N, N, Z, I),
                            ("degenerate_base_change", SPLIT), ()),
    ("local", 3, "odd"): (False, None, (N, N, I, S),
                          ("nonsquare_class_survives_extension", ODD_COMPOSITE),
                          (KILLED_BY_TWO,)),
    ("local", 3, "even"): (False, None, (N, N, U, U),
                           ("nonsquare_class_survives_extension", PARITY), ()),
    ("global", 2, "asserted"): (True, (2, 2), (Z, Z, Z, I),
                                ("degenerate_base_change", SPLIT), (ASSERTED,)),
    ("global", 2, "odd"): (False, (2, 2), (B, B, I, S),
                           ("odd_degree_extension_cannot_absorb_a_nonsquare", *DESCENT,
                            ODD_COMPOSITE), ()),
    ("global", 2, "certificate"): (False, (2, 2), (B, Z, U, U),
                                   ("local_certificate_confirms_nonsquare", *DESCENT,
                                    "global_pairing_not_assumed_perfect"), (TRUSTED,)),
    ("global", 2, "inconclusive"): (None, None, (U, U, U, U),
                                    ("local_certificate_inconclusive",), (TRUSTED,)),
    ("global", 2, "none"): (None, None, (U, U, U, U),
                            ("no_evidence_about_class_survival",), ()),
    ("global", 3, "asserted"): (True, None, (N, N, Z, I),
                                ("degenerate_base_change", SPLIT), (ASSERTED,)),
    ("global", 3, "odd"): (False, None, (N, N, I, S),
                           ("odd_degree_extension_cannot_absorb_a_nonsquare", ODD_COMPOSITE),
                           (KILLED_BY_TWO,)),
    ("global", 3, "certificate"): (False, None, (N, N, U, U),
                                   ("local_certificate_confirms_nonsquare", PARITY),
                                   (TRUSTED,)),
    ("global", 3, "inconclusive"): (None, None, (U, U, U, U),
                                    ("local_certificate_inconclusive",), (TRUSTED,)),
    ("global", 3, "none"): (None, None, (U, U, U, U),
                            ("no_evidence_about_class_survival",), ()),
}


def _shape_report(mode, half_degree, case):
    root_ints = (1, 2, 3, 4) if half_degree == 2 else (1, 2, 3, 4, 6, 7)
    if mode == "local":
        extension = {"split": Q5.extend_unramified([-2, 0]),
                     "odd": Q5.extend_unramified([2, -1, 0]),
                     "even": Q5.extend_eisenstein([-5, 0])}[case]
        return analyze_local(_surface(root_ints=root_ints), extension)
    surface = RationalChateletSurface(Fraction(2), root_ints)
    degree, options = {"asserted": (2, {"assert_degenerate": True}),
                       "odd": (3, {}),
                       "certificate": (2, {"completion": LocalField.qp(5)}),
                       "inconclusive": (2, {"completion": LocalField.qp(7)}),
                       "none": (2, {})}[case]
    return analyze_global(surface, degree, **options)


@pytest.mark.parametrize("shape", sorted(SHAPES), ids=lambda s: "-".join(map(str, s)))
def test_report_shapes_are_pinned(shape):
    degenerate, invariants, verdicts, trace, assumptions = SHAPES[shape]
    report = _shape_report(*shape)
    assert report.degenerate is degenerate
    assert report.brauer_invariants == invariants
    assert report.verdicts == dict(zip(KEYS, verdicts))
    assert report.rule_trace == list(trace)
    assert report.assumptions == list(assumptions)


def test_rules_over_whole_domain():
    dual = {v: k for k, v in _DUAL_VERDICT.items()}
    assert dual == _DUAL_VERDICT               # duality is an involution
    rule_lines = {SPLIT, ODD_COMPOSITE, *DESCENT,
                  "point_class_maps_are_exact_duals_of_descent_maps",
                  "global_pairing_not_assumed_perfect",
                  "even_degree_parity_gives_no_conclusion"}
    points = 0
    for rank_two, degenerate, odd, perfect in product(
            (True, False), (True, False, None), (True, False), (True, False)):
        computed = rank_two and degenerate is False
        for h1 in product(_DUAL_VERDICT, repeat=2) if computed else [None]:
            points += 1
            verdicts, trace, assumptions = _rules(rank_two, degenerate, odd, perfect, h1)
            assert _rules(rank_two, degenerate, odd, perfect, h1) == (verdicts, trace, assumptions)
            assert tuple(verdicts) == KEYS
            h1_out = (verdicts[KEYS[0]], verdicts[KEYS[1]])
            chow = (verdicts[KEYS[2]], verdicts[KEYS[3]])
            assert set(trace) <= rule_lines
            assert assumptions in ([], [KILLED_BY_TWO])
            assert not (assumptions and rank_two)
            if degenerate is None:
                assert (set(verdicts.values()), trace) == ({U}, [])
            elif degenerate:
                assert h1_out == ((Z, Z) if rank_two else (N, N))
                assert chow == (Z, I)
            else:
                assert h1_out == (h1 if rank_two else (N, N))
                if rank_two and perfect:
                    assert chow == (_DUAL_VERDICT[h1[1]], _DUAL_VERDICT[h1[0]])
                elif odd:
                    assert chow == (I, S)
                else:
                    assert chow == (U, U)
    assert points == 120


def test_rules_read_evidence_the_same_in_both_modes():
    # the pairing matters only where the descent classes are computed; every
    # other evidence point gives the same verdicts, trace and assumptions in
    # both modes, and settled evidence always names its rule
    points = 0
    for rank_two, degenerate, odd in product((True, False), (True, False, None), (True, False)):
        computed = rank_two and degenerate is False
        for h1 in product(_DUAL_VERDICT, repeat=2) if computed else [None]:
            points += 1
            local = _rules(rank_two, degenerate, odd, True, h1)
            global_ = _rules(rank_two, degenerate, odd, False, h1)
            if not computed:
                assert local == global_
            for verdicts, trace, assumptions in (local, global_):
                assert bool(trace) is (degenerate is not None)
                killed = not rank_two and ODD_COMPOSITE in trace
                assert assumptions == ([KILLED_BY_TWO] if killed else [])
    assert points == 60


def test_duality_rule_agrees_with_dual_map():
    maps = []
    for A in (FpAbGroup(2, [(2, 0), (0, 2)]), FpAbGroup(2, [(4, 0), (0, 2)])):
        for k in (1, 2, 3, 4):
            maps.append(CohMap(A, A, IntMatrix.identity(2).scale(k), kind="scalar"))
    Z2, Z4 = FpAbGroup(1, [(2,)]), FpAbGroup(1, [(4,)])
    maps.append(CohMap(Z2, Z4, IntMatrix([[2]]), kind="inclusion"))
    maps.append(CohMap(Z4, Z2, IntMatrix([[1]]), kind="projection"))
    for f in maps:
        assert _DUAL_VERDICT[_verdict(f)] == _verdict(dual_map(f))
    assert {_verdict(f) for f in maps} == set(_DUAL_VERDICT)
