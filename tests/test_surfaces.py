from fractions import Fraction

import pytest

from chatelet.padic import LocalField, is_square, embed
from chatelet.surfaces import (
    AnalysisReport,
    ChateletSurface,
    RationalChateletSurface,
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
