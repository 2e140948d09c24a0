"""The public result classes are plain value classes (`chatelet.values`).

Their reprs are pinned to the text they printed as dataclasses; fields keep
their order for positional and keyword construction; equality holds within
one class only; frozen classes hash as the tuple of their fields and refuse
assignment, while reports stay unhashable.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from chatelet.extensions import Lemma52Result, lemma52_check
from chatelet.groups import Subgroup, cyclic_group
from chatelet.intmat import IntMatrix, SmithDecomposition, smith_normal_form
from chatelet.modules import GModuleMap, restrict_module, trivial_module
from chatelet.padic import LocalField
from chatelet.surfaces import (
    AnalysisReport,
    ChateletSurface,
    RationalChateletSurface,
    analyze_local,
)

Q5 = LocalField.qp(5)
ROOTS = (1, 3, 6, 11)


def _smith():
    return smith_normal_form(IntMatrix([[2, 0], [0, 3]]))


def _surface():
    return ChateletSurface(Q5, Q5.rational(2), tuple(Q5.rational(r) for r in ROOTS))


def _rational_surface():
    return RationalChateletSurface(Fraction(2), ROOTS)


def _report():
    return analyze_local(_surface(), Q5.extend_unramified([-2, 0]))


def _lemma52():
    G = cyclic_group(4)
    H = Subgroup(G, [0, 2])
    P = trivial_module(G)
    Q = trivial_module(G, relations=[(2,)])
    R = trivial_module(G, relations=[(2,)])
    h = GModuleMap(restrict_module(Q, H), restrict_module(R, H), IntMatrix([[1]]))
    return lemma52_check(H, P, Q, R, h)


FROZEN = (_smith, _surface, _rational_surface)
MUTABLE = (_report, _lemma52)


def test_reprs_are_the_dataclass_reprs():
    assert repr(_smith()) == (
        "SmithDecomposition(S=IntMatrix([[1, 0], [0, 6]]), U=IntMatrix([[-1, 1], [-3, 2]]), "
        "V=IntMatrix([[1, -3], [1, -2]]))")
    assert repr(_surface()) == (
        "ChateletSurface(base=LocalField(Q_5), d=PadicElement(2 in Q_5), "
        "roots=(PadicElement(1 in Q_5), PadicElement(3 in Q_5), PadicElement(6 in Q_5), "
        "PadicElement(11 in Q_5)))")
    assert repr(_rational_surface()) == (
        "RationalChateletSurface(d=Fraction(2, 1), roots=(Fraction(1, 1), Fraction(3, 1), "
        "Fraction(6, 1), Fraction(11, 1)))")
    assert repr(_report()) == (
        "AnalysisReport(base='Q_5', extension='Q_5[t1]/(t1^2 + (-2))', degree=2, "
        "half_degree=2, degenerate=True, brauer_invariants=(2, 2), "
        "verdicts={'h1_restriction': 'ZERO', 'h1_corestriction': 'ZERO', "
        "'chow_restriction': 'ZERO', 'chow_corestriction': 'INJECTIVE'}, "
        "rule_trace=['degenerate_base_change', 'split_surface_has_no_point_class_kernel'], "
        "assumptions=[], conventions=['invariant tuples list cyclic orders in a divisibility "
        "chain', 'verdicts on point-class maps are transposes of the cohomology maps under "
        "the local duality pairing, or parity consequences where noted', 'the degree-zero "
        "part of the point classes is what all verdicts refer to'])")
    assert repr(_lemma52()) == (
        "Lemma52Result(holds=True, norm_multiple_equivariant=True, index=2, "
        "witnesses=[((0,), (0,))], source_invariants=(2,), target_invariants=(2,))")
    assert repr(Q5.extend_unramified([-2, 0]).steps) == (
        "(_Step(kind='unramified', coeffs=(PadicElement(-2 in Q_5), PadicElement(0 in Q_5))),)")


FIELDS = {
    SmithDecomposition: ("S", "U", "V"),
    ChateletSurface: ("base", "d", "roots"),
    RationalChateletSurface: ("d", "roots"),
    AnalysisReport: ("base", "extension", "degree", "half_degree", "degenerate",
                     "brauer_invariants", "verdicts", "rule_trace", "assumptions",
                     "conventions"),
    Lemma52Result: ("holds", "norm_multiple_equivariant", "index", "witnesses",
                    "source_invariants", "target_invariants"),
}


@pytest.mark.parametrize("make", FROZEN + MUTABLE)
def test_positional_and_keyword_construction_in_field_order(make):
    value = make()
    cls = type(value)
    fields = tuple(getattr(value, name) for name in FIELDS[cls])
    assert cls(*fields) == value
    assert cls(**dict(zip(FIELDS[cls], fields))) == value
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("make", FROZEN + MUTABLE)
def test_equality_holds_within_one_class_only(make):
    value = make()
    cls = type(value)
    fields = tuple(getattr(value, name) for name in FIELDS[cls])
    sub = type("Sub", (cls,), {})
    assert make() == value and not make() != value
    assert sub(*fields) == sub(*fields) and repr(sub(*fields)).startswith("Sub(")
    assert sub(*fields) != value and value != sub(*fields)
    assert value != fields


def test_a_field_that_differs_breaks_equality():
    assert _rational_surface() != RationalChateletSurface(3, ROOTS)
    report = _report()
    other = _report()
    other.degree = 4
    assert report != other


@pytest.mark.parametrize("make", FROZEN)
def test_frozen_values_hash_as_their_fields_and_refuse_assignment(make):
    value = make()
    name = FIELDS[type(value)][0]
    assert hash(value) == hash(tuple(getattr(value, n) for n in FIELDS[type(value)]))
    assert len({value, make()}) == 1
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == repr(make())


@pytest.mark.parametrize("make", MUTABLE)
def test_reports_are_unhashable(make):
    with pytest.raises(TypeError):
        hash(make())


@pytest.mark.parametrize("make", FROZEN + MUTABLE)
def test_copies_and_pickles_are_equal(make):
    value = make()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("args, message", [
    ((Q5.rational(4), ROOTS), "d must be a nonsquare of the base field"),
    ((Q5.rational(0), ROOTS), "d must be a nonsquare of the base field"),
    ((LocalField.qp(3).rational(2), ROOTS), "d must live in the base field"),
    ((Q5.rational(2), ROOTS[:3]), "need an even number of roots, at least four"),
    ((Q5.rational(2), ROOTS[:2]), "need an even number of roots, at least four"),
    ((Q5.rational(2), (1, 3, 6, 6)), "roots must be distinct"),
    ((Q5.rational(2), (0, 3, 6, 11)), "roots must be nonzero"),
])
def test_surface_validation_messages(args, message):
    d, roots = args
    field = d.field
    with pytest.raises(ValueError, match=f"^{message}$"):
        ChateletSurface(Q5, d, tuple(field.rational(r) for r in roots))


def test_surface_roots_must_be_elements_of_the_base_field():
    Q3 = LocalField.qp(3)
    for roots in ((1, 3, 6, 11), tuple(Q3.rational(r) for r in ROOTS)):
        with pytest.raises(ValueError, match="^roots must live in the base field$"):
            ChateletSurface(Q5, Q5.rational(2), roots)


@pytest.mark.parametrize("d, roots, message", [
    (4, ROOTS, "d must be a rational nonsquare"),
    (Fraction(9, 4), ROOTS, "d must be a rational nonsquare"),
    (0, ROOTS, "d must be a rational nonsquare"),
    (2, ROOTS[:3], "need an even number of roots, at least four"),
    (2, (1, 3, 6, 6), "roots must be distinct and nonzero"),
    (2, (0, 3, 6, 11), "roots must be distinct and nonzero"),
])
def test_rational_surface_validation_messages(d, roots, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RationalChateletSurface(d, roots)
