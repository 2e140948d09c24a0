"""Verdicts for point-class maps of conic bundle surfaces under base change.

A surface here is given by an equation y^2 - d z^2 = (x - e_1) ... (x - e_2r)
over a p-adic base field (or over the rationals in the global mode).  The
quantity of interest is how the degree-zero point classes and the associated
degree-two descent cohomology behave under restriction to a field extension
and under the corestriction back down.

For half degree two the cohomology side is computed with the exact engine:
the descent group is the two-element group acting on a rank-two lattice by
sign, restriction along a linearly disjoint extension is the identity on
one-cocycles, corestriction multiplies by the extension degree, and the
point-class verdicts are read off as exact duals (the local pairing between
point classes and the descent quotient is perfect).  Everything else is
derived from stated parity rules, and every step taken is recorded by name
in the report's rule trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .cohomology import CohMap, CohomologyGroup, dual_map, h1
from .intmat import IntMatrix
from .modules import GModule, chatelet_picard_module
from .padic import LocalField, PadicElement, embed, is_square, square_class


_CONVENTIONS = (
    "invariant tuples list cyclic orders in a divisibility chain",
    "verdicts on point-class maps are transposes of the cohomology maps "
    "under the local duality pairing, or parity consequences where noted",
    "the degree-zero part of the point classes is what all verdicts refer to",
)


def _is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


@dataclass(frozen=True)
class ChateletSurface:
    """A conic bundle surface over a p-adic base field, split presentation."""

    base: LocalField
    d: PadicElement
    roots: tuple

    def __post_init__(self):
        if self.d.field != self.base:
            raise ValueError("d must live in the base field")
        if self.d.is_zero() or is_square(self.d):
            raise ValueError("d must be a nonsquare of the base field")
        roots = tuple(self.roots)
        object.__setattr__(self, "roots", roots)
        if len(roots) % 2 != 0 or len(roots) < 4:
            raise ValueError("need an even number of roots, at least four")
        for e in roots:
            if not isinstance(e, PadicElement) or e.field != self.base:
                raise ValueError("roots must live in the base field")
            if e.is_zero():
                raise ValueError("roots must be nonzero")
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be distinct")

    @property
    def half_degree(self) -> int:
        return len(self.roots) // 2


@dataclass(frozen=True)
class RationalChateletSurface:
    """The same shape of surface with rational coefficients (global mode)."""

    d: Fraction
    roots: tuple

    def __post_init__(self):
        d = Fraction(self.d)
        object.__setattr__(self, "d", d)
        roots = tuple(Fraction(e) for e in self.roots)
        object.__setattr__(self, "roots", roots)
        if d == 0 or _is_rational_square(d):
            raise ValueError("d must be a rational nonsquare")
        if len(roots) % 2 != 0 or len(roots) < 4:
            raise ValueError("need an even number of roots, at least four")
        if any(e == 0 for e in roots) or len(set(roots)) != len(roots):
            raise ValueError("roots must be distinct and nonzero")

    @property
    def half_degree(self) -> int:
        return len(self.roots) // 2


def picard_module(surface) -> GModule:
    """The rank-two sign-action lattice whose degree-one cohomology carries
    the descent classes; only modeled for half degree two."""
    if surface.half_degree != 2:
        raise ValueError("the lattice model is only available for half degree two")
    return chatelet_picard_module()


def brauer_h1(surface) -> CohomologyGroup:
    """Degree-one cohomology of the descent lattice: (Z/2)^2 for half degree two."""
    module = picard_module(surface)
    return h1(module.group, module)


def _identity_map(coh: CohomologyGroup) -> CohMap:
    n = len(coh.invariants)
    return CohMap(coh, coh, IntMatrix.identity(n), kind="restriction")


def _scaling_map(coh: CohomologyGroup, n: int) -> CohMap:
    k = len(coh.invariants)
    return CohMap(coh, coh, IntMatrix.identity(k).scale(n), kind="corestriction")


def restriction_on_h1(surface: ChateletSurface, L: LocalField) -> CohMap:
    """Restriction of descent classes along L; requires d to stay a nonsquare,
    which keeps the degree-two descent group intact over L."""
    _extension_degree(surface.base, L)
    if is_square(embed(surface.d, L)):
        raise ValueError("d becomes a square over L; the descent group collapses")
    return _identity_map(brauer_h1(surface))


def corestriction_on_h1(surface: ChateletSurface, L: LocalField) -> CohMap:
    """Corestriction back down from L: multiplication by the extension degree."""
    n = _extension_degree(surface.base, L)
    if is_square(embed(surface.d, L)):
        raise ValueError("d becomes a square over L; the descent group collapses")
    # cheap exactness cross-check on the base field: the class of d^n is
    # trivial exactly when the degree is even
    cls = square_class(surface.base, surface.d ** n)
    if (all(c == 0 for c in cls)) != (n % 2 == 0):
        raise RuntimeError("square-class bookkeeping disagrees with degree parity")
    return _scaling_map(brauer_h1(surface), n)


def _extension_degree(base: LocalField, L: LocalField) -> int:
    if L.p != base.p or L.steps[:len(base.steps)] != base.steps:
        raise ValueError("L is not built as a tower extension of the base field")
    if L.degree % base.degree != 0:
        raise RuntimeError("tower degrees are inconsistent")
    return L.degree // base.degree


def _verdict(m: CohMap) -> str:
    if m.is_zero():
        return "ZERO"
    injective = m.is_injective()
    surjective = m.is_surjective()
    if injective and surjective:
        return "BIJECTIVE"
    if injective:
        return "INJECTIVE"
    if surjective:
        return "SURJECTIVE"
    return "NEITHER"


@dataclass
class AnalysisReport:
    base: str
    extension: str
    degree: int
    half_degree: int
    degenerate: object          # True, False, or None when undetermined
    brauer_invariants: object   # tuple of invariants or None when skipped
    verdicts: dict
    rule_trace: list
    assumptions: list
    conventions: list

    def as_dict(self) -> dict:
        return {
            "base": self.base,
            "extension": self.extension,
            "degree": self.degree,
            "half_degree": self.half_degree,
            "degenerate": self.degenerate,
            "brauer_invariants": (None if self.brauer_invariants is None
                                  else list(self.brauer_invariants)),
            "verdicts": dict(self.verdicts),
            "rule_trace": list(self.rule_trace),
            "assumptions": list(self.assumptions),
            "conventions": list(self.conventions),
        }


_H1_RES = "h1_restriction"
_H1_COR = "h1_corestriction"
_CHOW_RES = "chow_restriction"
_CHOW_COR = "chow_corestriction"


def analyze_local(surface: ChateletSurface, L: LocalField) -> AnalysisReport:
    """Full verdict report for restriction to L and corestriction back."""
    n = _extension_degree(surface.base, L)
    degenerate = is_square(embed(surface.d, L))
    trace: list = []
    assumptions: list = []
    verdicts: dict = {}
    brauer_invariants = None

    if surface.half_degree == 2:
        coh = brauer_h1(surface)
        brauer_invariants = coh.invariants
        if degenerate:
            if n % 2 != 0:
                raise RuntimeError("an odd degree extension cannot absorb a nonsquare")
            trace.append("degenerate_base_change")
            trace.append("split_surface_has_no_point_class_kernel")
            verdicts = {_H1_RES: "ZERO", _H1_COR: "ZERO",
                        _CHOW_RES: "ZERO", _CHOW_COR: "INJECTIVE"}
        else:
            trace.append("nonsquare_class_survives_extension")
            res = restriction_on_h1(surface, L)
            cor = corestriction_on_h1(surface, L)
            trace.append("restriction_acts_as_identity_on_descent_classes")
            trace.append("corestriction_multiplies_by_extension_degree")
            chow_cor = dual_map(res)
            chow_res = dual_map(cor)
            trace.append("point_class_maps_are_exact_duals_of_descent_maps")
            verdicts = {_H1_RES: _verdict(res), _H1_COR: _verdict(cor),
                        _CHOW_RES: _verdict(chow_res), _CHOW_COR: _verdict(chow_cor)}
    else:
        assumptions.append("point classes of these surfaces are killed by two; "
                           "only the composite of the two maps is used")
        verdicts[_H1_RES] = "NOT_COMPUTED"
        verdicts[_H1_COR] = "NOT_COMPUTED"
        if degenerate:
            trace.append("degenerate_base_change")
            verdicts[_CHOW_RES] = "ZERO"
            verdicts[_CHOW_COR] = "INJECTIVE"
        elif n % 2 == 1:
            trace.append("odd_degree_composite_is_identity_on_exponent_two")
            verdicts[_CHOW_RES] = "INJECTIVE"
            verdicts[_CHOW_COR] = "SURJECTIVE"
        else:
            trace.append("even_degree_parity_gives_no_conclusion")
            verdicts[_CHOW_RES] = "UNKNOWN"
            verdicts[_CHOW_COR] = "UNKNOWN"

    return AnalysisReport(
        base=surface.base.describe(),
        extension=L.describe(),
        degree=n,
        half_degree=surface.half_degree,
        degenerate=degenerate,
        brauer_invariants=brauer_invariants,
        verdicts=verdicts,
        rule_trace=trace,
        assumptions=assumptions,
        conventions=list(_CONVENTIONS),
    )


def analyze_global(surface: RationalChateletSurface, degree: int, *,
                   assert_degenerate: bool = False,
                   completion: LocalField | None = None) -> AnalysisReport:
    """Verdicts over the rationals, using only evidence that is sound.

    Degeneracy (d becoming a square in the extension) can be settled three
    ways: an odd extension degree rules it out outright; the caller may
    assert it; or a completion of the extension field may certify that d
    stays a nonsquare there.  A completion in which d becomes a square
    proves nothing and leaves the status undetermined.
    """
    if degree < 2:
        raise ValueError("extension degree must be at least two")
    trace: list = []
    assumptions: list = []
    degenerate: object = None

    if assert_degenerate:
        if degree % 2 != 0:
            raise ValueError("an odd degree extension cannot absorb a nonsquare")
        degenerate = True
        assumptions.append("degeneracy of the base change was asserted by the "
                           "caller, not verified")
        trace.append("degenerate_base_change")
    elif degree % 2 == 1:
        degenerate = False
        trace.append("odd_degree_extension_cannot_absorb_a_nonsquare")
    elif completion is not None:
        assumptions.append("the supplied local field is trusted to be a "
                           "completion of the extension field")
        if not is_square(completion.rational(surface.d)):
            degenerate = False
            trace.append("local_certificate_confirms_nonsquare")
        else:
            trace.append("local_certificate_inconclusive")
    else:
        trace.append("no_evidence_about_class_survival")

    verdicts: dict = {}
    brauer_invariants = None

    if surface.half_degree == 2 and degenerate is not None:
        module = chatelet_picard_module()
        coh = h1(module.group, module)
        brauer_invariants = coh.invariants
        if degenerate:
            verdicts = {_H1_RES: "ZERO", _H1_COR: "ZERO",
                        _CHOW_RES: "ZERO", _CHOW_COR: "INJECTIVE"}
            trace.append("split_surface_has_no_point_class_kernel")
        else:
            res = _identity_map(coh)
            cor = _scaling_map(coh, degree)
            verdicts[_H1_RES] = _verdict(res)
            verdicts[_H1_COR] = _verdict(cor)
            trace.append("restriction_acts_as_identity_on_descent_classes")
            trace.append("corestriction_multiplies_by_extension_degree")
            if degree % 2 == 1:
                verdicts[_CHOW_RES] = "INJECTIVE"
                verdicts[_CHOW_COR] = "SURJECTIVE"
                trace.append("odd_degree_composite_is_identity_on_exponent_two")
            else:
                verdicts[_CHOW_RES] = "UNKNOWN"
                verdicts[_CHOW_COR] = "UNKNOWN"
                trace.append("global_pairing_not_assumed_perfect")
    else:
        verdicts[_H1_RES] = "UNKNOWN" if degenerate is None else "NOT_COMPUTED"
        verdicts[_H1_COR] = verdicts[_H1_RES]
        if degenerate is True:
            verdicts[_CHOW_RES] = "ZERO"
            verdicts[_CHOW_COR] = "INJECTIVE"
            trace.append("split_surface_has_no_point_class_kernel")
        elif degenerate is False and degree % 2 == 1:
            assumptions.append("point classes of these surfaces are killed by "
                               "two; only the composite of the two maps is used")
            verdicts[_CHOW_RES] = "INJECTIVE"
            verdicts[_CHOW_COR] = "SURJECTIVE"
            trace.append("odd_degree_composite_is_identity_on_exponent_two")
        else:
            verdicts[_CHOW_RES] = "UNKNOWN"
            verdicts[_CHOW_COR] = "UNKNOWN"

    return AnalysisReport(
        base="Q",
        extension=f"degree-{degree} extension of Q",
        degree=degree,
        half_degree=surface.half_degree,
        degenerate=degenerate,
        brauer_invariants=brauer_invariants,
        verdicts=verdicts,
        rule_trace=trace,
        assumptions=assumptions,
        conventions=list(_CONVENTIONS),
    )
