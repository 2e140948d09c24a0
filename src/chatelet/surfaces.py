"""Verdicts for point-class maps of conic bundle surfaces under base change.

A surface here is given by an equation y^2 - d z^2 = (x - e_1) ... (x - e_2r)
over a p-adic base field (or over the rationals in the global mode).  The
quantity of interest is how the degree-zero point classes and the associated
degree-two descent cohomology behave under restriction to a field extension
and under the corestriction back down.

An analysis has three stages.  `analyze_local` and `analyze_global` settle
the evidence: the extension degree, and whether d becomes a square over the
extension (decided exactly over a p-adic base, through the restriction of
the base's square class basis; over Q only from sound evidence, otherwise
left unknown).  One rule function, `_rules`, turns that evidence into
verdicts.  For half degree two, restriction and corestriction on the (Z/2)^2
descent classes are computed with the exact engine, once per extension
degree: the identity and multiplication by the degree.  Where the
pairing between point classes and descent classes is perfect (a p-adic
base) the point-class verdicts are their Pontryagin duals; otherwise only
parity rules apply.  One constructor then builds the report, whose rule
trace names every step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import index

from .cohomology import CohMap, CohomologyGroup, h1
from .intmat import IntMatrix
from .modules import CACHE_SIZE, GModule, chatelet_picard_module
from .padic import LocalField, PadicElement, _exact, _is_prefix, becomes_square, is_square
from .values import FrozenValue, Value


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


class _Surface(FrozenValue):
    """The shape both surface classes share: y^2 - d z^2 = (x - e_1) ... (x - e_n)
    with n even and at least four; the half degree is n / 2."""

    __slots__ = ()

    @staticmethod
    def _even_roots(roots) -> tuple:
        roots = tuple(roots)
        if len(roots) % 2 != 0 or len(roots) < 4:
            raise ValueError("need an even number of roots, at least four")
        return roots

    @property
    def half_degree(self) -> int:
        return len(self.roots) // 2


class ChateletSurface(_Surface):
    """A conic bundle surface over a p-adic base field, split presentation."""

    __slots__ = ("base", "d", "roots")

    def __init__(self, base: LocalField, d: PadicElement, roots: tuple):
        if d.field != base:
            raise ValueError("d must live in the base field")
        if d.is_zero() or is_square(d):
            raise ValueError("d must be a nonsquare of the base field")
        roots = self._even_roots(roots)
        for e in roots:
            if not isinstance(e, PadicElement) or e.field != base:
                raise ValueError("roots must live in the base field")
            if e.is_zero():
                raise ValueError("roots must be nonzero")
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be distinct")
        self._freeze(base, d, roots)


class RationalChateletSurface(_Surface):
    """The same shape of surface with rational coefficients (global mode);
    d and the roots are read exactly, so a float is refused."""

    __slots__ = ("d", "roots")

    def __init__(self, d: Fraction, roots: tuple):
        d = _exact(d)
        roots = tuple(map(_exact, roots))
        if d == 0 or _is_rational_square(d):
            raise ValueError("d must be a rational nonsquare")
        roots = self._even_roots(roots)
        if any(e == 0 for e in roots) or len(set(roots)) != len(roots):
            raise ValueError("roots must be distinct and nonzero")
        self._freeze(d, roots)


def picard_module(surface) -> GModule:
    """The rank-two sign-action lattice whose degree-one cohomology carries
    the descent classes; only modeled for half degree two."""
    return _descent_h1(surface.half_degree).module


def brauer_h1(surface) -> CohomologyGroup:
    """Degree-one cohomology of the descent lattice: (Z/2)^2 for half degree two."""
    return _descent_h1(surface.half_degree)


def _descent_h1(half_degree: int) -> CohomologyGroup:
    """H^1 of the descent lattice of a surface of this half degree: every
    reader of the model's cohomology comes here."""
    if half_degree != 2:
        raise ValueError("the lattice model is only available for half degree two")
    module = chatelet_picard_module()
    return h1(module.group, module)


def _descent_maps(coh: CohomologyGroup, n: int) -> tuple[CohMap, CohMap]:
    """Restriction (the identity) and corestriction (multiplication by the
    degree n) on the descent classes `coh`, along an extension that keeps d
    a nonsquare."""
    eye = IntMatrix.identity(len(coh.invariants))
    return (CohMap(coh, coh, eye, kind="restriction"),
            CohMap(coh, coh, eye.scale(n), kind="corestriction"))


@lru_cache(maxsize=CACHE_SIZE)
def _descent_verdicts(n: int) -> tuple[tuple, tuple[str, str]]:
    """The invariants of the half-degree-two descent classes and the verdicts
    of restriction and corestriction along a degree-n extension.  Both
    depend on n alone, so the exact engine settles each degree once."""
    res, cor = _descent_maps(_descent_h1(2), n)
    return res.source.invariants, (_verdict(res), _verdict(cor))


def _local_evidence(surface: ChateletSurface, L: LocalField) -> tuple[int, bool]:
    """The degree of L over the surface's base field, and whether d becomes
    a square over L."""
    if not _is_prefix(surface.base, L):
        raise ValueError("L is not built as a tower extension of the base field")
    return L.degree // surface.base.degree, becomes_square(surface.d, L)


def _nondegenerate_maps(surface: ChateletSurface, L: LocalField) -> tuple[CohMap, CohMap]:
    """Restriction and corestriction of the descent classes along L, which
    must keep d a nonsquare."""
    n, degenerate = _local_evidence(surface, L)
    if degenerate:
        raise ValueError("d becomes a square over L; the descent group collapses")
    return _descent_maps(brauer_h1(surface), n)


def restriction_on_h1(surface: ChateletSurface, L: LocalField) -> CohMap:
    """Restriction of descent classes along L; requires d to stay a nonsquare,
    which keeps the degree-two descent group intact over L."""
    return _nondegenerate_maps(surface, L)[0]


def corestriction_on_h1(surface: ChateletSurface, L: LocalField) -> CohMap:
    """Corestriction back down from L: multiplication by the extension degree."""
    return _nondegenerate_maps(surface, L)[1]


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


class AnalysisReport(Value):
    __slots__ = ("base", "extension", "degree", "half_degree", "degenerate",
                 "brauer_invariants", "verdicts", "rule_trace", "assumptions", "conventions")

    def __init__(self, base: str, extension: str, degree: int, half_degree: int,
                 degenerate: bool | None, brauer_invariants: tuple | None, verdicts: dict,
                 rule_trace: list, assumptions: list, conventions: list):
        self.base = base
        self.extension = extension
        self.degree = degree
        self.half_degree = half_degree
        self.degenerate = degenerate
        self.brauer_invariants = brauer_invariants
        self.verdicts = verdicts
        self.rule_trace = rule_trace
        self.assumptions = assumptions
        self.conventions = conventions

    def as_dict(self) -> dict:
        """Every field as plain JSON data.  With "type": "analyze" added this
        is the result of a CLI analyze job, which drops rule_trace,
        assumptions and conventions unless run with --trace."""
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

# Pontryagin duality of finite abelian groups: the dual of an injective map is
# surjective and the other way round; zero and bijective maps stay so, and a
# map that is neither has a dual that is neither.
_DUAL_VERDICT = {"ZERO": "ZERO", "INJECTIVE": "SURJECTIVE", "SURJECTIVE": "INJECTIVE",
                 "BIJECTIVE": "BIJECTIVE", "NEITHER": "NEITHER"}

_KILLED_BY_TWO = ("point classes of these surfaces are killed by two; "
                  "only the composite of the two maps is used")


def _rules(rank_two: bool, degenerate, odd: bool, perfect: bool, h1_verdicts):
    """Verdicts, rule trace and assumptions from settled evidence.

    `rank_two` says the half degree is two, `degenerate` is True, False or
    None (unsettled), `odd` is the parity of the extension degree and
    `perfect` says the pairing between point classes and descent classes is
    perfect (a p-adic base).  `h1_verdicts` are the verdicts of restriction
    and corestriction on the descent classes, given exactly when the half
    degree is two and the extension is known not to be degenerate.

    Both modes read the evidence the same way: once `degenerate` is
    settled, the trace names the rule behind the point-class verdicts, and
    an assumption is listed exactly when a verdict rests on it.  `perfect`
    matters only where the descent classes are computed, to choose between
    duality and the parity rules.
    """
    trace: list = []
    assumptions: list = []
    if degenerate is None:
        h1_res = h1_cor = chow_res = chow_cor = "UNKNOWN"
    elif degenerate:
        h1_res = h1_cor = "ZERO" if rank_two else "NOT_COMPUTED"
        chow_res, chow_cor = "ZERO", "INJECTIVE"
        trace.append("split_surface_has_no_point_class_kernel")
    else:
        if rank_two:
            h1_res, h1_cor = h1_verdicts
            trace.append("restriction_acts_as_identity_on_descent_classes")
            trace.append("corestriction_multiplies_by_extension_degree")
        else:
            h1_res = h1_cor = "NOT_COMPUTED"
        if rank_two and perfect:
            chow_res, chow_cor = _DUAL_VERDICT[h1_cor], _DUAL_VERDICT[h1_res]
            trace.append("point_class_maps_are_exact_duals_of_descent_maps")
        elif odd:
            chow_res, chow_cor = "INJECTIVE", "SURJECTIVE"
            trace.append("odd_degree_composite_is_identity_on_exponent_two")
            if not rank_two:
                assumptions.append(_KILLED_BY_TWO)
        else:
            chow_res = chow_cor = "UNKNOWN"
            trace.append("global_pairing_not_assumed_perfect" if rank_two
                         else "even_degree_parity_gives_no_conclusion")
    verdicts = {_H1_RES: h1_res, _H1_COR: h1_cor,
                _CHOW_RES: chow_res, _CHOW_COR: chow_cor}
    return verdicts, trace, assumptions


def _report(surface, base: str, extension: str, n: int, degenerate, perfect: bool,
            trace: list, assumptions: list) -> AnalysisReport:
    """Apply the rules to the evidence and assemble the report."""
    rank_two = surface.half_degree == 2
    brauer_invariants = h1_verdicts = None
    if rank_two and degenerate is not None:
        brauer_invariants, descent_verdicts = _descent_verdicts(n)
        if not degenerate:
            h1_verdicts = descent_verdicts
    verdicts, rule_trace, rule_assumptions = _rules(
        rank_two, degenerate, n % 2 == 1, perfect, h1_verdicts)
    return AnalysisReport(
        base=base,
        extension=extension,
        degree=n,
        half_degree=surface.half_degree,
        degenerate=degenerate,
        brauer_invariants=brauer_invariants,
        verdicts=verdicts,
        rule_trace=trace + rule_trace,
        assumptions=assumptions + rule_assumptions,
        conventions=list(_CONVENTIONS),
    )


def analyze_local(surface: ChateletSurface, L: LocalField) -> AnalysisReport:
    """Full verdict report for restriction to L and corestriction back.

    Over a p-adic base the evidence is complete: whether d becomes a square
    over L is decided exactly, and the local pairing is perfect.
    """
    n, degenerate = _local_evidence(surface, L)
    if degenerate and n % 2 != 0:
        raise RuntimeError("an odd degree extension cannot absorb a nonsquare")
    trace = ["degenerate_base_change" if degenerate else "nonsquare_class_survives_extension"]
    return _report(surface, surface.base.describe(), L.describe(), n, degenerate,
                   True, trace, [])


def analyze_global(surface: RationalChateletSurface, degree: int, *,
                   assert_degenerate: bool = False,
                   completion: LocalField | None = None) -> AnalysisReport:
    """Verdicts over the rationals, using only evidence that is sound.

    Degeneracy (d becoming a square in the extension) can be settled three
    ways: an odd extension degree rules it out outright; the caller may
    assert it; or a completion of the extension field may certify that d
    stays a nonsquare there.  A completion in which d becomes a square
    proves nothing and leaves the status undetermined.  The global pairing
    is not assumed perfect.  The degree is read as an integer, so a float
    is refused.
    """
    degree = index(degree)
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

    return _report(surface, "Q", f"degree-{degree} extension of Q", degree, degenerate,
                   False, trace, assumptions)
