"""Extensions of modules and the first Ext group.

An extension of M by N is stored through the off-diagonal blocks of its
total action: g acts on N + M by [[action_N(g), phi(g)], [0, action_M(g)]].
The translation to cohomology twists by the quotient action: the function
g |-> phi(g) . action_M(g)^{-1} is a 1-cocycle with values in Hom(M, N), and
Ext^1(M, N) = H^1(G, Hom(M, N)).

Restriction, corestriction, pushout and pullback of extensions are all
implemented on the phi blocks directly, corestriction as the same coset
transfer that `corestriction_map` sums on cocycles.  The commuting-square
checker at the bottom compares a norm-multiple pushout against the
restrict/push/corestrict route and reports witnesses either way.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cohomology import CohomologyGroup, h1
from .groups import FiniteGroup, Subgroup
from .intmat import IntMatrix, Vector, hstack, vstack
from .modules import (
    GModule,
    GModuleMap,
    HomModule,
    _stacked_relations,
    hom_module,
    restrict_module,
)
from .values import Value


class ExtensionClass:
    """An extension 0 -> sub -> total -> quot -> 0 of modules over one group.

    `phi[g]` is the upper right block of g acting on the total module in the
    coordinates (sub generators, quot generators).  Validity of the blocks is
    checked by building the total module and running the full module axioms.
    """

    __slots__ = ("group", "sub", "quot", "phi")

    def __init__(self, group: FiniteGroup, sub: GModule, quot: GModule,
                 phi: Sequence[IntMatrix], check: bool = True):
        if sub.group != group or quot.group != group:
            raise ValueError("sub and quot must be modules over the given group")
        self.group = group
        self.sub = sub
        self.quot = quot
        self.phi = tuple(phi)
        if len(self.phi) != group.order:
            raise ValueError("need one block per group element")
        for m in self.phi:
            if m.shape != (sub.rank, quot.rank):
                raise ValueError("block has the wrong shape")
        if check:
            self.total_module().validate()

    def total_module(self) -> GModule:
        """The middle term, as an explicit module on stacked generators."""
        rn, rm = self.sub.rank, self.quot.rank
        mats = []
        for g in self.group.elements():
            top = hstack(self.sub.act(g), self.phi[g])
            bottom = hstack(IntMatrix.zeros(rm, rn), self.quot.act(g))
            mats.append(vstack(top, bottom))
        return GModule(self.group, rn + rm, _stacked_relations(self.sub, self.quot), mats,
                       name=f"ext({self.quot.name} by {self.sub.name})", check=False)

    def hom_cocycle(self, hom: HomModule | None = None) -> dict[int, Vector]:
        """The twisted cocycle g |-> phi(g) . action_M(g^{-1}), in hom coordinates."""
        if hom is None:
            hom = hom_module(self.quot, self.sub)
        G = self.group
        out = {}
        for g in G.elements():
            out[g] = hom.coords_of(self.phi[g] @ self.quot.act(G.inv(g)))
        return out

    def __repr__(self) -> str:
        return (f"ExtensionClass({self.quot.name} by {self.sub.name} "
                f"over {self.group.name})")


def ext1(G: FiniteGroup, M: GModule, N: GModule) -> CohomologyGroup:
    """Ext^1(M, N) over G, computed as H^1 of the hom module."""
    return h1(G, hom_module(M, N))


def class_of(E: ExtensionClass, ext: CohomologyGroup | None = None) -> Vector:
    """Coordinates of the class of E in Ext^1(quot, sub)."""
    hom = hom_module(E.quot, E.sub)
    if ext is None:
        ext = ext1(E.group, E.quot, E.sub)
    return ext.coords_of_cocycle(E.hom_cocycle(hom))


def extension_from_cocycle(G: FiniteGroup, M: GModule, N: GModule,
                           coords: Sequence[int]) -> ExtensionClass:
    """An extension of M by N whose class has the given Ext coordinates."""
    hom = hom_module(M, N)
    ext = ext1(G, M, N)
    cocycle = ext.cocycle_from_coords(coords)
    phi = [hom.matrix_of(cocycle[g]) @ M.act(g) for g in G.elements()]
    return ExtensionClass(G, N, M, phi)


def pushout(E: ExtensionClass, a: GModuleMap) -> ExtensionClass:
    """Push the extension forward along an equivariant map out of the sub."""
    if a.source != E.sub:
        raise ValueError("map does not start at the sub module")
    if a.scope is not None:
        raise ValueError("pushout needs a map equivariant over the whole group")
    phi = [a.matrix @ E.phi[g] for g in E.group.elements()]
    return ExtensionClass(E.group, a.target, E.quot, phi)


def pullback(E: ExtensionClass, b: GModuleMap) -> ExtensionClass:
    """Pull the extension back along an equivariant map into the quotient."""
    if b.target != E.quot:
        raise ValueError("map does not end at the quot module")
    if b.scope is not None:
        raise ValueError("pullback needs a map equivariant over the whole group")
    phi = [E.phi[g] @ b.matrix for g in E.group.elements()]
    return ExtensionClass(E.group, E.sub, b.source, phi)


def res_ext(E: ExtensionClass, H: Subgroup) -> ExtensionClass:
    """Restriction of an extension to a subgroup."""
    if H.parent != E.group:
        raise ValueError("subgroup belongs to a different group")
    sub = restrict_module(E.sub, H)
    quot = restrict_module(E.quot, H)
    phi = [E.phi[H.embed(i)] for i in H.group.elements()]
    return ExtensionClass(H.group, sub, quot, phi, check=False)


def cores_ext(E: ExtensionClass, H: Subgroup, M: GModule, N: GModule) -> ExtensionClass:
    """Corestriction of extensions: Ext^1_H(Res M, Res N) -> Ext^1_G(M, N).

    The coset transfer on the phi blocks: with g r_i = r_j h for the left
    coset representatives r_i of H,

      phi'(g) = sum over cosets i of N(r_j) . phi_E(h) . M(r_i^{-1}).

    This is the extension induced up to G, pulled back along the unit
    M -> Ind(Res M), m |-> sum over i of (copy i of r_i^{-1} m), and pushed
    out along the counit Ind(Res N) -> N, (copy j of n) |-> r_j n: g sends
    copy i to copy j through phi_E(h), so counit . blocks(g) . unit is the
    sum above.  On twisted cocycles it is the transfer of
    `corestriction_map`.
    """
    G = H.parent
    if M.group != G or N.group != G:
        raise ValueError("M and N must be modules over the subgroup's parent")
    if E.quot != restrict_module(M, H) or E.sub != restrict_module(N, H):
        raise ValueError("extension is not between the restrictions of M and N")
    reps = H.left_coset_reps()
    unit = [M.act(G.inv(rep)) for rep in reps]
    counit = [N.act(rep) for rep in reps]

    def transfer(g: int) -> IntMatrix:
        total = IntMatrix.zeros(N.rank, M.rank)
        for i, back in enumerate(unit):
            j, h_par = H.transfer_factor(g, i)
            total = total + counit[j] @ E.phi[H.locate(h_par)] @ back
        return total

    return ExtensionClass(G, N, M, [transfer(g) for g in G.elements()])


def scaled_map(f: GModuleMap, n: int) -> GModuleMap | None:
    """n times a module map, promoted to a fully equivariant map if it is one.

    Returns None when the scaled matrix does not commute with the whole group
    action (the zero map always does).
    """
    try:
        return GModuleMap(f.source, f.target, f.matrix.scale(n))
    except ValueError:
        return None


class Lemma52Result(Value):
    """Outcome of the commuting-square check for one subgroup datum.

    holds: whether both routes agreed on every generator class.
    norm_multiple_equivariant: whether index * h was a map of modules over
        the whole group (if not, the square is not even well posed and
        holds is False with the first route undefined).
    index: the subgroup index used as the multiplier.
    witnesses: per generator of Ext^1(P, Q), the coordinate tuples produced
        by the two routes in Ext^1(P, R).
    """

    __slots__ = ("holds", "norm_multiple_equivariant", "index", "witnesses",
                 "source_invariants", "target_invariants")

    def __init__(self, holds: bool, norm_multiple_equivariant: bool, index: int, witnesses: list,
                 source_invariants: tuple[int, ...], target_invariants: tuple[int, ...]):
        self.holds = holds
        self.norm_multiple_equivariant = norm_multiple_equivariant
        self.index = index
        self.witnesses = witnesses
        self.source_invariants = source_invariants
        self.target_invariants = target_invariants


def lemma52_check(H: Subgroup, P: GModule, Q: GModule, R: GModule,
                  h: GModuleMap) -> Lemma52Result:
    """Compare (index * h) pushout against restrict, push out by h, corestrict.

    P, Q, R are modules over the parent group; h maps the restriction of Q to
    the restriction of R over the subgroup.  For each generator class e of
    Ext^1(P, Q) the two routes into Ext^1(P, R) are evaluated and compared:

      route A: push out e along the multiplied map (index * h), when that
               matrix is equivariant over the whole group;
      route B: restrict e to the subgroup, push out along h, corestrict.

    Returns the witnesses either way; holds is True only when route A is
    defined and matches route B on every generator.
    """
    G = H.parent
    if P.group != G or Q.group != G or R.group != G:
        raise ValueError("P, Q, R must be modules over the subgroup's parent")
    if h.source != restrict_module(Q, H) or h.target != restrict_module(R, H):
        raise ValueError("h must map the restriction of Q to the restriction of R")
    n = H.index
    ext_pq = ext1(G, P, Q)
    ext_pr = ext1(G, P, R)

    nh = scaled_map(GModuleMap(Q, R, h.matrix, check=False), n)
    witnesses: list[tuple[Vector | None, Vector]] = []
    holds = nh is not None
    for coords in IntMatrix.identity(len(ext_pq.invariants)).rows:
        E = extension_from_cocycle(G, P, Q, coords)
        route_a = class_of(pushout(E, nh), ext_pr) if nh is not None else None
        eh = pushout(res_ext(E, H), h)
        route_b = class_of(cores_ext(eh, H, P, R), ext_pr)
        witnesses.append((route_a, route_b))
        if route_a != route_b:
            holds = False
    return Lemma52Result(holds=holds,
                         norm_multiple_equivariant=nh is not None,
                         index=n,
                         witnesses=witnesses,
                         source_invariants=ext_pq.invariants,
                         target_invariants=ext_pr.invariants)
