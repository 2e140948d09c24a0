"""Group cohomology in degrees zero and one, and the maps between the groups.

H^1 is computed from cocycles parametrized by their values on a generating
set (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 7.6):
values on the generators extend to a cocycle exactly when every relator of
a presentation of G maps to zero, and the relator's Fox derivatives, read
through the action, make that one block of integer linear conditions
modulo the relation lattice.  The presentation comes from
`FiniteGroup.relators`, verified by a coset enumeration, so H^1 costs one
block per relator: 28 for (Z/2)^7, where the edges that close a cycle in a
breadth-first walk of the Cayley graph would give |G|(|gens| - 1) + 1 = 769.
The cocycle lattice is solved with every block in one integer echelon form
(`solution_lattice`).  The quotient by coboundaries is a lattice
subquotient, whose invariants come from one Smith form.

A CohomologyGroup hands out honest cocycles (one module element per group
element) for its generators and converts arbitrary cocycles back to
coordinates.  The restriction, corestriction and induced maps are built
from that alone: `_cohomology_map` picks h0 or h1 for the degree, sends each
generator cocycle of the source through the map's transform for that
degree and reads the image's coordinates in the target.  A map's zero,
injective and surjective flags are exact and build no subquotient: one
solve decides injectivity and one echelon surjectivity.  The kernel,
image and cokernel invariants, which do build one, stay as the tests'
oracle for them.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from functools import lru_cache
from operator import add, sub

from .groups import FiniteGroup, Subgroup, breadth_first_edges
from .intmat import (
    IntMatrix,
    LatticeSubquotient,
    Vector,
    _spans,
    reduce_mod,
    solution_lattice,
)
from .modules import (
    CACHE_SIZE,
    FpAbGroup,
    GModule,
    GModuleMap,
    _block_relations,
    _diagonal_relations,
    describe_invariants,
    invariant_subquotient,
    restrict_module,
)

Cocycle = Mapping[int, Sequence[int]]


class CohomologyGroup:
    """H^0 or H^1 of a finite group with coefficients in a GModule.

    Elements are coordinate tuples with respect to `invariants`.  For degree
    one, cocycles are dictionaries mapping every group element to a vector in
    the module's generator lattice; for degree zero they are plain vectors.
    """

    __slots__ = ("degree", "group", "module", "_subq",
                 "_to_ambient", "_from_ambient")

    def __init__(self, degree: int, group: FiniteGroup, module: GModule,
                 subq: LatticeSubquotient,
                 to_ambient: Callable[[object], Sequence[int]],
                 from_ambient: Callable[[Sequence[int]], object]):
        self.degree = degree
        self.group = group
        self.module = module
        self._subq = subq
        self._to_ambient = to_ambient
        self._from_ambient = from_ambient

    def _verify_element(self, cocycle) -> None:
        M = self.module
        if self.degree == 0:
            for g in self.group.generating_set():
                if not M.vectors_equal(M.act(g).apply(cocycle), cocycle):
                    raise ValueError("vector is not invariant")
        else:
            if not is_cocycle(M, cocycle):
                raise ValueError("function does not satisfy the cocycle identity")

    @property
    def invariants(self) -> tuple[int, ...]:
        return self._subq.invariants

    @property
    def order(self) -> int | None:
        return self._subq.order

    @property
    def is_trivial(self) -> bool:
        return self._subq.is_trivial

    def describe(self) -> str:
        return describe_invariants(self.invariants)

    def coords_of_cocycle(self, cocycle, verify: bool = True) -> Vector:
        """Coordinates of the class of a cocycle (a dict in degree one,
        a vector in degree zero).

        With verify on, the cocycle identity (or invariance in degree zero)
        is checked exhaustively first.
        """
        if verify:
            self._verify_element(cocycle)
        return self._subq.coords(self._to_ambient(cocycle))

    def cocycle_from_coords(self, coords: Sequence[int]):
        """An honest representative with the given coordinates."""
        return self._from_ambient(self._subq.lift(coords))

    def generator_cocycles(self) -> list:
        return [self._from_ambient(v) for v in self._subq.generators]

    def reduce_coords(self, coords: Sequence[int]) -> Vector:
        return self._subq.reduce_coords(coords)

    def zero_coords(self) -> Vector:
        return tuple(0 for _ in self.invariants)

    def __eq__(self, other: object) -> bool:
        """The same group in the same coordinates: equal degree, group,
        module and invariants, over the same generator cocycles.  So an `h0`
        or `h1` recomputed after its cache let the first result go equals
        that result, and maps built on either compose."""
        return self is other or (
            isinstance(other, CohomologyGroup) and self.degree == other.degree
            and self.group == other.group and self.module == other.module
            and self.invariants == other.invariants
            and self.generator_cocycles() == other.generator_cocycles())

    def __hash__(self) -> int:
        return hash((self.degree, self.group, self.module, self.invariants))

    def __repr__(self) -> str:
        return (f"CohomologyGroup(H^{self.degree}, {self.group.name}, "
                f"{self.module.name}, {self.describe()})")


def _identity_cocycle_check(group: FiniteGroup, cocycle: Cocycle, rank: int) -> None:
    if set(cocycle.keys()) != set(group.elements()):
        raise ValueError("cocycle must assign a value to every group element")
    if any(len(tuple(v)) != rank for v in cocycle.values()):
        raise ValueError("cocycle value has the wrong length")


def is_cocycle(M: GModule, cocycle: Cocycle) -> bool:
    """Check of c(gh) = c(g) + g c(h) modulo the relation lattice.

    It is tested for h = e (c(e) = 0) and on every generator edge g -> g s;
    M being a module, induction on word length gives it for every h.
    """
    G = M.group
    _identity_cocycle_check(G, cocycle, M.rank)
    if not M.in_relation_lattice(cocycle[G.identity]):
        return False
    for s in G.generating_set():
        cs = cocycle[s]
        for g in G.elements():
            rhs = [a + b for a, b in zip(cocycle[g], M.act(g).apply(cs))]
            if not M.vectors_equal(cocycle[G.mul(g, s)], rhs):
                return False
    return True


@lru_cache(maxsize=CACHE_SIZE)
def h0(G: FiniteGroup, M: GModule) -> CohomologyGroup:
    """Invariants M^G as a cohomology group in degree zero."""
    if M.group != G:
        raise ValueError("module is not over the given group")
    subq = invariant_subquotient(M)
    return CohomologyGroup(0, G, M, subq,
                           to_ambient=lambda v: tuple(v),
                           from_ambient=lambda v: tuple(v))


@lru_cache(maxsize=CACHE_SIZE)
def h1(G: FiniteGroup, M: GModule) -> CohomologyGroup:
    """First cohomology via generator-parametrized cocycles, constrained by
    the relators of a presentation of G."""
    if M.group != G:
        raise ValueError("module is not over the given group")
    r = M.rank
    gens = G.generating_set()
    ns = len(gens)
    u_dim = ns * r

    # u stacks the values c(s_t) on the generators, and a cocycle extends
    # to every word: c(w s_t) = c(w) + w . c(s_t) and
    # c(w s_t^-1) = c(w) - (w s_t^-1) . c(s_t).  So c(R) = D_R . u, where
    # column block t of D_R is the Fox derivative dR/ds_t read through the
    # action: + act(prefix) at each s_t, - act(prefix s_t^-1) at each
    # s_t^-1.  u extends to a cocycle on G exactly when every relator
    # sends it into the relation lattice.  A group with no generators has
    # no relators and u_dim = 0: the subquotient below is empty with the
    # zero cocycle as its only element.
    inverses = [G.inv(s) for s in gens]
    constraints: list[IntMatrix] = []
    for word in G.relators():
        block = [[0] * u_dim for _ in range(r)]
        g = G.identity
        for a in word:
            t = abs(a) - 1
            if a < 0:
                g = G.mul(g, inverses[t])
            lo, hi = t * r, (t + 1) * r
            combine = add if a > 0 else sub
            for row, act_row in zip(block, M.act(g).rows):
                row[lo:hi] = map(combine, row[lo:hi], act_row)
            if a > 0:
                g = G.mul(g, gens[t])
        if any(map(any, block)):
            constraints.append(IntMatrix._wrap(block, u_dim))

    z1 = solution_lattice(u_dim, constraints, M.relations)

    # coboundaries: u = ((s - 1) e_j)_s for each basis vector e_j, and the
    # relations placed in each generator's block
    b1 = [tuple(row[j] - (i == j) for s in gens for i, row in enumerate(M.act(s).rows))
          for j in range(r)]
    b1 += _block_relations(M.relations, ns, r)

    subq = LatticeSubquotient(u_dim, z1, b1)

    def to_ambient(cocycle: Cocycle) -> Vector:
        _identity_cocycle_check(G, cocycle, r)
        return tuple(x for s in gens for x in cocycle[s])

    def from_ambient(u: Sequence[int]) -> dict[int, Vector]:
        # c(g s_t) = c(g) + g . c(s_t) along the breadth-first tree
        values = {G.identity: (0,) * r}
        for g, t, gs, first in breadth_first_edges(G):
            if first:
                step = M.act(g).apply(u[t * r:(t + 1) * r])
                values[gs] = tuple(map(add, values[g], step))
        return {g: values[g] for g in G.elements()}

    return CohomologyGroup(1, G, M, subq, to_ambient, from_ambient)


# -- maps between cohomology groups ---------------------------------------------


class CohMap:
    """An additive map between cohomology groups (or finite abelian groups)
    in their coordinate presentations.

    `source` and `target` only need to expose `invariants`; both
    CohomologyGroup and FpAbGroup qualify.  Column i of `matrix` is the image
    of source generator i; images are reduced modulo the target's invariants
    by the same rule as a subquotient's coordinates (`reduce_mod`).  `kind`
    records how the map was built (restriction, corestriction,
    induced-by-module-map, transpose-dual, or a composite).
    """

    __slots__ = ("source", "target", "matrix", "kind")

    def __init__(self, source, target, matrix: IntMatrix, kind: str, check: bool = True):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.kind = kind
        s = len(source.invariants)
        t = len(target.invariants)
        if matrix.shape != (t, s):
            raise ValueError("matrix shape does not match coordinate ranks")
        if check:
            for i, d in enumerate(source.invariants):
                if d != 0:
                    col = [d * x for x in matrix.col(i)]
                    if any(self._reduce(col)):
                        raise ValueError("map is not well defined on the torsion relations")

    def _reduce(self, coords: Sequence[int]) -> Vector:
        return reduce_mod(coords, self.target.invariants)

    def apply(self, coords: Sequence[int]) -> Vector:
        if len(coords) != len(self.source.invariants):
            raise ValueError("coordinate length mismatch")
        return self._reduce(self.matrix.apply(coords))

    def then(self, after: "CohMap") -> "CohMap":
        if after.source is not self.target and after.source != self.target:
            raise ValueError("maps do not compose")
        return CohMap(self.source, after.target, after.matrix @ self.matrix,
                      kind=f"{self.kind};{after.kind}", check=False)

    # -- structural predicates, all exact ------------------------------------

    def _kernel_lattice(self) -> list[Vector]:
        """A basis of the x with F x in the target's relations; the kernel is
        this lattice modulo the source's relations."""
        rels = _diagonal_relations(self.target.invariants)
        return solution_lattice(len(self.source.invariants), [self.matrix], rels)

    def _image_lattice(self) -> list[Vector]:
        """The columns of F and the target's relations."""
        return self.matrix.columns() + _diagonal_relations(self.target.invariants)

    def kernel_invariants(self) -> tuple[int, ...]:
        s = len(self.source.invariants)
        return LatticeSubquotient(s, self._kernel_lattice(),
                                  _diagonal_relations(self.source.invariants)).invariants

    def image_invariants(self) -> tuple[int, ...]:
        t = len(self.target.invariants)
        return LatticeSubquotient(t, self._image_lattice(),
                                  _diagonal_relations(self.target.invariants)).invariants

    def cokernel_invariants(self) -> tuple[int, ...]:
        t = len(self.target.invariants)
        return LatticeSubquotient(t, IntMatrix.identity(t).rows, self._image_lattice()).invariants

    def is_zero(self) -> bool:
        return all(not any(self._reduce(self.matrix.col(j)))
                   for j in range(self.matrix.ncols))

    def is_injective(self) -> bool:
        """Whether the kernel is trivial, decided without a subquotient.

        The kernel is `_kernel_lattice` modulo the source's relations, so it
        is trivial exactly when every basis vector x of that lattice lies in
        them: a_i divides x_i for each source invariant a_i, and x_i = 0
        where a_i = 0.  That is the one solve `kernel_invariants` makes,
        with no Smith form.
        """
        return all(x % a == 0 if a else not x
                   for v in self._kernel_lattice()
                   for x, a in zip(v, self.source.invariants))

    def is_surjective(self) -> bool:
        """Whether the cokernel is trivial, decided without a subquotient:
        the columns of F and the target's relations span all of Z^t, which
        one echelon with no transform and no Smith form decides (`_spans`)."""
        return _spans(self._image_lattice(), len(self.target.invariants))

    def is_identity(self) -> bool:
        if self.source.invariants != self.target.invariants:
            return False
        return all(self.apply(e) == self._reduce(e)
                   for e in IntMatrix.identity(len(self.source.invariants)).rows)

    def describe(self) -> str:
        bits = []
        if self.is_zero():
            bits.append("zero")
        if self.is_injective():
            bits.append("injective")
        if self.is_surjective():
            bits.append("surjective")
        return ",".join(bits) if bits else "general"

    def __repr__(self) -> str:
        return f"CohMap({self.kind}: {self.matrix.shape[1]} -> {self.matrix.shape[0]} coords)"


def _cohomology_map(degree: int, source: tuple[FiniteGroup, GModule],
                    target: tuple[FiniteGroup, GModule], in_degree_0: Callable,
                    in_degree_1: Callable, kind: str) -> CohMap:
    """H^d(source) -> H^d(target) for d = degree, from a transform per degree.

    Each generator cocycle of the source goes through the transform for d
    (a vector in degree zero, a dict in degree one), and its class in the
    target gives one column.  h0 and h1 are read from the module at call
    time, so a wrapper that replaces them (perfbench/trace_layers.py) sees
    every call.
    """
    if degree == 0:
        coh, transform = h0, in_degree_0
    elif degree == 1:
        coh, transform = h1, in_degree_1
    else:
        raise ValueError("only degrees 0 and 1 are supported")
    src, dst = coh(*source), coh(*target)
    cols = [dst.coords_of_cocycle(transform(c)) for c in src.generator_cocycles()]
    matrix = IntMatrix._wrap_columns(cols, len(dst.invariants))
    return CohMap(src, dst, matrix, kind)


def _parent_of(H: Subgroup, M: GModule) -> FiniteGroup:
    """H's parent group, which M must be a module over."""
    if M.group != H.parent:
        raise ValueError("module is not over the subgroup's parent")
    return H.parent


def restriction_map(H: Subgroup, M: GModule, degree: int = 1) -> CohMap:
    """H^d(G, M) -> H^d(H, M restricted), by restricting cocycles."""
    G = _parent_of(H, M)

    def restrict(cocycle: Cocycle) -> dict[int, Vector]:
        return {i: tuple(cocycle[H.embed(i)]) for i in H.group.elements()}

    return _cohomology_map(degree, (G, M), (H.group, restrict_module(M, H)),
                           lambda v: v, restrict, "restriction")


def corestriction_map(H: Subgroup, M: GModule, degree: int = 1) -> CohMap:
    """H^d(H, M restricted) -> H^d(G, M), by the coset transfer.

    In degree one a cocycle c goes to g |-> sum over cosets i of
    r_j . c(h), where g r_i = r_j h splits through the subgroup; in degree
    zero it is the norm sum over coset representatives.
    """
    G = _parent_of(H, M)
    reps = H.left_coset_reps()

    def norm(v) -> Vector:
        out = [0] * M.rank
        for rep in reps:
            out = [a + b for a, b in zip(out, M.act(rep).apply(v))]
        return tuple(out)

    def transfer(cocycle: Cocycle) -> dict[int, Vector]:
        out: dict[int, Vector] = {}
        for g in G.elements():
            total = [0] * M.rank
            for i in range(len(reps)):
                j, h_par = H.transfer_factor(g, i)
                val = M.act(reps[j]).apply(cocycle[H.locate(h_par)])
                total = [a + b for a, b in zip(total, val)]
            out[g] = tuple(total)
        return out

    return _cohomology_map(degree, (H.group, restrict_module(M, H)), (G, M),
                           norm, transfer, "corestriction")


def induced_map(f: GModuleMap, degree: int = 1) -> CohMap:
    """H^d(G, source) -> H^d(G, target) induced by an equivariant module map."""
    if f.scope is not None:
        raise ValueError("map must be equivariant over the whole group")
    G = f.source.group

    def push(cocycle: Cocycle) -> dict[int, Vector]:
        return {g: f.apply(v) for g, v in cocycle.items()}

    return _cohomology_map(degree, (G, f.source), (G, f.target),
                           f.apply, push, "induced-by-module-map")


# -- duality ----------------------------------------------------------------------


def dual_group(A) -> FpAbGroup:
    """The character group Hom(A, Q/Z) of a finite abelian group.

    Coordinates are dual to A's: generator i of the dual sends generator i of
    A to 1/d_i and the others to zero.  A must be finite.
    """
    invariants = tuple(A.invariants)
    if any(d == 0 for d in invariants):
        raise ValueError("dual group needs a finite argument")
    return FpAbGroup(len(invariants), _diagonal_relations(invariants))


def dual_map(f: CohMap) -> CohMap:
    """The transpose of f on character groups, contravariantly.

    For f: A -> B with invariants a_i, b_j and matrix F, the dual sends the
    j-th character of B to sum_i ((F[j][i] a_i / b_j) mod a_i) characters of
    A; integrality of a_i F[j][i] / b_j is exactly f being well defined.
    """
    a = tuple(f.source.invariants)
    b = tuple(f.target.invariants)
    if any(d == 0 for d in a) or any(d == 0 for d in b):
        raise ValueError("dual map needs finite source and target")
    rows = []
    for i in range(len(a)):
        row = []
        for j in range(len(b)):
            num = f.matrix.rows[j][i] * a[i]
            if num % b[j] != 0:
                raise ValueError("map is not well defined; dual does not exist")
            row.append((num // b[j]) % a[i])
        rows.append(row)
    matrix = IntMatrix._wrap(rows, len(b))
    return CohMap(dual_group(f.target), dual_group(f.source), matrix,
                  kind="transpose-dual")
