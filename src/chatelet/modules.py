"""Modules over finite groups, presented by generators, relations, and action matrices.

A GModule is the abelian group Z^rank / (relation lattice) together with one
integer matrix per group element.  Action matrices only need to satisfy the
module axioms modulo the relation lattice, so finite coefficient modules such
as Z/2 with a twisted action fit without any special casing.

The constructors at the bottom (restriction, induction, hom modules and the
unit/counit of induction) are the building blocks for everything the
cohomology layer does.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from .groups import FiniteGroup, Subgroup, cyclic_group
from .intmat import (
    IntMatrix,
    LatticeSubquotient,
    Vector,
    _coordinates,
    _lattice_basis,
    block_diagonal,
    hstack,
    solution_lattice,
    vstack,
)

# entries kept by each of the hom_module, h0 and h1 caches, by the surfaces
# descent-verdict cache (one key per extension degree), by the padic field
# cache and each field's square and inverse caches, and by the CLI's field
# spec cache (`_FIELDS`) and element expression cache (`_evaluate`).  A
# benchmark pass asks them for at most 45, 86, 140, 3, 67, 24, 2, 70 and 172
# distinct keys, so none is evicted
CACHE_SIZE = 256


def describe_invariants(invariants: Sequence[int]) -> str:
    """Human-readable cyclic decomposition, for example 'Z/2 x Z/4' or '0'."""
    if not invariants:
        return "0"
    return " x ".join("Z" if d == 0 else f"Z/{d}" for d in invariants)


class FpAbGroup:
    """A finitely presented abelian group Z^rank / (relations).

    Elements are handled through `coords`, which maps an ambient vector to
    its coordinates with respect to a fixed cyclic decomposition.
    """

    __slots__ = ("rank", "relations", "_subq")

    def __init__(self, rank: int, relations: Sequence[Sequence[int]] = ()):
        self.rank = rank
        self.relations = tuple(tuple(int(x) for x in r) for r in relations)
        if any(len(r) != rank for r in self.relations):
            raise ValueError("relation length does not match rank")
        self._subq = LatticeSubquotient(rank, IntMatrix.identity(rank).rows, self.relations)

    @property
    def invariants(self) -> tuple[int, ...]:
        return self._subq.invariants

    @property
    def order(self) -> int | None:
        return self._subq.order

    @property
    def is_trivial(self) -> bool:
        return self._subq.is_trivial

    def coords(self, v: Sequence[int]) -> Vector:
        return self._subq.coords(v)

    def lift(self, coords: Sequence[int]) -> Vector:
        return self._subq.lift(coords)

    def generators(self) -> list[Vector]:
        return list(self._subq.generators)

    def reduce_coords(self, coords: Sequence[int]) -> Vector:
        return self._subq.reduce_coords(coords)

    def elements(self) -> Iterable[Vector]:
        """All coordinate tuples; only available for finite groups."""
        if self.order is None:
            raise ValueError("group is infinite")
        return product(*(range(d) for d in self.invariants))

    def describe(self) -> str:
        return describe_invariants(self.invariants)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FpAbGroup)
                and self.rank == other.rank and self.relations == other.relations)

    def __hash__(self) -> int:
        return hash((self.rank, self.relations))

    def __repr__(self) -> str:
        return f"FpAbGroup({self.describe()})"


class GModule:
    """A module over a finite group, in generator/relation/action-matrix form."""

    __slots__ = ("group", "rank", "relations", "action", "name",
                 "_rel_basis", "_coeff")

    def __init__(self, group: FiniteGroup, rank: int,
                 relations: Sequence[Sequence[int]],
                 action: Sequence[IntMatrix] | Mapping[int, IntMatrix],
                 name: str = "M", check: bool = True):
        self.group = group
        self.rank = rank
        self.relations = tuple(tuple(int(x) for x in r) for r in relations)
        if isinstance(action, Mapping):
            action = [action[g] for g in group.elements()]
        self.action = tuple(action)
        self.name = name
        if len(self.action) != group.order:
            raise ValueError("need one action matrix per group element")
        self._rel_basis = _lattice_basis(self.relations, rank)
        self._coeff: FpAbGroup | None = None
        if check:
            self.validate()

    # -- structural checks ----------------------------------------------------

    def in_relation_lattice(self, v: Sequence[int]) -> bool:
        return _coordinates(self._rel_basis, v, self.rank) is not None

    def vectors_equal(self, u: Sequence[int], v: Sequence[int]) -> bool:
        return self.in_relation_lattice([a - b for a, b in zip(u, v)])

    def matrices_equal(self, A: IntMatrix, B: IntMatrix) -> bool:
        """Equality of matrices as maps into this module (columnwise mod relations)."""
        diff = A - B
        return all(self.in_relation_lattice(diff.col(j)) for j in range(diff.ncols))

    def validate(self) -> "GModule":
        """Module axioms: shapes, identity, relation stability, and the
        homomorphism law on every generator edge g -> g s.

        With the identity acting trivially and every action preserving the
        relation lattice, the law for each generator s gives it for every
        product of generators by induction on word length."""
        if any(len(r) != self.rank for r in self.relations):
            raise ValueError("relation length does not match rank")
        for g in self.group.elements():
            if self.action[g].shape != (self.rank, self.rank):
                raise ValueError("action matrix has wrong shape")
        eye = IntMatrix.identity(self.rank)
        if not self.matrices_equal(self.action[self.group.identity], eye):
            raise ValueError("identity does not act as the identity")
        for g in self.group.elements():
            for r in self.relations:
                if not self.in_relation_lattice(self.action[g].apply(r)):
                    raise ValueError("action does not preserve the relation lattice")
        for s in self.group.generating_set():
            s_cols = self.action[s].columns()
            for g in self.group.elements():
                a_g, a_gs = self.action[g], self.action[self.group.mul(g, s)]
                # column j of a_g a_s is a_g applied to column j of a_s
                if not all(self.vectors_equal(a_g.apply(c), a_gs.col(j))
                           for j, c in enumerate(s_cols)):
                    raise ValueError("action matrices are not a homomorphism")
        return self

    # -- access ----------------------------------------------------------------

    def act(self, g: int) -> IntMatrix:
        return self.action[g]

    def act_on(self, g: int, v: Sequence[int]) -> Vector:
        return self.action[g].apply(v)

    @property
    def rel_matrix(self) -> IntMatrix:
        return IntMatrix.from_columns(self.relations, nrows=self.rank)

    def coeff_group(self) -> FpAbGroup:
        """The underlying abelian group, forgetting the action."""
        if self._coeff is None:
            self._coeff = FpAbGroup(self.rank, self.relations)
        return self._coeff

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GModule) and self.group == other.group
                and self.rank == other.rank and self.relations == other.relations
                and self.action == other.action)

    def __hash__(self) -> int:
        return hash((self.group, self.rank, self.relations, self.action))

    def __repr__(self) -> str:
        return f"GModule({self.name!r}, rank={self.rank}, over {self.group.name})"


class GModuleMap:
    """An additive map between modules, given by a matrix on generators.

    `scope` restricts the equivariance claim: None means equivariant for the
    whole (common) group; a Subgroup means the map is only asserted and
    checked to commute with that subgroup's action.  Both modules must be
    over the same FiniteGroup either way.
    """

    __slots__ = ("source", "target", "matrix", "scope")

    def __init__(self, source: GModule, target: GModule, matrix: IntMatrix,
                 scope: Subgroup | None = None, check: bool = True):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.scope = scope
        if matrix.shape != (target.rank, source.rank):
            raise ValueError("matrix shape does not match source/target ranks")
        if source.group != target.group:
            raise ValueError("source and target are over different groups")
        if check:
            self.validate()

    def validate(self) -> "GModuleMap":
        for r in self.source.relations:
            if not self.target.in_relation_lattice(self.matrix.apply(r)):
                raise ValueError("map is not well defined on relations")
        if self.scope is None:
            gens = self.source.group.generating_set()
        else:
            if self.scope.parent != self.source.group:
                raise ValueError("scope subgroup belongs to a different group")
            gens = [self.scope.embed(i) for i in self.scope.group.generating_set()]
        for g in gens:
            lhs = self.matrix @ self.source.act(g)
            rhs = self.target.act(g) @ self.matrix
            if not self.target.matrices_equal(lhs, rhs):
                raise ValueError("map does not commute with the group action")
        return self

    def apply(self, v: Sequence[int]) -> Vector:
        return self.matrix.apply(v)

    def then(self, after: "GModuleMap") -> "GModuleMap":
        """Composite `after of self` (apply self first)."""
        if after.source is not self.target and after.source != self.target:
            raise ValueError("maps do not compose")
        scope = self.scope if after.scope is None else after.scope
        if self.scope is not None and after.scope is not None \
                and self.scope.elements != after.scope.elements:
            common = set(self.scope.elements) & set(after.scope.elements)
            scope = Subgroup(self.source.group, common)
        return GModuleMap(self.source, after.target, after.matrix @ self.matrix,
                          scope=scope, check=False)

    def __repr__(self) -> str:
        tag = "G-map" if self.scope is None else f"map over subgroup of order {self.scope.order}"
        return f"GModuleMap({self.source.name} -> {self.target.name}, {tag})"


# -- constructors ---------------------------------------------------------------


def _block_relations(relations: Sequence[Sequence[int]], n: int, r: int) -> list[Vector]:
    """Each relation of length r placed in each of n blocks of width r,
    block by block: the relations of a direct sum of n copies."""
    return [(0,) * (t * r) + tuple(rel) + (0,) * ((n - 1 - t) * r)
            for t in range(n) for rel in relations]


def _stacked_relations(M: GModule, N: GModule) -> list[Vector]:
    """The relations of M + N on the generators of M followed by those of N."""
    return ([tuple(r) + (0,) * N.rank for r in M.relations]
            + [(0,) * M.rank + tuple(r) for r in N.relations])


def trivial_module(G: FiniteGroup, rank: int = 1,
                   relations: Sequence[Sequence[int]] = (), name: str | None = None) -> GModule:
    """Z^rank / relations with every group element acting as the identity."""
    eye = IntMatrix.identity(rank)
    return GModule(G, rank, relations, [eye] * G.order,
                   name=name or f"triv^{rank}", check=False)


def regular_module(G: FiniteGroup) -> GModule:
    """The group ring Z[G] with the left translation action."""
    n = G.order
    mats = []
    for g in range(n):
        rows = [[0] * n for _ in range(n)]
        for h in range(n):
            rows[G.mul(g, h)][h] = 1
        mats.append(IntMatrix._wrap(rows, n))
    return GModule(G, n, (), mats, name=f"Z[{G.name}]", check=False)


def permutation_module(G: FiniteGroup, perms: Sequence[Sequence[int]],
                       name: str = "perm") -> GModule:
    """Free module on a finite G-set; perms[g][x] is the image of point x under g."""
    if len(perms) != G.order:
        raise ValueError("need one permutation per group element")
    size = len(perms[0])
    for g in G.elements():
        if sorted(perms[g]) != list(range(size)):
            raise ValueError("entry is not a permutation")
    # the identity fixes every point and each generator edge g -> g s
    # composes, which by induction gives the law for every pair
    if list(perms[G.identity]) != list(range(size)):
        raise ValueError("permutations do not define a group action")
    for s in G.generating_set():
        for g in G.elements():
            gs = G.mul(g, s)
            if any(perms[g][perms[s][x]] != perms[gs][x] for x in range(size)):
                raise ValueError("permutations do not define a group action")
    mats = []
    for g in G.elements():
        rows = [[0] * size for _ in range(size)]
        for x in range(size):
            rows[perms[g][x]][x] = 1
        mats.append(IntMatrix(rows, ncols=size))
    return GModule(G, size, (), mats, name=name, check=False)


def chatelet_picard_module() -> GModule:
    """Rank two module over the order two group with the generator acting as -1.

    This is the geometric Picard lattice of a Chatelet surface given by a
    product of two conjugate linear factors, relative to its degree two
    splitting extension, modulo the part with trivial cohomology.
    """
    c2 = cyclic_group(2)
    eye = IntMatrix.identity(2)
    return GModule(c2, 2, (), [eye, -eye], name="pic", check=False)


def direct_sum(M: GModule, N: GModule) -> GModule:
    if M.group != N.group:
        raise ValueError("summands are over different groups")
    mats = [block_diagonal([M.act(g), N.act(g)]) for g in M.group.elements()]
    return GModule(M.group, M.rank + N.rank, _stacked_relations(M, N), mats,
                   name=f"{M.name}+{N.name}", check=False)


def restrict_module(M: GModule, H: Subgroup) -> GModule:
    """The same abelian group viewed as a module over the subgroup."""
    if H.parent != M.group:
        raise ValueError("subgroup belongs to a different group")
    mats = [M.act(H.embed(i)) for i in H.group.elements()]
    return GModule(H.group, M.rank, M.relations, mats,
                   name=f"Res({M.name})", check=False)


def _coset_blocks(H: Subgroup, g: int, block_of_h: Callable[[int], IntMatrix],
                  rows: int, cols: int) -> IntMatrix:
    """g's transfer across the left cosets of H, one block per coset.

    The (j, i) block is block_of_h(h) when g r_i = r_j h, and zero otherwise;
    blocks are rows x cols and h is an element of H.group.
    """
    n = H.index
    out = [[0] * (n * cols) for _ in range(n * rows)]
    for i in range(n):
        j, h_par = H.transfer_factor(g, i)
        block = block_of_h(H.locate(h_par))
        for a in range(rows):
            out[j * rows + a][i * cols:(i + 1) * cols] = block.rows[a]
    return IntMatrix(out, ncols=n * cols)


def induce_module(M: GModule, H: Subgroup) -> GModule:
    """Induction from a subgroup to its parent.

    M must be a module over H.group.  The underlying group is a direct sum of
    one copy of M per left coset; g sends the copy at coset i to the copy at
    coset j through the subgroup factor h of g * r_i = r_j * h.
    """
    if M.group != H.group:
        raise ValueError("module is not over the given subgroup")
    n, r = H.index, M.rank
    relations = _block_relations(M.relations, n, r)
    mats = [_coset_blocks(H, g, M.act, r, r) for g in H.parent.elements()]
    return GModule(H.parent, n * r, relations, mats, name=f"Ind({M.name})", check=False)


def ind_unit(M: GModule, H: Subgroup) -> GModuleMap:
    """The unit M -> Ind(Res(M)) of induction, m |-> sum over cosets of
    (copy at coset i of r_i^{-1} m).  Equivariant over the full group."""
    if H.parent != M.group:
        raise ValueError("subgroup belongs to a different group")
    target = induce_module(restrict_module(M, H), H)
    reps = H.left_coset_reps()
    blocks = [M.act(M.group.inv(rep)) for rep in reps]
    return GModuleMap(M, target, vstack(*blocks), check=False)


def ind_counit(M: GModule, H: Subgroup) -> GModuleMap:
    """The counit Ind(Res(M)) -> M, (copy at coset i of m) |-> r_i m."""
    if H.parent != M.group:
        raise ValueError("subgroup belongs to a different group")
    source = induce_module(restrict_module(M, H), H)
    reps = H.left_coset_reps()
    blocks = [M.act(rep) for rep in reps]
    return GModuleMap(source, M, hstack(*blocks), check=False)


# -- hom modules -----------------------------------------------------------------


def _diagonal_relations(invariants: Sequence[int]) -> list[Vector]:
    """Relations d_i e_i presenting the group with these cyclic invariants."""
    n = len(invariants)
    return [tuple(d if i == j else 0 for j in range(n))
            for i, d in enumerate(invariants) if d != 0]


def _flatten(F: IntMatrix) -> Vector:
    """A matrix as one vector: entry (i, j) of an rn x rm matrix sits at i * rm + j."""
    return tuple(x for row in F.rows for x in row)


def _unflatten(flat: Sequence[int], rn: int, rm: int) -> IntMatrix:
    """The rn x rm matrix whose entry (i, j) is flat[i * rm + j]."""
    return IntMatrix([flat[i * rm:(i + 1) * rm] for i in range(rn)], ncols=rm)


class HomModule(GModule):
    """Hom(M, N) as a module over the common group, with conversion helpers.

    Coordinates are with respect to a cyclic decomposition of the group of
    additive maps M -> N; `matrix_of` and `coords_of` convert between
    coordinate vectors and honest matrices.
    """

    __slots__ = ("hom_source", "hom_target", "_hom_subq")

    def __init__(self, source: GModule, target: GModule):
        if source.group != target.group:
            raise ValueError("source and target are over different groups")
        G = source.group
        rm, rn = source.rank, target.rank
        B = rn * rm  # matrices flattened by `_flatten`

        # lattice of matrices that are well defined on relations:
        # for each source relation, F . rel must land in the relation lattice
        # of the target; F |-> F . rel is an rn x B matrix, rel in each block
        maps = [IntMatrix._wrap(_block_relations([rel], rn, rm), B)
                for rel in source.relations]
        hom_gens = solution_lattice(B, maps, target.relations)

        # matrices that are zero as maps, every column in the target
        # relations: one relation in one column at a time
        zero = (0,) * rn
        triv_gens = [_flatten(IntMatrix.from_columns(
                         [nrel if k == j else zero for k in range(rm)], nrows=rn))
                     for j in range(rm) for nrel in target.relations]

        subq = LatticeSubquotient(B, hom_gens, triv_gens)
        n = len(subq.invariants)
        relations = _diagonal_relations(subq.invariants)

        mats = []
        for g in G.elements():
            cols = []
            ag = target.act(g)
            ag_inv = source.act(G.inv(g))
            for gen in subq.generators:
                conj = ag @ _unflatten(gen, rn, rm) @ ag_inv
                cols.append(subq.coords(_flatten(conj)))
            mats.append(IntMatrix.from_columns(cols, nrows=n))

        super().__init__(G, n, relations, mats,
                         name=f"Hom({source.name},{target.name})", check=False)
        self.hom_source = source
        self.hom_target = target
        self._hom_subq = subq

    def matrix_of(self, coords: Sequence[int]) -> IntMatrix:
        """An honest matrix representing the hom class with these coordinates."""
        return _unflatten(self._hom_subq.lift(coords),
                          self.hom_target.rank, self.hom_source.rank)

    def coords_of(self, F: IntMatrix) -> Vector:
        """Coordinates of a matrix; raises if it is not well defined on relations."""
        if F.shape != (self.hom_target.rank, self.hom_source.rank):
            raise ValueError("matrix shape does not match the hom module")
        return self._hom_subq.coords(_flatten(F))


@lru_cache(maxsize=CACHE_SIZE)
def hom_module(M: GModule, N: GModule) -> HomModule:
    """Hom(M, N) with the conjugation action g . f = g f g^{-1}."""
    return HomModule(M, N)


def invariant_subquotient(M: GModule) -> LatticeSubquotient:
    """The invariants M^G as a subquotient of the generator lattice.

    Numerator: vectors moved into the relation lattice by every g - 1.
    Denominator: the relation lattice itself.
    """
    r = M.rank
    eye = IntMatrix.identity(r)
    inv_gens = solution_lattice(r, [M.act(g) - eye for g in M.group.generating_set()],
                                M.relations)
    return LatticeSubquotient(r, inv_gens, M.relations)


def equivariant_hom_basis(M: GModule, N: GModule) -> list[IntMatrix]:
    """Matrices whose classes generate the group of equivariant maps M -> N."""
    hm = hom_module(M, N)
    subq = invariant_subquotient(hm)
    return [hm.matrix_of(v) for v in subq.generators]
