"""Finite groups as explicit multiplication tables.

Elements are integers 0..n-1 and the identity is always element 0 for groups
built by the constructors here.  A Subgroup carries its own re-indexed
FiniteGroup together with maps in and out of the parent, plus the left coset
bookkeeping (representatives and transfer factors) that corestriction and
induction are built from.

Each group also finds, once, a short presentation on its generating set
(`FiniteGroup.relators`), verified by a Todd-Coxeter enumeration of the
cosets of the trivial subgroup (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, ch. 5): the relators hold in G, so the group
they present maps onto G, and it is G exactly when the enumeration closes
at |G| cosets.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from itertools import permutations


class FiniteGroup:
    """A finite group presented by its full multiplication table."""

    __slots__ = ("table", "identity", "name", "_inv", "_gens", "_relators", "_hash")

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G", check: bool = True):
        n = len(table)
        self.table = tuple(tuple(row) for row in table)
        self.name = name
        self._gens: list[int] | None = None
        self._relators: tuple[tuple[int, ...], ...] | None = None
        self._hash: int | None = None
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table is not square")
        if any(x < 0 or x >= n for row in self.table for x in row):
            raise ValueError("table entry out of range")
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        self.identity = identity
        inv = [None] * n
        for g in range(n):
            for h in range(n):
                if self.table[g][h] == identity and self.table[h][g] == identity:
                    inv[g] = h
                    break
            if inv[g] is None:
                raise ValueError(f"element {g} has no inverse")
        self._inv = tuple(inv)
        if check:
            # Light's test: (x a) y = x (a y) for every generator a implies it
            # for every product of generators, so it costs O(n^2 |gens|)
            t = self.table
            for a in self.generating_set():
                ta = t[a]
                for x in range(n):
                    row_xa, row_x = t[t[x][a]], t[x]
                    if any(row_xa[y] != row_x[ay] for y, ay in enumerate(ta)):
                        raise ValueError("table is not associative")

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(self.order)

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self._inv[g]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self._inv[g], -k
        out = self.identity
        for _ in range(k):
            out = self.table[out][g]
        return out

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.table[x][g]
            k += 1
        return k

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[a][b] == self.table[b][a] for a in range(n) for b in range(a))

    def closure(self, gens: Iterable[int]) -> tuple[int, ...]:
        """Subgroup generated by the given elements, as a sorted tuple."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return tuple(sorted(seen))

    def generating_set(self) -> list[int]:
        """Deterministic small generating set: greedily add the least missing element."""
        if self._gens is None:
            gens: list[int] = []
            have = self.closure(gens)
            while len(have) < self.order:
                nxt = next(x for x in range(self.order) if x not in have)
                gens.append(nxt)
                have = self.closure(gens)
            self._gens = gens
        return list(self._gens)

    def relators(self) -> tuple[tuple[int, ...], ...]:
        """Relators of a presentation of G on `generating_set()`, found once
        (`_presentation`).

        A word is a tuple of letters: t + 1 stands for generator t and
        -(t + 1) for its inverse.
        """
        if self._relators is None:
            self._relators = _presentation(self)
        return self._relators

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, FiniteGroup) and self.table == other.table)

    def __hash__(self) -> int:
        # the CLI spec caches and the module hashes hash their group on every
        # lookup, and a hash walks the whole table, so it is computed once
        if self._hash is None:
            self._hash = hash(self.table)
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _presentation(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """A short presentation of G on its generating set, verified by a coset
    enumeration of the trivial subgroup that closes at |G| cosets.

    The enumeration is Todd-Coxeter with Felsch's deductions (Holt, Eick
    and O'Brien, 5.1), its cosets defined along the breadth-first tree of
    G that `cohomology.h1` also walks: coset g is the tree word w_g, so
    every coset is already defined, and what is enumerated is which edges
    g -> g x of the coset table the relators force.  Each relator is
    scanned at every coset, and again wherever a new edge passes along it;
    a scan with exactly one unknown edge learns that edge.  Every learned
    edge holds in the group the relators present, so once every edge is
    known the |G| tree words are closed under the generators there, and
    the relators present G itself.

    The candidate relators come first: x^o(x) for each generator x,
    (x_i x_j)^o for each pair, and (x_i x_j^-1)^o when neither is an
    involution.  Then, in breadth-first order, each closing edge g -> g s
    that is still unknown adds its closing word w_g s w_gs^-1, whose scan
    at the identity learns that edge.  So the enumeration always closes,
    and no coset limit or fallback is needed.  Words are cyclically
    reduced and kept once up to rotation and inversion: a conjugate or an
    inverse of a relator adds nothing to the presentation.
    """
    gens = G.generating_set()
    tab, inv = G.table, G._inv
    # column 2t is generator t, column 2t + 1 its inverse, so c ^ 1 inverts c
    elem = [y for x in gens for y in (x, inv[x])]
    known = [bytearray(len(elem)) for _ in range(G.order)]
    # for each column, the words through it: (word columns, inverse of the
    # element its prefix reaches), so an edge at g lies on the word based at
    # g times that inverse
    through: list[list[tuple[list[int], int]]] = [[] for _ in elem]
    queue: list[tuple[int, int]] = []
    words: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def learn(g: int, c: int) -> None:
        if not known[g][c]:
            h = tab[g][elem[c]]
            known[g][c] = known[h][c ^ 1] = 1
            queue.extend(((g, c), (h, c ^ 1)))

    def scan(b: int, w: list[int]) -> None:
        f, i, j = b, 0, len(w) - 1
        while i <= j and known[f][w[i]]:
            f = tab[f][elem[w[i]]]
            i += 1
        if i > j:
            return
        e = b
        while j > i and known[e][w[j] ^ 1]:
            e = tab[e][elem[w[j] ^ 1]]
            j -= 1
        if i == j:
            learn(f, w[i])

    def settle() -> None:
        while queue:
            g, c = queue.pop()
            for w, back in through[c]:
                scan(tab[g][back], w)

    def add(word) -> None:
        w = _cyclically_reduced(word)
        key = _rotation_key(w)
        if key in seen:
            return
        seen.add(key)
        words.append(w)
        cols = [2 * a - 2 if a > 0 else -2 * a - 1 for a in w]
        p = G.identity
        for c in cols:
            through[c].append((cols, inv[p]))
            p = tab[p][elem[c]]
        for b in G.elements():
            scan(b, cols)
        settle()

    tree = {G.identity: ()}
    closing = []
    for g, t, gs, first in breadth_first_edges(G):
        if first:
            tree[gs] = tree[g] + (t + 1,)
            learn(g, 2 * t)
        else:
            closing.append((g, t, gs))
    settle()

    orders = [G.element_order(x) for x in gens]
    for t, o in enumerate(orders):
        add((t + 1,) * o)
    for i, x in enumerate(gens):
        for j in range(i + 1, len(gens)):
            add((i + 1, j + 1) * G.element_order(tab[x][gens[j]]))
            if orders[i] > 2 and orders[j] > 2:
                add((i + 1, -(j + 1)) * G.element_order(tab[x][inv[gens[j]]]))
    for g, t, gs in closing:
        if not known[g][2 * t]:
            add(tree[g] + (t + 1,) + tuple(-a for a in reversed(tree[gs])))
    return tuple(words)


def breadth_first_edges(G: FiniteGroup):
    """Every edge g -> g s of the Cayley graph over `generating_set()`, as
    (g, t, g s) with s the t-th generator and a flag that is True when the
    edge reaches g s first, in the order a breadth-first walk from the
    identity meets them.  The flagged edges form a spanning tree."""
    gens = G.generating_set()
    seen = {G.identity}
    queue = deque([G.identity])
    while queue:
        g = queue.popleft()
        row = G.table[g]
        for t, s in enumerate(gens):
            gs = row[s]
            first = gs not in seen
            if first:
                seen.add(gs)
                queue.append(gs)
            yield g, t, gs, first


def _cyclically_reduced(word) -> tuple[int, ...]:
    out: list[int] = []
    for a in word:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    i, j = 0, len(out)
    while j - i > 1 and out[i] == -out[j - 1]:
        i, j = i + 1, j - 1
    return tuple(out[i:j])


def _rotation_key(word: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of the word or of its inverse."""
    inverse = tuple(-a for a in reversed(word))
    return min(w[k:] + w[:k] for w in (word, inverse) for k in range(len(w)))


class Subgroup:
    """A subgroup of a FiniteGroup, with coset and transfer bookkeeping.

    `group` is the subgroup itself re-indexed as a standalone FiniteGroup;
    `embed` and `locate` translate between its element numbering and the
    parent's.  Left coset representatives are chosen deterministically (least
    parent element in each coset, identity coset first).
    """

    __slots__ = ("parent", "elements", "group", "_locate", "_reps", "_coset_idx")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int], check: bool = True):
        elems = tuple(sorted(set(elements)))
        if check:
            if parent.identity not in elems:
                raise ValueError("subgroup must contain the identity")
            eset = set(elems)
            for a in elems:
                if parent.inv(a) not in eset:
                    raise ValueError("subgroup not closed under inverse")
                for b in elems:
                    if parent.mul(a, b) not in eset:
                        raise ValueError("subgroup not closed under multiplication")
        self.parent = parent
        self.elements = elems
        self._locate = {x: i for i, x in enumerate(elems)}
        sub_table = [[self._locate[parent.mul(a, b)] for b in elems] for a in elems]
        self.group = FiniteGroup(sub_table, name=f"{parent.name}-sub{len(elems)}", check=False)
        reps: list[int] = []
        coset_idx: dict[int, int] = {}
        for g in range(parent.order):
            if g not in coset_idx:
                j = len(reps)
                reps.append(g)
                for h in elems:
                    coset_idx[parent.mul(g, h)] = j
        self._reps = tuple(reps)
        self._coset_idx = coset_idx

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.elements)

    def embed(self, i: int) -> int:
        """Parent element for subgroup-local element i."""
        return self.elements[i]

    def locate(self, g: int) -> int:
        """Subgroup-local index of a parent element (KeyError if outside)."""
        return self._locate[g]

    def contains(self, g: int) -> bool:
        return g in self._locate

    def left_coset_reps(self) -> tuple[int, ...]:
        return self._reps

    def coset_of(self, g: int) -> int:
        return self._coset_idx[g]

    def transfer_factor(self, g: int, i: int) -> tuple[int, int]:
        """Decompose g * r_i = r_j * h with h in the subgroup.

        Returns (j, h) with h as a parent element.  This is the coset action
        datum behind corestriction and induced modules.
        """
        p = self.parent
        gri = p.mul(g, self._reps[i])
        j = self._coset_idx[gri]
        h = p.mul(p.inv(self._reps[j]), gri)
        return j, h

    def is_normal(self) -> bool:
        p = self.parent
        eset = set(self.elements)
        return all(p.mul(p.mul(g, h), p.inv(g)) in eset
                   for g in range(p.order) for h in self.elements)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, found by closing generator sets one element at a time."""
    found = {G.closure([])}
    frontier = [G.closure([])]
    while frontier:
        base = frontier.pop()
        for x in range(G.order):
            if x not in base:
                bigger = G.closure(list(base) + [x])
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    ordered = sorted(found, key=lambda t: (len(t), t))
    return [Subgroup(G, t, check=False) for t in ordered]


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with element k representing the k-th power of the generator."""
    if n < 1:
        raise ValueError("order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"C{n}", check=False)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: element i + n*j is rotation^i * flip^j."""
    if n < 1:
        raise ValueError("need n >= 1")

    def mul(x, y):
        a, b = x % n, x // n
        c, d = y % n, y // n
        i = (a + (c if b == 0 else -c)) % n
        return i + n * ((b + d) % 2)

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    return FiniteGroup(table, name=f"D{n}", check=False)


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n letters; elements are permutations in lex order."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
    return FiniteGroup(table, name=f"S{n}", check=False)


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8 on {+-1, +-i, +-j, +-k}.

    Element 2 b + s is (-1)^s times unit b (0: 1, 1: i, 2: j, 3: k).  Units
    multiply by i j = k cyclically, a reversed product is negated, and each
    of i, j and k squares to -1."""
    def mul(x, y):
        a, b = x // 2, y // 2
        if a == 0 or b == 0:
            neg, c = 0, a + b
        elif a == b:
            neg, c = 1, 0
        else:
            neg, c = b != a % 3 + 1, 6 - a - b
        return 2 * c + (x + y + neg) % 2

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return FiniteGroup(table, name="Q8", check=False)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with (g, h) encoded as g * |H| + h."""
    m = H.order
    table = [[G.mul(x // m, y // m) * m + H.mul(x % m, y % m)
              for y in range(G.order * m)] for x in range(G.order * m)]
    return FiniteGroup(table, name=f"{G.name}x{H.name}", check=False)
