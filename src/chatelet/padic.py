"""Exact arithmetic in finite extensions of the p-adic numbers.

Fields are towers of unramified and Eisenstein steps over Q_p.  An element is
a flat tuple of integer numerators over the monomial basis of the tower and
one positive common denominator, normalised so that the gcd of all of them is
one; zero is all-zero numerators over 1.  Valuation, squareness, and norms
are therefore exact decisions; there is no precision parameter and no
rounding anywhere in this module.

Each field builds, once, an integer structure-constant table
m_i * m_j = (sum_k T[i][j][k] m_k) / D over its monomials, from its parent's
table and the step polynomial; that build is the only place the tower is
walked step by step.  A product is one integer contraction with the table
followed by a gcd.  The residue field multiplies with the same table,
restricted to the unramified monomials and reduced mod p.

For an unramified last step of degree d, that residue table multiplies in
R = k[t]/(g), with k the parent's residue field of q elements and g the step
polynomial mod p, whether or not g is irreducible.  So a field judges its own
last step: for d <= 4, g is irreducible exactly when t^(q^k) - t is a unit of
R, k = floor(d / 2), as then g has no factor of degree <= k (Rabin,
"Probabilistic algorithms in finite fields", SIAM J. Comput. 9, 1980), and
an element is a unit when its multiplication matrix over F_p has a
determinant prime to p.  That takes O(d log q) residue products and no
enumeration of residues.

The monomial basis of such a tower is an integral basis, and the weights of
the Eisenstein monomials are pairwise distinct modulo the absolute
ramification index.  That gives the closed valuation formula used
throughout: the valuation of an element is the minimum over its nonzero
coordinates of e * v_p(coefficient) + weight(monomial).

Squareness and square classes go through one map, `_class_vector`, from K*
to its F_2 coordinates in K*/(K*)^2: the valuation parity, then for odd p
the Euler criterion on the residue, and for p = 2 the quadratic-defect
reduction of the unit part, which takes O(e) products.  `is_square` tests
that vector for zero; `square_class_group` picks its greedy basis and
`square_class` reads coordinates by F_2 elimination on those vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, inf, lcm
from typing import Sequence

from .intmat import _bareiss
from .modules import CACHE_SIZE


# every p a field accepts is below this bound, where `_is_prime` is exact
P_LIMIT = 2 ** 64

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the twelve prime bases up to 37: O(log n) products,
    and exact for every n below 3.1 * 10^23 (Sorenson and Webster,
    "Strong pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)),
    which covers every p below P_LIMIT."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _contract(table: tuple, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Numerators of (sum a_i m_i)(sum b_j m_j) over a structure-constant
    table whose entries T[i][j] list the nonzero pairs (k, T[i][j][k])."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            row = table[i]
            for j, y in enumerate(b):
                if y:
                    xy = x * y
                    for k, t in row[j]:
                        out[k] += xy * t
    return out


def _structure_constants(par: "LocalField", coeffs: tuple) -> tuple[tuple, int]:
    """Table (T, D) of par[t]/(t^d + c_{d-1} t^{d-1} + ... + c_0): the
    product m_I * m_J is (sum of v * m_K over the pairs (K, v) in T[I][J]) / D.

    The monomial t^a * m_i of the extension has index a * n + i, where m_i
    runs over the n monomials of par.
    """
    d = len(coeffs)
    n = len(par._monomials)
    zero = par.zero()
    # t^s as coefficient vectors over par, for s up to 2d - 2
    powers = [[par.one() if l == s else zero for l in range(d)] for s in range(d)]
    for _ in range(d - 1):
        prev = powers[-1]
        powers.append([(prev[l - 1] if l else zero) - prev[-1] * c
                       for l, c in enumerate(coeffs)])
    basis = [par._monomial(i) for i in range(n)]
    # m_i m_j t^s for s up to 2d - 2, each product formed once; an element's
    # den is the lcm of its reduced coordinate denominators, as
    # gcd(*nums, den) = 1, so the lcm of the dens below is the table's D
    shifted = [[[[mij * r for r in powers[s]] for s in range(2 * d - 1)]
                for mij in (bi * bj for bj in basis)] for bi in basis]
    den = lcm(*(x.den for per_i in shifted for per_j in per_i
                for per_s in per_j for x in per_s))

    def entry(elems):
        nums = [c * (den // x.den) for x in elems for c in x.nums]
        return tuple((k, v) for k, v in enumerate(nums) if v)

    table = tuple(tuple(entry(shifted[i][j][a + b]) for b in range(d) for j in range(n))
                  for a in range(d) for i in range(n))
    return table, den


@dataclass(frozen=True)
class _Step:
    kind: str      # "unramified" or "eisenstein"
    coeffs: tuple  # ascending lower coefficients of the monic minimal polynomial,
                   # as elements of the field below


def _remember(cache: dict, key, value):
    """Store value in a per-field cache, first dropping the oldest entry when
    the cache already holds CACHE_SIZE."""
    if len(cache) >= CACHE_SIZE:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


class LocalField:
    """A finite extension of Q_p presented as a tower of simple steps.

    Use `qp` and then `extend_unramified` / `extend_eisenstein`; each step
    adjoins a root of a monic polynomial (given by its lower coefficients,
    ascending) over the field built so far.  Unramified steps must reduce to
    an irreducible polynomial over the residue field; Eisenstein steps must
    have all lower coefficients of positive valuation and constant term of
    valuation exactly one.
    """

    __slots__ = ("p", "steps", "degree", "ramification_index", "residue_degree",
                 "_monomials", "_weights", "_table", "_table_den", "_unram",
                 "_res_table", "_square_cache", "_class_cache", "_inv_cache",
                 "_pi_powers", "_hash", "_name")

    def __init__(self, p: int, steps: tuple):
        self.p = p
        self.steps = steps
        if p >= P_LIMIT:
            raise ValueError("p must be below 2^64")
        if not _is_prime(p):
            raise ValueError("p must be prime")
        # both walk every coefficient of every step, so each is computed once
        self._hash = hash((p, steps))
        self._name = self._describe()

        e = 1
        f = 1
        gen_weights = []
        for st in steps:
            if st.kind == "eisenstein":
                e *= len(st.coeffs)
            else:
                f *= len(st.coeffs)
        running = 1
        for st in steps:
            if st.kind == "eisenstein":
                running *= len(st.coeffs)
                gen_weights.append(e // running)
            else:
                gen_weights.append(0)
        self.ramification_index = e
        self.residue_degree = f
        self.degree = e * f

        monomials = [()]
        for st in steps:
            d = len(st.coeffs)
            monomials = [m + (j,) for j in range(d) for m in monomials]
        self._monomials = tuple(monomials)
        self._weights = tuple(sum(k * w for k, w in zip(m, gen_weights))
                              for m in self._monomials)

        if steps:
            self._validate_last_step()
            self._table, self._table_den = _structure_constants(self.parent(),
                                                                steps[-1].coeffs)
        else:
            self._table, self._table_den = ((((0, 1),),),), 1

        # residue field: the unramified monomials, with the table reduced mod p;
        # the monomials are integral, so table_den is prime to p
        self._unram = tuple(idx for idx, mono in enumerate(self._monomials)
                            if all(k == 0 or steps[i].kind == "unramified"
                                   for i, k in enumerate(mono)))
        pos = {idx: r for r, idx in enumerate(self._unram)}
        inv = pow(self._table_den, -1, p)
        self._res_table = tuple(
            tuple(tuple((pos[k], t * inv % p) for k, t in self._table[i][j]
                        if k in pos and t * inv % p) for j in self._unram)
            for i in self._unram)
        # an unramified last step is irreducible mod p exactly when
        # z = t^(q^(d // 2)) - t, q = p^(f / d), is a unit here, that is when
        # the matrix of multiplication by z has a determinant prime to p
        if steps and steps[-1].kind == "unramified":
            d = len(steps[-1].coeffs)
            t = self._to_residue(self.gen(len(steps) - 1))
            z = tuple((a - b) % p for a, b in
                      zip(self._res_pow(t, p ** (f // d * (d // 2))), t))
            cols = [self._res_mul(z, tuple(int(i == j) for i in range(f))) for j in range(f)]
            if _bareiss(cols, [()] * f)[1] % p == 0:
                raise ValueError("polynomial is not irreducible over the residue field")

        self._square_cache: dict = {}
        self._class_cache = None
        self._inv_cache: dict = {}
        self._pi_powers: tuple | None = None

    # -- construction ---------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=CACHE_SIZE)
    def make(p: int, steps: tuple) -> "LocalField":
        return LocalField(p, steps)

    @staticmethod
    def qp(p: int) -> "LocalField":
        return LocalField.make(p, ())

    def parent(self) -> "LocalField":
        if not self.steps:
            raise ValueError("the base field has no parent")
        return LocalField.make(self.p, self.steps[:-1])

    def _coerce_step_coeffs(self, coeffs: Sequence) -> tuple:
        out = []
        for c in coeffs:
            if isinstance(c, PadicElement):
                if c.field != self:
                    raise ValueError("coefficient from a different field")
                out.append(c)
            else:
                out.append(self.rational(c))
        return tuple(out)

    def extend_unramified(self, coeffs: Sequence) -> "LocalField":
        """Adjoin a root of the monic polynomial with these lower coefficients;
        the reduction mod p must be irreducible over the residue field."""
        step = _Step("unramified", self._coerce_step_coeffs(coeffs))
        return LocalField.make(self.p, self.steps + (step,))

    def extend_eisenstein(self, coeffs: Sequence) -> "LocalField":
        """Adjoin a uniformizer: all lower coefficients need valuation at
        least one and the constant term exactly one."""
        step = _Step("eisenstein", self._coerce_step_coeffs(coeffs))
        return LocalField.make(self.p, self.steps + (step,))

    def _validate_last_step(self) -> None:
        st = self.steps[-1]
        d = len(st.coeffs)
        if d < 2:
            raise ValueError("extension step must have degree at least two")
        vals = [c.valuation() for c in st.coeffs]
        if st.kind == "eisenstein":
            # valuations here are in the parent's normalization, where the
            # parent uniformizer has valuation one
            for j, v in enumerate(vals):
                if v is inf:
                    if j == 0:
                        raise ValueError("constant term of an Eisenstein step cannot vanish")
                    continue
                if v < 1:
                    raise ValueError("Eisenstein step needs positive valuation coefficients")
            if vals[0] != 1:
                raise ValueError("Eisenstein constant term must have valuation one")
        elif st.kind == "unramified":
            if d > 4:
                raise ValueError("unramified steps of degree greater than four are not supported")
            for v in vals:
                if v is not inf and v < 0:
                    raise ValueError("unramified step needs integral coefficients")
        else:
            raise ValueError(f"unknown step kind {st.kind!r}")

    # -- residue field helpers --------------------------------------------------
    # A residue is a tuple of integers mod p over the unramified monomials.

    def _res_mul(self, a: tuple, b: tuple) -> tuple:
        return tuple(x % self.p for x in _contract(self._res_table, a, b))

    def _res_one(self) -> tuple:
        return tuple(int(i == 0) for i in range(self.residue_degree))

    def _res_pow(self, r: tuple, n: int) -> tuple:
        out = self._res_one()
        while n > 0:
            if n & 1:
                out = self._res_mul(out, r)
            r = self._res_mul(r, r)
            n >>= 1
        return out

    def _to_residue(self, x: "PadicElement") -> tuple:
        """Residue of an integral element."""
        inv = pow(x.den, -1, self.p)
        return tuple(x.nums[i] * inv % self.p for i in self._unram)

    def _lift_residue(self, r: tuple) -> "PadicElement":
        nums = [0] * len(self._monomials)
        for i, a in zip(self._unram, r):
            nums[i] = a
        return PadicElement(self, nums, 1)

    # -- public element constructors ------------------------------------------------

    def zero(self) -> "PadicElement":
        return self.rational(0)

    def one(self) -> "PadicElement":
        return self.rational(1)

    def integer(self, n: int) -> "PadicElement":
        return self.rational(n)

    def rational(self, q) -> "PadicElement":
        nums = [0] * len(self._monomials)
        if type(q) is int:
            nums[0] = q
            return PadicElement(self, nums, 1)
        q = Fraction(q)
        nums[0] = q.numerator
        return PadicElement(self, nums, q.denominator)

    def gen(self, i: int) -> "PadicElement":
        """The generator adjoined at step i (zero-based)."""
        if not 0 <= i < len(self.steps):
            raise ValueError("no such step")
        target = tuple(1 if j == i else 0 for j in range(len(self.steps)))
        return self._monomial(self._monomials.index(target))

    def _monomial(self, m: int) -> "PadicElement":
        """The m-th monomial of the basis, as an element."""
        return PadicElement(self, [int(k == m) for k in range(len(self._monomials))], 1)

    def from_coords(self, coords: Sequence) -> "PadicElement":
        vals = [Fraction(c) for c in coords]
        if len(vals) != len(self._monomials):
            raise ValueError("wrong number of coordinates")
        den = lcm(*(c.denominator for c in vals))
        return PadicElement(self, [int(c * den) for c in vals], den)

    def _pi_power(self, k: int) -> "PadicElement":
        """pi^k for -2e <= k <= 2e, the powers the square class map uses,
        built on first use and kept in one tuple per field."""
        e2 = 2 * self.ramification_index
        if self._pi_powers is None:
            pi = self.uniformizer()
            pinv = pi.inverse()
            up, down = [self.one()], [self.one()]
            for _ in range(e2):
                up.append(up[-1] * pi)
                down.append(down[-1] * pinv)
            self._pi_powers = tuple(reversed(down)) + tuple(up[1:])
        return self._pi_powers[e2 + k]

    def uniformizer(self) -> "PadicElement":
        for i in range(len(self.steps) - 1, -1, -1):
            if self.steps[i].kind == "eisenstein":
                return self.gen(i)
        return self.integer(self.p)

    def describe(self) -> str:
        return self._name

    def _describe(self) -> str:
        name = f"Q_{self.p}"
        for i, st in enumerate(self.steps):
            var = f"t{i + 1}"
            terms = [f"{var}^{len(st.coeffs)}"]
            for j in range(len(st.coeffs) - 1, -1, -1):
                c = st.coeffs[j]
                if c.is_zero():
                    continue
                piece = c.as_string()
                mono = f"{var}^{j}" if j > 1 else (var if j == 1 else "")
                terms.append(f"({piece})*{mono}" if mono else f"({piece})")
            name += f"[{var}]/({' + '.join(terms)})"
        return name

    def __eq__(self, other) -> bool:
        return (isinstance(other, LocalField)
                and self.p == other.p and self.steps == other.steps)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LocalField({self.describe()})"


class PadicElement:
    """An element of a LocalField: integer numerators `nums` over the
    monomial basis and a positive common denominator `den`, with
    gcd(*nums, den) == 1."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: LocalField, nums: Sequence[int], den: int):
        g = gcd(*nums, den)
        if den < 0:
            g = -g
        self.field = field
        self.nums = tuple(a // g for a in nums) if g != 1 else tuple(nums)
        self.den = den // g

    def _coerce(self, other) -> "PadicElement":
        if isinstance(other, PadicElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.rational(other)

    def __add__(self, other):
        o = self._coerce(other)
        return PadicElement(self.field,
                            [a * o.den + b * self.den for a, b in zip(self.nums, o.nums)],
                            self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return PadicElement(self.field, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        field = self.field
        return PadicElement(field, _contract(field._table, self.nums, o.nums),
                            self.den * o.den * field._table_den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "PadicElement":
        field = self.field
        key = (self.nums, self.den)
        cached = field._inv_cache.get(key)
        if cached is not None:
            return cached
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # column j of M holds the numerators of self * m_j, so multiplication
        # by self is M / (den * table_den) and the inverse's coordinates y
        # solve M y = den * table_den * e_0
        n = len(self.nums)
        cols = [_contract(field._table, self.nums, field._monomial(j).nums) for j in range(n)]
        X, d = _bareiss(list(zip(*cols)), [[int(k == 0)] for k in range(n)])
        if d == 0:
            raise ZeroDivisionError("element is a zero divisor; tower invalid")
        scale = self.den * field._table_den
        inv = PadicElement(field, [scale * row[0] for row in X], d)
        return _remember(field._inv_cache, key, inv)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def valuation(self):
        """Normalized so the uniformizer has valuation one; inf for zero."""
        field = self.field
        p = field.p
        best = inf
        for a, w in zip(self.nums, field._weights):
            if a:
                best = min(best, field.ramification_index * _vp(a, p) + w)
        if best is inf:
            return inf
        return best - field.ramification_index * _vp(self.den, p)

    def is_integral(self) -> bool:
        return self.valuation() >= 0

    def is_unit(self) -> bool:
        return self.valuation() == 0

    def coords(self) -> tuple:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def as_string(self) -> str:
        parts = []
        for a, mono in zip(self.coords(), self.field._monomials):
            if a == 0:
                continue
            names = [f"t{i + 1}" + (f"^{k}" if k > 1 else "")
                     for i, k in enumerate(mono) if k > 0]
            if names:
                parts.append("*".join([str(a)] + names))
            else:
                parts.append(str(a))
        return " + ".join(parts) if parts else "0"

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        return (isinstance(other, PadicElement) and self.field == other.field
                and self.nums == other.nums and self.den == other.den)

    def __hash__(self) -> int:
        # equal to the hash of the rational it equals, as __eq__ requires
        if not any(self.nums[1:]):
            if self.den == 1:
                return hash(self.nums[0])
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"PadicElement({self.as_string()} in {self.field.describe()})"


# -- the number-theoretic queries ---------------------------------------------------


def valuation(x: PadicElement):
    """Normalized valuation (uniformizer has valuation one; inf for zero)."""
    return x.valuation()


def _is_prefix(K: LocalField, L: LocalField) -> bool:
    """Whether L is built as a tower on top of K: the same p, K's steps first."""
    return L.p == K.p and L.steps[:len(K.steps)] == K.steps


def embed(x: PadicElement, L: LocalField) -> PadicElement:
    """Canonical inclusion of x into an extension built on top of its field."""
    K = x.field
    if K == L:
        return x
    if not _is_prefix(K, L):
        raise ValueError("target is not a tower extension of the element's field")
    # the monomials of K are the first ones of L
    return PadicElement(L, x.nums + (0,) * (len(L._monomials) - len(x.nums)), x.den)


def is_square(x: PadicElement) -> bool:
    """Exact squareness test: x is zero or its square class vector is zero."""
    return x.is_zero() or not _class_vector(x)


def _class_vector(x: PadicElement) -> int:
    """The class of a nonzero x in K*/(K*)^2 as a bit mask over F_2.

    Write x = pi^v u with u a unit; bit 0 is v mod 2.  For odd p, bit 1 is
    set when the residue of u is not a square (Euler's criterion).  For
    p = 2, with e = v(2) and f the residue degree, u is first multiplied by a
    lifted residue square so that u = 1 + a pi^k + ... with k = v(u - 1) > 0,
    and then reduced by its quadratic defect (O'Meara, Introduction to
    Quadratic Forms, §63), level by level while k < 2e:

    - at even k it is multiplied by the square (1 + b pi^(k/2))^2, b^2 = a;
    - at odd k the f coordinates of a are bits 1 + f (k - 1)/2 + i, and u is
      multiplied by 1 + m_i pi^k for each set bit, m_i the i-th unramified
      monomial.

    Either way k grows.  At k = 2e, bit d + 1 is Tr(a / eps^2) over F_2, eps
    the residue of 2 / pi^e: 1 + a pi^(2e) is (1 + b pi^e)^2 modulo
    pi^(2e + 1) exactly when a = b^2 + eps b is solvable.  Above 2e the unit
    is a square, since 1 + pi^(2e + 1) O consists of squares.  Every factor
    is a square or one of pi, 1 + m_i pi^k, so the bits are the coordinates
    of x over those elements and a unit of defect 2e, and the map is a
    homomorphism onto F_2^(d + 2).
    """
    field = x.field
    key = (x.nums, x.den)
    cached = field._square_cache.get(key)
    if cached is not None:
        return cached
    v = x.valuation()
    pi = field.uniformizer()
    u = x / pi ** v if v else x
    q = field.p ** field.residue_degree
    r = field._to_residue(u)
    vec = v % 2
    if field.p != 2:
        vec |= (field._res_pow(r, (q - 1) // 2) != field._res_one()) << 1
    else:
        e, f = field.ramification_index, field.residue_degree
        s = field._lift_residue(field._res_pow(r, q // 2 - 1))  # s^2 = 1 / r
        u = u * s * s
        w = u - 1
        k = w.valuation()
        while k < 2 * e:
            a = field._to_residue(w * field._pi_power(-k))
            if k % 2:
                for i, bit in enumerate(a):
                    if bit:
                        vec |= 1 << (1 + f * (k // 2) + i)
                        u = u * (1 + field._monomial(field._unram[i]) * field._pi_power(k))
            else:
                y = 1 + field._lift_residue(field._res_pow(a, q // 2)) * field._pi_power(k // 2)
                u = u * y * y
            w = u - 1
            k = w.valuation()
        if k == 2 * e:
            eps = field._to_residue(2 * field._pi_power(-e))
            # c = a / eps^2, as eps^(q - 1) = 1
            c = field._res_mul(field._to_residue(w * field._pi_power(-k)),
                               field._res_pow(eps, 2 * (q - 2)))
            trace = sum(field._res_pow(c, 2 ** j)[0] for j in range(f)) % 2
            vec |= trace << (field.degree + 1)
    return _remember(field._square_cache, key, vec)


def _det(m: list) -> PadicElement:
    """Determinant by cofactor expansion; sizes here never exceed the step degree."""
    if len(m) == 1:
        return m[0][0]
    total = m[0][0].field.zero()
    for j, a in enumerate(m[0]):
        if a.is_zero():
            continue
        term = a * _det([row[:j] + row[j + 1:] for row in m[1:]])
        total = total - term if j % 2 else total + term
    return total


def norm(L: LocalField, K: LocalField, x: PadicElement) -> PadicElement:
    """Field norm from L down to K; K must be a tower prefix of L."""
    if x.field != L:
        raise ValueError("element does not belong to L")
    if not _is_prefix(K, L):
        raise ValueError("K is not a prefix of the tower defining L")
    while len(x.field.steps) > len(K.steps):
        # the determinant, over the parent, of multiplication by x on the
        # basis 1, t, ..., t^(d-1) of the last step; the parent coefficient
        # of t^l is the l-th block of n coordinates
        F = x.field
        P = F.parent()
        d = len(F.steps[-1].coeffs)
        n = len(P._monomials)
        t = F.gen(len(F.steps) - 1)
        cols = []
        y = x
        for _ in range(d):
            cols.append([PadicElement(P, y.nums[l * n:(l + 1) * n], y.den)
                         for l in range(d)])
            y = y * t
        x = _det(cols)
    return x


def _square_class_pool(K: LocalField):
    """Candidate square class generators, in the order the greedy basis reads
    them; built lazily, so a large p costs only the candidates read."""
    yield K.uniformizer()
    # for odd p and even residue degree every element of F_p* is a square in
    # the residue field, so the units -1, 2, ..., p - 1 all have class zero
    if K.p == 2 or K.residue_degree % 2:
        yield K.integer(-1)
        for c in range(2, K.p):
            yield K.integer(c)
    f = 1
    for i, st in enumerate(K.steps):
        if st.kind == "unramified":
            f *= len(st.coeffs)
            # for odd p the residues of g + c lie in F_(p^f), all of them
            # squares in K's residue field when its degree over F_(p^f) is even
            if K.p != 2 and K.residue_degree // f % 2 == 0:
                continue
            g = K.gen(i)
            yield g
            for c in range(1, K.p):
                yield g + K.integer(c)
    pi = K.uniformizer()
    e2 = K.ramification_index if K.p == 2 else 0
    for j in range(1, 2 * e2 + 2):
        for m in range(len(K._monomials)):
            yield K.one() + pi ** j * K._monomial(m)
    if K.p != 2:
        # lifts of every residue; for odd p a unit is a square exactly when
        # its residue is, so this pool always spans
        for r in product(range(K.p), repeat=K.residue_degree):
            yield K._lift_residue(r)


def _reduce(rows: dict, vec: int) -> tuple[int, int]:
    """Reduce a class vector by echelon rows {top bit: (vector, basis mask)}:
    the remainder, and the mask of the basis elements whose classes were
    added to it."""
    mask = 0
    while vec and vec.bit_length() - 1 in rows:
        row, row_mask = rows[vec.bit_length() - 1]
        vec ^= row
        mask ^= row_mask
    return vec, mask


def square_class_group(K: LocalField) -> list[PadicElement]:
    """Representatives generating K* / (K*)^2 (independent square classes).

    The group has order 4 for odd residue characteristic and 2^(d+2) for
    2-adic fields of degree d.  Generators are taken greedily from a fixed
    candidate pool: a candidate joins when its class vector is independent
    of the chosen ones, decided by F_2 elimination.  The echelon rows are
    kept, so `square_class` is one reduction.
    """
    if K._class_cache is None:
        target = K.degree + 2 if K.p == 2 else 2
        basis: list[PadicElement] = []
        rows: dict = {}
        for cand in _square_class_pool(K):
            if cand.is_zero():
                continue
            vec, mask = _reduce(rows, _class_vector(cand))
            if vec:
                rows[vec.bit_length() - 1] = (vec, mask | (1 << len(basis)))
                basis.append(cand)
                if len(basis) == target:
                    break
        if len(basis) != target:
            raise RuntimeError("square class search did not reach the expected size")
        K._class_cache = (tuple(basis), rows)
    return list(K._class_cache[0])


def square_class(K: LocalField, x: PadicElement) -> tuple[int, ...]:
    """Coordinates of the class of x in K*/(K*)^2 over the canonical basis."""
    if x.is_zero():
        raise ValueError("zero has no square class")
    if x.field != K:
        raise ValueError("element does not belong to K")
    size = len(square_class_group(K))
    _, mask = _reduce(K._class_cache[1], _class_vector(x))
    return tuple(mask >> i & 1 for i in range(size))
