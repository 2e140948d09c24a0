import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import inf, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chatelet.padic import (
    P_LIMIT,
    LocalField,
    PadicElement,
    _class_vector,
    _det,
    _is_prime,
    _restriction_images,
    becomes_square,
    embed,
    is_square,
    norm,
    square_class,
    square_class_group,
    valuation,
)
from helpers import (
    as_string_by_fractions,
    det_by_cofactors,
    inverse_by_elimination,
    is_square_by_search,
    poly_irreducible_by_enumeration,
    product_by_table,
    reference_mul,
    residue_table_by_fractions,
    square_class_group_by_full_pool,
    square_mask_by_search,
    structure_constants_by_fractions,
)


def test_base_field_arithmetic():
    q5 = LocalField.qp(5)
    a = q5.rational(Fraction(1, 2))
    b = q5.rational(Fraction(1, 3))
    assert (a + b).coords() == (Fraction(5, 6),)
    assert (a * b).coords() == (Fraction(1, 6),)
    assert (a - a).is_zero()
    assert (a / b).coords() == (Fraction(3, 2),)
    assert valuation(q5.integer(50)) == 2
    assert valuation(q5.rational(Fraction(1, 5))) == -1
    assert valuation(q5.rational(Fraction(7, 3))) == 0
    assert valuation(q5.zero()) == inf


def test_qp_requires_prime():
    with pytest.raises(ValueError):
        LocalField.qp(6)


def test_unramified_step_validation():
    q5 = LocalField.qp(5)
    # x^2 - 2 is irreducible mod 5, x^2 - 1 is not
    k = q5.extend_unramified([-2, 0])
    assert k.degree == 2 and k.residue_degree == 2 and k.ramification_index == 1
    with pytest.raises(ValueError):
        q5.extend_unramified([-1, 0])
    with pytest.raises(ValueError):
        q5.extend_unramified([Fraction(1, 5), 0])  # non-integral coefficient
    g = k.gen(0)
    assert (g * g).coords() == (Fraction(2), Fraction(0))
    assert valuation(g) == 0


def test_eisenstein_step_validation():
    q5 = LocalField.qp(5)
    k = q5.extend_eisenstein([-5, 0])
    assert k.degree == 2 and k.ramification_index == 2 and k.residue_degree == 1
    pi = k.uniformizer()
    assert pi == k.gen(0)
    assert valuation(pi) == 1
    assert valuation(k.integer(5)) == 2
    assert valuation(pi + k.integer(5)) == 1
    with pytest.raises(ValueError):
        q5.extend_eisenstein([-25, 0])  # constant term has valuation two
    with pytest.raises(ValueError):
        q5.extend_eisenstein([-1, 0])   # constant term is a unit


def test_second_unramified_step_checked_over_larger_residue_field():
    q3 = LocalField.qp(3)
    k = q3.extend_unramified([1, 0])  # x^2 + 1, irreducible mod 3
    u = k.gen(0)
    # u is a square in the residue field with nine elements, so x^2 - u
    # must be rejected even though u is not in the prime field
    with pytest.raises(ValueError):
        k.extend_unramified([-u, 0])
    # u + 1 is not a square there, so this step is fine
    big = k.extend_unramified([-(u + 1), 0])
    assert big.degree == 4 and big.residue_degree == 4
    lifted = big.rational(0) + big.gen(0) + 1
    assert is_square(lifted)


# an irreducible quadratic over each F_p, for the bases with residue field F_(p^2)
_IRREDUCIBLE_QUADRATIC = {2: [1, 1], 3: [1, 0], 5: [-2, 0], 7: [-3, 0]}


def _residue_field_bases():
    """Q_p and Q_p(sqrt p) for p = 2, 3, 5, 7, and an unramified quadratic
    extension of each: residue fields F_p and F_(p^2), unramified and
    ramified below the new step."""
    for p, quadratic in _IRREDUCIBLE_QUADRATIC.items():
        for base in (LocalField.qp(p), LocalField.qp(p).extend_eisenstein([-p, 0])):
            yield base
            yield base.extend_unramified(quadratic)


def test_unramified_steps_match_the_enumeration_oracle():
    # random monic steps of degree 2 to 4, each coefficient a lifted residue
    # plus a multiple of the uniformizer: accepted exactly when no root and
    # no quadratic divisor exists over the residue field
    rng = random.Random(20)
    for K in _residue_field_bases():
        pi = K.uniformizer()
        for d in (2, 3, 4):
            for _ in range(20):
                residues = [tuple(rng.randrange(K.p) for _ in range(K.residue_degree))
                            for _ in range(d)]
                coeffs = [K._lift_residue(r) + pi * rng.randint(-2, 2) for r in residues]
                try:
                    K.extend_unramified(coeffs)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == poly_irreducible_by_enumeration(K, residues), (K, residues)


def test_mixed_tower_valuations():
    q2 = LocalField.qp(2)
    k = q2.extend_unramified([1, 1])       # x^2 + x + 1
    tower = k.extend_eisenstein([-2, 0])   # then x^2 - 2
    assert tower.degree == 4
    assert tower.ramification_index == 2
    assert tower.residue_degree == 2
    pi = tower.uniformizer()
    assert pi == tower.gen(1)
    assert valuation(pi) == 1
    assert valuation(tower.integer(2)) == 2
    assert valuation(tower.gen(0)) == 0
    assert valuation(pi ** 3 / 2) == 1


def test_inverse_roundtrip():
    rng = random.Random(41)
    q3 = LocalField.qp(3)
    fields = [
        q3,
        q3.extend_unramified([1, 0]),
        q3.extend_eisenstein([-3, 0]),
        q3.extend_unramified([1, 0]).extend_eisenstein([-3, 0]),
    ]
    for field in fields:
        n = len(field._monomials)
        for _ in range(8):
            coords = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 4]))
                      for _ in range(n)]
            x = field.from_coords(coords)
            if x.is_zero():
                continue
            assert (x * x.inverse() - 1).is_zero()
            assert ((x / x) - 1).is_zero()


def test_norm_frozen_values():
    q5 = LocalField.qp(5)
    l = q5.extend_eisenstein([-5, 0])
    pi = l.uniformizer()
    assert norm(l, q5, pi) == q5.integer(-5)
    assert norm(l, q5, l.one() + pi) == q5.integer(-4)
    assert norm(l, q5, l.integer(3)) == q5.integer(9)


def test_norm_is_multiplicative():
    rng = random.Random(99)
    q3 = LocalField.qp(3)
    k = q3.extend_unramified([1, 0])
    tower = k.extend_eisenstein([-3, 0])
    for base, field in [(q3, k), (q3, tower), (k, tower)]:
        n = len(field._monomials)
        for _ in range(6):
            x = field.from_coords([Fraction(rng.randint(-4, 4)) for _ in range(n)])
            y = field.from_coords([Fraction(rng.randint(-4, 4)) for _ in range(n)])
            lhs = norm(field, base, x * y)
            rhs = norm(field, base, x) * norm(field, base, y)
            assert lhs == rhs


def test_norm_of_uniformizer_in_ramified_step_over_extension():
    q3 = LocalField.qp(3)
    k = q3.extend_unramified([1, 0])
    tower = k.extend_eisenstein([-3, 0])
    assert norm(tower, k, tower.uniformizer()) == k.integer(-3)
    # norm is transitive through the tower
    x = tower.gen(1) + tower.gen(0) + 2
    assert norm(tower, q3, x) == norm(k, q3, norm(tower, k, x))


def test_det_by_elimination_matches_cofactor_expansion(monkeypatch):
    rng = random.Random(12)
    q3 = LocalField.qp(3)
    # sparse rational matrices, some singular, so that pivots must be sought
    for size in range(1, 8):
        for _ in range(4):
            m = [[q3.rational(Fraction(rng.choice([0, 0, 1, -2, 3]), rng.choice([1, 2, 9])))
                  for _ in range(size)] for _ in range(size)]
            assert _det(m) == det_by_cofactors(m)
    k = q3.extend_unramified([1, 0])
    towers = [(q3, q3.extend_eisenstein([-3] + [0] * (d - 1))) for d in range(2, 8)]
    towers += [(k, k.extend_eisenstein([-3] + [0] * (d - 1))) for d in range(2, 5)]
    for base, field in towers:
        n = len(field._monomials)
        elements = [field.zero(), field.uniformizer(), field.one() + field.uniformizer() ** 2]
        elements += [field.from_coords([rng.randint(-4, 4) for _ in range(n)])
                     for _ in range(3)]
        ours = [norm(field, base, x) for x in elements]
        with monkeypatch.context() as patch:
            patch.setattr("chatelet.padic._det", det_by_cofactors)
            assert [norm(field, base, x) for x in elements] == ours


def test_norm_of_degree_twelve_is_not_factorial():
    # cofactor expansion takes 12! products here
    q3 = LocalField.qp(3)
    field = q3.extend_eisenstein([-3] + [0] * 11)
    rng = random.Random(5)
    x = field.from_coords([rng.randint(-9, 9) for _ in range(12)])
    started = time.perf_counter()
    norm(field, q3, x)
    assert time.perf_counter() - started < 1.0
    assert norm(field, q3, field.uniformizer()) == q3.integer(-3)


def test_norm_requires_prefix():
    q3 = LocalField.qp(3)
    q5 = LocalField.qp(5)
    k = q3.extend_eisenstein([-3, 0])
    with pytest.raises(ValueError):
        norm(k, q5, k.one())
    with pytest.raises(ValueError):
        norm(q3, k, q3.one())


def test_is_square_in_base_fields():
    q5 = LocalField.qp(5)
    assert not is_square(q5.integer(2))
    assert is_square(q5.integer(-1))
    assert not is_square(q5.integer(5))
    assert is_square(q5.rational(Fraction(4, 9)))
    assert is_square(q5.zero())

    q3 = LocalField.qp(3)
    assert not is_square(q3.integer(-1))
    assert is_square(q3.integer(7))

    q2 = LocalField.qp(2)
    assert is_square(q2.integer(17))
    assert not is_square(q2.integer(5))
    assert not is_square(q2.integer(2))
    assert is_square(q2.integer(4))
    assert is_square(q2.integer(-7))
    assert not is_square(q2.integer(8))
    assert is_square(q2.rational(Fraction(1, 4)))
    assert is_square(q2.rational(Fraction(9, 25)))


def test_is_square_against_classical_descriptions():
    # v(n) even and unit part a square in the residue field (odd p),
    # or unit part congruent to one mod eight (p = 2)
    for p, unit_ok in [(3, {1}), (5, {1, 4}), (2, None)]:
        field = LocalField.qp(p)
        for n in range(-60, 61):
            if n == 0:
                continue
            v = 0
            u = n
            while u % p == 0:
                u //= p
                v += 1
            if p == 2:
                expected = v % 2 == 0 and u % 8 == 1
            else:
                expected = v % 2 == 0 and u % p in unit_ok
            assert is_square(field.integer(n)) == expected, (p, n)


def test_is_square_in_quadratic_extensions():
    q5 = LocalField.qp(5)
    unram5 = q5.extend_unramified([-2, 0])
    assert is_square(unram5.integer(2))       # the generator squares to two
    assert is_square(unram5.integer(3))       # every prime-field unit is a square here
    assert not is_square(unram5.integer(5))   # odd valuation survives the extension
    assert not is_square(unram5.gen(0) * 5)

    q2 = LocalField.qp(2)
    ram2 = q2.extend_eisenstein([-2, 0])
    assert is_square(ram2.integer(2))         # two becomes a square: pi^2
    assert not is_square(ram2.integer(5))     # adjoining root of five is unramified
    assert not is_square(ram2.integer(-1))
    assert is_square(ram2.integer(-7))
    assert is_square(ram2.integer(17))

    i_field = q2.extend_eisenstein([2, -2])   # x^2 - 2x + 2, a root is 1 + i
    assert is_square(i_field.integer(-1))     # i = root - 1 lives here

    unram2 = q2.extend_unramified([1, 1])
    assert is_square(unram2.integer(-3))      # discriminant of the cube roots of unity
    assert not is_square(unram2.integer(2))
    assert is_square(unram2.integer(5))       # the unramified square classes collapse


def test_is_square_in_ramified_extension_of_odd_p():
    q3 = LocalField.qp(3)
    ram3 = q3.extend_eisenstein([-3, 0])
    assert is_square(ram3.integer(3))
    assert not is_square(ram3.integer(-1))
    assert is_square(ram3.integer(-2))        # 1 mod 3, still a residue square
    assert not is_square(ram3.uniformizer())


def test_square_class_group_orders():
    q5 = LocalField.qp(5)
    q3 = LocalField.qp(3)
    q2 = LocalField.qp(2)
    assert len(square_class_group(q5)) == 2
    assert len(square_class_group(q3)) == 2
    assert len(square_class_group(q2)) == 3
    assert len(square_class_group(q5.extend_unramified([-2, 0]))) == 2
    assert len(square_class_group(q3.extend_eisenstein([-3, 0]))) == 2
    assert len(square_class_group(q2.extend_eisenstein([-2, 0]))) == 4
    assert len(square_class_group(q2.extend_unramified([1, 1]))) == 4


def test_square_class_basis_is_independent():
    for field in [LocalField.qp(3), LocalField.qp(2),
                  LocalField.qp(2).extend_eisenstein([-2, 0])]:
        basis = square_class_group(field)
        for mask in range(1, 2 ** len(basis)):
            prod = field.one()
            for i, b in enumerate(basis):
                if mask >> i & 1:
                    prod = prod * b
            assert not is_square(prod), (field.describe(), mask)


def test_square_class_coordinates():
    q2 = LocalField.qp(2)
    assert square_class(q2, q2.integer(17)) == (0, 0, 0)
    assert square_class(q2, q2.integer(-1)) != (0, 0, 0)
    rng = random.Random(7)
    for field in [q2, LocalField.qp(5), LocalField.qp(3).extend_eisenstein([-3, 0])]:
        for _ in range(10):
            x = field.integer(rng.randint(1, 40))
            y = field.integer(rng.randint(1, 40))
            cx = square_class(field, x)
            cy = square_class(field, y)
            cxy = square_class(field, x * y)
            assert cxy == tuple((a + b) % 2 for a, b in zip(cx, cy))
            assert square_class(field, x * x) == (0,) * len(cx)
    with pytest.raises(ValueError):
        square_class(q2, q2.zero())


def _rat_mod(q: Fraction, m: int) -> int:
    return q.numerator * pow(q.denominator, -1, m) % m


def _enumerated_square_verdict(field, x, k):
    """Independent oracle: reduce coordinatewise mod p^k and compare with the
    set of reduced squares, valid because coordinatewise agreement mod p^k
    pins elements modulo the k-th power of p in the ring of integers."""
    from itertools import product as iproduct

    m = field.p ** k
    n = len(field._monomials)
    squares = set()
    for assignment in iproduct(range(m), repeat=n):
        y = field.from_coords([Fraction(a) for a in assignment])
        squares.add(tuple(_rat_mod(c, m) for c in (y * y).coords()))
    target = tuple(_rat_mod(c, m) for c in x.coords())
    return target in squares


@pytest.mark.parametrize("p,builder", [
    (3, lambda q: q),
    (5, lambda q: q.extend_eisenstein([-5, 0])),
])
def test_is_square_matches_enumeration_smoke(p, builder):
    field = builder(LocalField.qp(p))
    k = 1
    while field.ramification_index * k < 2 * (field.ramification_index if p == 2 else 0) + 1:
        k += 1
    rng = random.Random(13)
    pi = field.uniformizer()
    checked = 0
    for _ in range(30):
        coords = [Fraction(rng.randint(0, p ** k - 1)) for _ in field._monomials]
        x = field.from_coords(coords)
        if x.is_zero() or valuation(x) != 0:
            continue
        assert is_square(x) == _enumerated_square_verdict(field, x, k)
        assert is_square(x * pi * pi) == is_square(x)
        checked += 1
    assert checked >= 10


def test_element_strings_are_deterministic():
    q5 = LocalField.qp(5)
    k = q5.extend_eisenstein([-5, 0])
    x = k.one() + k.gen(0) * Fraction(3, 2)
    assert x.as_string() == "1 + 3/2*t1"
    assert k.zero().as_string() == "0"
    assert k.describe() == "Q_5[t1]/(t1^2 + (-5))"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_element_strings_match_the_fraction_rendering(data):
    # numerators are drawn as multiples of a factor that often divides the
    # denominator, so coordinates reduce, some to integers, and some are zero
    field = data.draw(st.sampled_from([LocalField.qp(5), DEG6, DEG8]))
    n = len(field._monomials)
    factor = data.draw(st.sampled_from([1, 2, 3, 6, 12]))
    nums = data.draw(st.lists(st.just(0) | st.integers(-40, 40), min_size=n, max_size=n))
    den = data.draw(st.sampled_from([1, 2, 3, 4, 6, 9, 12, 36]))
    x = PadicElement(field, [a * factor for a in nums], den)
    assert x.as_string() == as_string_by_fractions(x)
    assert repr(x) == f"PadicElement({as_string_by_fractions(x)} in {field.describe()})"


def test_field_interning_and_equality():
    a = LocalField.qp(7).extend_eisenstein([-7, 0])
    b = LocalField.qp(7).extend_eisenstein([-7, 0])
    assert a is b
    c = LocalField.qp(7).extend_eisenstein([-14, 0])
    assert a != c
    with pytest.raises(ValueError):
        a.one() + c.one()


# -- degree-6 and degree-8 dyadic towers -----------------------------------------

Q2 = LocalField.qp(2)
# degree 6: unramified cubic, then an Eisenstein step whose constant term
# has a denominator prime to p, so the structure constants do too
DEG6 = Q2.extend_unramified([1, 1, 0]).extend_eisenstein([Fraction(-2, 3), 0])
_MID = Q2.extend_eisenstein([-2, 0]).extend_unramified([1, 1])
# degree 8: Eisenstein, unramified over it, then Eisenstein over that
DEG8 = _MID.extend_eisenstein([-_MID.gen(0), 2])
TOWERS = [DEG6, DEG8]


def test_hash_agrees_with_equality_on_rationals():
    for field in [LocalField.qp(5).extend_eisenstein([-5, 0]), DEG8]:
        x = field.integer(3)
        assert x == 3
        assert len({x, 3}) == 1
        assert len({field.rational(Fraction(-1, 2)), Fraction(-1, 2)}) == 1
        assert len({field.zero(), 0}) == 1
        assert len({field.gen(0), field.gen(0) * 2 / 2}) == 1


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from([LocalField.qp(5), DEG8]),
       q=st.integers(-10 ** 30, 10 ** 30) | st.fractions(max_denominator=10 ** 12))
def test_rationals_hash_and_compare_as_the_number(field, q):
    # integers take their own path in `rational` and `__hash__`, fractions
    # go through Fraction; either way the element stands for the number
    x = field.rational(q)
    assert x == q and hash(x) == hash(q)
    assert x == field.rational(Fraction(q)) and hash(x) == hash(Fraction(q))


def test_floats_are_refused_and_exact_scalars_kept():
    # Fraction(0.1) is 3602879701896397 / 2^55, which would make the element
    # a square in Q_5; a float is refused instead, as the integer paths do
    for field in [LocalField.qp(5), DEG8]:
        n = len(field._monomials)
        for bad in (0.1, 2.0, float("inf")):
            with pytest.raises(TypeError):
                field.rational(bad)
            with pytest.raises(TypeError):
                field.from_coords([1] * (n - 1) + [bad])
            with pytest.raises(TypeError):
                field.one() + bad
        tenth = field.rational(Fraction(1, 10))
        for q in ("1/10", "0.1", Decimal("0.1"), Fraction(2, 20)):
            assert field.rational(q) == tenth
        assert field.rational(True) == field.one()
        assert field.from_coords(["1/10"] + [0] * (n - 1)) == tenth
    assert not is_square(LocalField.qp(5).rational("0.1"))


def test_inverse_of_zero_raises():
    q3 = LocalField.qp(3)
    for field in [q3, q3.extend_unramified([1, 0]).extend_eisenstein([-3, 0])]:
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            field.one() / field.zero()


def _elements(data, field, count):
    n = len(field._monomials)
    nums = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    dens = st.sampled_from([1, 2, 3, 4, 6, 9])
    element = st.builds(lambda a, d: field.from_coords([Fraction(x, d) for x in a]),
                        nums, dens)
    return [data.draw(element) for _ in range(count)]


towers = pytest.mark.parametrize("field", TOWERS, ids=["deg6", "deg8"])
examples = settings(max_examples=25, deadline=None)


def test_tower_shapes():
    assert (DEG6.degree, DEG6.ramification_index, DEG6.residue_degree) == (6, 2, 3)
    assert (DEG8.degree, DEG8.ramification_index, DEG8.residue_degree) == (8, 4, 2)


@towers
@examples
@given(data=st.data())
def test_product_matches_reference(field, data):
    x, y = _elements(data, field, 2)
    assert (x * y).coords() == reference_mul(x, y)


@towers
@examples
@given(data=st.data())
def test_ring_axioms(field, data):
    x, y, z = _elements(data, field, 3)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@towers
@examples
@given(data=st.data(), n=st.integers(-40, 40))
def test_integer_operands_match_field_integers(field, data, n):
    # an int operand is added on the constant monomial without an element
    [x] = _elements(data, field, 1)
    m = field.integer(n)
    for got, want in [(x + n, x + m), (n + x, m + x), (x - n, x - m), (n - x, m - x)]:
        assert (got.nums, got.den) == (want.nums, want.den)


@towers
@examples
@given(data=st.data())
def test_inverse_with_denominators(field, data):
    [x] = _elements(data, field, 1)
    assume(not x.is_zero())
    assert x * x.inverse() == 1


@towers
@examples
@given(data=st.data())
def test_norm_multiplicative_in_towers(field, data):
    x, y = _elements(data, field, 2)
    for base in (Q2, field.parent()):
        assert norm(field, base, x * y) == norm(field, base, x) * norm(field, base, y)


@towers
def test_generators_satisfy_minimal_polynomials(field):
    for i, step in enumerate(field.steps):
        g = field.gen(i)
        value = g ** len(step.coeffs)
        for j, c in enumerate(step.coeffs):
            value = value + embed(c, field) * g ** j
        assert value.is_zero()


@towers
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_squares_and_uniformizer_twists(field, data):
    [x] = _elements(data, field, 1)
    assume(not x.is_zero())
    pi = field.uniformizer()
    assert is_square(x * x)
    assert not is_square(pi * x * x)


@pytest.mark.parametrize("field, d", [(LocalField.qp(5), 2), (Q2, 3), (Q2, 2), (DEG6, -1)])
def test_square_class_of_powers_follows_parity(field, d):
    # the class of d^n is trivial exactly when n is even, d a nonsquare
    x = field.integer(d)
    assert not is_square(x)
    for n in range(1, 5):
        assert (not any(square_class(field, x ** n))) == (n % 2 == 0)


# -- pinned square class bytes ----------------------------------------------------
# Recorded from the exhaustive-search implementation, so the greedy basis and
# the coordinates over it cannot drift when the search is replaced.

PINNED_CLASSES = {
    "Q2": (
        ["2", "-1", "3"],
        "010 100 001 011 101 010 110 001 001 100 001 000 010"),
    "Q2(sqrt2)": (
        ["1*t1", "-1", "1 + 1*t1", "3"],
        "0100 0000 0001 0101 0001 0100 0100 0001 0001 1000 0010 0001 0000 1000 "
        "0010 1010 0011"),
    "DEG6": (
        ["1*t2", "-1", "1*t1", "1 + 1*t2", "1 + 1*t1*t2", "1 + 1*t1^2*t2",
         "1 + 2/3*t1", "1 + 2/3*t1^2*t2"],
        "01000000 00100011 00100011 01100011 00000000 01000000 01100011 00100011 "
        "00100011 10000000 00010000 01000000 01100011 00100000 01100000 00000000 "
        "01100011 10000000 00010000 10110011 01010000"),
    "DEG8": (
        ["1*t3", "-1", "1 + 1*t3", "1 + 1*t1*t3", "1 + 1*t2*t3", "1 + 1*t1*t2*t3",
         "1 + 1*t1 + -2*t3", "1 + 1*t1*t2 + -2*t2*t3",
         "1 + -2*t1*t2 + 4*t2*t3 + 1*t1*t2*t3", "1 + -4*t2 + 2*t2*t3 + 4*t1*t2*t3"],
        "0100000000 0100000000 0000000000 0010000000 0100000000 0000001101 "
        "0000001100 0001000000 0100011010 0100000000 0100000001"),
    "Q3 unram": (
        ["3", "1 + 1*t1"],
        "00 00 10 00 10 00 00 10 10 10 00 00 00 00 01 01 10"),
    "Q5(sqrt5)": (
        ["1*t1", "2"],
        "00 01 01 00 00 01 01 01 01 10 00 00 01 10 00 01 00"),
}

PINNED_FIELDS = {
    "Q2": Q2,
    "Q2(sqrt2)": Q2.extend_eisenstein([-2, 0]),
    "DEG6": DEG6,
    "DEG8": DEG8,
    "Q3 unram": LocalField.qp(3).extend_unramified([1, 0]),
    "Q5(sqrt5)": LocalField.qp(5).extend_eisenstein([-5, 0]),
}


def _pinned_elements(field):
    pi = field.uniformizer()
    gens = [field.gen(i) for i in range(len(field.steps))]
    if field == DEG8:
        t1, t2, _ = gens
        return [field.integer(n) for n in (-1, 3, 5)] + [
            pi + 1, t2 + 1, t2 * 4 + 1, t2 * pi * 2 + 1, t1 * pi + 1,
            t1 + t2, pi * 4 + 7, t1 * t2 * pi ** 3 + 3]
    out = [field.integer(n) for n in (-1, 2, 3, 5, 6, 7, -2, 12)]
    out += [field.rational(Fraction(1, 3)), pi, field.one() + pi,
            field.one() + pi ** 3, field.integer(3) + pi * 2]
    for g in gens:
        out += [g, g + 1, g + 2, g * g + 3 * g + 1]
    return out


@pytest.mark.parametrize("name", list(PINNED_CLASSES))
def test_square_class_bytes_are_pinned(name):
    field = PINNED_FIELDS[name]
    generators, classes = PINNED_CLASSES[name]
    assert [b.as_string() for b in square_class_group(field)] == generators
    got = ["".join(map(str, square_class(field, x))) for x in _pinned_elements(field)]
    assert got == classes.split()


PINNED_DESCRIPTIONS = {
    "Q2": "Q_2",
    "Q2(sqrt2)": "Q_2[t1]/(t1^2 + (-2))",
    "DEG6": "Q_2[t1]/(t1^3 + (1)*t1 + (1))[t2]/(t2^2 + (-2/3))",
    "DEG8": "Q_2[t1]/(t1^2 + (-2))[t2]/(t2^2 + (1)*t2 + (1))[t3]/(t3^2 + (2)*t3 + (-1*t1))",
    "Q3 unram": "Q_3[t1]/(t1^2 + (1))",
    "Q5(sqrt5)": "Q_5[t1]/(t1^2 + (-5))",
}


@pytest.mark.parametrize("name", list(PINNED_FIELDS))
def test_field_descriptions_are_pinned(name):
    field = PINNED_FIELDS[name]
    assert field.describe() == PINNED_DESCRIPTIONS[name]
    for step in field.steps:
        for c in step.coeffs:
            assert c.as_string() == as_string_by_fractions(c)


# -- the square class map against the search oracle --------------------------------

_Q2_SQRT2 = Q2.extend_eisenstein([-2, 0])
_F4 = Q2.extend_unramified([1, 1])
# residue degree f in {1, 2, 3} and ramification index e in {1, 2, 4}
SEARCH_TOWERS = {
    "Q2": Q2,
    "f2e1": _F4,
    "f3e1": Q2.extend_unramified([1, 1, 0]),
    "f1e2": _Q2_SQRT2,
    "Q2(i)": Q2.extend_eisenstein([2, -2]),
    # an unramified step above an Eisenstein one
    "f2e2": _Q2_SQRT2.extend_unramified([1, 1]),
    # pi^2 = 2w with w a cube root of unity, so 2 / pi^2 has residue w^2,
    # not 1, and the level-2e trace test must divide by it
    "f2e2 twisted": _F4.extend_eisenstein([-2 * _F4.gen(0), 0]),
    "deg6": DEG6,
    "f1e4": _Q2_SQRT2.extend_eisenstein([-_Q2_SQRT2.gen(0), 0]),
    "deg8": DEG8,
}
SMALL_TOWERS = [name for name, field in SEARCH_TOWERS.items() if field.degree <= 4]


def _defect_element(rng, field):
    """y^2 (1 + pi^j z) with j up to 2e + 1, so every defect level shows up;
    zero for a zero factor."""
    n = len(field._monomials)

    def draw():
        return field.from_coords([Fraction(rng.randint(-4, 4), rng.choice([1, 3]))
                                  for _ in range(n)])

    y = draw()
    j = rng.randint(0, 2 * field.ramification_index + 1)
    return y * y * (1 + field.uniformizer() ** j * draw())


@pytest.mark.parametrize("name", list(SEARCH_TOWERS))
def test_is_square_matches_search(name):
    field = SEARCH_TOWERS[name]
    rng = random.Random(name)
    verdicts = []
    for _ in range(40):
        x = _defect_element(rng, field)
        if x.is_zero():
            continue
        verdicts.append(is_square_by_search(x))
        assert is_square(x) == verdicts[-1], x
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name", SMALL_TOWERS)
def test_square_class_matches_search(name):
    field = SEARCH_TOWERS[name]
    basis = square_class_group(field)
    rng = random.Random(name)
    for _ in range(8):
        x = _defect_element(rng, field)
        if x.is_zero():
            continue
        mask = square_mask_by_search(x, basis)
        assert square_class(field, x) == tuple(mask >> i & 1 for i in range(len(basis)))


@pytest.mark.parametrize("name", [name for name, field in SEARCH_TOWERS.items()
                                  if field.residue_degree > 1])
def test_trace_and_square_root_levels_match_search(name):
    # 1 + a pi^k for every nonzero residue a: at k = 2e the verdict is the
    # trace bit, at even k < 2e the unit goes through the residue square root
    field = SEARCH_TOWERS[name]
    e2 = 2 * field.ramification_index
    pi = field.uniformizer()
    residues = [r for r in product(range(2), repeat=field.residue_degree) if any(r)]
    for k in list(range(0, e2, 2)) + [e2]:
        verdicts = set()
        for r in residues:
            x = 1 + field._lift_residue(r) * pi ** k
            expected = is_square_by_search(x)
            assert is_square(x) == expected, (k, r)
            verdicts.add(expected)
        if k == e2:
            # Tr(a / eps^2) takes both values on the nonzero residues
            assert verdicts == {True, False}


@pytest.mark.parametrize("field", [DEG6, DEG8, LocalField.qp(3).extend_eisenstein([-3, 0])],
                         ids=["DEG6", "DEG8", "Q3(sqrt3)"])
def test_square_class_of_uniformizer_powers_times_units(field):
    # |v| <= 2e strips pi^v through the field's table of pi powers, larger
    # |v| through an inverted power of pi; both give x = pi^v u its classes
    pi = field.uniformizer()
    e2 = 2 * field.ramification_index
    units = [field.integer(-1), 1 + pi, field.integer(3) + pi * 2, 1 + pi ** 3 * field.gen(0)]
    pi_class = square_class(field, pi)
    for v in range(-(e2 + 3), e2 + 4):
        power = square_class(field, pi ** v)
        assert power == tuple(c * (v % 2) for c in pi_class)
        for u in units:
            assert square_class(field, pi ** v * u) == tuple(
                a ^ b for a, b in zip(power, square_class(field, u)))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_units_of_odd_p_are_squares_exactly_mod_p(p):
    residue_squares = {x * x % p for x in range(1, p)}
    for field in (LocalField.qp(p), LocalField.qp(p).extend_eisenstein([-p, 0])):
        for a in range(-p * p, p * p):
            if a % p:
                assert is_square(field.integer(a)) == (a % p in residue_squares), (field, a)


@pytest.mark.parametrize("name", list(SEARCH_TOWERS) + ["Q3 unram", "Q5(sqrt5)"])
def test_basis_classes_are_unit_vectors(name):
    field = SEARCH_TOWERS.get(name) or PINNED_FIELDS[name]
    basis = square_class_group(field)
    # |K*/(K*)^2| is 2^(d + 2) over Q_2 and 4 for odd p
    assert len(basis) == (field.degree + 2 if field.p == 2 else 2)
    for i, b in enumerate(basis):
        assert square_class(field, b) == tuple(int(j == i) for j in range(len(basis)))


def _twisted_elements(data, field, count):
    """Nonzero draws, each either z or 1 + pi^j z with j up to 2e + 1."""
    out = []
    for z in _elements(data, field, count):
        j = data.draw(st.integers(-1, 2 * field.ramification_index + 1))
        x = z if j < 0 else 1 + field.uniformizer() ** j * z
        assume(not x.is_zero())
        out.append(x)
    return out


@towers
@examples
@given(data=st.data())
def test_square_class_is_a_homomorphism(field, data):
    x, y = _twisted_elements(data, field, 2)
    cx, cy = square_class(field, x), square_class(field, y)
    assert square_class(field, x * y) == tuple(a ^ b for a, b in zip(cx, cy))
    assert not any(square_class(field, x * x))


def test_square_class_rejects_a_foreign_element():
    with pytest.raises(ValueError):
        square_class(DEG6, Q2.integer(3))


# -- primality and the bound on p --------------------------------------------------


def _is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 20_000) if _is_prime(n)] == \
        [n for n in range(-3, 20_000) if _is_prime_by_trial_division(n)]


def test_is_prime_on_large_numbers():
    assert _is_prime(2 ** 61 - 1) and _is_prime(10 ** 12 + 39)
    assert _is_prime(2 ** 64 - 59)           # the largest prime below the bound
    assert not _is_prime((2 ** 31 - 1) * (2 ** 31 + 11))
    # strong pseudoprimes to the bases 2 and 2, ..., 23 respectively
    assert not _is_prime(2047) and not _is_prime(3825123056546413051)


def test_p_is_bounded():
    assert LocalField.qp(2 ** 64 - 59).p == 2 ** 64 - 59
    for p in (P_LIMIT, P_LIMIT + 13):        # 2^64 + 13 is prime
        with pytest.raises(ValueError, match="below 2\\^64"):
            LocalField.qp(p)


# -- structure-constant tables against the Fraction oracle ---------------------------

_Q3_UNRAM = LocalField.qp(3).extend_unramified([1, 0])
# t1^2 = 2/7, then t2^2 = (t1 + 1)/7: 7 divides every entry of the second
# step's table over 7^3, so its least denominator is 7^2
_Q3_SEVENTHS = LocalField.qp(3).extend_unramified([Fraction(-2, 7), 0])


def _q3_eisenstein_tower(steps):
    """Q_3(3^(1 / 2^steps)): t1^2 = 3, then t_(i+1)^2 = t_i."""
    field = LocalField.qp(3).extend_eisenstein([-3, 0])
    for i in range(1, steps):
        field = field.extend_eisenstein([-field.gen(i - 1), 0])
    return field


# the towers this module builds, besides PINNED_FIELDS and SEARCH_TOWERS; the
# three Q3 eis towers reach degrees 16 and 32, past every other tower here
TABLE_TOWERS = {
    "Q5 unram": LocalField.qp(5).extend_unramified([-2, 0]),
    "Q5 unram cubic": LocalField.qp(5).extend_unramified([2, -1, 0]),
    "Q3 unram twice": _Q3_UNRAM.extend_unramified([-(_Q3_UNRAM.gen(0) + 1), 0]),
    "Q3 unram eis": _Q3_UNRAM.extend_eisenstein([-3, 0]),
    "Q3(sqrt3)": LocalField.qp(3).extend_eisenstein([-3, 0]),
    "Q2 unram eis": _F4.extend_eisenstein([-2, 0]),
    "Q7(sqrt7)": LocalField.qp(7).extend_eisenstein([-7, 0]),
    "Q7(sqrt14)": LocalField.qp(7).extend_eisenstein([-14, 0]),
    "Q3 eis 16": _q3_eisenstein_tower(4),
    "Q3 eis 32": _q3_eisenstein_tower(5),
    "Q3 eis 8 unram": _q3_eisenstein_tower(3).extend_unramified([1, 0]),
    "Q3 unram sevenths": _Q3_SEVENTHS.extend_unramified([-(_Q3_SEVENTHS.gen(0) + 1) / 7, 0]),
    **PINNED_FIELDS,
    **SEARCH_TOWERS,
}


def _assert_tables_match_oracle(field):
    for k in range(len(field.steps) + 1):
        F = LocalField.make(field.p, field.steps[:k])
        if k:
            assert ((F._table, F._table_den)
                    == structure_constants_by_fractions(F.parent(), F.steps[-1].coeffs))
        assert F._res_table == residue_table_by_fractions(F)


@pytest.mark.parametrize("name", list(TABLE_TOWERS))
def test_structure_constants_match_fraction_oracle(name):
    _assert_tables_match_oracle(TABLE_TOWERS[name])


@st.composite
def small_towers(draw):
    """Towers of degree at most eight over Q_2, Q_3 or Q_5: one step of
    degree two to four, or steps of shapes (2, 2), (2, 4), (4, 2) and
    (2, 2, 2), so that a last step sits over a parent of 2 or 4 monomials,
    each step unramified or Eisenstein, with coefficient denominators prime
    to p."""
    p = draw(st.sampled_from([2, 3, 5]))
    field = LocalField.qp(p)
    for d in draw(st.sampled_from([(2,), (3,), (4,), (2, 2), (2, 4), (4, 2), (2, 2, 2)])):
        n = len(field._monomials)
        dens = st.sampled_from([1, 7, 11])

        def integral():
            nums = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            return field.from_coords([Fraction(a, draw(dens)) for a in nums])

        if draw(st.booleans()):
            coeffs = [integral() for _ in range(d)]
            try:
                field = field.extend_unramified(coeffs)
            except ValueError:     # reducible modulo p
                assume(False)
        else:
            pi = field.uniformizer()
            unit = Fraction(draw(st.sampled_from([a for a in range(1, 13) if a % p])), draw(dens))
            coeffs = [pi * (unit + pi * integral())] + [pi * integral() for _ in range(d - 1)]
            field = field.extend_eisenstein(coeffs)
    return field


@settings(max_examples=30, deadline=None)
@given(field=small_towers())
def test_structure_constants_match_fraction_oracle_on_drawn_towers(field):
    _assert_tables_match_oracle(field)


def _count_calls(monkeypatch, *names):
    """A list that gains one entry per call of the named PadicElement methods."""
    calls = []
    for name in names:
        real = getattr(PadicElement, name)

        def counted(*args, real=real):
            calls.append(real.__name__)
            return real(*args)

        monkeypatch.setattr(PadicElement, name, counted)
    return calls


@pytest.mark.parametrize("field", [DEG8, TABLE_TOWERS["Q3 eis 8 unram"]],
                         ids=["deg8 eisenstein last", "Q3 deg16 unramified last"])
def test_a_field_over_a_built_parent_is_built_with_no_element_product(monkeypatch, field):
    calls = _count_calls(monkeypatch, "__mul__", "__rmul__")
    fresh = LocalField(field.p, field.steps)
    assert calls == []
    assert (fresh._table, fresh._table_den, fresh._res_table) == (
        field._table, field._table_den, field._res_table)


def test_a_reflected_product_goes_through_mul(monkeypatch):
    x = DEG8.gen(0)
    calls = _count_calls(monkeypatch, "__mul__")
    assert 2 * x == x * 2 == x + x
    assert calls == ["__mul__", "__mul__"]


@pytest.mark.parametrize("name", list(TABLE_TOWERS))
def test_pi_powers_are_the_uniformizer_powers(name):
    field = TABLE_TOWERS[name]
    e2 = 2 * field.ramification_index
    pi = field.uniformizer()
    # a fresh field, read from pi^(2e) down: the positive side is filled in
    # one jump, the negative side one power at a time
    fresh = LocalField(field.p, field.steps)
    for k in range(e2, -e2 - 1, -1):
        assert fresh._pi_power(k) == pi ** k, k


def test_a_unit_at_negative_valuation_reads_pi_powers_with_no_inverse(monkeypatch):
    # 1/3 = pi^-2 in Q_3(sqrt3): its class vector reads pi^2 alone
    field = LocalField(3, TABLE_TOWERS["Q3(sqrt3)"].steps)
    x = field.rational(Fraction(1, 3))
    assert x.valuation() == -2
    calls = _count_calls(monkeypatch, "inverse")
    assert _class_vector.__wrapped__(field, x.nums, x.den) == 0
    assert calls == []
    assert [len(side) for side in field._pi_powers] == [3, 1]


# -- square class generators at odd p with even residue degree -----------------------


@pytest.mark.parametrize("p, quadratic, quartic", [
    (3, [-2, 0], [1, 0, 1, 1]),
    (5, [-2, 0], [1, 0, 1, 1]),
    (7, [-3, 0], [1, 0, 0, 1]),
])
def test_square_class_generators_match_the_full_pool(p, quadratic, quartic):
    q = LocalField.qp(p)
    unram = q.extend_unramified(quadratic)
    # a second unramified quadratic step, t2^2 = t1 + c with t1 + c a nonsquare
    t1 = unram.gen(0)
    c = next(c for c in range(1, p) if not is_square(t1 + c))
    two_steps = unram.extend_unramified([-(t1 + c), 0])
    for field in (unram, q.extend_unramified(quartic), unram.extend_eisenstein([-p, 0]),
                  two_steps):
        assert field.residue_degree % 2 == 0
        assert square_class_group(field) == square_class_group_by_full_pool(field)


# -- squareness after base change ---------------------------------------------------


def _unramified_quadratic_over(K):
    """K extended by the first x^2 + c1 x + c0, with c0 and c1 lifted
    residues, whose reduction is irreducible over K's residue field."""
    lifts = [K._lift_residue(r) for r in product(range(K.p), repeat=K.residue_degree)]
    for c0 in lifts[1:]:
        for c1 in lifts:
            try:
                return K.extend_unramified([c0, c1])
            except ValueError:     # reducible modulo p
                continue
    raise AssertionError("no irreducible quadratic")


def _base_changes():
    """(name, K, L) for the bases Q_p, Q_p(sqrt p) and the unramified
    quadratic of Q_p, p in {2, 3, 5}, and the towers L over K: K itself,
    an unramified quadratic, x^k - pi_K for k = 2, 3, 4, and an unramified
    quadratic followed by x^2 - pi_K."""
    out = []
    for p in (2, 3, 5):
        qp = LocalField.qp(p)
        bases = {"Qp": qp, "ram": qp.extend_eisenstein([-p, 0]),
                 "unram": _unramified_quadratic_over(qp)}
        for base, K in bases.items():
            pi = K.uniformizer()
            unram = _unramified_quadratic_over(K)
            towers = {"same": K, "unram-2": unram,
                      **{f"eis-{k}": K.extend_eisenstein([-pi] + [0] * (k - 1))
                         for k in (2, 3, 4)},
                      "mixed-4": unram.extend_eisenstein([-embed(pi, unram), 0])}
            out += [(f"Q{p} {base} {tower}", K, L) for tower, L in towers.items()]
    return out


BASE_CHANGES = _base_changes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_becomes_square_agrees_with_squareness_of_the_image(data):
    _, K, L = data.draw(st.sampled_from(BASE_CHANGES))
    # a random element times a random product of basis elements, so that
    # every basis bit is set about half the time
    x = _elements(data, K, 1)[0]
    assume(not x.is_zero())
    for b in square_class_group(K):
        if data.draw(st.booleans()):
            x = x * b
    assert becomes_square(x, L) == is_square(embed(x, L))


def test_a_fresh_restriction_adds_one_class_vector_per_element():
    """A basis image over L is kept in the (K, L) list of `becomes_square`
    alone: a fresh (K, L) adds one `_class_vector` entry per distinct x, its
    class over K, and none per set bit of x's mask."""
    K = LocalField.qp(2).extend_eisenstein([-2, 0])
    L = K.extend_eisenstein([-K.gen(0), 0])
    basis = square_class_group(K)
    everything = basis[0] * basis[1] * basis[2] * basis[3]
    assert square_class(K, everything) == (1, 1, 1, 1)
    _class_vector.cache_clear()
    _restriction_images.cache_clear()
    for x, added in ((everything, 1), (basis[1] * basis[3], 1), (everything, 0)):
        before = _class_vector.cache_info().currsize
        becomes_square(x, L)
        assert _class_vector.cache_info().currsize == before + added


def test_becomes_square_of_zero_is_true():
    for _, K, L in BASE_CHANGES:
        assert becomes_square(K.zero(), L)


def test_becomes_square_refuses_a_field_that_is_not_a_tower_on_x_s_field():
    q3 = LocalField.qp(3)
    K = q3.extend_eisenstein([-3, 0])
    others = (q3, LocalField.qp(5), q3.extend_unramified([1, 0]),
              q3.extend_eisenstein([-6, 0]))
    # a square and zero have mask 0 and embed nothing, and are checked first
    for x in (K.integer(4), K.gen(0) ** 2, K.zero()):
        for L in others:
            with pytest.raises(ValueError):
                becomes_square(x, L)


# -- rational factors against the whole-table product -------------------------------

# unramified, Eisenstein and mixed towers over Q_2 and Q_3
SCALAR_TOWERS = {
    "Q2 unram": _F4,
    "Q2 eis": _Q2_SQRT2,
    "Q2 mixed": DEG8,
    "Q3 unram": _Q3_UNRAM,
    "Q3 eis": TABLE_TOWERS["Q3(sqrt3)"],
    "Q3 mixed": TABLE_TOWERS["Q3 unram eis"],
}


def _same(x, y):
    return x.field == y.field and (x.nums, x.den) == (y.nums, y.den)


@pytest.mark.parametrize("field", SCALAR_TOWERS.values(), ids=SCALAR_TOWERS)
@examples
@given(data=st.data(),
       q=st.integers(-10 ** 12, 10 ** 12) | st.fractions(max_denominator=10 ** 6))
def test_a_rational_factor_gives_the_whole_table_product(field, data, q):
    # a rational factor only scales numerators, on either side and whether
    # it comes as an int, a Fraction or an element
    [x] = _elements(data, field, 1)
    r = field.rational(q)
    want = product_by_table(x, r)
    for got in (x * q, q * x, x * r, r * x):
        assert _same(got, want)
    assert _same(r * r, product_by_table(r, r))
    if q:
        assert _same(r.inverse(), inverse_by_elimination(r))
        assert _same(x / q, product_by_table(x, inverse_by_elimination(r)))


def test_a_number_over_an_element_is_the_number_times_its_inverse():
    for field in SCALAR_TOWERS.values():
        x = field.one() + field.gen(0)
        assert _same(2 / x, product_by_table(field.integer(2), inverse_by_elimination(x)))


def test_the_uniformizer_of_an_unramified_field_inverts_to_one_over_p():
    for field in SCALAR_TOWERS.values():
        if field.ramification_index == 1:
            pi = field.uniformizer()
            assert _same(pi.inverse(), field.rational(Fraction(1, field.p)))
            assert _same(pi.inverse(), inverse_by_elimination(pi))
