import random

import pytest

from cubicext.errors import DivisionByZero, NotPrime, SizeExceeded
from cubicext.ffield import (
    Cube,
    NonCube,
    NonSquare,
    Square,
    _artin_schreier_particular,
    _pmod,
    _pmul,
    _ppowmod,
    _solve_quadratic,
    cube_classify,
    field_make,
    least_irreducible,
    square_classify,
    trace_to_prime,
)
from cubicext.polyring import Poly, is_irreducible

FIELDS = [field_make(2), field_make(3), field_make(5), field_make(7),
          field_make(2, 2), field_make(2, 3), field_make(3, 2),
          field_make(5, 2), field_make(2, 4), field_make(3, 3)]


def test_field_make_caches():
    assert field_make(5) is field_make(5)
    assert field_make(2, 3) is field_make(2, 3)
    assert field_make(5) is not field_make(5, 2)


def test_field_make_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        field_make(6)
    with pytest.raises(NotPrime):
        field_make(1)


def test_field_make_rejects_huge_orders():
    with pytest.raises(SizeExceeded):
        field_make(2, 21)


def test_least_irreducible_is_stable():
    # the generating polynomial of GF(p^m) must never change between runs
    assert least_irreducible(2, 2) == (1, 1, 1)
    assert least_irreducible(2, 3) == (1, 1, 0, 1)
    assert least_irreducible(3, 2) == (1, 0, 1)
    assert least_irreducible(5, 2) == (2, 0, 1)


def test_least_irreducible_needs_monic_gcd_divisors():
    # the gcd in the irreducibility test must divide by monic remainders
    assert least_irreducible(3, 6) == (2, 1, 0, 0, 0, 0, 1)
    assert is_irreducible(Poly.of_ints(field_make(3), list(least_irreducible(3, 12))))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_element_enumeration_matches_order(F):
    elems = list(F.elements())
    assert len(elems) == F.order
    assert len(set(elems)) == F.order
    assert elems[0] == F.zero
    # counter order: value() is the position
    for i, e in enumerate(elems):
        assert e.value == i
        assert F.from_value(i) == e


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_field_axioms_sampled(F):
    rng = random.Random(20260304)
    pool = list(F.elements())
    for _ in range(60):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + F.zero == a
        assert a * F.one == a
        assert a - a == F.zero


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_inverse_and_pow(F):
    for a in F.elements():
        if a.is_zero():
            with pytest.raises(DivisionByZero):
                a.inverse()
            continue
        assert a * a.inverse() == F.one
        assert a ** (F.order - 1) == F.one
        assert a ** 0 == F.one


def test_int_coercion_mod_p():
    F = field_make(7)
    assert F.from_int(10) == F.from_int(3)
    a = F.from_int(4)
    assert 2 * a == a + a
    assert a - 5 == a + 2
    assert 1 / a == a.inverse()


def test_render_ascending():
    F = field_make(3, 2)
    t = F.gen()
    assert (F.one + t * t).render() == "0"  # modulus is t^2 + 1
    assert F.zero.render() == "0"
    assert (F.from_int(2) + t).render() == "2+t"
    F8 = field_make(2, 3)
    u = F8.gen()
    assert (F8.one + u * u).render() == "1+t^2"


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_square_classify_against_enumeration(F):
    squares = {e * e for e in F.elements()}
    for a in F.elements():
        got = square_classify(a)
        if a in squares:
            assert isinstance(got, Square)
            assert len(got.roots) >= 1
            for r in got.roots:
                assert r * r == a
            # ascending and exact
            brute = sorted(e for e in F.elements() if e * e == a)
            assert list(got.roots) == brute
        else:
            assert isinstance(got, NonSquare)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_cube_classify_against_enumeration(F):
    cubes = {e ** 3 for e in F.elements()}
    for a in F.elements():
        got = cube_classify(a)
        brute = sorted(e for e in F.elements() if e ** 3 == a)
        if a in cubes:
            assert isinstance(got, Cube)
            assert list(got.roots) == brute
        else:
            assert isinstance(got, NonCube)
            assert brute == []


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_solve_quadratic_exhaustive(F):
    """X^2 + bX + c: roots from the solver equal roots by scanning."""
    for b in F.elements():
        for c in F.elements():
            brute = sorted(x for x in F.elements() if x * x + b * x + c == F.zero)
            assert list(_solve_quadratic(F, b, c)) == brute


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_trace_to_prime_is_additive_and_onto(F):
    P = field_make(F.p)
    seen = set()
    for a in F.elements():
        ta = trace_to_prime(a)
        assert ta.field is P
        seen.add(ta)
    assert len(seen) == F.p  # trace is onto the prime field
    rng = random.Random(7)
    pool = list(F.elements())
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        assert trace_to_prime(a + b) == trace_to_prime(a) + trace_to_prime(b)
    # Frobenius invariance
    for a in pool:
        assert trace_to_prime(a ** F.p) == trace_to_prime(a)


@pytest.mark.parametrize("F", [field_make(2), field_make(2, 2), field_make(2, 3),
                               field_make(2, 4)], ids=repr)
def test_artin_schreier_particular(F):
    P2 = field_make(2)
    for u in F.elements():
        if trace_to_prime(u) != P2.zero:
            continue
        w = _artin_schreier_particular(F, u)
        assert w * w + w == u


def _digit_list(F, v):
    return [v // F.p ** i % F.p for i in range(F.m)]


def _from_digits(F, digits):
    return sum(d * F.p ** i for i, d in enumerate(digits))


@pytest.mark.parametrize("F", FIELDS + [field_make(3, 4), field_make(5, 3), field_make(2, 8),
                               field_make(13, 2), field_make(2, 16)], ids=repr)
def test_kernel_matches_schoolbook_arithmetic(F):
    """Counter-value arithmetic against _pmul/_pmod on digit lists modulo
    F.modulus: every pair on fields up to 125 elements, 2000 seeded pairs
    above that; the unary operations on the elements of the first 250 pairs."""
    p, mod, q = F.p, list(F.modulus), F.order
    if q <= 125:
        pairs = [(a, b) for a in F.elements() for b in F.elements()]
    else:
        rng = random.Random(20261018)
        pairs = [(F.from_value(rng.randrange(q)), F.from_value(rng.randrange(q)))
                 for _ in range(2000)]
    exponents = (-q, -3, -1, 0, 1, 2, 3, q - 1, q + 5, 3 * q * q + 7)

    def mul(x, y):
        return _from_digits(F, _pmod(_pmul(x, y, p), mod, p))

    for a, b in pairs:
        x, y = _digit_list(F, a.value), _digit_list(F, b.value)
        assert (a * b).value == mul(x, y)
        assert (a + b).value == _from_digits(F, [(u + w) % p for u, w in zip(x, y)])
        assert (a - b).value == _from_digits(F, [(u - w) % p for u, w in zip(x, y)])
    for a in {e for pair in pairs[:250] for e in pair}:
        x = _digit_list(F, a.value)
        assert a.coeffs == tuple(x)
        assert F.from_value(a.value) == a
        assert F.elem(x).value == a.value
        assert (-a).value == _from_digits(F, [-u % p for u in x])
        if a.is_zero():
            with pytest.raises(DivisionByZero):
                a ** -1
            continue
        assert mul(x, _digit_list(F, a.inverse().value)) == 1
        for e in exponents:
            assert (a ** e).value == _from_digits(F, _ppowmod(x, e % (q - 1), mod, p))


@pytest.mark.parametrize("p, m", [(7, 3), (5, 4), (3, 7), (101, 2)])
def test_tables_match_a_schoolbook_build(p, m):
    """exp, log and zech against powers of the least generator taken with
    _pmul/_pmod on digit lists."""
    F = field_make(p, m)
    mod, q = list(F.modulus), F.order

    def powers(g):
        out, x = [], [1]
        while True:
            out.append(_from_digits(F, x))
            x = _pmod(_pmul(x, g, p), mod, p)
            if x == [1]:
                return out

    expected = next(ps for ps in (powers(_digit_list(F, v)) for v in range(2, q))
                    if len(ps) == q - 1)
    assert list(F.exp) == expected + expected
    assert [F.log[v] for v in expected] == list(range(q - 1))
    log = {v: k for k, v in enumerate(expected)}
    for k, v in enumerate(expected):
        x = _digit_list(F, v)
        x[0] = (x[0] + 1) % p
        w = _from_digits(F, x)
        assert F.zech[k] == (log[w] if w else -1)


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (7, 1), (13, 1), (31, 1), (101, 1), (3, 2),
                                  (5, 3), (7, 2), (11, 2), (2, 4), (2, 6), (3, 4)], ids=str)
def test_cached_non_residue_and_non_cube_match_a_scan(p, m):
    F = field_make(p, m)
    if p != 2:
        squares = {x * x for x in F.elements()}
        assert F.nonsquare == next(z.value for z in F.elements() if z not in squares)
    if F.order % 3 == 1:
        cubes = {x ** 3 for x in F.elements()}
        assert F.noncube == next(z.value for z in F.elements() if z not in cubes)
    else:
        with pytest.raises(AttributeError):
            F.noncube


@pytest.mark.parametrize("m", [6, 8, 10, 12])
def test_artin_schreier_section_solves_every_trace_zero_element(m):
    F = field_make(2, m)
    for u in F.elements():
        roots = _solve_quadratic(F, F.one, u)  # X^2 + X = u
        if trace_to_prime(u).is_zero():
            y = _artin_schreier_particular(F, u)
            assert y * y + y == u
            assert roots == tuple(sorted((y, y + 1)))
        else:
            assert roots == ()
