"""Exact arithmetic in finite fields GF(p^m).

Representation invariants:

  * A field is identified by the pair (p, m); ``field_make`` caches one
    ``Field`` object per pair, so fields compare by identity.
  * For m > 1 the field is GF(p)[t] modulo a fixed irreducible polynomial:
    the first monic irreducible of degree m in counter order (candidates are
    enumerated by writing 0, 1, 2, ... in base p, least-significant digit as
    the constant term).  This makes every derived value reproducible.
  * An element is stored as one int, its counter value sum(c_i * p^i) over
    its coefficients c_i in t, low degree first; ``coeffs`` reads the digits
    back.  Elements are totally ordered by that value; every "least root" /
    "least witness" promise in this package refers to that order.
  * GF(p) computes with % p and pow(v, e, p).  For m > 1 each field builds,
    on first use and never at import, array tables exp[k] = g^k (two
    periods) and log, for the least generator g in counter order: multiply,
    inverse and power are lookups.  Addition is XOR in characteristic 2; for
    odd p it goes through Zech logarithms, zech[k] = log(1 + g^k)
    (K. Huber, IEEE Trans. IT 36, 1990), since 1 + v in counter form only
    bumps the lowest digit of v.
  * Table memory is 12(q-1) + 4 bytes, plus 4(q-1) for zech when p is odd:
    0.75 MiB at q = 2^16, 12 MiB at the MAX_ORDER cap q = 2^20 (16 MiB for
    odd p just below it).  On a 2-core x86-64 host under CPython 3.11 the
    tables of GF(2^16) build in 11-19 ms and those of GF(2^20) in 0.25 s;
    odd p adds digit by digit while building, so GF(7^7) and GF(1021^2)
    take 2.1-2.3 s, paid once per process.

Square roots use Tonelli-Shanks, cube roots Adleman-Manders-Miller
(``_cube_roots``, generic over the group, so ffcubic runs it on the norm-1
torus too).  The quadratic solver lives here (rather than with the polynomial
machinery) because the square/cube classifiers below need it; polyring
re-exports it.
"""
from __future__ import annotations

import functools
import operator
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import DivisionByZero, FieldMismatch, NotPrime, SizeExceeded

MAX_ORDER = 1 << 20  # guard for field constructions that would never finish


# ---------------------------------------------------------------------------
# primes and GF(p)[t] on plain int lists (low degree first)
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _ptrim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], mod: Sequence[int], p: int) -> list:
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _ptrim(a)


def _ppowmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list:
    result = [1]
    base = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list:
    """Monic gcd of a monic a and b; each divisor is made monic first, since
    _pmod assumes a monic divisor."""
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p)
        b = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, b, p)
    return a


def _pirreducible(f: Sequence[int], p: int) -> bool:
    """Monic f of degree >= 1 irreducible over GF(p)?"""
    d = len(f) - 1
    if d == 1:
        return True
    x = [0, 1]
    # x^(p^d) == x mod f, and gcd(x^(p^(d/l)) - x, f) == 1 for primes l | d
    h = list(x)
    powers = {}
    for i in range(1, d + 1):
        h = _ppowmod(h, p, f, p)
        powers[i] = list(h)
    top = list(powers[d])
    if _ptrim([(a - b) % p for a, b in _zipl(top, x)]):
        return False
    for ell in _prime_divisors(d):
        g = powers[d // ell]
        diff = _ptrim([(a - b) % p for a, b in _zipl(g, x)])
        if len(_pgcd(f, diff, p)) != 1:
            return False
    return True


def _zipl(a: Sequence[int], b: Sequence[int]):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return zip(a, b)


def _prime_divisors(n: int) -> list:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def least_irreducible(p: int, d: int) -> tuple:
    """First monic irreducible of degree d over GF(p), counter order.

    Returned as a coefficient tuple of length d+1, low degree first.
    The counter writes i = 0, 1, 2, ... in base p with the constant
    coefficient as the least significant digit.
    """
    for i in range(p ** d):
        cand = _digits(i, p, d) + [1]
        if _pirreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible found")  # pragma: no cover


def _digits(v: int, p: int, m: int) -> list:
    """The m base-p digits of the counter value v, low first."""
    return [v // p ** i % p for i in range(m)]


def _counter(digits: Sequence[int], p: int) -> int:
    """Counter value sum(d_i p^i) of a digit list, low first."""
    return sum(d * p ** i for i, d in enumerate(digits))


def _span(cols: list, p: int, add) -> list:
    """[sum_j d_j cols[j]] for every digit vector d, listed in counter order."""
    out = [0]
    for col in cols:
        block, c = list(out), col
        for _ in range(p - 1):
            out.extend(add(b, c) for b in block)
            c = add(c, col)
    return out


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class Field:
    """The finite field GF(p^m).  Obtain instances through field_make.

    Besides the element constructors it holds the arithmetic on counter
    values (the _add ... _pow methods), which FieldElem wraps.
    """

    __slots__ = ("p", "m", "order", "modulus", "zero", "one", "exp", "log", "zech")

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = least_irreducible(p, m) if m > 1 else (0, 1)
        self.zero = FieldElem(self, 0)
        self.one = FieldElem(self, 1)

    def __getattr__(self, name):
        # only reached while a table slot is still unset
        if name in ("exp", "log", "zech") and self.m > 1:
            self._build_tables()
            return getattr(self, name)
        raise AttributeError(name)

    def _build_tables(self):
        """exp[k] = g^k for 0 <= k < 2(q-1), log[g^k] = k, and for odd p
        zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0; g is the least
        generator.  Multiplying by g is GF(p)-linear, so g*x is the sum of
        two lookups, on the low m//2 digits of x and on the rest."""
        p, m, q = self.p, self.m, self.order
        n = q - 1
        mod = list(self.modulus)
        gd = next(d for d in (_digits(g, p, m) for g in range(p, q))
                  if all(_ppowmod(d, n // ell, mod, p) != [1] for ell in _prime_divisors(n)))
        cols = [_counter(_pmod(_pmul(gd, [0] * j + [1], p), mod, p), p) for j in range(m)]
        places = [p ** i for i in range(m)]
        add = operator.xor if p == 2 else (
            lambda u, w: sum((u // P + w // P) % p * P for P in places))
        h = m // 2
        ph = p ** h
        lo, hi = _span(cols[:h], p, add), _span(cols[h:], p, add)
        exp = array("i", [0]) * (2 * n)
        log = array("i", [0]) * q
        x = 1
        for k in range(n):
            exp[k] = x
            log[x] = k
            x = add(hi[x // ph], lo[x % ph])
        if x != 1:  # g is a unit of order q - 1 only if the modulus is irreducible
            raise AssertionError(f"{self!r}: the modulus {self.modulus} is reducible")
        memoryview(exp)[n:] = memoryview(exp)[:n]
        self.exp, self.log, self.zech = exp, log, None
        if p != 2:
            # 1 + v in counter form bumps the lowest digit of v
            zech = array("i", [0]) * n
            for k in range(n):
                v = exp[k]
                w = v + 1 if v % p != p - 1 else v + 1 - p
                zech[k] = log[w] if w else -1
            self.zech = zech

    # -- arithmetic on counter values ----------------------------------------

    def _add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % p
        if not a or not b:
            return a or b
        la = self.log[a]
        z = self.zech[self.log[b] - la]  # a negative index wraps mod q - 1
        return self.exp[la + z] if z >= 0 else 0

    def _neg(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        if self.m == 1:
            return self.p - a
        return self.exp[self.log[a] + (self.order - 1) // 2]  # -1 = g^((q-1)/2)

    def _sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a - b) % self.p
        return self._add(a, self._neg(b))

    def _mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def _div(self, a: int, b: int) -> int:
        return self._mul(a, self._pow(b, -1))

    def _pow(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise DivisionByZero("inverse of 0")
            return 0 if e else 1
        if self.m == 1:
            return pow(a, e, self.p)
        return self.exp[self.log[a] * e % (self.order - 1)]

    # -- constructors ------------------------------------------------------

    def elem(self, coeffs: Sequence[int]) -> "FieldElem":
        c = [int(v) % self.p for v in coeffs]
        if len(c) > self.m:
            c = _pmod(c, list(self.modulus), self.p)
        return FieldElem(self, _counter(c, self.p))

    def from_int(self, n: int) -> "FieldElem":
        return FieldElem(self, n % self.p)

    def from_value(self, v: int) -> "FieldElem":
        """Inverse of FieldElem.value (taken modulo the order)."""
        return FieldElem(self, v % self.order)

    def gen(self) -> "FieldElem":
        if self.m == 1:
            return self.one
        return FieldElem(self, self.p)

    # -- enumeration ---------------------------------------------------------

    def elements(self) -> Iterator["FieldElem"]:
        """All p^m elements, ascending counter value."""
        for v in range(self.order):
            yield FieldElem(self, v)

    def __repr__(self):
        return f"GF({self.p})" if self.m == 1 else f"GF({self.p}^{self.m})"

    def __reduce__(self):  # keep identity semantics across pickling
        return (field_make, (self.p, self.m))


def _binary(kernel, swap: bool = False, wrap: bool = True):
    """A FieldElem operator: kernel(field, a, b) on counter values a of self
    and b of other (swapped if swap), where other is an element of the same
    field or an int; the result is wrapped as an element if wrap."""
    def op(self, other):
        F = self.field
        if isinstance(other, FieldElem):
            if other.field is not F:
                raise FieldMismatch(f"{F} vs {other.field}")
            b = other.value
        elif isinstance(other, int):
            b = other % F.p
        else:
            return NotImplemented
        r = kernel(F, b, self.value) if swap else kernel(F, self.value, b)
        return FieldElem(F, r) if wrap else r
    return op


class FieldElem:
    """An element of a Field; immutable, operator-overloaded.

    ``value`` is the counter value sum(c_i p^i) of the coefficients c_i in t,
    the package-wide total order.  Integers mix freely on either side of
    +,-,*,/ and == (they coerce through Field.from_int), which keeps formulas
    with small literals readable.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: int):
        self.field = field
        self.value = value

    @property
    def coeffs(self) -> tuple:
        """The m coefficients in t, low degree first (the digits of value)."""
        return tuple(_digits(self.value, self.field.p, self.field.m))

    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self):
        return bool(self.value)

    # -- ring operations ------------------------------------------------------

    __add__ = __radd__ = _binary(Field._add)
    __sub__ = _binary(Field._sub)
    __rsub__ = _binary(Field._sub, swap=True)
    __mul__ = __rmul__ = _binary(Field._mul)
    __truediv__ = _binary(Field._div)
    __rtruediv__ = _binary(Field._div, swap=True)

    def __neg__(self):
        return FieldElem(self.field, self.field._neg(self.value))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.field, self.field._pow(self.value, -1))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        return FieldElem(self.field, self.field._pow(self.value, e))

    # -- comparisons ------------------------------------------------------------

    __eq__ = _binary(lambda F, a, b: a == b, wrap=False)
    __lt__ = _binary(lambda F, a, b: a < b, wrap=False)
    __le__ = _binary(lambda F, a, b: a <= b, wrap=False)

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.value))

    # -- rendering ----------------------------------------------------------------

    def render(self, var: str = "t") -> str:
        """Ascending-power text like '2+t^2'; parses back with the CLI grammar."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                pw = var if i == 1 else f"{var}^{i}"
                terms.append(pw if c == 1 else f"{c}*{pw}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return self.render()


def field_make(p: int, m: int = 1) -> Field:
    """The finite field GF(p^m), cached so fields compare by identity."""
    return _field_cached(p, m)


@functools.lru_cache(maxsize=None)
def _field_cached(p: int, m: int) -> Field:
    if m < 1:
        raise NotPrime(f"extension degree must be >= 1, got {m}")
    # the size first: trial division of a huge p, or p^m for a huge m, would
    # not finish; p >= 2 and m > log2(MAX_ORDER) already exceed the cap
    if p >= 2 and (m >= MAX_ORDER.bit_length() or p ** m > MAX_ORDER):
        raise SizeExceeded(f"field order {p}^{m} exceeds {MAX_ORDER}")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return Field(p, m)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def trace_to_prime(x: FieldElem) -> FieldElem:
    """Trace of GF(p^m) over GF(p), returned as an element of GF(p)."""
    F = x.field
    acc = x
    term = x
    for _ in range(F.m - 1):
        term = term ** F.p
        acc = acc + term
    assert acc.value < F.p, "trace landed outside the prime field"
    return field_make(F.p, 1).from_int(acc.value)


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Square:
    roots: tuple  # all square roots, ascending


@dataclass(frozen=True)
class NonSquare:
    pass


def square_classify(x: FieldElem):
    """Square(roots)/NonSquare for x in GF(p^m); roots listed ascending."""
    F = x.field
    if x.is_zero():
        return Square((F.zero,))
    if F.p == 2:
        # squaring is a bijection; the inverse is the (m-1)-fold square
        r = x ** (2 ** (F.m - 1))
        return Square((r,))
    if x ** ((F.order - 1) // 2) != F.one:
        return NonSquare()
    r = _sqrt_odd(F, x)
    return Square(tuple(sorted((r, -r))))


def _sqrt_odd(F: Field, a: FieldElem) -> FieldElem:
    """Tonelli-Shanks with the least non-residue as auxiliary; a is a square."""
    u = F.order - 1
    e = 0
    while u % 2 == 0:
        u //= 2
        e += 1
    if e == 1:
        return a ** ((u + 1) // 2)
    n = None
    half = (F.order - 1) // 2
    for z in F.elements():
        if z.is_zero():
            continue
        if z ** half != F.one:
            n = z
            break
    z = n ** u
    x = a ** ((u + 1) // 2)
    b = a ** u
    r = e
    while b != F.one:
        k = 0
        t = b
        while t != F.one:
            t = t * t
            k += 1
        w = z ** (2 ** (r - k - 1))
        z = w * w
        b = b * z
        x = x * w
        r = k
    return x


# ---------------------------------------------------------------------------
# cubes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cube:
    roots: tuple  # all cube roots, ascending


@dataclass(frozen=True)
class NonCube:
    pass


def cube_classify(x: FieldElem):
    """Cube(roots)/NonCube for x in GF(p^m) = GF(s).

    s = 0, 2 mod 3: cubing is a bijection, one root.
    s = 1 mod 3: cube character first; if trivial, all three roots by
    _cube_roots in GF(s)*, with the least non-cube in counter order.
    """
    F = x.field
    if x.is_zero():
        return Cube((F.zero,))
    s = F.order
    if F.p == 3:
        return Cube((x ** (3 ** (F.m - 1)),))
    if s % 3 == 2:
        return Cube((x ** pow(3, -1, s - 1),))
    third = (s - 1) // 3
    if x ** third != F.one:
        return NonCube()
    z = next(z for z in F.elements() if z and z ** third != F.one)
    return Cube(tuple(sorted(_cube_roots(x, z, s - 1, operator.mul, operator.pow, F.one))))


def _cube_roots(w, z, n: int, mul, pw, one) -> tuple:
    """The three cube roots of a cube w in a cyclic group of order n, 3 | n.

    Adleman-Manders-Miller for r = 3 (FOCS 1977), generic over the group:
    mul(x, y) multiplies, pw(x, e) raises to an exponent e >= 0, one is the
    identity and z is a known non-cube.  Write n = 3^t u with 3 not dividing
    u.  c = w^k with 3k = 1 mod u leaves c^3/w in the 3-Sylow subgroup,
    which g = z^u generates; its discrete log j to base g is read off in
    base-3 digits, one per step, and is divisible by 3 since w is a cube, so
    c g^(-j/3) is a cube root.  zeta = g^(3^(t-1)) has order 3 and gives the
    other two.
    """
    t, u = 0, n
    while u % 3 == 0:
        t, u = t + 1, u // 3
    order = 3 ** t  # of g
    g = pw(z, u)
    zeta = pw(g, order // 3)
    c = pw(w, pow(3, -1, u))
    e = mul(pw(c, 3), pw(w, n - 1))
    j = 0
    for i in range(1, t):  # digit 0 of j is 0
        d = pw(mul(e, pw(g, order - j)), order // 3 ** (i + 1))
        if d != one:
            j += 3 ** i * (1 if d == zeta else 2)
    c = mul(c, pw(g, order - j // 3))
    return (c, mul(c, zeta), mul(c, mul(zeta, zeta)))


# ---------------------------------------------------------------------------
# monic quadratics (shared with polyring.quadratic_roots)
# ---------------------------------------------------------------------------

def _solve_quadratic(F: Field, b: FieldElem, c: FieldElem) -> tuple:
    """Roots of X^2 + bX + c over F, ascending; () if none, one entry if double.

    Odd characteristic goes through the discriminant; characteristic 2 uses
    the absolute trace, with the half trace for odd m and a GF(2) linear
    solve for even m.
    """
    b = F.from_int(b) if isinstance(b, int) else b
    c = F.from_int(c) if isinstance(c, int) else c
    if F.p != 2:
        disc = b * b - 4 * c
        cls = square_classify(disc)
        if isinstance(cls, NonSquare):
            return ()
        if disc.is_zero():
            return (-b / 2,)
        r = cls.roots[1]
        return tuple(sorted(((-b + r) / 2, (-b - r) / 2)))
    # characteristic 2
    if b.is_zero():
        return (square_classify(c).roots[0],)  # (X + sqrt(c))^2
    u = c / (b * b)
    if trace_to_prime(u):
        return ()
    y0 = _artin_schreier_particular(F, u)
    return tuple(sorted((b * y0, b * y0 + b)))


def _artin_schreier_particular(F: Field, u: FieldElem) -> FieldElem:
    """Some y with y^2 + y = u over GF(2^m); requires Tr(u) = 0."""
    if F.m % 2 == 1:
        ht = F.zero
        term = u
        for i in range((F.m + 1) // 2):
            ht = ht + term
            term = (term * term) ** 2  # u^(2^(2(i+1)))
        assert ht * ht + ht == u
        return ht
    # even m: a GF(2)-linear solve of y^2 + y = u
    y = _solve_additive(F, lambda y: y * y + y, u)
    assert y is not None, "trace-zero element must be reachable"
    assert y * y + y == u
    return y


def _solve_additive(F: Field, L, u: FieldElem) -> Optional[FieldElem]:
    """Some y with L(y) = u for a GF(p)-linear map L on F, or None.

    L is applied to the basis 1, t, ..., t^(m-1) and the system is solved
    on coefficients by solve_modp.
    """
    cols = [L(F.from_value(F.p ** j)).coeffs for j in range(F.m)]
    matrix = [[col[i] for col in cols] for i in range(F.m)]
    sol = solve_modp(matrix, list(u.coeffs), F.p)
    return None if sol is None else F.elem(sol)


# ---------------------------------------------------------------------------
# small exact linear algebra mod p (shared with the residue-field machinery)
# ---------------------------------------------------------------------------

def solve_modp(matrix: list, rhs: list, p: int) -> Optional[list]:
    """One solution of matrix * x = rhs over GF(p), or None.  Gaussian elimination."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    aug = [[v % p for v in row] + [rhs[i] % p] for i, row in enumerate(matrix)]
    pivots = []
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, n) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][col], -1, p)
        aug[r] = [(v * inv) % p for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if aug[i][m]:
            return None
    x = [0] * m
    for i, col in enumerate(pivots):
        x[col] = aug[i][m]
    return x


def invert_modp(matrix: list, p: int) -> list:
    """Inverse of a square matrix over GF(p); raises on singular input."""
    n = len(matrix)
    aug = [[v % p for v in row] + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix mod p")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(v * inv) % p for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
