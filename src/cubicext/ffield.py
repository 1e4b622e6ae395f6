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
    odd p just below it).  For odd p the build adds digit vectors packed
    into one int, a few int operations per step; its lookup lists, indexed
    by packed half-vectors, hold at most 74,899 entries (GF(3^12)) and are
    dropped after the build.  On a 2-core x86-64 host under CPython 3.11
    the tables of GF(2^16) build in 11-19 ms, those of GF(2^20) in
    0.4 s, GF(3^12) in 0.5 s and GF(7^7) and GF(1021^2) in 0.6-1.0 s, paid
    once per process.
  * The other per-field constants are built on first use as well and never
    depend on an input: the least non-square (``nonsquare``, odd p) for
    Tonelli-Shanks, the least non-cube (``noncube``, q = 1 mod 3) for
    Adleman-Manders-Miller, and for q = 2^m with m even the echelon rows of
    y -> y^2 + y (``as_section``), so y^2 + y = u is solved in at most
    m - 1 XORs.  One int each for the first two, m - 1 triples of ints
    (under 3 KiB at m = 20) for the last.

Square roots use Tonelli-Shanks, cube roots Adleman-Manders-Miller
(``_cube_roots``, generic over the group, so ffcubic runs it on the norm-1
torus too).  The classifiers and solvers compute on counter values
(``_sqrt_values``, ``_cbrt_values``, ``_quad_values``,
``_artin_schreier_value``, ``_solve_additive``), which ffcubic calls
directly; ``square_classify``, ``cube_classify`` and ``_solve_quadratic``
wrap them for FieldElem callers.  The quadratic solver lives here (rather
than with the polynomial machinery) because the square/cube classifiers
below need it; polyring re-exports it.

The package's one list kernel (_Kernel, _trim ... _horner), irreducibility
test and scan of monic irreducibles live here, at the bottom of the import
graph; _ptrim, _pmul, _pmod and _ppowmod stay, uncalled, as the tests' oracle.
"""
from __future__ import annotations

import functools
import operator
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import DivisionByZero, DomainMismatch, FieldMismatch, NotPrime, SizeExceeded

MAX_ORDER = 1 << 20  # guard for field constructions that would never finish


# ---------------------------------------------------------------------------
# the polynomial kernel: coefficient lists, low degree first, trimmed
# ---------------------------------------------------------------------------

class _Kernel:
    """The coefficient arithmetic of one domain, as the list kernel runs it.

    Over a Field the list entries are counter values and add/sub/mul/inv are
    the field's own methods on them; over GF(p) (p set, else 0) the loops of
    _mul, _divmod and _horner reduce % p inline instead.  Over any other
    domain the entries are the elements and the operations their operators.
    load unwraps a Poly and value/elem unwrap and wrap one element (value
    refuses another field's element); of_int gives the entry of an integer,
    over GF(q)(x) from the constants kept in ints by n mod p.
    """

    __slots__ = ("dom", "field", "p", "zero", "one", "add", "sub", "mul", "inv", "ints")

    def __init__(self, dom):
        self.dom = dom
        if isinstance(dom, Field):
            self.field, self.p = dom, (dom.p if dom.m == 1 else 0)
            self.zero, self.one = 0, 1
            self.add, self.sub, self.mul = dom._add, dom._sub, dom._mul
            self.inv = lambda c: dom._pow(c, -1)
        else:
            self.field, self.p = None, 0
            self.zero, self.one = dom.zero, dom.one
            self.add, self.sub, self.mul = operator.add, operator.sub, operator.mul
            self.inv = self._inverse
            self.ints = {}

    def _inverse(self, c):
        try:
            return self.dom.one / c
        except TypeError:
            raise DomainMismatch("division needs a monic divisor over this domain")

    def load(self, f) -> list:
        return [c.value for c in f.coeffs] if self.field else list(f.coeffs)

    def of_int(self, n: int):
        if self.field:
            return n % self.field.p
        n %= self.dom.field.p  # at most p constants are kept
        if n not in self.ints:
            self.ints[n] = self.dom.from_int(n)
        return self.ints[n]

    def value(self, c):
        if self.field and c.field is not self.field:
            raise FieldMismatch(f"{self.field} vs {c.field}")
        return c.value if self.field else c

    def elem(self, v):
        return FieldElem(self.field, v) if self.field else v


@functools.lru_cache(maxsize=None)
def _kernel(dom) -> _Kernel:
    return _Kernel(dom)


def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _add(K: _Kernel, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = K.add
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return _trim(out)


def _sub(K: _Kernel, a: list, b: list) -> list:
    out = list(a) + [K.zero] * (len(b) - len(a))
    sub = K.sub
    for i, c in enumerate(b):
        out[i] = sub(out[i], c)
    return _trim(out)


def _scale(K: _Kernel, a: list, c) -> list:
    mul = K.mul
    return [mul(v, c) for v in a]


def _mul(K: _Kernel, a: list, b: list) -> list:
    # the domains are integral, so the top coefficient is never zero
    if not a or not b:
        return []
    p = K.p
    if p:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return [v % p for v in out]
    add, mul = K.add, K.mul
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] = add(out[j], mul(x, y))
    return out


def _divmod(K: _Kernel, a: list, b: list):
    """(q, r) with a = q*b + r and deg r < deg b, for nonzero b; b need not
    be monic (its leading coefficient is inverted once)."""
    n = len(b) - 1
    if len(a) <= n:
        return [], list(a)
    inv = None if b[-1] == K.one else K.inv(b[-1])
    r = list(a)
    q = [K.zero] * (len(a) - n)
    low = b[:n]
    p = K.p
    if p:  # r is reduced % p only where it is read
        inv = 1 if inv is None else inv
        for d in range(len(q) - 1, -1, -1):
            c = r[d + n] * inv % p
            if c:
                q[d] = c
                for i, y in enumerate(low, d):
                    r[i] -= c * y
        return q, _trim([v % p for v in r[:n]])
    mul, sub = K.mul, K.sub
    for d in range(len(q) - 1, -1, -1):
        c = r[d + n] if inv is None else mul(r[d + n], inv)
        if c:
            q[d] = c
            for i, y in enumerate(low, d):
                r[i] = sub(r[i], mul(c, y))
    return q, _trim(r[:n])


def _monic(K: _Kernel, a: list) -> list:
    if not a or a[-1] == K.one:
        return a
    return _scale(K, a, K.inv(a[-1]))


def _gcd(K: _Kernel, a: list, b: list) -> list:
    """The monic gcd of a and b, [] when both are zero."""
    while b:
        a, b = b, _divmod(K, a, b)[1]
    return _monic(K, a)


def _powmod(K: _Kernel, base: list, e: int, mod: list) -> list:
    """base^e modulo mod, for e >= 0 (e = 0 gives 1 unreduced)."""
    result = [K.one]
    base = _divmod(K, base, mod)[1]
    while e:
        if e & 1:
            result = _divmod(K, _mul(K, result, base), mod)[1]
        e >>= 1
        if e:
            base = _divmod(K, _mul(K, base, base), mod)[1]
    return result


def _horner(K: _Kernel, a: Sequence, v):
    """a(v) by Horner's rule."""
    acc = K.zero
    p = K.p
    if p:
        for c in reversed(a):
            acc = (acc * v + c) % p
        return acc
    add, mul = K.add, K.mul
    for c in reversed(a):
        acc = add(mul(acc, v), c)
    return acc


# ---------------------------------------------------------------------------
# primes, monic irreducibles, and the schoolbook GF(p)[t] test oracle
# ---------------------------------------------------------------------------

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


def _irreducible(K: _Kernel, f: list) -> bool:
    """Is the monic f of degree d >= 1 irreducible over K's field GF(q)?  Yes
    iff x^(q^d) = x mod f and gcd(x^(q^(d/l)) - x, f) = 1 for each prime
    l | d (von zur Gathen and Gerhard, Modern Computer Algebra, 14.9)."""
    d = len(f) - 1
    if d == 1:
        return True
    x = h = [0, 1]
    frob = [x]  # frob[i] = x^(q^i) mod f
    for _ in range(d):
        h = _powmod(K, h, K.field.order, f)
        frob.append(h)
    return frob[d] == x and all(len(_gcd(K, f, _sub(K, frob[d // ell], x))) == 1
                                for ell in _prime_divisors(d))


def _irreducibles(K: _Kernel, d: int) -> Iterator[list]:
    """The monic irreducibles of degree d over K's field, as kernel lists in
    counter order: i = 0, 1, 2, ... written in base q, the constant
    coefficient as the least significant digit, under a leading 1."""
    q = K.field.order
    for i in range(q ** d):
        f = _digits(i, q, d) + [1]
        if _irreducible(K, f):
            yield f


def least_irreducible(p: int, d: int) -> tuple:
    """First monic irreducible of degree d over GF(p), counter order.

    Returned as a coefficient tuple of length d+1, low degree first.
    """
    return tuple(next(_irreducibles(_kernel(field_make(p)), d)))


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
    values (the _add ... _pow methods), which FieldElem wraps, and the
    per-field constants of the module docstring (exp, log, zech, nonsquare,
    noncube, as_section), each built on first use.
    """

    __slots__ = ("p", "m", "order", "modulus", "zero", "one", "exp", "log", "zech",
                 "nonsquare", "noncube", "as_section")

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = least_irreducible(p, m) if m > 1 else (0, 1)
        self.zero = FieldElem(self, 0)
        self.one = FieldElem(self, 1)

    def __getattr__(self, name):
        # only reached while a per-field slot is still unset
        if name in ("exp", "log", "zech") and self.m > 1:
            self._build_tables()
        elif name == "nonsquare" and self.p != 2:
            self.nonsquare = self._least_non_power(2)
        elif name == "noncube" and self.order % 3 == 1:
            self.noncube = self._least_non_power(3)
        elif name == "as_section" and self.p == 2 and self.m % 2 == 0:
            self.as_section = self._as_section()
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def _least_non_power(self, r: int) -> int:
        """The least counter value that is not an r-th power, for r | q - 1
        (0 and 1 are powers)."""
        e = (self.order - 1) // r
        return next(v for v in range(2, self.order) if self._pow(v, e) != 1)

    def _as_section(self) -> tuple:
        """Rows (pivot, L(x), x) spanning the image of the GF(2)-linear map
        L(y) = y^2 + y on counter values, for even m.  L(t^j), j = 1..m-1,
        is reduced by the rows before it, so its pivot (highest set bit) is
        no earlier row's pivot and every later row has that bit clear: u
        reduced by the rows in this order leaves 0 exactly when Tr(u) = 0,
        and the x of the rows used add up to a solution.  L(1) = 0, so the
        solution has constant term 0."""
        rows = []
        for j in range(1, self.m):
            x = 1 << j
            r = self._mul(x, x) ^ x
            for pivot, row, pre in rows:
                if r >> pivot & 1:
                    r ^= row
                    x ^= pre
            rows.append((r.bit_length() - 1, r, x))
        return tuple(rows)

    def _build_tables(self):
        """exp[k] = g^k for 0 <= k < 2(q-1), log[g^k] = k, and for odd p
        zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0; g is the least
        generator.  Multiplying by g is GF(p)-linear, so g*x is the sum of
        two lookups, on the low h = m//2 digits of x and on the rest.

        For odd p the loop holds x packed, digit i in bits [iW, iW + W) with
        W = bitlen(p - 1) + 1, so the two lookups add digit by digit in one
        int addition: adding 2^(W-1) - p to every digit sets a digit's top
        bit exactly where it reached p, and p is taken off there.  Lists
        indexed by the packed halves give the products and the counter value.
        """
        p, m, q = self.p, self.m, self.order
        n = q - 1
        K, mod = _kernel(field_make(p)), list(self.modulus)
        gd = next(d for d in (_trim(_digits(g, p, m)) for g in range(p, q))
                  if all(_powmod(K, d, n // ell, mod) != [1] for ell in _prime_divisors(n)))
        cols = [_divmod(K, [0] * j + gd, mod)[1] for j in range(m)]
        h = m // 2
        exp = array("i", [0]) * (2 * n)
        log = array("i", [0]) * q
        if p == 2:
            cols = [_counter(c, 2) for c in cols]
            lo, hi = _span(cols[:h], 2, operator.xor), _span(cols[h:], 2, operator.xor)
            mask = (1 << h) - 1
            x = 1
            for k in range(n):
                exp[k] = x
                log[x] = k
                x = hi[x >> h] ^ lo[x & mask]
        else:
            top = (p - 1).bit_length()
            W = top + 1

            def pack(digits):
                return sum(d << i * W for i, d in enumerate(digits))

            over, tops = pack([(1 << top) - p] * m), pack([1 << top] * m)

            def add(u, w):
                s = u + w
                return s - ((s + over & tops) >> top) * p

            def lookups(cs, scale):
                # product and counter value, indexed by the packed digit vector
                keys = _span([1 << j * W for j in range(len(cs))], p, add)
                prod, ctr = [0] * (max(keys) + 1), [0] * (max(keys) + 1)
                for c, (key, v) in enumerate(zip(keys, _span(cs, p, add))):
                    prod[key], ctr[key] = v, c * scale
                return prod, ctr

            pcols = [pack(c) for c in cols]
            lo, lo_ctr = lookups(pcols[:h], 1)
            hi, hi_ctr = lookups(pcols[h:], p ** h)
            shift, mask = h * W, (1 << h * W) - 1
            x = 1
            for k in range(n):
                xl, xh = x & mask, x >> shift
                v = lo_ctr[xl] + hi_ctr[xh]
                exp[k] = v
                log[v] = k
                s = hi[xh] + lo[xl]
                x = s - ((s + over & tops) >> top) * p
        if x != 1:  # g is a unit of order q - 1 only if the modulus is irreducible
            raise AssertionError(f"{self!r}: the modulus {self.modulus} is reducible")
        memoryview(exp)[n:] = memoryview(exp)[:n]
        self.exp, self.log, self.zech = exp, log, None
        if p != 2:
            # zech[k] = succ[g^k] with succ[v] = log(1 + v): 1 + v in counter
            # form bumps the lowest digit of v, which wraps at p - 1
            succ = array("i", log[1:]) + log[:1]
            succ[p - 1::p] = log[::p]
            succ[p - 1] = -1  # 1 + (-1) = 0
            self.zech = array("i", map(succ.__getitem__, exp[:n]))

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
            c = _divmod(_kernel(field_make(self.p)), c, list(self.modulus))[1]
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
    if _prime_divisors(p) != [p]:
        raise NotPrime(f"{p} is not prime")
    return Field(p, m)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def trace_to_prime(x: FieldElem) -> FieldElem:
    """Trace of GF(p^m) over GF(p), returned as an element of GF(p)."""
    F = x.field
    acc = term = x.value
    for _ in range(F.m - 1):  # on counter values
        term = F._pow(term, F.p)
        acc = F._add(acc, term)
    assert acc < F.p, "trace landed outside the prime field"
    return field_make(F.p, 1).from_int(acc)


# ---------------------------------------------------------------------------
# squares and cubes: FieldElem classifiers over counter-value kernels
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
    roots = _sqrt_values(F, x.value)
    return NonSquare() if roots is None else Square(tuple(FieldElem(F, r) for r in roots))


def _sqrt_values(F: Field, x: int) -> Optional[tuple]:
    """The square roots of the counter value x, ascending, or None."""
    if not x:
        return (0,)
    if F.p == 2:
        # squaring is a bijection; the inverse is the (m-1)-fold square
        return (F._pow(x, 2 ** (F.m - 1)),)
    if F._pow(x, (F.order - 1) // 2) != 1:
        return None
    r = _sqrt_odd(F, x)
    return tuple(sorted((r, F._neg(r))))


def _sqrt_odd(F: Field, a: int) -> int:
    """Tonelli-Shanks with the least non-residue F.nonsquare as auxiliary;
    a is a nonzero square."""
    mul, pw = F._mul, F._pow
    u = F.order - 1
    e = 0
    while u % 2 == 0:
        u //= 2
        e += 1
    x = pw(a, (u + 1) // 2)
    if e == 1:
        return x
    z = pw(F.nonsquare, u)
    b = pw(a, u)
    r = e
    while b != 1:
        k = 0
        t = b
        while t != 1:
            t = mul(t, t)
            k += 1
        w = pw(z, 2 ** (r - k - 1))
        z = mul(w, w)
        b = mul(b, z)
        x = mul(x, w)
        r = k
    return x


@dataclass(frozen=True)
class Cube:
    roots: tuple  # all cube roots, ascending


@dataclass(frozen=True)
class NonCube:
    pass


def cube_classify(x: FieldElem):
    """Cube(roots)/NonCube for x in GF(p^m); roots listed ascending."""
    F = x.field
    roots = _cbrt_values(F, x.value)
    return NonCube() if roots is None else Cube(tuple(FieldElem(F, r) for r in roots))


def _cbrt_values(F: Field, x: int) -> Optional[tuple]:
    """The cube roots of the counter value x in GF(s), ascending, or None.

    s = 0, 2 mod 3: cubing is a bijection, one root.
    s = 1 mod 3: cube character first; if trivial, all three roots by
    _cube_roots in GF(s)*, with the least non-cube F.noncube.
    """
    if not x:
        return (0,)
    s = F.order
    if F.p == 3:
        return (F._pow(x, 3 ** (F.m - 1)),)
    if s % 3 == 2:
        return (F._pow(x, pow(3, -1, s - 1)),)
    if F._pow(x, (s - 1) // 3) != 1:
        return None
    return tuple(sorted(_cube_roots(x, F.noncube, s - 1, F._mul, F._pow, 1)))


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
# monic quadratics (shared with polyring.quadratic_roots) and linear solves
# ---------------------------------------------------------------------------

def _solve_quadratic(F: Field, b: FieldElem, c: FieldElem) -> tuple:
    """Roots of X^2 + bX + c over F, ascending; () if none, one entry if
    double.  b and c may also be ints, taken mod p."""
    b = b.value if isinstance(b, FieldElem) else b % F.p
    c = c.value if isinstance(c, FieldElem) else c % F.p
    return tuple(FieldElem(F, r) for r in _quad_values(F, b, c))


def _quad_values(F: Field, b: int, c: int) -> tuple:
    """_solve_quadratic on counter values.

    Odd characteristic goes through the discriminant.  Characteristic 2
    substitutes X = bY, leaving Y^2 + Y = c/b^2 (_artin_schreier_value).
    """
    mul = F._mul
    if F.p != 2:
        disc = F._sub(mul(b, b), mul(4 % F.p, c))
        roots = _sqrt_values(F, disc)
        if roots is None:
            return ()
        half, mb = F._pow(2, -1), F._neg(b)
        if not disc:
            return (mul(mb, half),)
        r = roots[1]
        return tuple(sorted((mul(F._add(mb, r), half), mul(F._sub(mb, r), half))))
    if not b:
        return _sqrt_values(F, c)  # (X + sqrt(c))^2
    y = _artin_schreier_value(F, F._div(c, mul(b, b)))
    if y is None:
        return ()
    by = mul(b, y)
    return tuple(sorted((by, by ^ b)))


def _artin_schreier_particular(F: Field, u: FieldElem) -> FieldElem:
    """Some y with y^2 + y = u over GF(2^m); requires Tr(u) = 0."""
    y = _artin_schreier_value(F, u.value)
    assert y is not None, "trace-zero element must be reachable"
    return FieldElem(F, y)


def _artin_schreier_value(F: Field, u: int) -> Optional[int]:
    """Some y with y^2 + y = u on counter values of GF(2^m), or None when
    Tr(u) = 1.

    Odd m: the half trace H = sum of u^(4^i) for i <= (m-1)/2, since
    H^2 + H = u + Tr(u).  Even m: u reduced by F.as_section, at most m - 1
    XORs; this y has constant term 0.
    """
    if F.m % 2:
        y = term = u
        for _ in range(F.m // 2):
            term = F._pow(term, 4)
            y ^= term
        return y if F._mul(y, y) ^ y == u else None
    y, rest = 0, u
    for pivot, row, pre in F.as_section:
        if rest >> pivot & 1:
            rest ^= row
            y ^= pre
    if rest:
        return None
    assert F._mul(y, y) ^ y == u
    return y


def _solve_additive(F: Field, L, u: int) -> Optional[int]:
    """Some y with L(y) = u for a GF(p)-linear map L on counter values of F,
    or None.

    L is applied to the basis 1, t, ..., t^(m-1) and the system is solved
    on digits by solve_modp.
    """
    p, m = F.p, F.m
    cols = [_digits(L(p ** j), p, m) for j in range(m)]
    matrix = [[col[i] for col in cols] for i in range(m)]
    sol = solve_modp(matrix, _digits(u, p, m), p)
    return None if sol is None else _counter(sol, p)


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
