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
  * The arithmetic on counter values is bound per field on first read: the
    first read of _add, _sub, _neg, _mul, _pow, _div or _inv sets all seven
    to closures for the field's shape (``Field._bind_ops``), so no call tests
    p or m or reads a table off the field.  GF(p) computes inline with % p and
    pow, and up to p = _ROW_MAX_ORDER divides and inverts through a list of
    the p inverses (on a 2-core x86-64 host, reduce_cubic and decompose_any
    of ff-decompose's GF(7) and GF(101) cubics took 0.87x the time they took
    with pow, median of ten processes).  For m > 1 that read first builds,
    never at import, tables exp[k] = g^k (two periods) and log, for the least
    generator g in counter order, and the closures capture them: multiply,
    divide, inverse and power are lookups (``FieldElem /`` is one call).
    Addition is XOR in characteristic 2; for odd p it goes through Zech
    logarithms, zech[k] = log(1 + g^k) (K. Huber, IEEE Trans. IT 36, 1990),
    since 1 + v in counter form only bumps the lowest digit of v.
  * The tables are lists up to q = _ROW_MAX_ORDER = 2^8, the bound of the
    package's other per-field tables, and array('i') above it.  CPython
    3.11 specialises an int subscript of a list but not of an array: on a
    2-core x86-64 host a GF(2^8) _mul took 66-79 ns on lists against
    106-131 ns on arrays.  Every entry of a list table up to the bound is an
    int in [-1, 2^8], which CPython shares, so the lists hold 8 bytes an
    entry, under 8 KiB a field.  Above the bound each entry would be an int
    object of its own, scattered over the heap: with lists at q = 2^16 the
    peak RSS of an in-process ff-decompose pass rose from 18.4 to 23.5 MB
    and its GF(2^16) ops slowed from 6.9 to 8.3 ms a pass (medians of five
    processes, best of 15 passes each).  Array memory is 12(q-1) + 4 bytes,
    plus 4(q-1) for zech when p is odd: 0.75 MiB at q = 2^16, 12 MiB at the
    MAX_ORDER cap q = 2^20 (16 MiB for odd p just below it).  For odd p the
    build adds digit vectors packed into one int, a few int operations per
    step; its lookup lists, indexed by packed half-vectors, hold at most
    74,899 entries (GF(3^12)) and are dropped after the build.  On a 2-core
    x86-64 host under CPython 3.11 the tables of GF(2^16) build in 11-19 ms,
    those of GF(2^20) in 0.4 s, GF(3^12) in 0.5 s and GF(7^7) and
    GF(1021^2) in 0.6-1.0 s, paid once per process.
  * The other per-field constants are built on first use as well and never
    depend on an input: the least non-square (``nonsquare``, odd p) and the
    least non-cube (``noncube``, q = 1 mod 3) for the r-th root routine;
    for p = 2 and 3 a section of the GF(p)-linear Z -> Z^p - Z
    (``as_section``), through which ``_artin_schreier_value`` solves
    y^p - y = u, and for p = 3 ffcubic's char-3 pair (``char3_maps``):
    as_section and the inverse of Z -> Z^3 - nZ, n the least non-square.
    Each map is inverted by ``_linear_inverse``: ``_inverse_columns``, the
    package's one GF(p) elimination (Gauss-Jordan on [A | I], which places'
    residue lifts run too), gives the inverse on the basis, applied as two
    lookups and one addition on lists of p^(m//2) and p^(m - m//2) spans.
    One int each for the first two, about 2^(m//2) + 2^(m - m//2) ints for
    as_section when p = 2 (2,048 at m = 20, built in about 0.6 ms), and at
    most 4 * 729 ints (m = 12) for both maps when p = 3.  A residue lift,
    rare next to these maps, keeps only the m columns of its inverse.

Square and cube roots come from one routine, Adleman-Manders-Miller for a
prime r (``_rth_roots``; Tonelli-Shanks is its case r = 2), generic over the
group, so ffcubic runs it on the norm-1 torus too.  The classifiers and
solvers compute on counter values (``_root_values``, ``_quad_values``,
``_artin_schreier_value``), which ffcubic calls directly;
``square_classify``, ``cube_classify`` and ``_solve_quadratic`` wrap them
for FieldElem callers; ``trace_to_prime``, the one trace, works
on a FieldElem's counter value.  The quadratic solver lives here (rather
than with the polynomial machinery) because the square/cube classifiers
below need it; polyring re-exports it.

The package's one list kernel (_Kernel, _trim ... _deflate), Frobenius walk
and scan of monic irreducibles live here, at the bottom of the import graph:
ffield imports nothing from the package but errors.  The walk
(_distinct_degree) yields the groups gcd(x^(q^i) - x, f) of distinct-degree
factorization lazily, for factor_fq and for the one irreducibility test,
Ben-Or's (FOCS 1981), which reads its first group only, so a candidate with
a root costs one Frobenius power (on random candidates it beats the full
criterion: Gao and Panario, Found. Comput. Math. 1997); it finds every field
modulus and every place of the lazy scan.  _ptrim, _pmul, _pmod and _ppowmod
stay, uncalled, as the tests' oracle.  So does ``record``: it makes the
package's frozen value classes as @dataclass(frozen=True) would (fields are
the annotations less ClassVar ones, named in order by ``__match_args__``;
equal only within one class) without generating code or importing
dataclasses.
"""
from __future__ import annotations

import functools
import operator
from array import array
from typing import Iterator, Optional, Sequence

from .errors import (DivisionByZero, DomainMismatch, FieldMismatch, NotPrime, SingularMatrix,
                     SizeExceeded)

MAX_ORDER = 1 << 20  # guard for field constructions that would never finish
_ROW_MAX_ORDER = 1 << 8  # fields up to this order get list tables, packed rows, bin/root tables


# ---------------------------------------------------------------------------
# the polynomial kernel: coefficient lists, low degree first, trimmed
# ---------------------------------------------------------------------------

class _Kernel:
    """The coefficient arithmetic of one domain, as the list kernel runs it.

    Over a Field the list entries are counter values and add/sub/mul/inv/div
    are the field's bound ops on them; over GF(p) (p set, else 0) the loops of
    _mul, _divmod, _gcd, _horner and _deflate reduce % p inline instead, and
    so do canon._reduce_values (for p != 3) and ffcubic.decompose_any's
    pull-back: they compute on plain ints and reduce a value % p only where
    it is compared or kept.
    Over any other domain the entries are the elements and the operations
    their operators.
    A Poly holds these entries (load reads them); value/elem unwrap and wrap
    one element (value refuses another field's element); of_int gives an
    integer's entry, elsewhere from the ints cache keyed by n mod p.
    """

    __slots__ = ("dom", "field", "p", "zero", "one", "add", "sub", "mul", "inv", "div", "ints")

    def __init__(self, dom):
        self.dom = dom
        if isinstance(dom, Field):
            self.field, self.p = dom, (dom.p if dom.m == 1 else 0)
            self.zero, self.one = 0, 1
            self.add, self.sub, self.mul = dom._add, dom._sub, dom._mul
            self.inv, self.div = dom._inv, dom._div
        else:
            self.field, self.p = None, 0
            self.zero, self.one = dom.zero, dom.one
            self.add, self.sub, self.mul = operator.add, operator.sub, operator.mul
            self.inv, self.div = self._inverse, operator.truediv
            self.ints = {}

    def _inverse(self, c):
        try:
            return self.dom.one / c
        except TypeError:
            raise DomainMismatch("division needs a monic divisor over this domain")

    def load(self, f) -> tuple:
        return f.vals

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
    """The monic gcd of a and b, [] when both are zero.

    Over GF(p) the remainder sequence runs in this one frame.  It relies on
    the kernel's invariant: lists are trimmed and their entries lie in
    [0, p).  So each divisor's leading coefficient is inverted once, a is
    reduced in place by popping its top entry and keeping the entries below
    in [0, p), and no quotient is built.  Both inputs are copied, since they
    may be a caller's lists or a Poly's tuples."""
    p = K.p
    if p:
        a, b = list(a), list(b)
        while b:
            n, ib, low = len(b) - 1, pow(b[-1], -1, p), b[:-1]
            while len(a) > n:
                c = a.pop() * ib % p
                if c:
                    for i, y in enumerate(low, len(a) - n):
                        a[i] = (a[i] - c * y) % p
            a, b = b, _trim(a)
        ib = pow(a[-1], -1, p) if a else 0
        return [v * ib % p for v in a]
    while b:
        a, b = b, _divmod(K, a, b)[1]
    return list(_monic(K, a))  # a may still be a caller's sequence


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


def _deflate(K: _Kernel, a: Sequence, v) -> list:
    """Horner's partial sums of a at v, top coefficient first: the last is
    a(v), and the others, read backwards, are the quotient of a by X - v."""
    acc, out, p = K.zero, [], K.p
    if p:
        for c in reversed(a):
            acc = (acc * v + c) % p
            out.append(acc)
        return out
    add, mul = K.add, K.mul
    for c in reversed(a):
        acc = add(mul(acc, v), c)
        out.append(acc)
    return out


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


def _distinct_degree(K: _Kernel, f: list) -> Iterator[tuple]:
    """(g, i), i ascending and lazily, for the product g of the degree-i
    irreducible factors of the squarefree monic f over GF(q): for each i
    with deg f >= 2i, h = x^(q^i) mod f by one power of the previous h and
    g = gcd(f, h - x), which f sheds; then what is left of f (von zur
    Gathen and Gerhard, Modern Computer Algebra, 14.2)."""
    x = h = [0, 1]
    i = 1
    while len(f) > 2 * i:
        h = _powmod(K, h, K.field.order, f)  # reduces h mod the shrunk f first
        g = _gcd(K, f, _sub(K, h, x))
        if len(g) > 1:
            yield g, i
            f = _divmod(K, f, g)[0]
        i += 1
    if len(f) > 1:
        yield f, len(f) - 1


def _irreducible(K: _Kernel, f: list) -> bool:
    """Is the monic f irreducible over K's field GF(q)?  Ben-Or's test (FOCS
    1981) is the first group of the shared walk, _distinct_degree: a
    reducible f of degree d has an irreducible factor of degree i <= d/2, so
    the first group has degree d (0 for f = 1) only when f is irreducible.
    The walk is lazy, so a candidate with a root pays one power."""
    return next(_distinct_degree(K, f), (f, 0))[1] == len(f) - 1


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
    values: the slots _add, _sub, _neg, _mul, _pow, _div and _inv, which
    _bind_ops fills with closures for the field's shape on the first read of
    any of them; FieldElem looks them up by name.  The
    per-field constants of the module docstring (exp, log, zech, nonsquare,
    noncube, as_section, char3_maps) are slots built on first use as well;
    one the field's shape lacks (as_section for p > 3) raises AttributeError,
    and char3_maps[0] is as_section.
    """

    __slots__ = ("p", "m", "order", "modulus", "zero", "one", "exp", "log", "zech",
                 "nonsquare", "noncube", "as_section", "char3_maps",
                 "_add", "_sub", "_neg", "_mul", "_pow", "_div", "_inv")

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
        elif name in ("_add", "_sub", "_neg", "_mul", "_pow", "_div", "_inv"):
            self._bind_ops()
        elif name == "nonsquare" and self.p != 2:
            self.nonsquare = self._least_non_power(2)
        elif name == "noncube" and self.order % 3 == 1:
            self.noncube = self._least_non_power(3)
        elif name == "as_section" and self.p in (2, 3):
            self.as_section = self._as_section()
        elif name == "char3_maps" and self.p == 3:
            self.char3_maps = self._char3_maps()
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def _least_non_power(self, r: int) -> int:
        """The least counter value that is not an r-th power, for r | q - 1
        (0 and 1 are powers)."""
        e = (self.order - 1) // r
        return next(v for v in range(2, self.order) if self._pow(v, e) != 1)

    def _as_section(self):
        """For p = 2 or 3, a section of the GF(p)-linear map L(Z) = Z^p - Z on
        counter values.  L has kernel GF(p) and the trace-0 hyperplane as
        image, so for the least basis value c of nonzero trace the map sending
        1 to c and t^j to L(t^j) is a bijection; the section is its inverse
        (_linear_inverse).  L(section(u)) = u exactly when Tr(u) = 0, and then
        section(u) has constant term 0."""
        p, sub = self.p, self._sub
        basis = [p ** j for j in range(self.m)]
        c = next(x for x in basis if trace_to_prime(FieldElem(self, x)).value)
        return self._linear_inverse([c] + [sub(self._pow(x, p), x) for x in basis[1:]])

    def _char3_maps(self) -> tuple:
        """For p = 3, (as_section, inverse): inverse undoes the GF(3)-linear
        Z -> Z^3 - nZ, n = nonsquare, a bijection since Z^2 = n has no root."""
        sub, mul, n = self._sub, self._mul, self.nonsquare
        images = [sub(self._pow(x, 3), mul(n, x)) for x in (3 ** j for j in range(self.m))]
        return self.as_section, self._linear_inverse(images)

    def _inverse_columns(self, images: list) -> list:
        """f^-1(p^j) for j < m, for the GF(p)-linear bijection f on counter
        values with f(p^j) = images[j]: Gauss-Jordan on [A | I] mod p, A's
        column j the digits of images[j], leaves them as the columns of the
        right half (SingularMatrix at a missing pivot: the images are no
        basis).  f^-1(u) is the sum of u's digit j times column j."""
        p, m = self.p, self.m
        rows = [list(a) + [int(i == j) for j in range(m)]
                for i, a in enumerate(zip(*(_digits(x, p, m) for x in images)))]
        for c in range(m):
            r = next((r for r in range(c, m) if rows[r][c]), None)
            if r is None:
                raise SingularMatrix("the images are not a basis")
            rows[c], rows[r] = rows[r], rows[c]
            inv = pow(rows[c][c], -1, p)
            piv = rows[c] = [v * inv % p for v in rows[c]]
            for i, row in enumerate(rows):
                if i != c and row[c]:
                    rows[i] = [(a - row[c] * b) % p for a, b in zip(row, piv)]
        return [_counter(col, p) for col in zip(*(row[m:] for row in rows))]

    def _linear_inverse(self, images: list):
        """u -> f^-1(u) on counter values, f as in _inverse_columns, for maps
        applied often: one lookup on the low h = m//2 digits of u and one on
        the rest, in spans of the inverse's columns, added."""
        p, m, add = self.p, self.m, self._add
        cols, h = self._inverse_columns(images), m // 2
        lo, hi, split = _span(cols[:h], p, add), _span(cols[h:], p, add), p ** h
        return lambda u: add(lo[u % split], hi[u // split])

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
        table = list if q <= _ROW_MAX_ORDER else functools.partial(array, "i")
        exp, log = table([0]) * (2 * n), table([0]) * q
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
        exp[n:] = exp[:n]
        self.exp, self.log, self.zech = exp, log, None
        if p != 2:
            # zech[k] = succ[g^k] with succ[v] = log(1 + v): 1 + v in counter
            # form bumps the lowest digit of v, which wraps at p - 1
            succ = log[1:] + log[:1]
            succ[p - 1::p] = log[::p]
            succ[p - 1] = -1  # 1 + (-1) = 0
            self.zech = table(map(succ.__getitem__, exp[:n]))

    # -- arithmetic on counter values ----------------------------------------

    def _bind_ops(self):
        """Bind _add, _sub, _neg, _mul, _pow, _div and _inv on counter values
        as closures for the field's shape: GF(p), GF(2^m) or odd GF(p^m).
        _div and _inv run in one frame; only to raise DivisionByZero for 0
        does the GF(2^m) or odd GF(p^m) one call pw.  Over GF(p), p at most
        _ROW_MAX_ORDER, they index a list of inverses, so the divisor must
        be a reduced value in [0, p), as every kernel value is."""
        p, n = self.p, self.order - 1
        if self.m == 1:
            def pw(a, e=-1):  # _inv too, at the default e
                try:
                    return pow(a, e, p)
                except ValueError:  # only 0 has no inverse mod p
                    raise DivisionByZero("inverse of 0") from None

            def div(a, b):
                try:
                    return a * pow(b, -1, p) % p
                except ValueError:
                    raise DivisionByZero("inverse of 0") from None
            self._add, self._sub = (lambda a, b: (a + b) % p), (lambda a, b: (a - b) % p)
            self._neg, self._mul, self._pow = (lambda a: -a % p), (lambda a, b: a * b % p), pw
            self._div, self._inv = div, pw
            if p <= _ROW_MAX_ORDER:  # an inverse list, like the Zech lists
                invs = [0] + [pow(a, -1, p) for a in range(1, p)]
                self._div = lambda a, b: a * invs[b] % p if b else pw(0)
                self._inv = lambda a: invs[a] if a else pw(0)
            return
        exp, log, zech, h = self.exp, self.log, self.zech, n // 2  # -1 = g^h

        def pw(a, e):
            if a:
                return exp[log[a] * e % n]
            if e < 0:
                raise DivisionByZero("inverse of 0")
            return 0 if e else 1
        if p == 2:
            self._add = self._sub = operator.xor
            self._neg = operator.pos  # -a = a
        else:
            def add(a, b):
                if not a or not b:
                    return a or b
                la = log[a]
                z = zech[log[b] - la]  # a negative index wraps mod q - 1
                return exp[la + z] if z >= 0 else 0
            self._add, self._neg = add, lambda a: exp[log[a] + h] if a else 0
            self._sub = lambda a, b: add(a, exp[log[b] + h]) if b else a
        self._mul, self._pow = (lambda a, b: exp[log[a] + log[b]] if a and b else 0), pw
        # a or b is 0: a * b^-1, where pw raises DivisionByZero for b = 0
        self._div = lambda a, b: exp[log[a] - log[b] + n] if a and b else a * pw(b, -1)
        self._inv = lambda a: exp[n - log[a]] if a else pw(0, -1)

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


def _binary(get, swap: bool = False, wrap: bool = True):
    """A FieldElem operator: get(field)(a, b) on counter values a of self and
    b of other (swapped if swap), where other is an element of the same field
    or an int; the result is wrapped as an element if wrap.  get(field) is
    the field's bound op, read by name, or a comparison."""
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
        f = get(F)
        r = f(b, self.value) if swap else f(self.value, b)
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

    __add__ = __radd__ = _binary(operator.attrgetter("_add"))
    __sub__ = _binary(operator.attrgetter("_sub"))
    __rsub__ = _binary(operator.attrgetter("_sub"), swap=True)
    __mul__ = __rmul__ = _binary(operator.attrgetter("_mul"))
    __truediv__ = _binary(operator.attrgetter("_div"))
    __rtruediv__ = _binary(operator.attrgetter("_div"), swap=True)

    def __neg__(self):
        return FieldElem(self.field, self.field._neg(self.value))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.field, self.field._inv(self.value))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        return FieldElem(self.field, self.field._pow(self.value, e))

    # -- comparisons ------------------------------------------------------------

    __eq__ = _binary(lambda F: operator.eq, wrap=False)
    __lt__ = _binary(lambda F: operator.lt, wrap=False)
    __le__ = _binary(lambda F: operator.le, wrap=False)

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.value))

    # -- rendering ----------------------------------------------------------------

    def render(self, var: str = "t") -> str:
        """Ascending-power text like '2+t^2'; parses back with the CLI grammar."""
        return _render_value(self.field, self.value, var)

    def __repr__(self):
        return self.render()


def _render_value(F: Field, v: int, var: str = "t") -> str:
    """FieldElem.render of the counter value v of F, read digit by digit up
    to the top one; Poly.render over a field renders its values with it, so
    no coefficient is wrapped."""
    p, terms, i = F.p, [], 0
    while v:
        v, c = divmod(v, p)
        if c:
            pw = var if i == 1 else f"{var}^{i}"
            terms.append(str(c) if not i else pw if c == 1 else f"{c}*{pw}")
        i += 1
    return "+".join(terms) or "0"


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
    for _ in range(F.m - 1):
        term = F._pow(term, F.p)
        acc = F._add(acc, term)
    assert acc < F.p, "trace landed outside the prime field"
    return field_make(F.p, 1).from_int(acc)


# ---------------------------------------------------------------------------
# records; squares and cubes: FieldElem classifiers over counter-value kernels
# ---------------------------------------------------------------------------

def record(cls):
    """Make cls a frozen value class like @dataclass(frozen=True); see the module docstring."""
    ns, put = vars(cls), object.__setattr__
    names = tuple(k for k, t in cls.__annotations__.items()  # own, lazy ones too
                  if str(t).split("[")[0].rpartition(".")[2] != "ClassVar")
    n0, n1, n2, n3 = names + ("",) * (4 - len(names))  # at most four fields
    post = ns.get("__post_init__")
    # by field count, parameters renamed to the fields; put and __post_init__ return None
    init = (lambda s: post and post(s), lambda s, a: put(s, n0, a) or post and post(s),
            lambda s, a, b: put(s, n0, a) or put(s, n1, b) or post and post(s),
            lambda s, a, b, c: put(s, n0, a) or put(s, n1, b) or put(s, n2, c) or post and post(s),
            lambda s, a, b, c, d: put(s, n0, a) or put(s, n1, b) or put(s, n2, c) or put(s, n3, d)
            or post and post(s))[len(names)]
    init.__code__ = init.__code__.replace(co_varnames=("self",) + names)
    init.__defaults__ = tuple(ns[k] for k in names if k in ns)
    init.__qualname__ = cls.__qualname__ + ".__init__"
    cls.__init__, cls.__match_args__ = init, names
    get = operator.attrgetter(*names) if names else lambda s: ()
    key = get if len(names) != 1 else lambda s: (get(s),)  # tuples, as dataclasses compare
    cls.__eq__ = lambda s, o: key(s) == key(o) if o.__class__ is s.__class__ else NotImplemented
    cls.__hash__ = lambda s: hash(key(s))
    cls.__repr__ = lambda s: f"{cls.__name__}({', '.join(f'{k}={getattr(s, k)!r}' for k in names)})"

    def frozen(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    cls.__setattr__ = cls.__delattr__ = frozen
    return cls


@record
class Square:
    roots: tuple  # all square roots, ascending


@record
class NonSquare:
    pass


def square_classify(x: FieldElem):
    """Square(roots)/NonSquare for x in GF(p^m); roots listed ascending."""
    return _classify(x, 2, Square, NonSquare)


@record
class Cube:
    roots: tuple  # all cube roots, ascending


@record
class NonCube:
    pass


def cube_classify(x: FieldElem):
    """Cube(roots)/NonCube for x in GF(p^m); roots listed ascending."""
    return _classify(x, 3, Cube, NonCube)


def _classify(x: FieldElem, r: int, yes, no):
    F = x.field
    roots = _root_values(F, x.value, r)
    return no() if roots is None else yes(tuple(FieldElem(F, v) for v in roots))


def _root_values(F: Field, x: int, r: int) -> Optional[tuple]:
    """The r-th roots (r = 2 or 3) of the counter value x, ascending, or None.

    r not dividing q - 1: x -> x^r is a bijection, one root x^(r^-1 mod q-1)
    (for p = r the inverse Frobenius x^(r^(m-1))).  Otherwise the r-th power
    character decides, and _rth_roots finds all r roots with the least
    non-r-th power F.nonsquare or F.noncube.
    """
    if not x:
        return (0,)
    n = F.order - 1
    if n % r:
        return (F._pow(x, pow(r, -1, n)),)
    if F._pow(x, n // r) != 1:
        return None
    z = F.nonsquare if r == 2 else F.noncube
    return tuple(sorted(_rth_roots(x, r, z, n, F._mul, F._pow)))


def _rth_roots(w, r: int, z, n: int, mul, pw) -> list:
    """The r r-th roots of an r-th power w in a cyclic group of order n, for
    a prime r dividing n.

    Adleman-Manders-Miller (FOCS 1977), generic over the group; Tonelli-Shanks
    is its case r = 2.  mul(x, y) multiplies, pw(x, e) raises to an exponent
    e >= 0 and z is a known non-r-th power.  Write n = r^t u with r not
    dividing u.  c = w^k with rk = 1 mod u leaves c^r/w in the r-Sylow
    subgroup, which g = z^u generates; its discrete log j to base g is read
    off in base-r digits, one per step, each the index of d among the r-th
    roots of unity 1, zeta, ..., zeta^(r-1), zeta = g^(r^(t-1)).  j is
    divisible by r since w is an r-th power, so c g^(-j/r) is a root, and its
    products with the powers of zeta are the others.  At t = 1, c^r/w is an
    r-th power in a group of order r, so it is 1 and c is already a root.
    """
    t, u = 0, n
    while u % r == 0:
        t, u = t + 1, u // r
    order = r ** t  # of g
    g = pw(z, u)
    zetas = [pw(g, order // r * k) for k in range(r)]
    k = pow(r, -1, u)
    c = pw(w, k)
    if t > 1:
        e, j = pw(w, (r * k - 1) % n), 0  # e = c^r / w
        for i in range(1, t):  # digit 0 of j is 0
            d = pw(mul(e, pw(g, order - j)), order // r ** (i + 1))
            j += r ** i * zetas.index(d)
        c = mul(c, pw(g, order - j // r))
    return [mul(c, y) for y in zetas]


# ---------------------------------------------------------------------------
# monic quadratics (shared with polyring.quadratic_roots) and y^p - y = u
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
        roots = _root_values(F, disc, 2)
        if roots is None:
            return ()
        half, mb = F._inv(2), F._neg(b)
        if not disc:
            return (mul(mb, half),)
        r = roots[1]
        return tuple(sorted((mul(F._add(mb, r), half), mul(F._sub(mb, r), half))))
    if not b:
        return _root_values(F, c, 2)  # (X + sqrt(c))^2
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
    """The y with y^p - y = u and constant term 0 on counter values of
    GF(p^m), p = 2 or 3, or None when Tr(u) != 0: y = F.as_section(u), kept
    if it solves the equation.  The package's one solver of y^p - y = u (for
    p = 2 that is y^2 + y = u)."""
    y = F.as_section(u)
    return y if F._sub(F._pow(y, F.p), y) == u else None
