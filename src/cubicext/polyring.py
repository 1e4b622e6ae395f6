"""Dense univariate polynomials and rational functions.

Poly is generic over its coefficient domain: a Field, a FuncField (rational
functions), or a PolyRing (polynomials again, for the nested reductions the
identity checks use).  Coefficients are a trimmed tuple, low degree first;
the zero polynomial has an empty tuple and degree -1.

Add, sub, mul, divmod, monic, gcd, powmod, xgcd and Horner evaluation run in
one kernel on coefficient lists, which lives in ffield and is parametrised by
the domain's ffield._Kernel.  A Poly holds its coefficients as kernel values
(vals), which every kernel call reads as they are: over a Field their counter
values, unwrapped once when the Poly is built from FieldElems (another
field's element is refused) and wrapped by coeffs, lc and coeff(i) on access,
so the kernel computes on ints with the field's own _add/_sub/_mul/_pow (over
GF(p) the quadratic loops reduce % p inline); over other domains the
elements, on their operators, each coerced into the domain when the Poly is
built (a GF(q) constant becomes a RatFunc, another field's element is
refused), so equal Polys hash equal.  Division is the classical quadratic one
and accepts non-monic divisors.  The squarefree decomposition, factor_fq's
first step, stops at once when gcd(f, f') = 1 and alone answers what needs
only multiplicities; it refuses a degree above FACTOR_DEGREE_LIMIT before any
work, and so does factor_fq through it.  Its second step is ffield's one
Frobenius walk (ffield._distinct_degree), whose first group is also
is_irreducible's Ben-Or test; _powmod_q has no caller and stays for tests.

Rational functions are kept reduced with a monic denominator, so equal
functions have equal representations.

Determinism contracts honoured here:

  * factor_fq uses distinct-degree splitting followed by equal-degree
    splitting driven by random.Random(FACTOR_SEED), built at its first draw,
    so repeated runs produce identical factor lists;
  * factor lists are sorted by (degree, coefficient counter key).
"""
from __future__ import annotations

import functools
import random
from typing import Iterator, Optional, Sequence

from . import ffield
from .errors import (DivisionByZero, DomainMismatch, FieldMismatch,
                     SizeExceeded, ZeroDenominator, ZeroPolynomial)
from .ffield import (Field, FieldElem, _Kernel, _add, _digits, _divmod, _gcd, _horner,
                     _irreducible, _kernel, _monic, _mul, _powmod, _render_value, _scale, _span,
                     _sub, _trim)

FACTOR_SEED = 2718281828459045
FACTOR_DEGREE_LIMIT = 512


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _store(K: _Kernel, vals) -> Poly:
    out = Poly.__new__(Poly)
    out.dom = K.dom
    out.vals = tuple(vals)
    return out


def _binop(kernel_op):
    """A Poly operator: kernel_op(K, a, b) on the kernel values of self and
    of other (a Poly over the same domain, an int or a domain element)."""
    def op(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        K = _kernel(self.dom)
        return _store(K, kernel_op(K, self.vals, o.vals))
    return op


class Poly:
    """A polynomial over dom: vals is the trimmed tuple of its coefficients'
    kernel values, low degree first, and coeffs the domain elements."""

    __slots__ = ("dom", "vals")

    def __init__(self, dom, coeffs: Sequence):
        self.dom = dom
        # refuses another field's element; coerces a constant into GF(q)(x)
        value = (_kernel(dom).value if isinstance(dom, Field)
                 else functools.partial(_domain_elem, dom))
        self.vals = tuple(_trim([value(c) for c in coeffs]))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(dom) -> "Poly":
        return Poly(dom, ())

    @staticmethod
    def one(dom) -> "Poly":
        return Poly(dom, (dom.one,))

    @staticmethod
    def gen(dom) -> "Poly":
        return Poly(dom, (dom.zero, dom.one))

    @staticmethod
    def const(dom, c) -> "Poly":
        return Poly(dom, (c,))

    @staticmethod
    def of_ints(dom, ints: Sequence[int]) -> "Poly":
        return Poly(dom, [dom.from_int(n) for n in ints])

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(map(_kernel(self.dom).elem, self.vals))

    @property
    def degree(self) -> int:
        return len(self.vals) - 1

    @property
    def lc(self):
        if not self.vals:
            raise ZeroPolynomial("leading coefficient of 0")
        return _kernel(self.dom).elem(self.vals[-1])

    def is_zero(self) -> bool:
        return not self.vals

    def is_monic(self) -> bool:
        return bool(self.vals) and self.vals[-1] == _kernel(self.dom).one

    def coeff(self, i: int):
        return _kernel(self.dom).elem(self.vals[i]) if 0 <= i < len(self.vals) else self.dom.zero

    def __bool__(self):
        return bool(self.vals)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> Optional["Poly"]:
        if isinstance(other, Poly):
            if other.dom is not self.dom:
                raise DomainMismatch("polynomials over different domains")
            return other
        if isinstance(other, int):
            return Poly.const(self.dom, self.dom.from_int(other))
        c = _as_domain_elem(self.dom, other)
        if c is not None:
            return Poly.const(self.dom, c)
        return None

    __add__ = __radd__ = _binop(_add)
    __sub__ = _binop(_sub)
    __rsub__ = _binop(lambda K, a, b: _sub(K, b, a))
    __mul__ = __rmul__ = _binop(_mul)

    def __neg__(self):
        K = _kernel(self.dom)
        return _store(K, _sub(K, (), self.vals))

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        result = Poly.one(self.dom)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("polynomial division by zero")
        K = _kernel(self.dom)
        q, r = _divmod(K, self.vals, o.vals)
        return _store(K, q), _store(K, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomial("monic of 0")
        if self.is_monic():
            return self
        K = _kernel(self.dom)
        return _store(K, _monic(K, self.vals))

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd (zero when both are zero)."""
        K = _kernel(self.dom)
        return _store(K, _gcd(K, self.vals, self._coerce(other).vals))

    def derivative(self) -> "Poly":
        K, vs = _kernel(self.dom), self.vals
        return _store(K, _trim([K.mul(vs[i], K.of_int(i)) for i in range(1, len(vs))]))

    def __call__(self, v):
        """Horner evaluation at an element of the coefficient domain or an int."""
        K = _kernel(self.dom)
        v = K.of_int(v) if isinstance(v, int) else K.value(v)
        return K.elem(_horner(K, self.vals, v))

    def compose(self, q: "Poly") -> "Poly":
        K, qv = _kernel(self.dom), self._coerce(q).vals
        acc = []
        for c in reversed(self.vals):
            acc = _add(K, _mul(K, acc, qv), [c])
        return _store(K, acc)

    def shift(self, k: int) -> "Poly":
        """Multiply by gen^k."""
        if self.is_zero():
            return self
        K = _kernel(self.dom)
        return _store(K, (K.zero,) * k + self.vals)

    # -- comparisons / ordering ----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.vals == o.vals

    def __hash__(self):
        return hash((id(self.dom), self.vals))

    def counter_key(self):
        """(degree, high-first value tuple): the package-wide polynomial order."""
        return (self.degree, self.vals[::-1])

    # -- rendering -------------------------------------------------------------

    def render(self, var: str = "x") -> str:
        """Ascending-power text; over a field the coefficients are rendered
        from their counter values (ffield._render_value), unwrapped, and a
        coefficient 1 of a power of the variable is not rendered at all."""
        K = _kernel(self.dom)
        F, terms = K.field, []
        for i, c in enumerate(self.vals):
            if not c:
                continue
            pw = var if i == 1 else f"{var}^{i}"
            if i and c == K.one:
                terms.append(pw)
                continue
            cs = _render_value(F, c) if F else c.render() if hasattr(c, "render") else str(c)
            if i == 0:
                terms.append(cs)
            else:
                if "+" in cs or "-" in cs:
                    cs = f"({cs})"
                terms.append(f"{cs}*{pw}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return self.render()


def _as_domain_elem(dom, v):
    """v as an element of dom, converting where a canonical inclusion exists."""
    if isinstance(dom, Field):
        if isinstance(v, FieldElem) and v.field is dom:
            return v
    elif isinstance(dom, FuncField):
        if isinstance(v, RatFunc) and v.ff is dom:
            return v
        if isinstance(v, FieldElem) and v.field is dom.field:
            return dom.from_elem(v)
    elif isinstance(dom, PolyRing):
        if isinstance(v, Poly) and v.dom is dom.dom:
            return v
    return None


def _domain_elem(dom, v):
    c = _as_domain_elem(dom, v)
    if c is None:
        raise FieldMismatch(f"{v!r} is not an element of {dom!r}")
    return c


class PolyRing:
    """Adapter letting Poly-over-D serve as the coefficient domain of an
    outer Poly.  Division by non-monic outer divisors is refused."""

    __slots__ = ("dom", "field", "zero", "one")

    def __init__(self, dom):
        self.dom = dom
        self.field = dom if isinstance(dom, Field) else dom.field  # of_int reduces by its p
        self.zero = Poly.zero(dom)
        self.one = Poly.one(dom)

    def from_int(self, n: int) -> Poly:
        return Poly.const(self.dom, self.dom.from_int(n))


# ---------------------------------------------------------------------------
# rational functions over GF(q)
# ---------------------------------------------------------------------------

class FuncField:
    """The rational function field GF(q)(x); one cached instance per field."""

    __slots__ = ("field", "zero", "one", "x")

    def __init__(self, field: Field):
        self.field = field
        pzero, pone = Poly.zero(field), Poly.one(field)
        self.zero = RatFunc(self, pzero, pone, reduced=True)
        self.one = RatFunc(self, pone, pone, reduced=True)
        self.x = RatFunc(self, Poly.gen(field), pone, reduced=True)

    def from_int(self, n: int) -> "RatFunc":
        return self.from_elem(self.field.from_int(n))

    def from_elem(self, c: FieldElem) -> "RatFunc":
        return RatFunc(self, Poly.const(self.field, c), Poly.one(self.field), reduced=True)

    def from_poly(self, f: Poly) -> "RatFunc":
        return RatFunc(self, f, Poly.one(self.field))

    def poly(self, ints: Sequence[int]) -> Poly:
        return Poly.of_ints(self.field, ints)

    def rat(self, num, den) -> "RatFunc":
        num = num if isinstance(num, Poly) else self.poly(num)
        den = den if isinstance(den, Poly) else self.poly(den)
        return RatFunc(self, num, den)

    def __repr__(self):
        return f"{self.field!r}(x)"


@functools.lru_cache(maxsize=None)
def func_field(F: Field) -> FuncField:
    return FuncField(F)


class RatFunc:
    """Reduced fraction num/den of polynomials over GF(q), den monic."""

    __slots__ = ("ff", "num", "den")

    def __init__(self, ff: FuncField, num: Poly, den: Poly, reduced: bool = False):
        if den.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        if not reduced:
            if num.is_zero():
                den = Poly.one(ff.field)
            else:
                g = num.gcd(den)
                if g.degree > 0:
                    num, den = num // g, den // g
                if not den.is_monic():
                    inv = den.lc.inverse()
                    num = num * inv
                    den = den * inv
        self.ff = ff
        self.num = num
        self.den = den

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> FieldElem:
        assert self.is_constant()
        return self.num.coeff(0)

    @property
    def height(self) -> int:
        """max(deg num, deg den); 0 for constants (including 0)."""
        return max(self.num.degree, self.den.degree, 0)

    # -- arithmetic ---------------------------------------------------------------

    def _coerce(self, other) -> Optional["RatFunc"]:
        if isinstance(other, RatFunc):
            if other.ff is not self.ff:
                raise FieldMismatch("rational functions over different fields")
            return other
        if isinstance(other, int):
            return self.ff.from_int(other)
        if isinstance(other, FieldElem):
            return self.ff.from_elem(other)
        if isinstance(other, Poly) and other.dom is self.ff.field:
            return self.ff.from_poly(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.ff, self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.ff, -self.num, self.den, reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.ff, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by the zero function")
        return RatFunc(self.ff, self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        num, den = self.num, self.den
        if e < 0:
            if self.is_zero():
                raise DivisionByZero("0 to a negative power")
            inv = num.lc.inverse()
            num, den, e = den * inv, num * inv, -e
        # coprime num and den stay coprime under powers: no gcd
        return RatFunc(self.ff, num ** e, den ** e, reduced=True)

    def evaluate(self, c: FieldElem) -> FieldElem:
        dv = self.den(c)
        if dv.is_zero():
            raise ZeroDenominator("evaluation at a pole")
        return self.num(c) / dv

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((id(self.ff), self.num.vals, self.den.vals))

    # -- rendering ----------------------------------------------------------------

    def render(self, var: str = "x") -> str:
        ns = self.num.render(var)
        if self.den.degree == 0:
            return ns
        ds = self.den.render(var)
        if "+" in ns or "-" in ns:
            ns = f"({ns})"
        if "+" in ds or "-" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return self.render()


# ---------------------------------------------------------------------------
# quadratics (delegates to the field-level solver)
# ---------------------------------------------------------------------------

def quadratic_roots(f: Poly) -> tuple:
    """Roots in GF(q) of a quadratic over GF(q), ascending.

    Works in both characteristics: odd q by discriminant, q even by
    ffield._artin_schreier_value.  A double root is reported once.
    """
    if not isinstance(f.dom, Field):
        raise DomainMismatch("quadratic_roots works over a finite field")
    if f.degree != 2:
        raise DomainMismatch(f"expected degree 2, got {f.degree}")
    g = f.monic()
    return ffield._solve_quadratic(f.dom, g.coeff(1), g.coeff(0))


# ---------------------------------------------------------------------------
# irreducibility / enumeration
# ---------------------------------------------------------------------------

def _powmod_q(base: Poly, e: int, mod: Poly) -> Poly:
    K = _kernel(base.dom)
    return _store(K, _powmod(K, base.vals, e, mod.vals))


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over GF(q) by Ben-Or's test (ffield._irreducible)."""
    if not isinstance(f.dom, Field):
        raise DomainMismatch("irreducibility is tested over a finite field")
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    if f.degree == 0:
        return False
    K = _kernel(f.dom)
    return _irreducible(K, _monic(K, f.vals))


def monic_polys(F: Field, d: int) -> Iterator[Poly]:
    """All monic degree-d polynomials over F in counter order."""
    K, q = _kernel(F), F.order
    for i in range(q ** d):
        yield _store(K, _digits(i, q, d) + [1])


# ---------------------------------------------------------------------------
# factorization over GF(q)
# ---------------------------------------------------------------------------

def _pth_root(K: _Kernel, f: list) -> list:
    """h with h^p = f, for a kernel list f over GF(q) whose derivative
    vanishes (exponents all p|i): c -> c^(q/p) is the p-th root in GF(q)."""
    F = K.field
    e = F.order // F.p
    return [F._pow(c, e) for c in f[::F.p]]


def _pth_root_poly(f: Poly) -> Poly:
    K = _kernel(f.dom)
    return _store(K, _pth_root(K, f.vals))


def _squarefree_decomposition(f: Poly) -> list:
    """[(monic squarefree g_i, multiplicity e_i)] with f = prod g_i^e_i, for
    monic f over GF(q), the g_i pairwise coprime: the gcd-based algorithm
    (von zur Gathen and Gerhard, Modern Computer Algebra, 14.6) on f's
    kernel list.  SizeExceeded above FACTOR_DEGREE_LIMIT, before any gcd."""
    if f.degree > FACTOR_DEGREE_LIMIT:
        raise SizeExceeded(f"degree {f.degree} exceeds {FACTOR_DEGREE_LIMIT}")
    K = _kernel(f.dom)
    p, mul = K.field.p, K.mul
    f = f.vals
    out = []
    e = 1
    while len(f) > 1:
        df = _trim([f[i] * i % p for i in range(1, len(f))] if K.p
                   else [mul(f[i], i % p) for i in range(1, len(f))])
        if not df:
            f = _pth_root(K, f)
            e *= p
            continue
        g = _gcd(K, f, df)
        if len(g) == 1:  # f is squarefree: the walk below would find f alone
            out.append((_store(K, f), e))
            break
        w = _divmod(K, f, g)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(K, w, g)
            z = _divmod(K, w, y)[0]
            if len(z) > 1:
                out.append((_store(K, z), i * e))
            w = y
            g = _divmod(K, g, y)[0]
            i += 1
        f = g
        e *= p
        if len(f) > 1:
            f = _pth_root(K, f)
    return out


def _distinct_degree(f: Poly) -> list:
    """[(product of irreducible factors of degree d, d)] for squarefree monic
    f: the groups of ffield's one Frobenius walk (ffield._distinct_degree,
    whose first group is also Ben-Or's irreducibility test), wrapped."""
    K = _kernel(f.dom)
    return [(_store(K, g), d) for g, d in ffield._distinct_degree(K, f.vals)]


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list:
    """All monic irreducible factors of f, each of degree d (Cantor-Zassenhaus)."""
    F = f.dom
    if f.degree == d:
        return [f]
    K, q, n, fl = _kernel(F), F.order, f.degree, f.vals
    while True:
        r = _trim([rng.randrange(q) for _ in range(n)])
        if len(r) < 2:
            continue
        if F.p == 2:  # the trace map r + r^2 + ... + r^(2^(dm-1)) mod f
            t = _divmod(K, r, fl)[1]
            w = []
            for _ in range(d * F.m):
                w = _add(K, w, t)
                t = _divmod(K, _mul(K, t, t), fl)[1]
        else:
            w = _sub(K, _powmod(K, r, (q ** d - 1) // 2, fl), [1])
        g = _store(K, _gcd(K, fl, w))
        if 0 < g.degree < f.degree:
            return (_equal_degree_split(g, d, rng)
                    + _equal_degree_split(f // g, d, rng))


def factor_fq(f: Poly):
    """Complete factorization over GF(q): (unit, [(monic irreducible, mult)]).

    The factor list is sorted by (degree, counter key), and the random choices
    inside equal-degree splitting come from a fixed-seed PRNG, so the result
    is identical run to run.
    """
    if not isinstance(f.dom, Field):
        raise DomainMismatch("factor_fq works over a finite field")
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit = f.lc
    if f.degree == 0:
        return unit, []
    rng = None
    factors = []
    for g, mult in _squarefree_decomposition(f.monic()):
        for gd, d in _distinct_degree(g):
            if rng is None and gd.degree > d:  # the first split that draws
                rng = random.Random(FACTOR_SEED)
            factors.extend((irr, mult) for irr in _equal_degree_split(gd, d, rng))
    factors.sort(key=lambda t: t[0].counter_key())
    return unit, factors


def poly_roots(f: Poly) -> list:
    """Roots of f in GF(q), ascending, without multiplicity."""
    _, factors = factor_fq(f)
    roots = [-g.coeff(0) for g, _ in factors if g.degree == 1]
    return sorted(roots)


def xgcd(a: Poly, b: Poly):
    """(g, u, v) with u*a + v*b = g, g the monic gcd (or zero)."""
    K = _kernel(a.dom)
    r0, r1 = a.vals, a._coerce(b).vals
    s0, s1 = [K.one], []
    t0, t1 = [], [K.one]
    while r1:
        q, r = _divmod(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(K, s0, _mul(K, q, s1))
        t0, t1 = t1, _sub(K, t0, _mul(K, q, t1))
    if r0:
        inv = K.inv(r0[-1])
        r0, s0, t0 = (_scale(K, v, inv) for v in (r0, s0, t0))
    return _store(K, r0), _store(K, s0), _store(K, t0)


# ---------------------------------------------------------------------------
# embeddings GF(q) -> GF(q^d)
# ---------------------------------------------------------------------------

class Embedding:
    """The field embedding sending F1's generator to the least root of F1's
    modulus inside F2.  Callable on elements of F1.

    images -- None where the map is the identity on counter values (src is
    GF(p), or src is dst); else the counter values of the images
    sum d_j root^j of all src.order elements d, listed by value.  It is built
    with the embedding, which embedding() makes on the first request for the
    pair.  src is then a proper subfield, so src.order^2 <= dst.order <=
    MAX_ORDER and the table holds at most 2^10 entries.
    """

    __slots__ = ("src", "dst", "root", "images")

    def __init__(self, src: Field, dst: Field, root: FieldElem):
        self.src = src
        self.dst = dst
        self.root = root
        self.images = None if src.m == 1 or src is dst else _span(
            [dst._pow(root.value, j) for j in range(src.m)], src.p, dst._add)

    def __call__(self, e: FieldElem) -> FieldElem:
        if e.field is not self.src:
            raise FieldMismatch("element not in the embedding's source field")
        return FieldElem(self.dst, self.value_image(e.value))

    def value_image(self, v: int) -> int:
        """The counter value of the image of the element of value v."""
        images = self.images
        return v if images is None else images[v]


@functools.lru_cache(maxsize=None)
def embedding(F1: Field, F2: Field) -> Embedding:
    if F1.p != F2.p or F2.m % F1.m != 0:
        raise FieldMismatch(f"no embedding {F1!r} -> {F2!r}")
    if F1 is F2:
        return Embedding(F1, F2, F2.gen())
    mod = Poly.of_ints(F2, list(F1.modulus))
    roots = poly_roots(mod)
    assert roots, "modulus must split in the extension"
    return Embedding(F1, F2, roots[0])
