"""Place-by-place arithmetic of cubic extensions of GF(q)(x).

An ``Extension`` wraps one of the three separable canonical forms over
K = GF(q)(x).  Everything here is local-to-global: ``signature`` computes the
splitting type (e_i, f_i) of one place.  The different exponent of a place
follows from its valuation, so one walk reads groups of ramified places off
the squarefree parts of the parameter (and, for odd p, of a -+ 2), factoring
only what a local form needs; ``ramification_report`` factors the groups
into places, and ``genus`` sums d * deg g over them into Riemann-Hurwitz.
The walk first refuses a pure form in characteristic 3, and a char-3 form
elsewhere, with the signatures' WrongCharacteristic.

Local normalisation comes first in each family:

* pure          y^3 = a       strip cube powers of the uniformizer;
* trace form    y^3 - 3y = a  poles deep enough are pure again; elsewhere the
                              residual cubic decides, with a quadratic
                              resolvent handling the boundary case;
* char 3        y^3 + ay = -a^2  strip poles of order divisible by three by a
                              parameter surgery that keeps the extension
                              isomorphic (an explicit witness each time).

Each signature reads its two local quantities, v_P(a) and the residue of the
unit part a * pi^(-v), off one evaluation of a's numerator and denominator at
the carrier's root (``places._unit_residue_value``, a counter value in the
residue field, which at a finite place is one ``ResidueData._unit_value``
call: evaluate both sides, strip the carrier, divide by the field's bound
``_div``), and then only the bin of the residual cubic, never its
roots: a list index into the table of one ``ffcubic._bin_*`` over the
residue field (``_bin_table``, built once per field and family, for fields
of at most ``places._ROW_MAX_ORDER`` elements), or the ``_bin_*`` itself on
a larger field.  Either way the bin is read off the family's root core's
roots through ffcubic's root table under the same bound (no ``Decomp`` is
built), so building a bin table also fills the root table of its field
and family; no RatFunc is built for it.  The rarer branches stay on counter
values too: the odd-p resolvent at a residual double root (``_resolvent_odd``)
forms a -+ 2 on the kernel lists of num and den, takes its residue with one
more ``_unit_value`` call, and reads a square class by Euler's test with the
field's bound ``_pow``, as the characteristic-3 family does for -r at a zero
of even order; a characteristic-2 zero of odd order is (2,1;1,1) at once.
A char-3 pole of order divisible by three takes ``char3_local_form``'s
surgery at the place only (``_char3_surgery``): on the kernel lists of two
units held mod pi^N, with no inverse, gcd or RatFunc.  Only a
characteristic-2 zero of even order (``resolvent_place_behavior``) wraps the
parameter as RatFunc and FieldElem again.

The characteristic-2 resolvent is additive: ``as_local_reduce`` strips its
even-order poles at one place.  Whether it has a global solution is a root
question, which ``artin_schreier_solve`` hands to ``canon._roots_in`` like
every other; canon reaches back into this module only to scan places for
differing signatures.
"""

import enum
import functools
from typing import List, Optional, Tuple, Union

from .canon import (Char3, DepressedTrace, InseparablePure, Pure, Reducible,
                    has_rational_root, _roots_in)
from .errors import (
    ConstantExtension,
    NonIntegralGenus,
    ReducibleInput,
    SizeExceeded,
    WrongCharacteristic,
    WrongFieldClass,
    ZeroInput,
)
from .ffcubic import (Irreducible, LinTimesQuad, LinTimesSquare, ThreeDistinct, _bin_char3,
                      _bin_depressed, _bin_pure, _family_field)
from .ffield import (Cube, FieldElem, _add, _divmod, _kernel, _mul, _scale, _sub, cube_classify,
                     record, square_classify, trace_to_prime)
from .places import (_ROW_MAX_ORDER, Place, _unit_residue_value, divisor_groups, group_places,
                     residue_field, uniformizer, unit_residue, valuation)
from .polyring import FACTOR_DEGREE_LIMIT, RatFunc, _squarefree_decomposition


# ---------------------------------------------------------------------------
# the extension wrapper
# ---------------------------------------------------------------------------

_FORMS = (Pure, DepressedTrace, Char3)


@record
class Extension:
    """A cubic extension L = K[y]/(canonical form) of K = GF(q)(x)."""

    form: Union[Pure, DepressedTrace, Char3]

    def __post_init__(self):
        form = self.form
        if isinstance(form, InseparablePure):
            raise WrongCharacteristic(
                "y^3 = a is inseparable in characteristic 3; no place arithmetic applies")
        if isinstance(form, Reducible):
            raise ReducibleInput("the defining cubic has a root in the base field")
        if not isinstance(form, _FORMS):
            raise TypeError(f"expected a canonical form, got {type(form).__name__}")
        if not isinstance(form.a, RatFunc):
            raise WrongFieldClass("place arithmetic needs a rational function field base")
        a = form.a
        if a.is_zero():
            raise ReducibleInput("parameter 0 makes the cubic reducible")
        if isinstance(form, DepressedTrace):
            if a.ff.field.p == 3:
                raise WrongCharacteristic(
                    "y^3 - 3y = a is y^3 = a, inseparable in characteristic 3")
            two = a.ff.from_int(2)
            if (a - two).is_zero() or (a + two).is_zero():
                raise ReducibleInput("parameter +-2 makes the trace form reducible")

    @property
    def ff(self):
        return self.form.a.ff

    @property
    def field(self):
        return self.ff.field

    @property
    def family(self) -> str:
        if isinstance(self.form, Pure):
            return "pure"
        if isinstance(self.form, DepressedTrace):
            return "depressed_trace"
        return "char3"


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

@record
class Signature:
    """Splitting type of one place: pairs (e, f) with sum(e*f) = 3.

    Stored sorted by descending e then ascending f, so signatures compare by
    plain equality.  Rendered like ``(2,1;1,1)``.
    """

    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted(self.pairs, key=lambda ef: (-ef[0], ef[1])))
        object.__setattr__(self, "pairs", pairs)
        assert sum(e * f for e, f in pairs) == 3, pairs

    def render(self) -> str:
        return "(" + ";".join(f"{e},{f}" for e, f in self.pairs) + ")"

    def __str__(self):
        return self.render()

    @property
    def is_ramified(self) -> bool:
        return any(e > 1 for e, _ in self.pairs)


SIG_FULLY_RAMIFIED = Signature(((3, 1),))
SIG_INERT = Signature(((1, 3),))
SIG_SPLIT = Signature(((1, 1), (1, 1), (1, 1)))
SIG_MIXED = Signature(((1, 1), (1, 2)))
SIG_PARTIAL = Signature(((2, 1), (1, 1)))


# residual bin -> signature, for a separable residual cubic (Hensel lifts each factor)
_UNRAMIFIED = {Irreducible: SIG_INERT, ThreeDistinct: SIG_SPLIT, LinTimesQuad: SIG_MIXED}


@functools.lru_cache(maxsize=None)
def _bin_table(k, core) -> Optional[list]:
    """[core(k, v) for every counter value v of the residue field k], built
    on first use once per (field, core), or None when k has more than
    places._ROW_MAX_ORDER elements.  It depends on the field alone, like
    the Zech tables; nothing is kept per extension, place or input."""
    return [core(k, v) for v in range(k.order)] if k.order <= _ROW_MAX_ORDER else None


def _bin(core, k, r: int) -> type:
    """core(k, r), the residual cubic's bin, read off k's table if it has one."""
    table = _bin_table(k, core)
    return core(k, r) if table is None else table[r]


def signature(ext: Extension, P: Place) -> Signature:
    """Splitting type of the place P in the extension."""
    form = ext.form
    if isinstance(form, Pure):
        return signature_pure(ext, P)
    if isinstance(form, DepressedTrace):
        return signature_depressed(ext, P)
    return signature_char3(ext, P)


# -- pure family ------------------------------------------------------------

def pure_local_form(a: RatFunc, P: Place) -> Tuple[RatFunc, RatFunc]:
    """(a', c) with a = a' * c^3 and v_P(a') in {0, 1, 2}.

    Replacing y by y/c turns y^3 = a into y'^3 = a', so the extension is
    unchanged and the parameter is a P-unit up to at most pi^2.
    """
    if a.is_zero():
        raise ZeroInput("no local form for the zero parameter")
    v = valuation(a, P)
    j = v // 3  # floor, also for negative v
    c = uniformizer(P) ** j
    return a / c ** 3, c


def signature_pure(ext: Extension, P: Place) -> Signature:
    # v = 3j: the residue of a * pi^(-v) is that of pure_local_form's a'
    v, k, r = _unit_residue_value(ext.form.a.num, ext.form.a.den, P)
    if v % 3 != 0:
        return SIG_FULLY_RAMIFIED
    return _UNRAMIFIED[_bin(_bin_pure, _family_field(k, Pure), r)]


# -- characteristic-2 resolvent ---------------------------------------------

def as_local_reduce(u: RatFunc, P: Place) -> Tuple[RatFunc, RatFunc]:
    """Strip even-order pole parts of u at P, additively (characteristic 2).

    Returns (u', w) with u' = u - w^2 - w, where v_P(u') is >= 0 or negative
    odd, and w has poles at most at P.  Each pass subtracts the exact leading
    term: if v_P(u) = -2k with leading residue r, then w gains s/pi^k where
    s lifts sqrt(r), and the pole order strictly drops.  Solvability of
    z^2 + z = u at P is untouched.
    """
    ff = u.ff
    if ff.field.p != 2:
        raise WrongCharacteristic("additive pole reduction is a characteristic-2 step")
    w = ff.zero
    while u:
        v, r = unit_residue(u, P)
        if v >= 0 or v % 2 == 1:
            break
        sbar = square_classify(r).roots[0]
        wstep = ff.from_poly(residue_field(P).lift(sbar)) * uniformizer(P) ** (v // 2)
        u = u - wstep * wstep - wstep
        w = w + wstep
    return u, w


def artin_schreier_solve(u: RatFunc) -> Optional[RatFunc]:
    """The least y (in value_key order) with y^2 + y = u over GF(q)(x),
    q even, or None: the first root of Y^2 + Y + u.  The other is y + 1."""
    ff = u.ff
    if ff.field.p != 2:
        raise WrongCharacteristic("y^2 + y = u is a characteristic-2 equation")
    roots = _roots_in(ff, (u, ff.one, ff.one))
    return roots[0] if roots else None


# -- trace (depressed) family ------------------------------------------------

class ResolventBehavior(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


Split = ResolventBehavior.SPLIT
Inert = ResolventBehavior.INERT
Ramified = ResolventBehavior.RAMIFIED


def resolvent_place_behavior(a: RatFunc, P: Place) -> ResolventBehavior:
    """Behavior at P of the quadratic resolvent of y^3 - 3y = a.

    Odd characteristic: _resolvent_odd.
    Even characteristic: the resolvent is z^2 + z = 1/a + 1, the class of
    1/a^2 + 1 = (1/a + 1)^2; reduce the pole and read the residual trace.
    """
    ff = a.ff
    if a.is_zero():
        raise ReducibleInput("parameter 0 makes the trace form reducible")
    if ff.field.p != 2:
        return _resolvent_odd(a, P, *_unit_residue_value(a.num, a.den, P))
    ur, _ = as_local_reduce(ff.one / a + ff.one, P)
    if not ur:  # z^2 + z = 0 (a = 1, or u reduced to 0) splits
        return Split
    v, r = unit_residue(ur, P)
    if v < 0:
        assert v % 2 == 1, "reduction must leave an odd pole"
        return Ramified
    return Inert if v == 0 and trace_to_prime(r) else Split


def _resolvent_odd(a: RatFunc, P: Place, v: int, k, r: int) -> ResolventBehavior:
    """resolvent_place_behavior for odd p from (v, k, r) = _unit_residue_value
    of a at P, on counter values in the residue field k.  The resolvent field
    is K(sqrt(-27(a^2-4))): read the parity of v_P and the unit part's square
    class (Euler's test) off (v, r) and, at a residue +-2, off that of
    a -+ 2 = (num -+ 2 den)/den, as a +- 2 is then a unit with residue +-4."""
    p, mul = k.p, k._mul
    if v < 0:  # a^2 - 4 = a^2 (1 - 4/a^2)
        v, r = 2 * v, mul(r, r)
    elif v > 0:
        v, r = 0, -4 % p
    elif mul(r, r) == 4:  # p >= 5, so 4 is its own counter value
        two = 2 if r == 2 else -2 % p
        K, ds = _kernel(a.ff.field), a.den.vals
        shifted = _sub(K, a.num.vals, _scale(K, ds, two))
        if not shifted:
            raise ReducibleInput("parameter +-2 makes the trace form reducible")
        v, _, r = ((len(ds) - len(shifted), k, k._div(shifted[-1], ds[-1])) if P.pi is None
                   else residue_field(P)._unit_value(shifted, ds))
        r = mul(r, 2 * two % p)
    else:
        r = k._sub(mul(r, r), 4)
    if v % 2 == 1:
        return Ramified
    return Split if k._pow(mul(r, -27 % p), (k.order - 1) // 2) == 1 else Inert


def signature_depressed(ext: Extension, P: Place) -> Signature:
    a = ext.form.a  # p != 3, as Extension checks
    v, k, r = _unit_residue_value(a.num, a.den, P)
    if v < 0:
        if v % 3 != 0:
            return SIG_FULLY_RAMIFIED
        # deep pole: y = z/pi^(v/3) turns the form into z^3 = a*pi^(-v) + small,
        # a separable pure residual
        return _UNRAMIFIED[_bin(_bin_pure, k, r)]
    kind = _bin(_bin_depressed, k, r if v == 0 else 0)
    if kind is not LinTimesSquare:
        return _UNRAMIFIED[kind]
    # residual double root: the merged pair is separated by the resolvent; in
    # characteristic 2 only at a zero of a, where an odd order ramifies (u = 1/a + 1
    # keeps an odd pole, as _ramified_groups reads)
    if k.p == 2 and v % 2:
        return SIG_PARTIAL
    return {Split: SIG_SPLIT, Inert: SIG_MIXED, Ramified: SIG_PARTIAL}[
        _resolvent_odd(a, P, v, k, r) if k.p != 2 else resolvent_place_behavior(a, P)]


# -- characteristic-3 family -------------------------------------------------

def char3_local_form(a: RatFunc, P: Place) -> Tuple[RatFunc, int, Tuple[RatFunc, ...]]:
    """Strip poles of order divisible by 3 from the char-3 parameter at P.

    Returns (a*, v*, steps): v* = v_P(a*) is >= 0 or negative prime to 3, and
    each step w in steps replaced a by (a^2 + w^3 + a*w)^2 / a^3 -- exactly
    the isomorphism-witness surgery, so the extension class is unchanged.
    Each pass raises v_P by at least 2.  The numerator never vanishes: that
    would make w = W/pi^(2k) a root of y^3 + ay + a^2, a quadratic in a of
    discriminant w^2 (1 - w) in characteristic 3, so 1 - w would be a square
    in K, and pi^(2k) - W with it in GF(q)[x].  But pi^(2k) - W is monic of
    degree 2k deg P > deg W, so it is (pi^k + e)^2 only for e = 0 and W = 0,
    and W, a lifted cube root of a nonzero residue, is not 0; at infinity
    1 - W x^(2k) is no square likewise.  The package reads the same surgery
    at the place alone (_char3_surgery); this global form is kept for the
    tests.
    """
    ff = a.ff
    _family_field(ff.field, Char3)  # p = 3, or decompose_char3's error
    if a.is_zero():
        raise ZeroInput("no local form for the zero parameter")
    pi = uniformizer(P)
    steps: List[RatFunc] = []
    while True:
        v, res = unit_residue(a, P)
        if v >= 0 or v % 3 != 0:
            break
        rd = residue_field(P)  # only a pole of order divisible by 3 needs it
        k = (-v) // 3
        w1 = cube_classify(-(res * res)).roots[0]  # residue of -a^2 * pi^(6k)
        w2 = ff.from_poly(rd.lift(w1)) * pi ** (-2 * k)
        n = a * a + w2 ** 3 + a * w2
        a = n * n / a ** 3
        steps.append(w2)
    return a, v, tuple(steps)


def _char3_surgery(a: RatFunc, P: Place, v: int) -> Tuple[int, int]:
    """char3_local_form's answer at P for a pole of order -v = 3k, read on
    units mod pi^N: (v*, r) with v* = v_P(a*) when v* <= 0, a value of v*'s
    parity when v* > 0, and r the counter value of the residue of
    a* pi^(-v*) at v* = 0, of its square class at v* > 0.

    Write a = pi^v nu/du with nu, du units (at infinity, x -> 1/x reverses
    the coefficient lists and the place is pi = x).  A step w = W/pi^(2k),
    W the lift of the cube root w1 of -alpha^2, alpha the residue of nu/du,
    gives a* = pi^(v + 2s) M'^2 / (du nu^3), where M = nu^2 + W^3 du^2 +
    pi^k nu W du = pi^s M'.  Precision: each step holds nu and du mod
    pi^prec, prec = floor(-v/2) + 1 = floor(3k/2) + 1, which tells the three
    outcomes apart: s < 3k/2 gives v* < 0, s = 3k/2 gives v* = 0 with M'
    known mod pi, so its residue, and M = 0 mod pi^prec gives v* > 0.  A step
    that continues used s digits and raised v by 2s, so prec - s =
    floor(-v*/2) + 1 again, and N = floor(-v0/2) + 1 digits suffice from
    the start.  At v* > 0 no digit more is needed: v* = 2s - 3k has k's
    parity, and the residue m'^2/(delta nu^3) has the square class of alpha.
    N deg P <= deg den/2 + deg P, checked against FACTOR_DEGREE_LIMIT first.
    """
    ff, pi, prec = a.ff, P.pi, -v // 2 + 1
    if prec * P.degree > FACTOR_DEGREE_LIMIT:
        raise SizeExceeded(f"a surgery mod a power of degree {prec * P.degree} exceeds"
                           f" {FACTOR_DEGREE_LIMIT}")
    K, ns, ds = _kernel(_family_field(ff.field, Char3)), a.num.vals, a.den.vals
    if pi is None:  # a = x^(-v) rev(num)/rev(den) in 1/x, both units at x = 0
        pi, ns, ds = ff.x.num, ns[::-1], ds[::-1]
        P = Place(ff, pi)
    else:
        ds = _divmod(K, ds, (pi ** -v).vals)[0]
    rd, mod, pv = residue_field(P), (pi ** prec).vals, pi.vals
    k = rd.field
    nu, du = _divmod(K, ns, mod)[1], _divmod(K, ds, mod)[1]
    while True:
        n, d = rd._eval(nu), rd._eval(du)
        alpha = k._div(n, d)
        W = rd.lift(FieldElem(k, k._pow(k._neg(k._mul(alpha, alpha)), k.order // 3))).vals
        t = _mul(K, W, du)
        M = _add(K, _mul(K, nu, _add(K, nu, _mul(K, (pi ** (-v // 3)).vals, t))),
                 _mul(K, W, _mul(K, t, t)))
        M, s = _divmod(K, M, mod)[1], 0
        while s < prec and not rd._eval(M):
            M, s = _divmod(K, M, pv)[0], s + 1
        v, prec = v + 2 * s, prec - s
        if v >= 0 or v % 3:
            if v:  # v* < 0 reads no residue, v* > 0 only alpha's square class
                return v, alpha
            m = rd._eval(M)
            return v, k._div(k._mul(m, m), k._mul(d, k._pow(n, 3)))
        mod = (pi ** prec).vals
        nu, du = (_divmod(K, _mul(K, M, M), mod)[1],
                  _divmod(K, _mul(K, du, _mul(K, nu, _mul(K, nu, nu))), mod)[1])


def signature_char3(ext: Extension, P: Place) -> Signature:
    a = ext.form.a
    v, k, r = _unit_residue_value(a.num, a.den, P)
    if v < 0 and v % 3 == 0:  # only poles of order divisible by 3 need the surgery
        v, r = _char3_surgery(a, P, v)
    if v < 0:
        return SIG_FULLY_RAMIFIED  # v prime to 3: one place, e = 3
    if v == 0:
        return _UNRAMIFIED[_bin(_bin_char3, _family_field(k, Char3), r)]
    # a* = 0 at P: Newton polygon gives one unit root and a pair of slope
    # v*/2; parity of v* decides ramification, the square class of the
    # leading coefficient decides split vs inert
    if v % 2 == 1:
        return SIG_PARTIAL
    return SIG_SPLIT if k._pow(k._neg(r), (k.order - 1) // 2) == 1 else SIG_MIXED


# ---------------------------------------------------------------------------
# global ramification and the genus
# ---------------------------------------------------------------------------

@record
class RamificationReport:
    """Every ramified place with its different exponent d.

    fully_ramified   -- places with e = 3 (one place above, f = 1);
    partially_ramified -- places with signature (2,1;1,1).
    deg(Different) = sum of d * deg(P) over both lists.
    """

    fully_ramified: Tuple[Tuple[Place, int], ...]
    partially_ramified: Tuple[Tuple[Place, int], ...]

    @property
    def different_degree(self) -> int:
        return sum(d * P.degree for P, d in self.fully_ramified) + \
            sum(d * P.degree for P, d in self.partially_ramified)

    @property
    def is_empty(self) -> bool:
        return not self.fully_ramified and not self.partially_ramified


def _ramified_groups(ext: Extension):
    """Yield (g, d, full) over the ramified places: g is None for infinity,
    else the squarefree product of the finite places whose valuation, and so
    different exponent d, they share; full tells e = 3 from (2,1;1,1).  Only
    char-2 zeros of even order and char-3 poles of order divisible by 3 are
    split into places, for as_local_reduce and _char3_surgery.  An odd-p
    trace form ramifies at a zero of a only through a -+ 2, read below, so
    its walk reads the poles alone (divisor_groups with zeros false) and
    a's numerator is never decomposed."""
    form, a, ff = ext.form, ext.form.a, ext.ff
    _family_field(ext.field, type(form))  # a pure form in characteristic 3, a char-3 one elsewhere
    pure, trace = isinstance(form, Pure), isinstance(form, DepressedTrace)
    for g, v in divisor_groups(a, zeros=not trace or ff.field.p == 2):
        if pure or (trace and v < 0):
            if v % 3:
                yield g, 2, True
        elif trace and v % 2:  # u = 1/a + 1 has an odd pole, which as_local_reduce keeps
            yield g, v + 1, False
        elif trace:
            u = ff.one / a + ff.one
            for P in group_places(ff, g):
                ur = as_local_reduce(u, P)[0]
                m = unit_residue(ur, P)[0] if ur else 0
                if m < 0:
                    yield P.pi, -m + 1, False
        elif v > 0:
            if v % 2:
                yield g, 1, False
        elif v % 3:  # already normalised: no residue field needed
            yield g, -v + 2, True
        else:
            for P in group_places(ff, g):
                vstar = _char3_surgery(a, P, v)[0]
                if vstar < 0:
                    yield P.pi, -vstar + 2, True
                elif vstar % 2:
                    yield P.pi, 1, False
    if trace and ff.field.p != 2:
        # a - 2 and a + 2 differ by the unit 4, so at a zero P of either,
        # v_P(-27(a^2 - 4)) is that zero's order: the resolvent ramifies
        # iff it is odd.  The zeros of a -+ 2 = (num -+ 2 den)/den are
        # the places of num -+ 2 den and, below deg den, infinity.
        for two in (2, -2):
            shifted = a.num - a.den * two
            v_inf = a.den.degree - shifted.degree
            if v_inf > 0 and v_inf % 2 == 1:
                yield None, 1, False
            for g, e in _squarefree_decomposition(shifted.monic()):
                if e % 2:
                    yield g, 1, False


def ramification_report(ext: Extension) -> RamificationReport:
    """Every ramified place of the extension, with its different exponent.

    Pure family: exactly the places with v_P(a) prime to 3 ramify (tame,
    e = 3, d = 2).  Trace family: poles prime to 3 as in the pure case, plus
    partially ramified places where the residual cubic has a double root and
    the resolvent ramifies (tame d = 1 for odd q; wild d = m+1 for even q,
    m the reduced pole order of the resolvent parameter).  Char 3: poles
    surviving local normalisation are wild with d = -v* + 2; places where the
    normalised parameter vanishes to odd order carry the tame quadratic
    (d = 1).  The groups of _ramified_groups are factored into their places.
    """
    fully: List[Tuple[Place, int]] = []
    partial: List[Tuple[Place, int]] = []
    for g, d, full in _ramified_groups(ext):
        (fully if full else partial).extend((P, d) for P in group_places(ext.ff, g))
    fully.sort(key=lambda pd: pd[0].sort_key())
    partial.sort(key=lambda pd: pd[0].sort_key())
    return RamificationReport(tuple(fully), tuple(partial))


# -- constant-field detection -------------------------------------------------

@record
class Constant:
    """The extension only enlarges the constant field.

    For the pure family the witness unit u (a = u * h^3, u a non-cube
    constant) is carried; the other families have no natural unit.
    """

    unit: Optional[object] = None


@record
class Geometric:
    """The constant field does not grow; certificate is one ramified place."""

    certificate: Place


def is_constant_extension(ext: Extension):
    """Constant(unit) / Geometric(place) for the wrapped extension.

    A geometric cubic extension of a rational function field must ramify
    somewhere (Riemann-Hurwitz leaves no room at genus >= 0 otherwise), so
    the report's first place certifies it (the least fully ramified, if any)
    and an empty report a constant-field extension.  A pure a is then
    u * h^3, u the leading coefficient of a's numerator (the denominator is
    monic), and the extension is constant for a non-cube u -- a cube u would
    make the cubic reducible, which is reported instead.
    """
    rep = ramification_report(ext)
    if not rep.is_empty:
        return Geometric((rep.fully_ramified or rep.partially_ramified)[0][0])
    if not isinstance(ext.form, Pure):
        return Constant(None)
    u = ext.form.a.num.lc
    if isinstance(cube_classify(u), Cube):
        raise ReducibleInput("the parameter is a cube, so y^3 = a is reducible")
    return Constant(u)


def genus(ext: Extension) -> int:
    """Genus of L via Riemann-Hurwitz: 2g - 2 = 3(2*0 - 2) + deg(Different).

    Raises ConstantExtension when the constant field grows (the formula
    would need the larger field) and NonIntegralGenus if the collected
    different degree is inconsistent (odd, or too small for a field).
    """
    deg = sum(d * (1 if g is None else g.degree) for g, d, _ in _ramified_groups(ext))
    if not deg:
        is_constant_extension(ext)  # raises ReducibleInput for a cube parameter
        raise ConstantExtension(
            "the extension only enlarges the constant field; its genus over the"
            " larger constants is 0")
    if deg % 2 != 0 or deg < 4:
        # geometric irreducible forces deg >= 4 and even; anything else means
        # the defining cubic already had a root in K (or an internal bug)
        if has_rational_root(ext.form) is not None:
            raise ReducibleInput("the defining cubic has a root in the base field")
        raise NonIntegralGenus(
            f"different degree {deg} is impossible for a geometric cubic extension")
    return deg // 2 - 2
