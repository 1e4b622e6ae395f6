"""Place-by-place arithmetic of cubic extensions of GF(q)(x).

An ``Extension`` wraps one of the three separable canonical forms over
K = GF(q)(x).  Everything here is local-to-global: ``signature`` computes the
splitting type (e_i, f_i) of one place.  The different exponent of a place
follows from its valuation, so one walk reads groups of ramified places off
the squarefree parts of the parameter (and, for odd p, of a -+ 2), factoring
only what a local form needs; ``ramification_report`` factors the groups
into places, and ``genus`` sums d * deg g over them into Riemann-Hurwitz.

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
the carrier's root (``places.unit_residue``), and then only the bin of the
residual cubic (``ffcubic.bin_*``), never its roots; no RatFunc is built for
them, nor for the odd-p resolvent.  Only the char-3 poles of order divisible
by three still go through the RatFunc surgery of ``char3_local_form``.

The characteristic-2 resolvent is additive: ``as_local_reduce`` strips its
even-order poles at one place.  Whether it has a global solution is a root
question, which ``artin_schreier_solve`` hands to ``canon._roots_in`` like
every other; canon reaches back into this module only to scan places for
differing signatures.
"""

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .canon import (Char3, Cubic, DepressedTrace, InseparablePure, Pure, Reducible,
                    has_rational_root, _roots_in)
from .errors import (
    ConstantExtension,
    NonIntegralGenus,
    ReducibleInput,
    WrongCharacteristic,
    WrongFieldClass,
    ZeroInput,
)
from .ffcubic import (Irreducible, LinTimesQuad, LinTimesSquare, ThreeDistinct, bin_char3,
                      bin_depressed, bin_pure)
from .ffield import Cube, Square, cube_classify, square_classify, trace_to_prime
from .places import (Place, divisor_groups, group_places, residue_field, uniformizer,
                     unit_residue, unit_residue_of, valuation)
from .polyring import RatFunc, _squarefree_decomposition


# ---------------------------------------------------------------------------
# the extension wrapper
# ---------------------------------------------------------------------------

_FORMS = (Pure, DepressedTrace, Char3)


@dataclass(frozen=True)
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

    def cubic(self) -> Cubic:
        return self.form.cubic()


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
    v, res = unit_residue(ext.form.a, P)
    if v % 3 != 0:
        return SIG_FULLY_RAMIFIED
    return _UNRAMIFIED[bin_pure(res)]


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
    while True:
        v = valuation(u, P)
        if not isinstance(v, int) or v >= 0 or v % 2 == 1:
            break
        rd, pi = residue_field(P), uniformizer(P)  # only a step needs them
        k = (-v) // 2
        sbar = square_classify(rd.reduce(u * pi ** (2 * k))).roots[0]
        wstep = ff.from_poly(rd.lift(sbar)) * pi ** (-k)
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
        return _resolvent_odd(a, P, *unit_residue(a, P))
    u = ff.one / a + ff.one
    if u.is_zero():  # a = 1: resolvent z^2 + z = 0 splits
        return Split
    ur, _ = as_local_reduce(u, P)
    v = valuation(ur, P)
    if isinstance(v, int) and v < 0:
        assert v % 2 == 1, "reduction must leave an odd pole"
        return Ramified
    if ur.is_zero() or not trace_to_prime(residue_field(P).reduce(ur)):
        return Split
    return Inert


def _resolvent_odd(a: RatFunc, P: Place, v: int, r) -> ResolventBehavior:
    """resolvent_place_behavior for odd p from (v, r) = unit_residue(a, P).
    The resolvent field is K(sqrt(-27(a^2-4))): read the parity of v_P and
    the unit part's square class off (v, r) and, at a residue +-2, off that
    of a -+ 2 = (num -+ 2 den)/den, as a +- 2 is then a unit with residue +-4."""
    if v < 0:  # a^2 - 4 = a^2 (1 - 4/a^2)
        v, r = 2 * v, r * r
    elif v > 0:
        v, r = 0, r.field.from_int(-4)
    elif r * r == 4:
        two = 2 if r == 2 else -2
        shifted = a.num - a.den * two
        if shifted.is_zero():
            raise ReducibleInput("parameter +-2 makes the trace form reducible")
        v, r = unit_residue_of(shifted, a.den, P)
        r = r * (2 * two)
    else:
        r = r * r - 4
    if v % 2 == 1:
        return Ramified
    return Split if isinstance(square_classify(r * -27), Square) else Inert


def signature_depressed(ext: Extension, P: Place) -> Signature:
    a = ext.form.a
    v, res = unit_residue(a, P)
    if v < 0:
        if v % 3 != 0:
            return SIG_FULLY_RAMIFIED
        # deep pole: y = z/pi^(v/3) turns the form into z^3 = a*pi^(-v) + small,
        # a separable pure residual
        return _UNRAMIFIED[bin_pure(res)]
    kind = bin_depressed(res if v == 0 else res.field.zero)
    if kind is not LinTimesSquare:
        return _UNRAMIFIED[kind]
    # residual double root: the merged pair is separated by the resolvent
    return {Split: SIG_SPLIT, Inert: SIG_MIXED, Ramified: SIG_PARTIAL}[
        _resolvent_odd(a, P, v, res) if res.field.p != 2 else resolvent_place_behavior(a, P)]


# -- characteristic-3 family -------------------------------------------------

def char3_local_form(a: RatFunc, P: Place) -> Tuple[RatFunc, int, Tuple[RatFunc, ...]]:
    """Strip poles of order divisible by 3 from the char-3 parameter at P.

    Returns (a*, v*, steps): v* = v_P(a*) is >= 0 or negative prime to 3, and
    each step w in steps replaced a by (a^2 + w^3 + a*w)^2 / a^3 -- exactly
    the isomorphism-witness surgery, so the extension class is unchanged.
    Each pass raises v_P by at least 2.  A vanishing numerator would mean w
    itself is a root of y^3 + ay + a^2, so the input was reducible.
    """
    ff = a.ff
    if ff.field.p != 3:
        raise WrongCharacteristic("this local form is the characteristic-3 family's")
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
        if n.is_zero():
            raise ReducibleInput("the characteristic-3 cubic has a root in the base field")
        a = n * n / a ** 3
        steps.append(w2)
    return a, v, tuple(steps)


def signature_char3(ext: Extension, P: Place) -> Signature:
    a = ext.form.a
    v, res = unit_residue(a, P)
    if v < 0:
        if v % 3 != 0:
            return SIG_FULLY_RAMIFIED  # v prime to 3: one place, e = 3
        # only poles of order divisible by 3 need the surgery
        astar, v, _ = char3_local_form(a, P)
        if v < 0:
            return SIG_FULLY_RAMIFIED
        v, res = unit_residue(astar, P)
    if v == 0:
        return _UNRAMIFIED[bin_char3(res)]
    # a* = 0 at P: Newton polygon gives one unit root and a pair of slope
    # v*/2; parity of v* decides ramification, the square class of the
    # leading coefficient decides split vs inert
    if v % 2 == 1:
        return SIG_PARTIAL
    if isinstance(square_classify(-res), Square):
        return SIG_SPLIT
    return SIG_MIXED


# ---------------------------------------------------------------------------
# global ramification and the genus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
    split into places, for as_local_reduce and char3_local_form."""
    form, a, ff = ext.form, ext.form.a, ext.ff
    pure, trace = isinstance(form, Pure), isinstance(form, DepressedTrace)
    for g, v in divisor_groups(a):
        if pure or (trace and v < 0):
            if v % 3:
                yield g, 2, True
        elif trace and ff.field.p != 2:
            continue
        elif trace and v % 2:  # u = 1/a + 1 has an odd pole, which as_local_reduce keeps
            yield g, v + 1, False
        elif trace:
            u = ff.one / a + ff.one
            for P in group_places(ff, g):
                m = valuation(as_local_reduce(u, P)[0], P)
                if isinstance(m, int) and m < 0:
                    yield P.pi, -m + 1, False
        elif v > 0:
            if v % 2:
                yield g, 1, False
        elif v % 3:  # already normalised: no residue field needed
            yield g, -v + 2, True
        else:
            for P in group_places(ff, g):
                _, vstar, _ = char3_local_form(a, P)
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

@dataclass(frozen=True)
class Constant:
    """The extension only enlarges the constant field.

    For the pure family the witness unit u (a = u * h^3, u a non-cube
    constant) is carried; the other families have no natural unit.
    """

    unit: Optional[object] = None


@dataclass(frozen=True)
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
