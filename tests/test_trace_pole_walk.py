"""An odd-p trace form's ramification walk reads the poles alone.

For y^3 - 3y = a with p odd, a zero of a is never ramified through a itself:
only the poles (fully ramified where 3 does not divide the order) and the
zeros of a -+ 2 (tame, where the order is odd) are.  So
``arith._ramified_groups`` asks ``places.divisor_groups`` for the poles only
and never decomposes a's numerator.  The oracle is the earlier
``_ramified_groups``, copied below, which walked every group of a and skipped
the zeros; forms over GF(5), GF(7), GF(13) and GF(25) with zeros of
multiplicity 1-6 and repeated poles must give its yields, in its order, and
so its genus and ramification report.
"""
import random

from cubicext import places
from cubicext.arith import (Extension, _ramified_groups, as_local_reduce, char3_local_form,
                            genus, ramification_report)
from cubicext.canon import DepressedTrace, Pure
from cubicext.ffcubic import _family_field
from cubicext.ffield import field_make
from cubicext.places import divisor_groups, group_places, unit_residue
from cubicext.polyring import Poly, _squarefree_decomposition, func_field


def oracle_ramified_groups(ext):
    form, a, ff = ext.form, ext.form.a, ext.ff
    _family_field(ext.field, type(form))
    pure, trace = isinstance(form, Pure), isinstance(form, DepressedTrace)
    for g, v in divisor_groups(a):
        if pure or (trace and v < 0):
            if v % 3:
                yield g, 2, True
        elif trace and ff.field.p != 2:
            continue
        elif trace and v % 2:
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
        elif v % 3:
            yield g, -v + 2, True
        else:
            for P in group_places(ff, g):
                _, vstar, _ = char3_local_form(a, P)
                if vstar < 0:
                    yield P.pi, -vstar + 2, True
                elif vstar % 2:
                    yield P.pi, 1, False
    if trace and ff.field.p != 2:
        for two in (2, -2):
            shifted = a.num - a.den * two
            v_inf = a.den.degree - shifted.degree
            if v_inf > 0 and v_inf % 2 == 1:
                yield None, 1, False
            for g, e in _squarefree_decomposition(shifted.monic()):
                if e % 2:
                    yield g, 1, False


def _monic(F, rng, degree):
    return Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(degree)] + [F.one])


def _deck(seed, count):
    """a = c * prod z_i^(m_i) / prod w_j^(e_j): one to three zeros z_i of
    multiplicity 1-6 and one or two poles w_j of order 1-4, of degree 1 or
    2, times a constant, possibly times x^s for a pole at infinity."""
    rng, out = random.Random(seed), []
    for i in range(count):
        F = field_make(*((5, 1), (7, 1), (13, 1), (5, 2))[i % 4])
        ff = func_field(F)
        num = Poly.const(F, F.from_value(rng.randrange(1, F.order)))
        for _ in range(rng.randint(1, 3)):
            num = num * _monic(F, rng, rng.randint(1, 2)) ** rng.randint(1, 6)
        den = Poly.one(F)
        for _ in range(rng.randint(1, 2)):
            den = den * _monic(F, rng, rng.randint(1, 2)) ** rng.randint(1, 4)
        a = ff.rat(num, den)
        two = ff.from_int(2)
        if a != two and a != -two:
            out.append(Extension(DepressedTrace(a)))
    return out


DECK = _deck(38, 160)


def test_yields_genus_and_report_are_the_earlier_walks():
    for ext in DECK:
        expected = list(oracle_ramified_groups(ext))
        assert list(_ramified_groups(ext)) == expected, ext.form.a
        fully, partial = [], []
        for g, d, full in expected:
            (fully if full else partial).extend((P, d) for P in group_places(ext.ff, g))
        report = ramification_report(ext)
        assert set(report.fully_ramified) == set(fully), ext.form.a
        assert set(report.partially_ramified) == set(partial), ext.form.a
        deg = sum(d * (1 if g is None else g.degree) for g, d, _ in expected)
        assert genus(ext) == deg // 2 - 2, ext.form.a


def test_the_deck_has_repeated_zeros_and_poles():
    mults = {v for ext in DECK for _, v in divisor_groups(ext.form.a)}
    assert set(range(1, 7)) <= mults and {-2, -3, -4} <= mults


def test_the_numerator_is_never_decomposed(monkeypatch):
    seen = []

    def recording(f):
        seen.append(f)
        return _squarefree_decomposition(f)
    monkeypatch.setattr(places, "_squarefree_decomposition", recording)
    for ext in DECK:
        seen.clear()
        list(_ramified_groups(ext))
        assert seen == [ext.form.a.den], ext.form.a
