"""The package's value classes, made by ``ffield.record``, against dataclasses.

Each of the 24 classes is compared, on seeded values over GF(7), GF(16) and
GF(5)(x), with a twin made by ``dataclasses.make_dataclass(frozen=True)``
from the field list written out in FIELDS, which is the oracle.  ==, !=,
hash and repr agree, keyword, positional and default construction agree,
bad calls raise TypeError on both sides, fields cannot be assigned or
deleted, and records of different classes with equal fields are unequal.
A twin runs its class's own __post_init__ and methods, so the three
__post_init__ effects are checked on their own at the end.
"""
import dataclasses
import itertools
import random
import typing

import pytest

from cubicext import arith, canon, ffcubic, ffield
from cubicext.errors import ReducibleInput, SingularMatrix, WrongCharacteristic
from cubicext.ffield import field_make, record
from cubicext.places import places_up_to
from cubicext.polyring import func_field

FIELDS = {
    ffield.Square: "roots", ffield.NonSquare: "", ffield.Cube: "roots", ffield.NonCube: "",
    canon.Cubic: "e f g", canon.Pure: "a", canon.DepressedTrace: "a", canon.Char3: "a",
    canon.InseparablePure: "a", canon.Reducible: "root quad",
    canon.FracLinear: "m00 m01 m10 m11", canon.Isomorphic: "witness",
    canon.NotIsomorphic: "witness", canon.Unknown: "",
    ffcubic.Irreducible: "", ffcubic.LinTimesQuad: "root quad", ffcubic.ThreeDistinct: "roots",
    ffcubic.LinTimesSquare: "simple double", ffcubic.Triple: "root",
    arith.Extension: "form", arith.Signature: "pairs",
    arith.RamificationReport: "fully_ramified partially_ramified", arith.Constant: "unit",
    arith.Geometric: "certificate",
}
DEFAULTS = {arith.Constant: {"unit": None}}

F7, F16 = field_make(7, 1), field_make(2, 4)
K5, K3 = func_field(field_make(5, 1)), func_field(field_make(3, 1))
PLACES = places_up_to(K5, 1)
SIGNATURES = ((3, 1),), ((1, 3),), ((1, 1), (1, 1), (1, 1)), ((1, 2), (1, 1)), ((1, 1), (2, 1))


def twin(cls):
    """cls's dataclass twin, with cls's own methods and __post_init__."""
    names = FIELDS[cls].split()
    spec = [(n, object, dataclasses.field(default=DEFAULTS[cls][n]))
            if n in DEFAULTS.get(cls, {}) else (n, object) for n in names]
    own = {k: v for k, v in vars(cls).items()
           if k not in names and (not k.startswith("__") or k == "__post_init__")}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=own)


TWINS = {cls: twin(cls) for cls in FIELDS}


def value(B, rng):
    """A small element of B, so that equal draws are common."""
    if B is K5:
        return K5.x * K5.from_int(rng.randrange(2)) + K5.from_int(rng.randrange(2))
    return B.from_value(rng.randrange(3))


def nonsingular(v):
    while True:
        m = (v(), v(), v(), v())
        if m[0] * m[3] - m[1] * m[2]:
            return m


def form(rng):
    """A canonical form that Extension accepts: a nonconstant parameter."""
    K, kind = rng.choice(((K5, canon.Pure), (K5, canon.DepressedTrace), (K3, canon.Char3)))
    return kind(K.x * K.from_int(rng.randrange(1, 3)) + K.from_int(rng.randrange(3)))


def draw(cls, rng, B=F7):
    """Seeded arguments for cls, the field values in B."""

    def v():
        return value(B, rng)

    def shuffled(pairs):
        return tuple(rng.sample(pairs, len(pairs)))

    def ramified():
        return tuple((rng.choice(PLACES[:2]), rng.randrange(1, 3)) for _ in range(rng.randrange(2)))

    makers = {
        ffield.Square: lambda: ((v(), v()),), ffield.Cube: lambda: ((v(), v(), v()),),
        canon.Cubic: lambda: (v(), v(), v()), canon.Reducible: lambda: (v(), (v(), v())),
        canon.FracLinear: lambda: nonsingular(v), canon.Isomorphic: lambda: ((v(), v()),),
        canon.NotIsomorphic: lambda: (rng.choice(PLACES[:2] + (None,)),),
        ffcubic.LinTimesQuad: lambda: (v(), (v(), v())),
        ffcubic.ThreeDistinct: lambda: ((v(), v(), v()),),
        ffcubic.LinTimesSquare: lambda: (v(), v()),
        arith.Extension: lambda: (form(rng),),
        arith.Signature: lambda: (shuffled(rng.choice(SIGNATURES)),),
        arith.RamificationReport: lambda: (ramified(), ramified()),
        arith.Constant: lambda: (rng.choice((None, v())),),
        arith.Geometric: lambda: (rng.choice(PLACES[:3]),),
    }
    if cls in makers:
        return tuple(makers[cls]())
    return tuple(v() for _ in FIELDS[cls].split())


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_record_agrees_with_its_dataclass_twin(cls):
    Twin, names = TWINS[cls], FIELDS[cls].split()
    rng = random.Random(f"records {cls.__name__}")
    built = []  # in one base, as elements of two fields do not compare
    for B in (F7, F16, K5):
        built.append([])
        for _ in range(12):
            args = draw(cls, rng, B)
            r, t = cls(*args), Twin(*args)
            assert repr(r) == repr(t)
            assert hash(r) == hash(t)
            assert [getattr(r, n) for n in names] == [getattr(t, n) for n in names]
            by_name = cls(**dict(zip(names, args)))
            assert by_name == r and not by_name != r and repr(by_name) == repr(r)
            assert r != args and not r == args
            built[-1].append((r, t))
    outcomes = set()
    pairs = itertools.chain.from_iterable(itertools.product(b, repeat=2) for b in built)
    for (r1, t1), (r2, t2) in pairs:
        assert (r1 == r2) == (t1 == t2)
        assert (r1 != r2) == (t1 != t2)
        if r1 == r2:
            assert hash(r1) == hash(r2)
        outcomes.add(r1 == r2)
    assert outcomes == ({True, False} if names else {True})


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_record_fields_cannot_be_assigned_or_deleted(cls):
    r = cls(*draw(cls, random.Random(f"frozen {cls.__name__}")))
    before = repr(r)
    for name in FIELDS[cls].split() + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert repr(r) == before


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_bad_construction_raises_type_error_like_the_twin(cls):
    names = FIELDS[cls].split()
    args = draw(cls, random.Random(f"calls {cls.__name__}"))
    calls = [(args + (None,), {}), (args, {"not_a_field": None})]
    if names:
        calls.append((args, {names[0]: args[0]}))  # given twice
        if names[0] not in DEFAULTS.get(cls, {}):
            calls.append(((), {}))
    for a, kw in calls:
        for make in (cls, TWINS[cls]):
            with pytest.raises(TypeError):
                make(*a, **kw)


def test_default_construction():
    u = F7.from_int(3)
    for C in (arith.Constant, TWINS[arith.Constant]):
        assert C() == C(None) == C(unit=None) != C(u) == C(unit=u)
        assert repr(C()) == "Constant(unit=None)"
    assert arith.Constant() == arith.Constant(unit=None)
    assert hash(arith.Constant()) == hash(TWINS[arith.Constant]())


@record
class Spelled:
    a: int
    b: "ClassVar[int]" = 1
    c: "typing.ClassVar[int]" = 2
    d: typing.ClassVar = 3
    e: typing.ClassVar[int] = 4


def test_classvar_is_no_field_however_spelled():
    r = Spelled(5)
    assert repr(r) == "Spelled(a=5)" and (r.b, r.c, r.d, r.e) == (1, 2, 3, 4)
    with pytest.raises(TypeError):
        Spelled(5, 6)
    t = ffcubic.Triple(F7.one)
    assert ffcubic.Triple.kind == t.kind == "triple" and repr(t) == "Triple(root=1)"
    assert repr(ffcubic.Irreducible()) == "Irreducible()"
    with pytest.raises(TypeError):
        ffcubic.Irreducible("irreducible")


class _LazyAnnotations(type):
    """Serves annotations only through the class attribute, never from the class
    namespace, as Python 3.14 does for modules without postponed annotations."""

    @property
    def __annotations__(cls):
        return {"a": int, "kind": typing.ClassVar[str], "b": int}


def test_fields_come_from_annotations_not_kept_in_the_namespace():
    class Lazy(metaclass=_LazyAnnotations):
        kind = "lazy"
        b = 7

    assert "__annotations__" not in vars(Lazy)
    record(Lazy)
    assert repr(Lazy(1)) == "Lazy(a=1, b=7)" and Lazy(a=1, b=2) == Lazy(1, 2)
    with pytest.raises(AttributeError):
        Lazy(1).a = 2


@pytest.mark.parametrize("group", [
    (canon.Pure, canon.DepressedTrace, canon.Char3, canon.InseparablePure, ffcubic.Triple),
    (ffield.Square, ffield.Cube, ffcubic.ThreeDistinct),
    (ffield.NonSquare, ffield.NonCube, canon.Unknown, ffcubic.Irreducible),
    (canon.Reducible, ffcubic.LinTimesQuad),
    (canon.Isomorphic, canon.NotIsomorphic, arith.Constant),
], ids=lambda g: "-".join(c.__name__ for c in g))
def test_records_of_different_classes_are_unequal(group):
    args = draw(group[0], random.Random(f"classes {group[0].__name__}"))
    made = [cls(*args) for cls in group]
    for (i, r1), (j, r2) in itertools.product(enumerate(made), repeat=2):
        assert (r1 == r2) == (i == j)
        assert (r1 != r2) == (i != j)
    assert len(set(made)) == len(made)


def test_signature_sorts_its_pairs():
    for pairs in SIGNATURES:
        want = tuple(sorted(pairs, key=lambda ef: (-ef[0], ef[1])))
        made = {arith.Signature(p) for p in itertools.permutations(pairs)}
        assert [s.pairs for s in made] == [want]
        assert TWINS[arith.Signature](tuple(reversed(pairs))).pairs == want
    assert arith.Signature(((1, 1), (2, 1))) == arith.SIG_PARTIAL


def test_frac_linear_normalises_its_entries():
    rng = random.Random("frac linear")
    for B in (F7, F16, K5):
        for _ in range(20):
            ms = nonsingular(lambda: value(B, rng))
            m = canon.FracLinear(*ms)
            pivot = next(e for e in ms if e)
            assert m.entries() == tuple(e / pivot for e in ms)
            assert next(e for e in m.entries() if e) == B.one
            c = value(B, rng) + B.one
            if c:
                assert canon.FracLinear(*(c * e for e in ms)) == m
        with pytest.raises(SingularMatrix):
            canon.FracLinear(B.one, B.one, B.one, B.one)


def test_extension_rejects_what_is_not_a_cubic_extension():
    x5, x3 = K5.x, K3.x
    cases = [
        (canon.Reducible(x5, (K5.zero, K5.one)), ReducibleInput),
        (canon.InseparablePure(x3), WrongCharacteristic),
        (canon.Pure(K5.zero), ReducibleInput),
        (canon.DepressedTrace(K5.zero), ReducibleInput),
        (canon.Char3(K3.zero), ReducibleInput),
        (canon.DepressedTrace(K5.from_int(2)), ReducibleInput),
        (canon.DepressedTrace(K5.from_int(-2)), ReducibleInput),
    ]
    for form_, error in cases:
        for make in (arith.Extension, TWINS[arith.Extension]):
            with pytest.raises(error):
                make(form_)
    assert arith.Extension(canon.DepressedTrace(x5)).family == "depressed_trace"
