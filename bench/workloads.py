"""The benchmark's workloads: input decks, set-up, the measured op, checks.

A *deck* is the list of inputs one workload runs, made from the seed by
``make_deck`` with the standard library alone and passed to the workload
process as JSON of plain integers and strings.  A workload object turns the
deck into package objects, sets up (imports, fields, function fields, place
lists, one warm-up op per base), runs single ops, and checks their outputs
against oracles that do not share the code under test.

Only the standard library is imported at module level: each workload imports
the package inside ``setup`` so that a fresh process pays the import there.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "goldens"
LAUNCHER = HERE / "cli_launcher.py"
CLI_TIMEOUT_S = 120

# ff-decompose: q = 1 mod 3 (7, 2^8, 2^16), q = 2 mod 3 (101, 5^3) and
# characteristic 3 (3^4); 2^8 and 2^16 are characteristic 2.
FF_FIELDS = ((7, 1), (101, 1), (3, 4), (5, 3), (2, 8), (2, 16))
FF_PER_FIELD = 300
BRUTE_MAX_ORDER = 1 << 8
# how an input cubic is drawn, in a fixed proportion per field: random
# coefficients land mostly in the irreducible and linear-times-quadratic
# bins, so the other bins are built from chosen roots
FF_KINDS = (("coeffs", 12), ("roots", 4), ("double", 3), ("triple", 1))

# kx-arith: (p, m, family, inputs per height) over GF(p^m)(x); char-3
# fields take the char-3 family, the others pure and trace forms.  The
# counts are about inversely proportional to the cost of one op on the seed
# commit (5 ms for char 3 over GF(3), 170 ms for the trace form over GF(13)),
# so every base and family takes a similar share of the run: a change to
# any of them moves ops_per_s by a similar amount, and the median op lies in
# a dense stretch of the latency distribution rather than between clusters.
# The costliest form gets 16 inputs, so that the tail (the 11th slowest op)
# falls inside its cluster instead of in the sparse gap below it.
KX_COMBOS = (
    (3, 1, "char3", 36), (3, 2, "char3", 2),
    (2, 2, "pure", 18), (2, 2, "trace", 4),
    (5, 1, "pure", 20), (5, 1, "trace", 7),
    (7, 1, "pure", 12), (7, 1, "trace", 4),
    (13, 1, "pure", 3), (13, 1, "trace", 4),
)
KX_HEIGHTS = (3, 4, 5, 6)
KX_PLACE_DEGREE = 2

# warm-up inputs come from this seed, so set-up does the same work whatever
# the workload seed
WARMUP_SEED = 0


class Failed:
    """Stands in for the output of an op that raised."""

    def __init__(self, error: BaseException):
        self.error = f"{type(error).__name__}: {error}"

    def __eq__(self, other):
        return isinstance(other, Failed) and other.error == self.error


# ---------------------------------------------------------------------------
# decks
# ---------------------------------------------------------------------------

def make_deck(workload: str, seed: int, size: int = 0) -> list:
    """The inputs of `workload` for `seed`; `size` > 0 truncates the deck."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ff-decompose":
        deck = _ff_deck(rng)
    elif workload == "kx-arith":
        deck = _kx_deck(rng)
    elif workload == "cli-goldens":
        deck = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return deck[:size] if size > 0 else deck


def warmup_deck(workload: str) -> list:
    """One input per base, the same for every workload seed."""
    seen, out = set(), []
    for entry in make_deck(workload, WARMUP_SEED):
        base = tuple(entry[:2]) if isinstance(entry, list) else None
        if base not in seen:
            seen.add(base)
            out.append(entry)
    return out


def _ff_deck(rng: random.Random) -> list:
    kinds = [k for k, w in FF_KINDS for _ in range(w)]
    deck = []
    for i in range(FF_PER_FIELD):
        kind = kinds[i % len(kinds)]
        for p, m in FF_FIELDS:
            q = p ** m
            if kind == "double":
                simple = rng.randrange(q)
                double = (simple + rng.randrange(1, q)) % q
                values = [simple, double]
            else:
                n = {"coeffs": 3, "roots": 3, "triple": 1}[kind]
                values = [rng.randrange(q) for _ in range(n)]
            deck.append([p, m, kind, values])
    return deck


def _kx_deck(rng: random.Random) -> list:
    """Parameters a = num/den with deg num - deg den in {1, 2, 4, 5}.

    The pole of a at infinity then has order prime to 3, so infinity is
    fully ramified in all three families: the extension is irreducible and
    geometric by construction, without asking the code under test.
    """
    deck = []
    rounds = max(c[3] for c in KX_COMBOS)
    for r in range(rounds):
        for h, (p, m, family, count) in ((h, c) for h in KX_HEIGHTS for c in KX_COMBOS):
            if r >= count:
                continue
            q = p ** m
            gap = rng.choice([g for g in (1, 2, 4, 5) if g <= h])
            num = [rng.randrange(q) for _ in range(h)] + [rng.randrange(1, q)]
            den = [rng.randrange(q) for _ in range(h - gap)] + [1]
            deck.append([p, m, family, num, den])
    return deck


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class FFDecompose:
    """One op: reduce_cubic, then decompose_any, on a monic cubic over GF(q)."""

    name = "ff-decompose"

    def setup(self):
        from cubicext import canon, ffcubic, ffield, polyring
        self.canon, self.ffcubic, self.ffield, self.polyring = canon, ffcubic, ffield, polyring
        for p, m in FF_FIELDS:
            ffield.field_make(p, m)
        for entry in warmup_deck(self.name):
            self.op(self.prepare(entry))

    def prepare(self, entry):
        p, m, kind, values = entry
        F = self.ffield.field_make(p, m)
        v = [F.from_value(x) for x in values]
        if kind == "coeffs":
            e, f, g = v
        else:
            if kind == "roots":
                r1, r2, r3 = v
            elif kind == "double":
                r1, r2, r3 = v[0], v[1], v[1]
            else:
                r1 = r2 = r3 = v[0]
            e = -(r1 + r2 + r3)
            f = r1 * r2 + r1 * r3 + r2 * r3
            g = -(r1 * r2 * r3)
        return self.canon.Cubic(e, f, g)

    def op(self, c):
        self.canon.reduce_cubic(c)
        return self.ffcubic.decompose_any(c)

    def check(self, c, d) -> bool:
        ffc = self.ffcubic
        F = c.base
        Poly = self.polyring.Poly
        C = Poly(F, (c.g, c.f, c.e, F.one))
        X = Poly.gen(F)
        if isinstance(d, ffc.Irreducible):
            ok = _no_root(C, F.order)
        elif isinstance(d, ffc.LinTimesQuad):
            b, cc = d.quad
            quad = Poly(F, (cc, b, F.one))
            ok = (c(d.root).is_zero() and (X - d.root) * quad == C
                  and _no_root(quad, F.order))
        elif isinstance(d, ffc.ThreeDistinct):
            r1, r2, r3 = d.roots
            ok = (len({r1, r2, r3}) == 3 and all(c(r).is_zero() for r in d.roots)
                  and (X - r1) * (X - r2) * (X - r3) == C)
        elif isinstance(d, ffc.LinTimesSquare):
            ok = (d.simple != d.double and c(d.simple).is_zero() and c(d.double).is_zero()
                  and (X - d.simple) * (X - d.double) ** 2 == C)
        elif isinstance(d, ffc.Triple):
            ok = c(d.root).is_zero() and (X - d.root) ** 3 == C
        else:
            ok = False
        if ok and F.order <= BRUTE_MAX_ORDER:
            ok = d == ffc.brute_factor(c)
        return ok


def _no_root(f, q: int) -> bool:
    """gcd(X^q - X, f) = 1, with X^q reduced mod f by repeated squaring."""
    dom = f.dom
    X = type(f).gen(dom)
    acc, base, e = type(f).one(dom), X % f, q
    while e:
        if e & 1:
            acc = (acc * base) % f
        base = (base * base) % f
        e >>= 1
    return (acc - X).gcd(f).degree == 0


class KxArith:
    """One op over K = GF(q)(x): has_rational_root, genus, then the signature
    at every place of degree <= 2."""

    name = "kx-arith"

    def setup(self):
        from cubicext import arith, canon, ffield, places, polyring
        self.arith, self.canon, self.ffield, self.places, self.polyring = (
            arith, canon, ffield, places, polyring)
        self._places = {}
        for p, m, _, _ in KX_COMBOS:
            K = polyring.func_field(ffield.field_make(p, m))
            self._places[(p, m)] = places.places_up_to(K, KX_PLACE_DEGREE)
        for entry in warmup_deck(self.name):
            self.op(self.prepare(entry))

    def prepare(self, entry):
        p, m, family, num, den = entry
        F = self.ffield.field_make(p, m)
        K = self.polyring.func_field(F)
        Poly = self.polyring.Poly
        a = K.rat(Poly(F, [F.from_value(v) for v in num]),
                  Poly(F, [F.from_value(v) for v in den]))
        form = {"pure": self.canon.Pure, "trace": self.canon.DepressedTrace,
                "char3": self.canon.Char3}[family]
        return self.arith.Extension(form(a)), self._places[(p, m)]

    def op(self, job):
        ext, places = job
        root = self.canon.has_rational_root(ext.form)
        g = self.arith.genus(ext)
        sigs = tuple(self.arith.signature(ext, P) for P in places)
        return root, g, sigs

    def check(self, job, out) -> bool:
        arith = self.arith
        ext, places = job
        root, g, sigs = out
        if root is not None or type(g) is not int or g < 0:
            return False
        report = arith.ramification_report(ext)
        fully = {P for P, _ in report.fully_ramified}
        partial = {P for P, _ in report.partially_ramified}
        for P, sig in zip(places, sigs):
            if P in fully:
                expected = arith.SIG_FULLY_RAMIFIED
            elif P in partial:
                expected = arith.SIG_PARTIAL
            else:
                expected = None
            if (sig if sig.is_ramified else None) != expected:
                return False
        # the construction promises full ramification at infinity
        return places[0].is_infinite and sigs[0] == arith.SIG_FULLY_RAMIFIED


class CliGoldens:
    """One op: one cold ``cubicext`` process on a manifest entry."""

    name = "cli-goldens"
    trace = False

    def setup(self):
        import cubicext.cli  # noqa: F401  (the import every op pays cold)
        deck = make_deck(self.name, WARMUP_SEED)
        self.expected = {e["file"]: (GOLDEN_DIR / e["file"]).read_bytes() for e in deck}
        self.op(self.prepare(deck[0]))  # warm-up op

    def prepare(self, entry):
        return entry

    def op(self, entry):
        cmd = [sys.executable, str(LAUNCHER)]
        if self.trace:
            cmd.append("--trace")
        proc = subprocess.run(cmd + entry["argv"], capture_output=True,
                              env=child_env(), timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, entry, out) -> bool:
        code, stdout, stderr = out
        return code == 0 and stdout == self.expected[entry["file"]] and stderr == b""


def child_env() -> dict:
    """The environment for a child process: the package comes from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


WORKLOADS = {w.name: w for w in (FFDecompose, KxArith, CliGoldens)}
