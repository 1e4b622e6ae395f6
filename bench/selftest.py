"""Self-test of the benchmark itself; takes a few seconds.

    python3 bench/selftest.py            (or: python3 -m pytest -q bench/selftest.py)

It shows that every output check can fail (a mutated decomposition, a wrong
signature and altered golden bytes each raise the error rate above 0), that
a wrapped function is counted when called through another module's imported
binding, that traced call counts repeat exactly, and that the metric names
agree with BENCHMARK.json.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

SMALL = {"ff-decompose": len(workloads.FF_FIELDS), "kx-arith": 6, "cli-goldens": 3}


def _error_rate(name: str, mutate=None, seed: int = 1) -> float:
    """Error rate of one pass over a small deck, with outputs passed through
    mutate(job, out) before the check when given."""
    wl = workloads.WORKLOADS[name]()
    deck = workloads.make_deck(name, seed, SMALL[name])
    wl.setup()
    if mutate is not None:
        op = wl.op
        wl.op = lambda job: mutate(wl, job, op(job))
    passes = worker.Passes(wl, [wl.prepare(e) for e in deck])
    passes.run_one()
    attempted, failed = passes.check()
    return failed / attempted


def _wrong_decomposition(wl, cubic, d):
    ffc = wl.ffcubic
    if isinstance(d, ffc.Irreducible):
        return ffc.Triple(cubic.base.zero)
    return ffc.Irreducible()


def _moved_witness(wl, cubic, d):
    """The same bin with its first witness root moved by one."""
    ffc, one = wl.ffcubic, cubic.base.one
    if isinstance(d, ffc.LinTimesQuad):
        return ffc.LinTimesQuad(d.root + one, d.quad)
    if isinstance(d, ffc.ThreeDistinct):
        return ffc.ThreeDistinct((d.roots[0] + one,) + d.roots[1:])
    if isinstance(d, ffc.LinTimesSquare):
        return ffc.LinTimesSquare(simple=d.simple + one, double=d.double)
    if isinstance(d, ffc.Triple):
        return ffc.Triple(d.root + one)
    return ffc.Triple(cubic.base.zero)


def _wrong_signature(wl, job, out):
    root, g, sigs = out
    return root, g, (wl.arith.SIG_SPLIT,) + sigs[1:]


def _altered_golden(wl, entry, out):
    code, stdout, stderr = out
    return code, stdout + b"\n", stderr


def test_correct_outputs_pass():
    for name in ("ff-decompose", "kx-arith", "cli-goldens"):
        assert _error_rate(name) == 0.0, name


def test_mutated_decomposition_is_caught():
    assert _error_rate("ff-decompose", _wrong_decomposition) == 1.0
    assert _error_rate("ff-decompose", _moved_witness) == 1.0


def test_witness_check_without_brute_oracle():
    """GF(2^16) is above the brute-force limit: the structural check alone
    must catch a moved witness in every bin."""
    wl = workloads.FFDecompose()
    deck = [e for e in workloads.make_deck("ff-decompose", 5) if e[0] ** e[1] > workloads.BRUTE_MAX_ORDER]
    wl.setup()
    seen = set()
    for entry in deck[:60]:
        c = wl.prepare(entry)
        d = wl.op(c)
        assert wl.check(c, d)
        assert not wl.check(c, _moved_witness(wl, c, d))
        assert not wl.check(c, _wrong_decomposition(wl, c, d))
        seen.add(d.kind)
    assert seen == {"irreducible", "linear_times_quadratic", "three_distinct",
                    "linear_times_square", "triple"}


def test_wrong_signature_is_caught():
    assert _error_rate("kx-arith", _wrong_signature) == 1.0


def test_altered_golden_bytes_are_caught():
    assert _error_rate("cli-goldens", _altered_golden) == 1.0


def test_wrapped_function_counted_through_imported_binding():
    from cubicext import arith, ffcubic, ffield
    F = ffield.field_make(7)
    original = ffield.cube_classify
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert arith.cube_classify is ffield.cube_classify is not original
        arith.cube_classify(F.from_int(6))  # arith's own binding
        ffcubic.decompose_pure(F.from_int(6))  # calls ffcubic's binding inside
    finally:
        tracer.uninstall()
    assert arith.cube_classify is original and ffcubic.cube_classify is original
    spans = tracer.summary()["spans"]
    assert spans["ffield.cube_classify"][0] == 2
    calls, self_s, total_s = spans["ffcubic.decompose_pure"]
    assert calls == 1 and 0 <= self_s <= total_s


def test_traced_call_counts_repeat_exactly():
    deck = workloads.make_deck("kx-arith", 2, SMALL["kx-arith"])

    def counts():
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", "kx-arith", "--mode", "trace"],
            input=json.dumps(deck), capture_output=True, text=True,
            env=workloads.child_env(), timeout=120, check=True)
        raw = json.loads(proc.stdout)["raw"]
        return ({k: v[0] for k, v in raw["spans"].items()},
                {k: v[0] for k, v in raw["counters"].items()}, raw["caches"])

    first = counts()
    assert first == counts()
    assert first[0]["arith.signature"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    stats = run.latency_stats([i / 1000 for i in range(1, 26)])
    assert stats["samples"] == 25 and stats["tail_percentile"] == 60.0
    assert abs(stats["op_tail_ms"] - 15.0) < 1e-9
    assert abs(stats["op_p50_ms"] - 13.0) < 1e-9


def test_metric_names_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_package_source():
    saved = workloads.SRC
    workloads.SRC = HERE / "no-such-src"
    try:
        assert run.main(["--workload", "kx-arith", "--seed", "1"]) == 2
    finally:
        workloads.SRC = saved


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
