"""The workload process: set up, run the measured passes, check, report.

Reads a deck (see workloads.make_deck) as JSON on stdin and prints one JSON
object on stdout.  bench/run.py starts it; by hand:

    python3 bench/worker.py --workload kx-arith --mode measure --seconds 20 < deck.json

Modes:
  setup    set up only and report setup_s (a fresh-process set-up sample);
  measure  set up, then run one whole pass over the deck and go on until
           --seconds have gone;
  trace    set up with the tracer installed, one untraced pass, then one
           traced pass; report the raw per-layer summary.

Set-up time runs from before the package import to the end of the warm-up
ops.  A pass runs every deck input once, in deck order; each op is timed
alone, followed by the host-speed probe (see hostspeed.py), and the output
check happens after the timed region.  Every time is reported both raw and
normalised to the reference host speed.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time

import hostspeed
import tracing
import workloads

MAX_PASSES = 60
TRACE_MARK = b"BENCHTRACE "

_UNSET = object()


class Passes:
    """Per-input latencies and outputs over repeated passes of one deck."""

    def __init__(self, wl, jobs):
        self.wl = wl
        self.jobs = jobs
        self.lat = [[] for _ in jobs]  # normalised to the reference host speed
        self.raw = [[] for _ in jobs]
        self.first = [_UNSET] * len(jobs)
        self.mismatches = 0  # later outputs that differ from the first
        self.count = 0
        self.probes = []

    def run_one(self, deadline: float = float("inf")) -> float:
        """One pass over the jobs, cut short at `deadline` (perf_counter
        seconds); returns the summed normalised op time."""
        op, clock, probe = self.wl.op, time.perf_counter, hostspeed.probe
        ops, probes = [], []
        for i, job in enumerate(self.jobs):
            t = clock()
            if t > deadline:
                break
            try:
                out = op(job)
            except Exception as err:  # a raising op is a failed op, not a crash
                out = workloads.Failed(err)
            dt = clock() - t
            ops.append((t, dt))
            for _ in range(hostspeed.probes_after(dt)):
                probes.append((clock(), probe()))
            if self.first[i] is _UNSET:
                self.first[i] = out
            elif out != self.first[i]:
                self.mismatches += 1
        normal = hostspeed.normalise(ops, probes)
        self.probes.extend(d for _, d in probes)
        for i, ((_, t), n) in enumerate(zip(ops, normal)):
            self.raw[i].append(t)
            self.lat[i].append(n)
        self.count += 1
        return sum(normal)

    def check(self) -> tuple:
        """(attempted, failed): an input whose output fails its check fails
        on every attempt; a repeat that differs from it fails once more."""
        attempted = sum(len(ls) for ls in self.lat)
        failed = self.mismatches
        for job, out, ls in zip(self.jobs, self.first, self.lat):
            try:
                ok = not isinstance(out, workloads.Failed) and self.wl.check(job, out)
            except Exception:  # a check that cannot run counts the op as failed
                ok = False
            if not ok:
                failed += len(ls)
        return attempted, failed

    def medians(self, raw: bool = False) -> list:
        return [statistics.median(ls) for ls in (self.raw if raw else self.lat)]


def measure(wl, jobs, seconds: float) -> Passes:
    """One whole pass, then further passes until `seconds` have gone; the
    last of them usually stops part way."""
    passes = Passes(wl, jobs)
    gc.collect()
    deadline = time.perf_counter() + seconds
    passes.run_one()
    while passes.count < MAX_PASSES and time.perf_counter() < deadline:
        passes.run_one(deadline)
    return passes


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliGoldens) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def trace(wl, deck) -> dict:
    import cubicext.cli  # noqa: F401  (loads every package module to wrap)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    jobs = [wl.prepare(e) for e in deck]
    plain = Passes(wl, jobs)
    gc.collect()
    plain_s = plain.run_one()
    traced = Passes(wl, jobs)
    children = []
    if isinstance(wl, workloads.CliGoldens):
        wl.trace = True
        wl.op = _traced_cli_op(wl.op, children)
    gc.collect()
    tracer.install()
    try:
        traced_s = traced.run_one()
    finally:
        tracer.uninstall()
    raw = tracer.summary()
    import_s = 0.0
    for part in children:
        import_s += part.pop("import_s")
        tracing.merge(raw, part)
    a1, f1 = plain.check()
    a2, f2 = traced.check()
    return {"raw": raw, "import_s": import_s, "overhead_ratio": traced_s / plain_s,
            "attempted": a1 + a2, "failed": f1 + f2, "samples": len(jobs)}


def _traced_cli_op(op, children: list):
    """Wrap the CLI op to strip the child's trace line off its stderr."""
    def traced_op(entry):
        code, stdout, stderr = op(entry)
        kept = []
        for line in stderr.splitlines(keepends=True):
            if line.startswith(TRACE_MARK):
                children.append(json.loads(line[len(TRACE_MARK):]))
            else:
                kept.append(line)
        return code, stdout, b"".join(kept)
    return traced_op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    deck = json.load(sys.stdin)
    wl = workloads.WORKLOADS[args.workload]()

    if args.mode == "trace":
        print(json.dumps(trace(wl, deck)))
        return 0

    t0 = time.perf_counter()
    wl.setup()
    setup_raw = time.perf_counter() - t0
    # probes before the set-up would run on a core still clocking up
    after = [hostspeed.probe() for _ in range(hostspeed.SETUP_PROBES)]
    setup = {"setup_raw_s": setup_raw,
             "setup_s": setup_raw * hostspeed.REF_PROBE_S / statistics.median(after)}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0
    passes = measure(wl, [wl.prepare(e) for e in deck], args.seconds)
    rss = peak_rss_mb(wl)
    attempted, failed = passes.check()
    print(json.dumps(dict(setup, peak_rss_mb=rss, passes=passes.count,
                          latencies_s=passes.medians(), raw_latencies_s=passes.medians(raw=True),
                          probe_s=statistics.median(passes.probes),
                          attempted=attempted, failed=failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
