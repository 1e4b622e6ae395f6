"""Run one cubicext benchmark workload and print its metrics.

    python3 bench/run.py --workload ff-decompose --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout: the package is taken from the
checkout's ``src``.  The deck of inputs is made from --seed before anything
is timed and handed to a fresh workload process (bench/worker.py).  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.  The
lines before it repeat the metrics for reading.  See bench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys

import hostspeed
import tracing
import workloads

# the end-to-end metrics and their units, in BENCHMARK.json order
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def _worker(workload: str, mode: str, deck: list, seconds: float, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(workloads.HERE / "worker.py"), "--workload", workload,
         "--mode", mode, "--seconds", str(seconds)],
        input=json.dumps(deck), capture_output=True, text=True,
        env=workloads.child_env(), timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latency_stats(latencies: list) -> dict:
    """ops_per_s, op_p50_ms and the tail from per-input latencies (seconds).

    The tail is the highest percentile with at least ten samples above it;
    with ten samples or fewer it is the maximum.
    """
    lat = sorted(latencies)
    n = len(lat)
    rank = n - 10 if n > 10 else n
    return {"ops_per_s": n / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * lat[rank - 1],
            "tail_percentile": 100.0 * rank / n,
            "samples": n}


def end_to_end(args, deck: list) -> dict:
    setups = [_worker(args.workload, "setup", deck, 0, SETUP_TIMEOUT_S)
              for _ in range(SETUP_SAMPLES - 1)]
    res = _worker(args.workload, "measure", deck, args.seconds, WORKER_TIMEOUT_S)
    setups.append(res)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    setup_raw_s = statistics.median(s["setup_raw_s"] for s in setups)
    stats = latency_stats(res["latencies_s"])
    raw = latency_stats(res["raw_latencies_s"])
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  passes {res['passes']}  "
          f"inputs {stats['samples']}  (raw: as timed on this host)")
    print(f"ops_per_s    {stats['ops_per_s']:.4f} 1/s  raw {raw['ops_per_s']:.4f}")
    print(f"op_p50_ms    {stats['op_p50_ms']:.4f} ms   raw {raw['op_p50_ms']:.4f}")
    print(f"op_tail_ms   {stats['op_tail_ms']:.4f} ms   raw {raw['op_tail_ms']:.4f}  "
          f"(p{stats['tail_percentile']:.1f} of {stats['samples']} samples)")
    print(f"setup_s      {setup_s:.4f} s    raw {setup_raw_s:.4f}  "
          f"(median of {len(setups)} fresh processes)")
    print(f"peak_rss_mb  {res['peak_rss_mb']:.2f} MB")
    print(f"host probe   {1e3 * res['probe_s']:.4f} ms  (median; reference "
          f"{1e3 * hostspeed.REF_PROBE_S:.4f} ms)")
    print(f"error_rate   {failed / attempted:.4f} ratio  ({failed} of {attempted} ops)")
    values = dict(stats, setup_s=setup_s, peak_rss_mb=res["peak_rss_mb"])
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def traced(args, deck: list) -> dict:
    res = _worker(args.workload, "trace", deck, args.seconds, WORKER_TIMEOUT_S)
    metrics = tracing.layer_metrics(res["raw"], res["import_s"], res["overhead_ratio"])
    print(f"workload {args.workload}  seed {args.seed}  traced pass over "
          f"{res['samples']} inputs")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    return {"attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (workloads.SRC / "cubicext" / "__init__.py").is_file():
        print(f"error: no package source at {workloads.SRC}; run from a cubicext checkout",
              file=sys.stderr)
        return 2
    deck = workloads.make_deck(args.workload, args.seed)
    out = traced(args, deck) if args.trace else end_to_end(args, deck)
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
