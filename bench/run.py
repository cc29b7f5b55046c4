"""plstm benchmark: runs one workload through the `plstm` CLI, in process,
for a fixed time, checks every unit's outputs against golden.json, and prints
the metrics as one JSON object on the last line of stdout.

    python3 bench/run.py --workload train_smoke --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --suite --repeats 4 --seconds 20
    python3 bench/run.py --record-golden

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--suite runs every workload in its own process, alternating the workload
order between repeats, and prints each metric's median and spread.
--record-golden rewrites golden.json from the program as it stands.
bench/README.md describes the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train_smoke", "train_long", "eval_long")
SETUP_SAMPLES = 9
MIN_UNITS = 3  # an eval_long unit takes about 13 s; one median needs several
END_TO_END = {"seq_per_s": "seq/s", "setup_s": "s", "peak_rss_mb": "MB"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import plstm.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import the plstm CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .bench_tmp/ in the checkout, removed on exit."""
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            SCRATCH.rmdir()


def seq_metric_name(workload: str) -> str:
    return "eval_seq_per_s" if workload.startswith("eval") else "train_seq_per_s"


def setup_seconds(inputs, speed) -> float:
    """One set-up: import time plus the command's set-up, speed-scaled."""
    import workloads as wl

    before = speed.reading()
    raw = import_seconds() + wl.run_unit(inputs, setup_only=True).setup_s
    return raw * speed.ref_s * 2 / (before + speed.reading())


def measure(workload: str, seed: int, seconds: int, trace: bool) -> int:
    import workloads as wl
    from speed import Speedometer
    from tracer import EXACT, PER_LAYER, Tracer

    golden = wl.golden_fingerprint(workload, seed)
    speed = Speedometer(*wl.PROBES[workload])
    with scratch_dir() as tmp:
        inputs = wl.prepare(workload, seed, tmp)
        setup = [setup_seconds(inputs, speed) for _ in range(SETUP_SAMPLES)]
        # (unit, tracer or None, speed scale). With tracing, units alternate
        # traced and untraced, so the run also measures the tracing overhead.
        units = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(units) < MIN_UNITS:
            tracer = Tracer(speed.now) if trace and len(units) % 2 == 0 else None
            unit = wl.run_unit(inputs, tracer, speed=speed)
            units.append((unit, tracer, speed.ref_s / (unit.probe_s or speed.reading())))

    failed = sum(unit.fingerprint != golden for unit, _, _ in units)
    seconds_keys = {name for name, unit_name, _ in PER_LAYER if unit_name == "s"}
    layers = [{k: v * scale if k in seconds_keys else v for k, v in t.layer_metrics().items()}
              for _, t, scale in units if t is not None]
    # Work counts of one input must not vary between units.
    failed += sum(any(m[k] != layers[0][k] for k in EXACT) for m in layers[1:])
    print(f"workload {workload} seed {seed}: "
          + " ".join(f"{k}={v}" for k, v in inputs.properties.items()))
    plain = [(u, scale) for u, t, scale in units if t is None]
    if trace:
        traced = [(u, scale) for u, t, scale in units if t is not None]
        total = lambda pairs: statistics.median((u.setup_s + u.work_s) * s for u, s in pairs)
        metrics = {}
        for name, unit_name, _ in PER_LAYER:
            if name == "trace.overhead_frac":
                value = total(traced) / total(plain) - 1.0
            elif unit_name == "s":
                value = statistics.median(m[name] for m in layers)
            else:
                value = layers[0][name]
            metrics[name] = {"value": value, "unit": unit_name}
    else:
        raw = statistics.median(inputs.sequences / u.work_s for u, _ in plain)
        print(f"{seq_metric_name(workload)} unscaled {raw!r} seq/s (wall clock)")
        metrics = {
            "seq_per_s": statistics.median(inputs.sequences / (u.work_s * s) for u, s in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    for name, m in metrics.items():
        label = seq_metric_name(workload) if name == "seq_per_s" else name
        print(f"{label} {m['value']!r} {m['unit']}")
    print(f"failed_frac {failed / len(units)!r} ({failed} of {len(units)} units)")
    print(json.dumps({"correct": failed == 0, "attempted": len(units), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def suite(repeats: int, seed: int, seconds: int, trace: int) -> int:
    """Every workload in a fresh process, order alternating between repeats."""
    results = {w: [] for w in WORKLOADS}
    ok = True
    for r in range(repeats):
        for workload in (WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed + r), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                result = None
            if proc.returncode != 0 or result is None:
                ok = False
                print(f"{workload} seed {seed + r}: exit {proc.returncode}\n{proc.stderr}")
            if result is None:
                continue
            results[workload].append(result)
            print(f"{workload} seed {seed + r}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
    for workload, runs in results.items():
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            label = seq_metric_name(workload) if name == "seq_per_s" else name
            print(f"{workload:<12} {label:<32} median {statistics.median(values):.6g} "
                  f"{runs[0]['metrics'][name]['unit']}  spread {quartile_spread(values):.3f} "
                  f"({len(values)} runs)")
        print(f"{workload:<12} {'failed_frac':<32} {failed / attempted:.6g} "
              f"({failed} of {attempted} units)")
    return 0 if ok else 1


def record_golden() -> int:
    import workloads as wl

    golden = {}
    for workload in WORKLOADS:
        golden[workload] = {}
        for pool in range(wl.POOL):
            with scratch_dir() as tmp:
                unit = wl.run_unit(wl.prepare(workload, pool, tmp))
            if not unit.fingerprint:
                print(f"{workload} seed {pool}: plstm failed", file=sys.stderr)
                return 1
            golden[workload][str(pool)] = unit.fingerprint
            print(f"{workload} seed {pool}: {unit.fingerprint}", flush=True)
    wl.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.suite or args.record_golden):
        parser.error("give --workload, --suite or --record-golden")
    if args.seed < 0 or args.seconds < 1 or args.repeats < 1:
        parser.error("--seed must be >= 0, --seconds and --repeats >= 1")

    # Single-threaded numerics on a shared machine; set before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "plstm" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        print(f"error: no plstm sources under {ROOT}", file=sys.stderr)
        return 2
    if args.suite:
        return suite(args.repeats, args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    import plstm

    if SRC not in Path(plstm.__file__).resolve().parents:
        print(f"error: imported plstm from {plstm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import plstm.cli  # noqa: F401  every module the tracer rebinds

    if args.record_golden:
        return record_golden()
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
