"""Interleaved A/B timing of one benchmark workload in two checkouts.

    python3 tests/ab_units.py PARENT CHANGE --workload W --rounds N [--seed S]

PARENT and CHANGE are checkout roots. One long-lived process per checkout
imports that checkout's plstm and bench/workloads.py, prepares the workload's
inputs once, and then runs one unit each time it is asked. Every round runs
one unit in each process, the order alternating between rounds, so slow
drift of the machine falls on both sides alike. Each process first runs one
unit that is not counted.

Every unit's fingerprint is checked against its checkout's golden.json; the
script exits 1 on a mismatch. It prints each side's median rate, the median
of the per-round ratios (CHANGE over PARENT, higher is faster) beside their
quartiles, so a change's ratio can be read against the spread of an A/A run
(one checkout as both sides), the number of rounds CHANGE won, and each
side's median CPU time a unit: the process's own (RUSAGE_SELF) and that of
the children it reaped during the unit (RUSAGE_CHILDREN), such as the
direction worker, so work moved to another process is not judged on wall
clock alone. The rates are wall clock, not speed-scaled. This resolves effects of a few
percent that separate-process pairs of bench/run.py cannot; acceptance
still uses bench/run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class UnitError(Exception):
    """A side's process ended, or one of its units gave a wrong fingerprint."""


def serve(root: Path, workload: str, seed: int) -> int:
    """The per-checkout process: one JSON line on stdout for each line read
    from stdin, until stdin closes."""
    protocol = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # nothing the program prints reaches the protocol
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads as wl
    import plstm

    if root / "src" not in Path(plstm.__file__).resolve().parents:
        print(f"error: imported plstm from {plstm.__file__}, not {root / 'src'}")
        return 2
    golden = wl.golden_fingerprint(workload, seed)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = wl.prepare(workload, seed, Path(tmp))
        for _ in sys.stdin:
            before = cpu_ms()
            unit = wl.run_unit(inputs)
            cpu = [after - b for after, b in zip(cpu_ms(), before)]
            protocol.write(json.dumps({"rate": inputs.sequences / unit.work_s, "cpu_ms": cpu,
                                       "correct": unit.fingerprint == golden}) + "\n")
            protocol.flush()
    return 0


def cpu_ms() -> tuple:
    """(this process's CPU time, that of its reaped children), user plus
    system, in ms."""
    return tuple(1000.0 * (usage.ru_utime + usage.ru_stime)
                 for usage in map(resource.getrusage, (resource.RUSAGE_SELF,
                                                       resource.RUSAGE_CHILDREN)))


def start(root: Path, workload: str, seed: int) -> subprocess.Popen:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    return subprocess.Popen([sys.executable, __file__, "--serve", str(root), "--workload",
                             workload, "--seed", str(seed)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)


def run_one(proc: subprocess.Popen, name: str) -> tuple:
    """One unit in `proc`: (its rate in sequences a second, [its CPU ms in
    the process, in reaped children])."""
    try:
        proc.stdin.write("run\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
    except BrokenPipeError:
        line = ""
    if not line:
        raise UnitError(f"the {name} process ended (exit {proc.wait()})")
    result = json.loads(line)
    if not result["correct"]:
        raise UnitError(f"a {name} unit's fingerprint does not match golden.json")
    return result["rate"], result["cpu_ms"]


def summary(parent: list, change: list, cpu: dict) -> list:
    """The report lines for per-round rates of the two sides, and `cpu`,
    side -> per-round [process, children] CPU ms."""
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum(r > 1.0 for r in ratios)
    q1, _, q3 = (statistics.quantiles(ratios, method="inclusive") if len(ratios) > 1
                 else ratios * 3)
    return [f"parent median {statistics.median(parent):.6g} seq/s",
            f"change median {statistics.median(change):.6g} seq/s",
            f"median ratio  {statistics.median(ratios):.4f} (change / parent), "
            f"quartiles {q1:.4f} to {q3:.4f}",
            f"change faster in {wins} of {len(ratios)} rounds",
            *(f"{side} median cpu {statistics.median(map(sum, units)):.1f} ms a unit: "
              f"{statistics.median(u[0] for u in units):.1f} in the process, "
              f"{statistics.median(u[1] for u in units):.1f} in children"
              for side, units in cpu.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--workload", required=True,
                        choices=("train_smoke", "train_long", "eval_long"))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        return serve(args.serve.resolve(), args.workload, args.seed)
    if args.parent is None or args.change is None or args.rounds < 1:
        parser.error("give PARENT and CHANGE, and --rounds >= 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    procs = {name: start(root, args.workload, args.seed) for name, root in sides.items()}
    rates, cpu = {name: [] for name in sides}, {name: [] for name in sides}
    try:
        for name, proc in procs.items():
            run_one(proc, name)  # warm-up, not counted
        for r in range(args.rounds):
            for name in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                rate, unit_cpu = run_one(procs[name], name)
                rates[name].append(rate)
                cpu[name].append(unit_cpu)
            print(f"round {r + 1}: parent {rates['parent'][-1]:.6g} "
                  f"change {rates['change'][-1]:.6g} seq/s", flush=True)
    except UnitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in procs.values():
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
            proc.wait()
    print("\n".join(summary(rates["parent"], rates["change"], cpu)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
