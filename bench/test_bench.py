"""Tests of the benchmark itself: the traced run's work counts repeat exactly,
tracing leaves outputs unchanged, and a perturbed output fails the
fingerprint check.

    python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import plstm.cli  # noqa: E402,F401  loads every module the tracer rebinds
import workloads as wl  # noqa: E402
from tracer import EXACT, Tracer, patched  # noqa: E402

SEED = 5


@pytest.mark.parametrize("workload", ["train_smoke", "train_long"])
def test_traced_counters_repeat_and_outputs_match_golden(workload, tmp_path):
    inputs = wl.prepare(workload, SEED, tmp_path)
    golden = wl.golden_fingerprint(workload, SEED)
    layers = []
    for _ in range(2):
        tracer = Tracer()
        assert wl.run_unit(inputs, tracer).fingerprint == golden
        layers.append(tracer.layer_metrics())
    assert {k: layers[0][k] for k in EXACT} == {k: layers[1][k] for k in EXACT}
    assert layers[0]["tensor.matmul.calls"] > 0
    assert layers[0]["train.adam_step.elems"] > 0


def test_perturbed_output_fails_fingerprint_check(tmp_path):
    inputs = wl.prepare("train_smoke", SEED, tmp_path)

    def one_ulp_up(matmul):
        def perturbed(a, b):
            return np.nextafter(matmul(a, b), np.inf)
        return perturbed

    with patched({"matmul": one_ulp_up}):
        unit = wl.run_unit(inputs)
    assert unit.fingerprint
    assert unit.fingerprint != wl.golden_fingerprint("train_smoke", SEED)
    assert wl.run_unit(inputs).fingerprint == wl.golden_fingerprint("train_smoke", SEED)
