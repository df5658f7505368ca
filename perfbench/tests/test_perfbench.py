"""Self-tests of the benchmark harness, on tiny grids so they run in seconds.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, make_inputs, read_raw, write_raw  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_goes_through_the_harness(name, trace, tmp_path):
    workload = WORKLOADS[name].tiny()
    result = run.measure(workload, seed=5, seconds=0.0, trace=trace, work=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    if trace:
        assert set(result["metrics"]) == set(tracing.UNITS) | set(run.TRACE_UNITS)
        assert result["absent"] == []
        assert result["metrics"]["restore.iterations"]["value"] == 8
    else:
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["calls_per_input"] == [2]
        assert len(result["setup_samples_s"]) == run.SETUP_SAMPLES


def test_every_input_set_weighs_the_same(tmp_path):
    workload = dataclasses.replace(WORKLOADS["cluster-lowcontrast-512"].tiny(),
                                   realizations=3)
    result = run.measure(workload, seed=5, seconds=0.0, trace=False, work=tmp_path)
    assert result["correct"] and result["calls_per_input"] == [2, 1, 1]
    # Timings: median per input set, then the mean over the sets.
    walls = {}
    for r in result["records"]:
        walls.setdefault(r["input"], []).append(r["wall_s"])
    expected = (sum(walls[0]) / 2 + walls[1][0] + walls[2][0]) / 3
    assert result["metrics"]["segment_s"]["value"] == pytest.approx(expected)


def test_same_seed_same_inputs_and_another_seed_differs(tmp_path):
    workload = WORKLOADS["deblur-three-256"].tiny()
    a = make_inputs(workload, 7, tmp_path / "a")[0]
    b = make_inputs(workload, 7, tmp_path / "b")[0]
    c = make_inputs(workload, 8, tmp_path / "c")[0]
    assert (a / "f.rf64").read_bytes() == (b / "f.rf64").read_bytes()
    assert (a / "f.rf64").read_bytes() != (c / "f.rf64").read_bytes()
    assert (a / "truth.ri32").read_bytes() == (c / "truth.ri32").read_bytes()


def _invoke_tiny(tmp_path, tracer=None):
    import htvseg.cli as cli

    workload = WORKLOADS["deblur-three-256"].tiny()
    inputs = make_inputs(workload, 3, tmp_path / "inputs")[0]
    out = tmp_path / "out"
    rc, wall, _cpu, _log = worker.invoke(cli, workload.argv(inputs, out), tracer)
    return workload, inputs, out, rc, wall


def test_traced_self_times_add_up_to_the_invocation(tmp_path):
    tracer = tracing.Tracer()
    _, _, _, rc, wall = _invoke_tiny(tmp_path, tracer)
    assert rc == 0
    first, spans = tracer.invocation_spans(0)
    roots = [s for s in spans if s[2] == -1]
    assert [s[1] for s in roots] == ["cli.main"]
    root_s = roots[0][4] - roots[0][3]
    own = tracer.self_times(0)
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(root_s, rel=1e-9, abs=1e-9)
    # The harness times the same call from outside the wrapper.
    assert root_s <= wall <= root_s + 0.05
    # Functions imported by name are traced where they are looked up.
    labels = {s[1] for s in spans}
    assert {"degrade.apply", "degrade.apply_adjoint", "weight.edge_weight",
            "fft.fft2", "restore.solve_g"} <= labels


def test_uninstall_restores_the_program(tmp_path):
    import htvseg.restore

    originals = (htvseg.restore.apply_A, htvseg.restore.solve_g, np.fft.fft2)
    tracer = tracing.Tracer()
    tracer.install()
    assert htvseg.restore.solve_g is not originals[1]
    tracer.uninstall()
    assert (htvseg.restore.apply_A, htvseg.restore.solve_g, np.fft.fft2) == originals


def test_missing_function_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "LAYER_METRICS", tracing.LAYER_METRICS + [
        ("restore.fused.ms_per_it", "ms", "iter_ms", ("restore.no_such_step",))])
    monkeypatch.setitem(tracing.UNITS, "restore.fused.ms_per_it", "ms")
    tracer = tracing.Tracer()
    _invoke_tiny(tmp_path / "direct", tracer)
    metrics, absent = tracer.summarize(0)
    assert absent == ["restore.fused.ms_per_it"]
    assert "restore.solve_g.ms_per_it" in metrics

    # The result line leaves the absent metric out rather than reporting 0.
    # (The worker process runs the unpatched tracer, so no traced call
    # produces the extra metric, as when its function is gone.)
    result = run.measure(WORKLOADS["denoise-disk-128"].tiny(), seed=5,
                         seconds=0.0, trace=True, work=tmp_path / "run")
    assert result["correct"]
    assert result["absent"] == ["restore.fused.ms_per_it"]
    assert "restore.fused.ms_per_it" not in result["metrics"]
    assert "restore.solve_g.ms_per_it" in result["metrics"]


def test_corrupted_artifact_counts_as_a_failure(tmp_path):
    workload, inputs, out, rc, _ = _invoke_tiny(tmp_path)
    problems, digest, sa_pct, psnr_db = worker.check_outputs(
        rc, out, inputs, workload.phases, None)
    assert problems == [] and sa_pct is not None and psnr_db is not None
    assert worker.check_outputs(rc, out, inputs, workload.phases, digest)[0] == []

    pgm = out / "labels.pgm"
    data = bytearray(pgm.read_bytes())
    data[-1] ^= 0xFF
    pgm.write_bytes(bytes(data))
    problems = worker.check_outputs(rc, out, inputs, workload.phases, digest)[0]
    assert any("differs" in p for p in problems)

    restored = read_raw(out / "restored.rf64").copy()
    restored[0, 0] = 1.5
    write_raw(out / "restored.rf64", restored)
    problems = worker.check_outputs(rc, out, inputs, workload.phases, None)[0]
    assert any("[0, iota]" in p for p in problems)

    (out / "report.txt").unlink()
    problems = worker.check_outputs(rc, out, inputs, workload.phases, None)[0]
    assert "report.txt missing" in problems
    assert worker.check_outputs(1, out, inputs, workload.phases, None)[0][0] == "exit status 1"


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command exits non-zero
    and prints no result line."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "denoise-disk-128",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert time.monotonic() - start < 30
