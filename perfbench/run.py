"""Pipeline benchmark for htvseg: time to segmentation, quality and memory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload denoise-disk-128 --seed 1 \
        --seconds 30 --trace 0

It generates the workload's inputs from the seed, measures how long a fresh
interpreter takes to import ``htvseg.cli``, then runs the CLI on the inputs
in a closed loop in a worker process for about ``--seconds`` seconds and
checks every invocation's outputs. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run. Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Each run's full
record, with the machine facts, goes to
``perfbench/work/<workload>/seed<n>-trace<t>/result.json``.

See perfbench/README.md for the workloads, the metrics and how to compare
two commits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import UNITS as LAYER_UNITS
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh-interpreter imports per run, half before the worker and half after,
# so that the median spans the run rather than one moment of it.
SETUP_SAMPLES = 20
# Headroom beyond --seconds for the worker: its start-up, the warm-up
# invocation and the last invocation, which may start just before the end.
WORKER_SLACK_S = 120

END_TO_END_UNITS = {
    "segment_s": "s", "segment_cpu_s": "s", "setup_s": "s",
    "peak_rss_mb": "MiB", "sa_pct": "%", "psnr_db": "dB",
}
TRACE_UNITS = {"trace.segment_s": "s", "trace.overhead_pct": "%"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import htvseg.cli; "
                "print(repr(time.perf_counter() - t))")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Wall time a fresh interpreter spends importing htvseg.cli."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def machine_facts() -> dict:
    import numpy as np

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": np.__version__, "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    facts["caches"] = caches
    fft_backends = [m for m in ("_pocketfft_umath", "_pocketfft") if hasattr(np.fft, m)]
    facts["numpy_fft_backend"] = (f"numpy.fft.{fft_backends[0]}" if fft_backends
                                  else np.fft.fft2.__module__)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["numpy_blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        facts["numpy_blas"] = "unavailable"
    vec4_mib = 512 * 512 * 4 * 8 / float(1 << 20)
    facts["note"] = (f"The largest working set, one 512x512 Vec4Field, is {vec4_mib:g} MiB "
                     f"against an L3 of {caches.get('L3', 'unknown size')}, so "
                     "grid.mb_per_it is computed bytes, not measured bandwidth.")
    return facts


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Generate inputs, measure set-up, run the worker; return the result
    line's fields plus the run's records."""
    shutil.rmtree(work, ignore_errors=True)
    inputs = make_inputs(workload, seed, work / "inputs")
    warm = make_inputs(workload.tiny(), seed, work / "warm")[0]
    setup_per_side = 0 if trace else SETUP_SAMPLES // 2
    setup = [import_seconds() for _ in range(setup_per_side)]

    spec = {"workload": dataclasses.asdict(workload), "inputs": [str(p) for p in inputs],
            "warm": str(warm), "out_dir": str(work / "out"), "seconds": seconds,
            "trace": trace, "result": str(work / "worker.json")}
    (work / "out").mkdir(parents=True)
    (work / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
                   env=_env(), check=True, timeout=seconds + WORKER_SLACK_S)
    setup += [import_seconds() for _ in range(setup_per_side)]
    worker = json.loads((work / "worker.json").read_text())
    records = worker["records"]
    failed = sum(1 for r in records if r["problems"])

    if trace:
        metrics, absent = _trace_metrics(records)
    else:
        metrics, absent = _end_to_end_metrics(records, setup, worker["peak_rss_kib"]), []
    calls = [sum(1 for r in records if r["input"] == i) for i in range(len(inputs))]
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics, "absent": absent, "records": records,
            "calls_per_input": calls, "setup_samples_s": setup}


def _per_input(records, key, reduce):
    """Mean over input sets of ``reduce`` over each set's values of ``key``,
    so that every noise draw weighs the same however many calls it got."""
    values = {}
    for r in records:
        if r[key] is not None:
            values.setdefault(r["input"], []).append(r[key])
    return statistics.fmean(reduce(v) for v in values.values()) if values else None


def _end_to_end_metrics(records, setup, peak_rss_kib) -> dict:
    """The end-to-end metrics. One that no call produced (every call failed
    its output check) is left out; the result is then not correct anyway."""
    values = {
        "segment_s": _per_input(records, "wall_s", statistics.median),
        "segment_cpu_s": _per_input(records, "cpu_s", statistics.median),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_kib / 1024.0,
        # Deterministic per input set (the repeats are byte-identical).
        "sa_pct": _per_input(records, "sa_pct", lambda v: v[0]),
        "psnr_db": _per_input(records, "psnr_db", lambda v: v[0]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items() if v is not None}


def _trace_metrics(records):
    """Medians over traced invocations. A metric missing from every traced
    invocation is left out of the metrics and listed as absent."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    metrics, absent = {}, []
    for name, unit in LAYER_UNITS.items():
        seen = [r["layers"][name] for r in traced if name in r["layers"]]
        if seen:
            metrics[name] = {"value": statistics.median(seen), "unit": unit}
        else:
            absent.append(name)
    traced_s = statistics.median(r["wall_s"] for r in traced)
    plain_s = statistics.median(r["wall_s"] for r in plain)
    extra = {"trace.segment_s": traced_s,
             "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s}
    metrics.update({k: {"value": v, "unit": TRACE_UNITS[k]} for k, v in extra.items()})
    return metrics, absent


def _print_summary(name, seed, result, out) -> None:
    records = result["records"]
    n = len(records)
    out.write(f"workload {name} seed {seed}: {n} invocations, "
              f"{result['failed']} failed, error_rate {result['failed'] / n:.4g} ratio\n")
    for key, m in result["metrics"].items():
        out.write(f"  {key:<30} {m['value']:.6g} {m['unit']}\n")
    walls = sorted(r["wall_s"] for r in records)
    out.write(f"  wall per invocation: median {statistics.median(walls):.4g} s, "
              f"min {walls[0]:.4g} s, max {walls[-1]:.4g} s, n={n}; calls per "
              f"input set: {', '.join(map(str, result['calls_per_input']))}\n")
    if result["absent"]:
        out.write(f"  absent (function no longer exists): {', '.join(result['absent'])}\n")
    for r in records:
        for problem in r["problems"]:
            out.write(f"  FAILED invocation {r['index']}: {problem}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "htvseg" / "__init__.py").is_file():
        print(f"perfbench: no htvseg sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = HERE / "work" / args.workload / f"seed{args.seed}-trace{args.trace}"
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), work)
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "machine": machine_facts(), **result}, indent=1))
    _print_summary(args.workload, args.seed, result, sys.stdout)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
