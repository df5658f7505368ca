"""One workload as a closed loop of ``htvseg.cli.main`` invocations in a
single fresh process, so that its peak resident set is the pipeline's own.

Usage: ``python3 worker.py SPEC.json``. The spec names the workload, the
input directories, the output directory and the run length; the worker
writes its result to the spec's ``result`` path and prints nothing.

Each invocation runs with its stdout and stderr captured, then its outputs
are checked (see ``check_outputs``). In trace mode untraced and traced
invocations alternate on the first input set, so that the traced-minus-
untraced wall time is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import Workload, read_raw

IOTA = 1.0   # the CLI's default box bound; restored.rf64 must lie in [0, IOTA]


def artifact_digest(out_dir: Path) -> str:
    """sha256 over the names and bytes of every file in the artifact set."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_outputs(rc, out_dir: Path, inputs: Path, phases: int,
                  reference: str | None):
    """Check one invocation's artifact set.

    Returns (problems, digest, sa_pct, psnr_db). The checks: exit status 0
    and report.txt present; labels within 1..phases; restored.rf64 finite
    and within [0, IOTA]; the artifact set byte-identical to ``reference``
    (the digest of an earlier invocation on the same inputs), if given.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit status {rc}")
    if not (out_dir / "report.txt").is_file():
        problems.append("report.txt missing")
    digest = sa_pct = psnr_db = None
    try:
        truth = read_raw(inputs / "truth.ri32")
        labels = read_raw(out_dir / "labels.ri32")
        restored = read_raw(out_dir / "restored.rf64")
        clean = read_raw(inputs / "private" / "clean.rf64")
        digest = artifact_digest(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable artifact: {exc!r}")
        return problems, digest, sa_pct, psnr_db
    if labels.shape != truth.shape or labels.min() < 1 or labels.max() > phases:
        problems.append(f"labels outside 1..{phases} or wrong shape {labels.shape}")
    else:
        sa_pct = 100.0 * np.count_nonzero(labels != truth) / truth.size
    if (restored.shape != clean.shape or not np.isfinite(restored).all()
            or restored.min() < 0.0 or restored.max() > IOTA):
        problems.append("restored.rf64 outside [0, iota] or wrong shape")
    else:
        psnr_db = 10.0 * np.log10(1.0 / np.mean((restored - clean) ** 2))
    if reference is not None and digest != reference:
        problems.append("artifact set differs from an earlier invocation "
                        "on the same inputs")
    return problems, digest, sa_pct, psnr_db


def invoke(cli, argv: list[str], tracer: Tracer | None):
    """Run ``cli.main(argv)`` once; return (exit status, wall s, cpu s, log).
    The exit status is None when main raised."""
    sink = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except Exception:   # a crash is a counted failure, not the end of the run
            rc = None
            sink.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rc, wall, cpu, sink.getvalue()


def run_loop(workload: Workload, inputs: list[Path], warm: Path, out_dir: Path,
             seconds: float, trace: bool) -> dict:
    import htvseg.cli as cli

    # Warm lazy imports and caches on a tiny grid, untimed.
    invoke(cli, workload.tiny().argv(warm, out_dir / "warm"), None)

    tracer = Tracer() if trace else None
    # Untraced: every input set once, plus one repeat for the determinism
    # check. Traced: one untraced/traced pair on the first input set.
    least = 2 if trace else len(inputs) + 1
    records, digests = [], {}
    start = time.perf_counter()
    while True:
        i = len(records)
        r = 0 if trace else i % len(inputs)
        traced = trace and i % 2 == 1
        out = out_dir / "inv"
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            tracer.invocation = i
        rc, wall, cpu, log = invoke(cli, workload.argv(inputs[r], out),
                                    tracer if traced else None)
        problems, digest, sa_pct, psnr_db = check_outputs(
            rc, out, inputs[r], workload.phases, digests.get(r))
        if digest is not None:
            digests.setdefault(r, digest)
        record = {"index": i, "input": r, "traced": traced, "wall_s": wall,
                  "cpu_s": cpu, "sa_pct": sa_pct, "psnr_db": psnr_db,
                  "problems": problems}
        if problems:
            record["log"] = log[-4000:]
        if traced:
            record["layers"], record["absent"] = tracer.summarize(i)
        records.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(x["wall_s"] for x in records)
        if len(records) >= least and elapsed + typical > seconds:
            break
    if tracer is not None:
        tracer.write_spans(out_dir / "spans.tsv")
    return {"records": records,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    fields = {k: tuple(v) if isinstance(v, list) else v
              for k, v in spec["workload"].items()}
    result = run_loop(Workload(**fields), [Path(p) for p in spec["inputs"]],
                      Path(spec["warm"]), Path(spec["out_dir"]),
                      spec["seconds"], spec["trace"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
