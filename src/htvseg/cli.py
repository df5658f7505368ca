"""End-to-end pipeline: ingest or synthesize an image, optionally degrade
it, restore, threshold into phases, score against ground truth, and write
all artifacts plus a structured report.

Every number in report.txt is reproducible from the other artifacts, and
identical invocations produce byte-identical artifact sets; wall-clock
timings therefore go to stdout only, never into the report.

Usage examples:

    htvseg --phantom two,disk,128,128,0.2,0.8 --noise-var 0.1 \
        --lambda 0.1 --gamma 1.95 --phases 2 --out-dir out

    htvseg --input scan.pgm --degrade gaussian,5,5 --lambda 0.6 --gamma 13 \
        --truth scan_labels.ri32 --out-dir out
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import cluster, grid, imageio, metrics, restore, weight
from .degrade import (LinearOperatorA, add_gaussian_noise, apply as apply_blur,
                      gaussian_kernel, motion_kernel, save_kernel)
from .phantom import make_three_phase, make_two_phase

# (config key, argparse dest, type, default). Config files use the key
# spelling; every key is overridable by the flag of the same name. The
# solver and edge-weight defaults are those of SolverParams and weight.
_OPTIONS = [
    ("input", "input", str, None),
    ("phantom", "phantom", str, None),
    ("degrade", "degrade", str, "none"),
    ("apply-degrade", "apply_degrade", bool, False),
    ("noise-var", "noise_var", float, 0.0),
    ("seed", "seed", int, 0),
    ("lambda", "lam", float, 0.1),
    ("gamma", "gamma", float, 1.95),
    ("mu1", "mu1", float, restore.SolverParams.mu1),
    ("mu2", "mu2", float, restore.SolverParams.mu2),
    ("mu3", "mu3", float, restore.SolverParams.mu3),
    ("iota", "iota", float, restore.SolverParams.iota),
    ("unconstrained", "unconstrained", bool, False),
    ("eps", "eps", float, restore.SolverParams.epsilon),
    ("max-iter", "max_iter", int, restore.SolverParams.max_iter),
    ("weight-sigma", "weight_sigma", float, weight.DEFAULT_SIGMA),
    ("weight-varsigma", "weight_varsigma", float, weight.DEFAULT_CONTRAST),
    ("phases", "phases", int, 2),
    ("truth", "truth", str, None),
    ("out-dir", "out_dir", str, "out"),
    ("trace", "trace", str, None),
]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="htvseg",
        description="Two-stage segmentation: hybrid TV restoration, then "
                    "K-means thresholding.",
        epilog="Phantom specs: two,disk,M,N,c0,c1[,radius] | "
               "two,bars,M,N,c0,c1[,width] | two,text,M,N,c0,c1 | "
               "three,M,N,c0,c1,c2[,r_out,r_in]. "
               "Degrade specs: none | gaussian,S,SIGMA | motion,LEN,THETA. "
               "Config file: one 'key value' (or 'key = value') pair per "
               "line, keys named like the flags; flags win.")
    p.add_argument("--config", help="flat key-value config file")
    for key, dest, typ, _default in _OPTIONS:
        if typ is bool:
            p.add_argument(f"--{key}", dest=dest, action="store_const",
                           const=True, default=None)
        else:
            p.add_argument(f"--{key}", dest=dest, type=typ, default=None)
    return p


def _read_config(path: str) -> dict:
    keys = {key: (dest, typ) for key, dest, typ, _ in _OPTIONS}
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace("=", " ", 1).split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'key value', got {raw!r}")
        key, value = parts[0], parts[1].strip()
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        dest, typ = keys[key]
        if typ is bool:
            if value.lower() not in ("true", "false", "1", "0"):
                raise ValueError(f"{path}:{lineno}: {key} must be true/false")
            out[dest] = value.lower() in ("true", "1")
        else:
            try:
                out[dest] = typ(value)
            except ValueError:
                kind = "an int" if typ is int else "a float"
                raise ValueError(f"{path}:{lineno}: {key} must be {kind}, "
                                 f"got {value!r}") from None
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and explicit flags (flags win). A NaN or
    infinite number fails here, naming its flag."""
    config = _read_config(args.config) if args.config else {}
    merged = {}
    for key, dest, typ, default in _OPTIONS:
        flag_value = getattr(args, dest)
        merged[dest] = flag_value if flag_value is not None else config.get(dest, default)
        if typ is float and not math.isfinite(merged[dest]):
            raise ValueError(f"--{key} must be finite, got {merged[dest]}")
    return merged


def _parse_phantom(spec: str):
    parts = spec.split(",")
    try:
        if parts[0] == "two":
            shape, m, n = parts[1], int(parts[2]), int(parts[3])
            c0, c1 = float(parts[4]), float(parts[5])
            extra = float(parts[6]) if len(parts) > 6 else None
            if shape == "bars":
                return make_two_phase(m, n, shape, c0, c1, bar_width=extra)
            return make_two_phase(m, n, shape, c0, c1, radius=extra)
        if parts[0] == "three":
            m, n = int(parts[1]), int(parts[2])
            c0, c1, c2 = float(parts[3]), float(parts[4]), float(parts[5])
            r_out = float(parts[6]) if len(parts) > 6 else None
            r_in = float(parts[7]) if len(parts) > 7 else None
            return make_three_phase(m, n, c0, c1, c2, r_out=r_out, r_in=r_in)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad phantom spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad phantom spec {spec!r}: must start with two|three")


def _parse_degrade(spec: str, shape) -> tuple[LinearOperatorA, object]:
    parts = spec.split(",")
    if parts[0] == "none":
        return LinearOperatorA.identity(shape), None
    try:
        if parts[0] == "gaussian":
            size = int(parts[1])
            # The taps are size x size; reject them unbuilt when they
            # cannot fit the grid.
            if size > shape[0] or size > shape[1]:
                raise ValueError(f"kernel {(size, size)} larger than grid {tuple(shape)}")
            kernel = gaussian_kernel(size, float(parts[2]))
        elif parts[0] == "motion":
            length = float(parts[1])
            # The segment spans >= (length - 1)/sqrt(2) pixels along one
            # axis; reject it unrasterized when that cannot fit the grid.
            if (length - 1.0) / math.sqrt(2.0) > max(shape) + 1:
                raise ValueError(f"motion length {length:g} cannot fit the "
                                 f"{shape[0]}x{shape[1]} grid")
            kernel = motion_kernel(length, float(parts[2]))
        else:
            raise ValueError("unknown kind")
        return LinearOperatorA.convolution(kernel, shape), kernel
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad degrade spec {spec!r}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _fmt_seq(values) -> str:
    return ",".join(f"{v:.12g}" for v in np.asarray(values, dtype=float).ravel())


def run_pipeline(cfg: dict, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    if (cfg["input"] is None) == (cfg["phantom"] is None):
        raise ValueError("exactly one of --input or --phantom is required")

    # Ingest. Phantoms are degraded in-pipeline; external inputs are taken
    # as the observation itself unless --apply-degrade says otherwise.
    truth = None
    if cfg["phantom"] is not None:
        ph = _parse_phantom(cfg["phantom"])
        clean, truth, source = ph.image, ph.truth, ph.descriptor
        in_pipeline = True
    else:
        clean = imageio.load_image(cfg["input"])
        source = cfg["input"]
        in_pipeline = bool(cfg["apply_degrade"])
    if cfg["truth"] is not None:
        truth = imageio.load_labels(cfg["truth"])
        if truth.min() < 1:
            raise ValueError(f"--truth {cfg['truth']}: labels must be >= 1, "
                             f"got {truth.min()}")
        if truth.shape != clean.shape:
            raise ValueError(f"truth shape {truth.shape} does not match image {clean.shape}")
    if cfg["phases"] < 2:
        raise ValueError(f"--phases must be at least 2, got {cfg['phases']}")
    if truth is not None and cfg["phases"] > truth.max():
        raise ValueError(f"--phases {cfg['phases']} exceeds the truth's {truth.max()} phases")

    A, kernel = _parse_degrade(cfg["degrade"], clean.shape)
    params = restore.SolverParams(
        lam=cfg["lam"], gamma=cfg["gamma"], mu1=cfg["mu1"], mu2=cfg["mu2"],
        mu3=cfg["mu3"], iota=cfg["iota"], epsilon=cfg["eps"],
        max_iter=cfg["max_iter"], constrained=not cfg["unconstrained"])
    for dest in ("noise_var", "seed", "weight_sigma", "weight_varsigma"):
        if cfg[dest] < 0:
            raise ValueError(f"--{dest.replace('_', '-')} must be >= 0, got {cfg[dest]}")
    weight.smoothing_radius(cfg["weight_sigma"], "--weight-sigma")
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    # The trace is written after the solve; a missing directory fails now.
    if cfg["trace"] is not None and not Path(cfg["trace"]).parent.is_dir():
        raise ValueError(f"--trace directory {Path(cfg['trace']).parent} does not exist")
    t0 = time.perf_counter()
    if in_pipeline:
        grid.check_pixels("clean image", clean, source)
        f = add_gaussian_noise(apply_blur(A, clean), cfg["noise_var"], cfg["seed"])
        imageio.save_raw_float(clean, out_dir / "clean.rf64")
    else:
        f = clean
    t_degrade = time.perf_counter() - t0

    grid.check_pixels("observed image f", f, source)
    omega = weight.edge_weight(f, cfg["weight_sigma"], cfg["weight_varsigma"])

    t0 = time.perf_counter()
    restored, report = restore.run(f, A, params, omega)
    t_restore = time.perf_counter() - t0
    if cfg["trace"] is not None:
        rows = zip(report.res_q, report.res_v, report.res_z, report.objective)
        Path(cfg["trace"]).write_text("".join(
            f"{k}\t{rq:.12e}\t{rv:.12e}\t{rz:.12e}\t{energy:.12e}\n"
            for k, (rq, rv, rz, energy) in enumerate(rows, start=1)))

    if restored.min() == restored.max():
        raise ValueError(f"the restoration is constant ({_fmt(float(restored[0, 0]))}); "
                         f"there are no {cfg['phases']} phases to separate")
    t0 = time.perf_counter()
    stretched = cluster.stretch(restored)
    km = cluster.kmeans_1d(stretched.ravel(), cfg["phases"])
    labeling = cluster.label(stretched, km.centers)
    recon = cluster.piecewise_constant(labeling)
    t_cluster = time.perf_counter() - t0

    sa_value = None
    if truth is not None:
        sa_value = metrics.sa(labeling.labels, truth)

    # Artifacts. The raw formats are authoritative; PGMs are for viewing.
    imageio.save_raw_float(f, out_dir / "degraded.rf64")
    imageio.save_pgm(f, out_dir / "degraded.pgm")
    imageio.save_raw_float(restored, out_dir / "restored.rf64")
    imageio.save_pgm(restored, out_dir / "restored.pgm")
    imageio.save_raw_float(stretched, out_dir / "stretched.rf64")
    imageio.save_labels(labeling.labels, out_dir / "labels.ri32")
    k = labeling.k
    imageio.save_pgm((labeling.labels - 1) / max(k - 1, 1), out_dir / "labels.pgm")
    imageio.save_raw_float(recon, out_dir / "recon.rf64")
    imageio.save_pgm(recon, out_dir / "recon.pgm")
    if truth is not None:
        imageio.save_labels(truth, out_dir / "truth.ri32")
    if kernel is not None:
        save_kernel(kernel, out_dir / "kernel.txt")

    lines = [
        f"source: {source}",
        f"degradation-mode: {'in-pipeline' if in_pipeline else 'pre-applied'}",
        f"degrade: {cfg['degrade']}",
        f"noise-var: {_fmt(cfg['noise_var'])}",
        f"seed: {cfg['seed']}",
        f"lambda: {_fmt(cfg['lam'])}",
        f"gamma: {_fmt(cfg['gamma'])}",
        f"mu1: {_fmt(cfg['mu1'])}",
        f"mu2: {_fmt(cfg['mu2'])}",
        f"mu3: {_fmt(cfg['mu3'])}",
        f"iota: {_fmt(cfg['iota'])}",
        f"mode: {'unconstrained' if cfg['unconstrained'] else 'constrained'}",
        f"eps: {_fmt(cfg['eps'])}",
        f"max-iter: {cfg['max_iter']}",
        f"weight-sigma: {_fmt(cfg['weight_sigma'])}",
        f"weight-varsigma: {_fmt(cfg['weight_varsigma'])}",
        f"phases: {cfg['phases']}",
        f"iterations: {report.iterations}",
        f"termination: {report.termination}",
        f"final-res-q: {_fmt(float(report.res_q[-1]))}",
        f"final-res-v: {_fmt(float(report.res_v[-1]))}",
        f"final-res-z: {_fmt(float(report.res_z[-1]))}",
        f"final-res-dual: {_fmt(float(report.res_dual[-1]))}",
        f"final-mu1: {_fmt(float(report.mu[-1, 0]))}",
        f"final-mu2: {_fmt(float(report.mu[-1, 1]))}",
        f"final-mu3: {_fmt(float(report.mu[-1, 2]))}",
        f"centers: {_fmt_seq(km.centers)}",
        f"wcss: {_fmt(km.wcss)}",
        f"thresholds: {_fmt_seq(labeling.thresholds)}",
        f"phase-means: {_fmt_seq(labeling.phase_means)}",
        f"sa: {_fmt(sa_value) if sa_value is not None else 'n/a'}",
    ]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")

    stdout.write(f"wrote {out_dir}/report.txt\n")
    stdout.write(f"iterations: {report.iterations} ({report.termination})\n")
    if sa_value is not None:
        stdout.write(f"sa: {_fmt(sa_value)}\n")
    stdout.write(f"timings (s): degrade={t_degrade:.3f} restore={t_restore:.3f} "
                 f"cluster={t_cluster:.3f}\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return run_pipeline(cfg)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"htvseg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
