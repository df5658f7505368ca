"""Workload definitions and seeded input generation.

Each workload is a phantom, a blur and a noise level, plus the CLI flags the
pipeline runs with. The benchmark makes the observation itself (phantom,
then periodic blur, then Gaussian noise) and hands the program only files:
``f.rf64`` and ``truth.ri32``. The clean phantom stays with the benchmark,
which uses it to score the restoration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    phantom: str              # "disk" (two-phase) or "three"
    size: int                 # square grid side in pixels
    levels: tuple[float, ...]  # phase intensities, ascending
    degrade: str              # CLI spec: "none" or "gaussian,S,SIGMA"
    noise_var: float
    phases: int
    extra_flags: tuple[str, ...] = ()
    # Independent noise draws per seed. The loop cycles through them, so
    # that neither the quality metrics (averaged over draws) nor the timings
    # (k-means work depends on the draw) rest on one draw.
    realizations: int = 1

    def tiny(self) -> "Workload":
        """A few-millisecond version on one input set (24x24, 8 iterations),
        for the warm-up call and the self-tests."""
        return dataclasses.replace(self, size=24, realizations=1,
                                   extra_flags=("--max-iter", "8"))

    def argv(self, inputs: Path, out_dir: Path) -> list[str]:
        return ["--input", str(inputs / "f.rf64"), "--degrade", self.degrade,
                "--truth", str(inputs / "truth.ri32"),
                "--phases", str(self.phases), "--lambda", "0.1",
                "--gamma", "1.95", "--out-dir", str(out_dir),
                *self.extra_flags]


# Why each workload exists is in README.md; in short:
WORKLOADS = {w.name: w for w in (
    # The README's headline run. Restore is ~95% of wall time and only the
    # stopping rule ends it (eps and max-iter at CLI defaults).
    Workload(
        name="denoise-disk-128", phantom="disk", size=128, levels=(0.2, 0.8),
        degrade="none", noise_var=0.1, phases=2, realizations=4),
    # Non-identity A: the degrade FFTs run every iteration, and the pinned
    # iteration count maps ms/it 1:1 to wall time.
    Workload(
        name="deblur-three-256", phantom="three", size=256,
        levels=(0.1, 0.5, 0.9), degrade="gaussian,5,5", noise_var=0.01,
        phases=3, extra_flags=("--max-iter", "100"), realizations=3),
    # Largest grid, 5 iterations: k-means is ~60% of wall time; peak memory,
    # artifact I/O and weight smoothing are largest here.
    Workload(
        name="cluster-lowcontrast-512", phantom="three", size=512,
        levels=(0.3, 0.5, 0.7), degrade="none", noise_var=0.1, phases=3,
        extra_flags=("--max-iter", "5"), realizations=5),
)}


def write_raw(path: Path, array: np.ndarray) -> None:
    """Write RF64 (float64) or RI32 (int32): magic line, 'rows cols' line,
    row-major little-endian payload."""
    if array.dtype.kind == "f":
        magic, dtype = b"RF64", "<f8"
    else:
        magic, dtype = b"RI32", "<i4"
    rows, cols = array.shape
    path.write_bytes(magic + b"\n" + f"{rows} {cols}\n".encode()
                     + np.ascontiguousarray(array, dtype=dtype).tobytes())


def read_raw(path: Path) -> np.ndarray:
    """Read a file written in the RF64 or RI32 layout."""
    data = Path(path).read_bytes()
    magic, dims, payload = data.split(b"\n", 2)
    dtype = {b"RF64": "<f8", b"RI32": "<i4"}[magic]
    rows, cols = (int(x) for x in dims.split())
    return np.frombuffer(payload, dtype=dtype, count=rows * cols).reshape(rows, cols)


def _blur(image: np.ndarray, spec: str) -> np.ndarray:
    """Apply the CLI's degradation ``spec`` to ``image`` with htvseg's own
    operator A, so the observation is exactly the model the solver inverts."""
    if spec == "none":
        return image.copy()
    from htvseg import LinearOperatorA, gaussian_kernel
    from htvseg.degrade import apply

    kind, size, sigma = spec.split(",")
    if kind != "gaussian":
        raise ValueError(f"unsupported degrade spec {spec!r}")
    A = LinearOperatorA.convolution(gaussian_kernel(int(size), float(sigma)), image.shape)
    return apply(A, image)


def make_inputs(workload: Workload, seed: int, root: Path) -> list[Path]:
    """Write one input set per realization under ``root``; return their
    directories. The same (workload, seed) always gives the same bytes."""
    from htvseg import make_three_phase, make_two_phase

    n = workload.size
    if workload.phantom == "disk":
        ph = make_two_phase(n, n, "disk", *workload.levels)
    else:
        ph = make_three_phase(n, n, *workload.levels)
    blurred = _blur(ph.image, workload.degrade)
    dirs = []
    for r in range(workload.realizations):
        rng = np.random.default_rng([seed, r])
        f = blurred + rng.normal(0.0, np.sqrt(workload.noise_var), blurred.shape)
        d = root / f"r{r}"
        (d / "private").mkdir(parents=True, exist_ok=True)
        write_raw(d / "f.rf64", f)
        write_raw(d / "truth.ri32", ph.truth)
        write_raw(d / "private" / "clean.rf64", ph.image)
        dirs.append(d)
    return dirs
