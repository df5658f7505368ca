"""Config parsing, flag precedence, spec strings, and end-to-end pipeline
runs over a temp directory."""

import io
import re
import warnings

import numpy as np
import pytest

from htvseg import cli, cluster, imageio, metrics, phantom, restore, weight


def unreachable_run(*args, **kwargs):
    """Stands in for ``restore.run`` where a call must fail before the solve."""
    raise AssertionError("restore.run reached")


def base_cfg(**overrides):
    cfg = {dest: default for _key, dest, _typ, default in cli._OPTIONS}
    cfg.update(overrides)
    return cfg


def test_read_config_forms(tmp_path):
    """'#' starts a comment at a line's start or after whitespace (a space
    or a tab); inside a value, as in the path runs/scan#3, it is kept."""
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "lambda 0.25\n"
        "gamma = 2.5\n"
        "max-iter 40   # trailing comment\n"
        "unconstrained true\n"
        "out-dir runs/scan#3\n"
        "trace runs/trace#1.tsv\t# after a tab\n"
        "#eps 9\n"
        "\n")
    cfg = cli._read_config(str(path))
    assert cfg == {"lam": 0.25, "gamma": 2.5, "max_iter": 40,
                   "unconstrained": True, "out_dir": "runs/scan#3",
                   "trace": "runs/trace#1.tsv"}
    # A line splits after its key, so a value keeps every '=' it holds.
    for line, out_dir in (("out-dir runs/lam=0.1", "runs/lam=0.1"),
                          ("out-dir = runs/lam=0.1", "runs/lam=0.1"),
                          ("out-dir=runs/x", "runs/x")):
        path.write_text(line + "\n")
        assert cli._read_config(str(path)) == {"out_dir": out_dir}


def test_read_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lamda 0.1\n")
    with pytest.raises(ValueError):
        cli._read_config(str(path))


def test_read_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "run.cfg"
    for line in ("lambda", "lambda =", "= 0.1"):
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="expected 'key value'"):
            cli._read_config(str(path))


def test_read_config_rejects_bad_bool(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("unconstrained yes\n")
    with pytest.raises(ValueError):
        cli._read_config(str(path))


@pytest.mark.parametrize("line,message", [
    ("max-iter abc", "max-iter must be an int, got 'abc'"),
    ("lambda 0.1.2", "lambda must be a float, got '0.1.2'"),
])
def test_read_config_names_a_value_that_does_not_convert(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"gamma 2.0\n{line}\n")
    with pytest.raises(ValueError) as err:
        cli._read_config(str(path))
    assert str(err.value) == f"{path}:2: {message}"


def test_flag_beats_config_beats_default(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lambda 0.5\ngamma 3.0\n")
    args = cli._build_parser().parse_args(
        ["--config", str(path), "--gamma", "7.0"])
    cfg = cli._resolve(args)
    assert cfg["lam"] == 0.5       # from config
    assert cfg["gamma"] == 7.0     # flag wins
    assert cfg["mu1"] == 1.0       # default


def test_solver_defaults_come_from_solver_params():
    defaults = {dest: default for _key, dest, _typ, default in cli._OPTIONS}
    params = restore.SolverParams(lam=defaults["lam"], gamma=defaults["gamma"])
    for dest, field in [("eps", "epsilon"), ("max_iter", "max_iter"),
                        ("mu1", "mu1"), ("mu2", "mu2"), ("mu3", "mu3"),
                        ("iota", "iota")]:
        assert defaults[dest] == getattr(params, field)
    assert defaults["weight_sigma"] == weight.DEFAULT_SIGMA
    assert defaults["weight_varsigma"] == weight.DEFAULT_CONTRAST


def test_parse_phantom_specs():
    p = cli._parse_phantom("two,disk,16,16,0.2,0.8,5")
    assert p.image.shape == (16, 16)
    q = cli._parse_phantom("three,20,24,0.1,0.5,0.9")
    assert q.image.shape == (20, 24)
    assert set(np.unique(q.truth)) == {1, 2, 3}
    bars = cli._parse_phantom("two,bars,8,16,0.0,1.0,4")
    assert set(np.unique(bars.truth)) == {1, 2}


@pytest.mark.parametrize("spec", [
    "one,disk,8,8,0.2,0.8",
    "two,disk,8,8,0.2",
    "two,disk,8,eight,0.2,0.8",
    "",
    # one field past the grammar: fails rather than dropping it
    "two,text,16,16,0.2,0.8,5",
    "two,disk,32,32,0.2,0.8,5,99",
    "three,16,16,0.1,0.5,0.9,6",
])
def test_parse_phantom_rejects(spec):
    with pytest.raises(ValueError, match=re.escape(f"bad phantom spec {spec!r}")):
        cli._parse_phantom(spec)


def test_parse_degrade_specs():
    A, kernel = cli._parse_degrade("none", (8, 8))
    assert A.transfer is None and kernel is None
    A, kernel = cli._parse_degrade("gaussian,5,5", (8, 8))
    assert kernel.taps.shape == (5, 5)
    A, kernel = cli._parse_degrade("motion,7,0", (16, 16))
    assert kernel.taps.shape[0] == 1
    for spec in ("box,3", "gaussian,5", "gaussian,5,5,7", "none,3", "motion,5,0,1"):
        with pytest.raises(ValueError, match=re.escape(f"bad degrade spec {spec!r}")):
            cli._parse_degrade(spec, (16, 16))


def test_pipeline_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError):
        cli.run_pipeline(base_cfg(out_dir=str(tmp_path)), stdout=io.StringIO())
    both = base_cfg(input="x.pgm", phantom="two,disk,8,8,0.2,0.8",
                    out_dir=str(tmp_path))
    with pytest.raises(ValueError):
        cli.run_pipeline(both, stdout=io.StringIO())


def test_pipeline_clean_phantom_perfect_segmentation(tmp_path):
    out = tmp_path / "out"
    cfg = base_cfg(phantom="two,disk,48,48,0.2,0.8", max_iter=300,
                   out_dir=str(out))
    buf = io.StringIO()
    assert cli.run_pipeline(cfg, stdout=buf) == 0
    report = (out / "report.txt").read_text()
    assert "sa: 0\n" in report
    assert "degradation-mode: in-pipeline" in report
    for name in ("clean.rf64", "degraded.rf64", "degraded.pgm",
                 "restored.rf64", "restored.pgm", "stretched.rf64",
                 "labels.ri32", "labels.pgm", "recon.rf64", "recon.pgm",
                 "truth.ri32", "report.txt"):
        assert (out / name).exists(), name
    assert not (out / "kernel.txt").exists()  # no blur requested
    # timings go to stdout, never into the report
    assert "timings" in buf.getvalue()
    assert "timings" not in report


def test_pipeline_artifacts_recompute_reported_sa(tmp_path):
    out = tmp_path / "out"
    cfg = base_cfg(phantom="two,disk,32,32,0.2,0.8", noise_var=0.05,
                   seed=3, max_iter=150, out_dir=str(out))
    cli.run_pipeline(cfg, stdout=io.StringIO())
    labels = imageio.load_labels(out / "labels.ri32")
    truth = imageio.load_labels(out / "truth.ri32")
    reported = [line for line in (out / "report.txt").read_text().splitlines()
                if line.startswith("sa: ")][0]
    assert float(reported.split()[1]) == metrics.sa(labels, truth)


def test_pipeline_external_input_with_truth(tmp_path):
    ph = phantom.make_two_phase(24, 24, "disk", 0.2, 0.8, radius=7.0)
    img_path = tmp_path / "obs.rf64"
    truth_path = tmp_path / "truth.ri32"
    imageio.save_raw_float(ph.image, img_path)
    imageio.save_labels(ph.truth, truth_path)
    out = tmp_path / "out"
    cfg = base_cfg(input=str(img_path), truth=str(truth_path),
                   max_iter=150, out_dir=str(out))
    cli.run_pipeline(cfg, stdout=io.StringIO())
    report = (out / "report.txt").read_text()
    assert "degradation-mode: pre-applied" in report
    assert f"source: {img_path}" in report
    assert not (out / "clean.rf64").exists()  # no synthetic original
    # observation passes through untouched in pre-applied mode
    assert np.array_equal(imageio.load_image(out / "degraded.rf64"), ph.image)


def test_pipeline_apply_degrade_flag_degrades_external_input(tmp_path):
    ph = phantom.make_two_phase(16, 16, "disk", 0.2, 0.8, radius=5.0)
    img_path = tmp_path / "obs.rf64"
    imageio.save_raw_float(ph.image, img_path)
    out = tmp_path / "out"
    cfg = base_cfg(input=str(img_path), apply_degrade=True,
                   degrade="gaussian,3,1", max_iter=5, out_dir=str(out))
    cli.run_pipeline(cfg, stdout=io.StringIO())
    report = (out / "report.txt").read_text()
    assert "degradation-mode: in-pipeline" in report
    assert (out / "kernel.txt").exists()
    degraded = imageio.load_image(out / "degraded.rf64")
    assert not np.array_equal(degraded, ph.image)


def test_pipeline_truth_shape_mismatch(tmp_path):
    truth_path = tmp_path / "truth.ri32"
    imageio.save_labels(np.ones((4, 4), dtype=np.int32), truth_path)
    cfg = base_cfg(phantom="two,disk,8,8,0.2,0.8", truth=str(truth_path),
                   out_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError):
        cli.run_pipeline(cfg, stdout=io.StringIO())


def test_main_rejects_truth_label_below_one_before_solving(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    labels = np.ones((16, 16), dtype=np.int32)
    labels[3, 4] = 0
    imageio.save_labels(labels, tmp_path / "bad.ri32")
    rc = cli.main(["--phantom", "two,disk,16,16,0.2,0.8", "--truth", "bad.ri32",
                   "--out-dir", "out"])
    assert rc == 1
    assert "--truth bad.ri32: labels must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pipeline_trace_file(tmp_path):
    out = tmp_path / "out"
    trace = tmp_path / "trace.tsv"
    cfg = base_cfg(phantom="two,disk,8,8,0.2,0.8", max_iter=6,
                   trace=str(trace), out_dir=str(out))
    cli.run_pipeline(cfg, stdout=io.StringIO())
    lines = trace.read_text().strip().splitlines()
    report = dict(line.split(": ", 1)
                  for line in (out / "report.txt").read_text().splitlines())
    assert len(lines) == int(report["iterations"])
    rows = [line.split("\t") for line in lines]
    assert all(len(row) == 5 for row in rows)
    assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
    final = [float(report[f"final-res-{block}"]) for block in "qvz"]
    assert np.allclose([float(x) for x in rows[-1][1:4]], final,
                       rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("flags,message", [
    (["--phases", "1"], "--phases must be at least 2, got 1"),
    (["--phases", "3"], "--phases 3 exceeds the truth's 2 phases"),
    (["--trace", "missing/trace.tsv"], "--trace directory missing does not exist"),
    (["--eps", "nan"], "--eps must be finite, got nan"),
    (["--weight-sigma", "-1"], "--weight-sigma must be >= 0, got -1.0"),
    (["--weight-varsigma", "-1"], "--weight-varsigma must be >= 0, got -1.0"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--noise-var", "-1"], "--noise-var must be >= 0, got -1.0"),
    (["--degrade", "motion,1e9,0"],
     "bad degrade spec 'motion,1e9,0': motion length 1e+09 cannot fit the 16x16 grid"),
    (["--degrade", "gaussian,17,2"],
     "bad degrade spec 'gaussian,17,2': kernel (17, 17) larger than grid (16, 16)"),
    (["--degrade", "gaussian,2000001,1"],
     "bad degrade spec 'gaussian,2000001,1': kernel (2000001, 2000001) larger "
     "than grid (16, 16)"),
    (["--degrade", "motion,5,inf"],
     "bad degrade spec 'motion,5,inf': motion angle must be finite, got inf"),
    (["--degrade", "motion,nan,0"],
     "bad degrade spec 'motion,nan,0': motion length must be finite, got nan"),
    (["--phantom", "two,disk,24,24,0.2,0.8,nan"],
     "bad phantom spec 'two,disk,24,24,0.2,0.8,nan': radius must be finite and >= 0, got nan"),
    (["--phantom", "three,24,24,0.1,0.5,0.9,8,nan"],
     "bad phantom spec 'three,24,24,0.1,0.5,0.9,8,nan': r_in must be finite and >= 0, got nan"),
    (["--phantom", "two,bars,24,24,0.2,0.8,1e30"],
     "bad phantom spec 'two,bars,24,24,0.2,0.8,1e30': bar_width must be in [1, 24], got 1e+30"),
    (["--weight-sigma", "1e12"],
     "--weight-sigma 1e+12 needs 6000000000001 smoothing taps, more than 1048576"),
    (["--trace", "."], "--trace . is a directory"),
    (["--trace", "made"], "--trace made is a directory"),
    (["--trace", "made/there/trace.tsv"], "--trace directory made/there does not exist"),
    (["--trace", "made/here/labels.ri32"],
     "--trace made/here/labels.ri32 names an artifact this call writes into "
     "--out-dir made/here"),
    (["--trace", "made/./here/report.txt"],
     "--trace made/here/report.txt names an artifact this call writes into "
     "--out-dir made/here"),
])
def test_main_rejects_bad_flags_before_any_artifact(tmp_path, monkeypatch,
                                                    capsys, flags, message):
    """Every flag is checked before the solve and before the out-dir is
    made, so a rejected call leaves no directory, not even the out-dir's
    parent."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(restore, "run", unreachable_run)
    rc = cli.main(["--phantom", "two,disk,16,16,0.2,0.8", "--max-iter", "5",
                   "--out-dir", "made/here", *flags])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "made").exists()


def test_main_rejects_a_trace_onto_each_artifact(tmp_path, monkeypatch,
                                                 capsys):
    """A --trace naming any file a call writes into the out-dir is rejected
    before the solve, and the file of an earlier call keeps its bytes."""
    monkeypatch.chdir(tmp_path)
    flags = ["--phantom", "two,disk,16,16,0.2,0.8", "--degrade", "gaussian,3,1",
             "--max-iter", "5", "--out-dir", "out"]
    assert cli.main(flags) == 0
    artifacts = {path: path.read_bytes() for path in (tmp_path / "out").iterdir()}
    assert len(artifacts) == len(cli._ARTIFACTS) + 3
    monkeypatch.setattr(restore, "run", unreachable_run)
    for path in artifacts:
        assert cli.main([*flags, "--trace", f"out/{path.name}"]) == 1
        assert (f"--trace out/{path.name} names an artifact this call writes "
                "into --out-dir out") in capsys.readouterr().err
    assert {path: path.read_bytes() for path in artifacts} == artifacts


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
def test_main_rejects_an_out_dir_at_or_under_a_file(tmp_path, monkeypatch,
                                                    capsys, out_dir):
    """An --out-dir that is a file, or lies under one, fails before the
    solve, naming the flag, and leaves the file's bytes alone."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(restore, "run", unreachable_run)
    (tmp_path / "afile").write_bytes(b"kept\n")
    rc = cli.main(["--phantom", "two,disk,16,16,0.2,0.8", "--max-iter", "5",
                   "--out-dir", out_dir])
    assert rc == 1
    assert f"--out-dir {out_dir}: afile is not a directory" in capsys.readouterr().err
    assert (tmp_path / "afile").read_bytes() == b"kept\n"


def test_main_writes_a_trace_into_the_out_dir_it_makes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["--phantom", "two,disk,16,16,0.2,0.8", "--max-iter", "6",
                   "--out-dir", "new", "--trace", "new/trace.tsv"])
    assert rc == 0
    report = (tmp_path / "new" / "report.txt").read_text()
    lines = (tmp_path / "new" / "trace.tsv").read_text().splitlines()
    assert f"iterations: {len(lines)}\n" in report


@pytest.mark.parametrize("flags,message", [
    (["--degrade", "gaussian,5,inf"],
     "bad degrade spec 'gaussian,5,inf': sigma_g must be finite, got inf"),
    (["--degrade", "gaussian,3,nan"],
     "bad degrade spec 'gaussian,3,nan': sigma_g must be finite, got nan"),
])
def test_main_rejects_non_finite_blur_width(tmp_path, monkeypatch, capsys,
                                           flags, message):
    """A non-finite Gaussian width fails before the clean image is written,
    naming sigma_g, rather than running a box blur or failing on the
    taps."""
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["--phantom", "two,disk,16,16,0.2,0.8", "--max-iter", "5",
                   "--out-dir", "out", *flags])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["--phantom", "two,disk,16,16,0.2,0.8",
                   "--max-iter", "5", "--out-dir", str(out)])
    assert rc == 0
    assert "report.txt" in capsys.readouterr().out
    rc = cli.main(["--out-dir", str(out)])  # no source at all
    assert rc == 1
    assert "error" in capsys.readouterr().err
    rc = cli.main(["--input", str(tmp_path / "missing.pgm"),
                   "--out-dir", str(out)])
    assert rc == 1


def test_main_rejects_non_finite_input(tmp_path, capsys):
    image = np.full((8, 8), 0.5)
    image[3, 4] = np.nan
    path = tmp_path / "f.rf64"
    imageio.save_raw_float(image, path)
    rc = cli.main(["--input", str(path), "--max-iter", "3",
                   "--out-dir", str(tmp_path / "made" / "here")])
    assert rc == 1
    assert "f has 1 non-finite entry" in capsys.readouterr().err
    assert not (tmp_path / "made").exists()


@pytest.mark.parametrize("value,flags,name", [
    (1e308, [], "observed image f spans [0.5, 1e+308]"),
    (-1e308, [], "observed image f spans [-1e+308, 0.9]"),
    (1e308, ["--apply-degrade", "--degrade", "gaussian,5,5"],
     "clean image spans [0.5, 1e+308]"),
])
def test_main_rejects_huge_pixel_before_the_weight(tmp_path, capsys, value,
                                                   flags, name):
    """A finite pixel too large to square fails up front, naming the input
    and its range, with no overflow warning from the blur, the weight or
    the solver and no artifact written."""
    image = np.full((32, 32), 0.5)
    image[8:24, 8:24] = 0.9
    image[3, 4] = value
    path = tmp_path / "f.rf64"
    imageio.save_raw_float(image, path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["--input", str(path), "--max-iter", "5",
                       "--out-dir", str(out), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{name}, from {path}" in err
    assert "above 1e+100" in err and "omega" not in err
    assert not out.exists()


def test_main_reduces_the_restoration_range_once(tmp_path, monkeypatch):
    """The CLI takes the restoration's range once, in cluster.segment, for
    both the constant check and the stretch; it reduces the array itself
    neither through the methods nor through numpy's functions."""
    direct, ranged = [], []

    class Watched(np.ndarray):
        def min(self, *args, **kwargs):
            direct.append("min")
            return super().min(*args, **kwargs)

        def max(self, *args, **kwargs):
            direct.append("max")
            return super().max(*args, **kwargs)

    run, finite_range = restore.run, cluster.finite_range
    restorations = []

    def watched_run(*args):
        restored, report = run(*args)
        restorations.append(restored)
        return restored.view(Watched), report

    def watched_range(name, a, source=None):
        if np.shares_memory(a, restorations[0]):
            ranged.append(name)
        return finite_range(name, a, source)

    monkeypatch.setattr(restore, "run", watched_run)
    monkeypatch.setattr(cluster, "finite_range", watched_range)
    assert cli.main(["--phantom", "two,disk,16,16,0.2,0.8", "--max-iter", "5",
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert (len(ranged), direct) == (1, [])


def test_main_names_a_constant_restoration(tmp_path, capsys):
    """A penalty so large that the restoration is flat leaves nothing to
    cluster; the error says so instead of k-means' count of values, and
    no artifact is written."""
    rc = cli.main(["--phantom", "two,disk,24,24,0.2,0.8", "--mu2", "1e300",
                   "--max-iter", "5", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "the restoration is constant (0.416666666667)" in err
    assert "no 2 phases to separate" in err
    assert not (tmp_path / "out").exists()


def test_main_reports_same_run_twice_identically(tmp_path, capsys):
    argv = ["--phantom", "two,disk,24,24,0.2,0.8", "--noise-var", "0.02",
            "--seed", "5", "--max-iter", "30"]
    rc1 = cli.main(argv + ["--out-dir", str(tmp_path / "a")])
    rc2 = cli.main(argv + ["--out-dir", str(tmp_path / "b")])
    capsys.readouterr()
    assert rc1 == rc2 == 0
    ra = (tmp_path / "a" / "report.txt").read_bytes()
    rb = (tmp_path / "b" / "report.txt").read_bytes()
    assert ra == rb


def test_report_records_dual_residual_and_final_penalties(tmp_path):
    out = tmp_path / "out"
    cfg = base_cfg(phantom="two,disk,24,24,0.2,0.8", noise_var=0.02, seed=5,
                   out_dir=str(out))
    cli.run_pipeline(cfg, stdout=io.StringIO())
    report = dict(line.split(": ", 1)
                  for line in (out / "report.txt").read_text().splitlines())
    assert report["termination"] == "tolerance"
    # the run stops on an iteration whose dual residual was evaluated
    assert 0.0 <= float(report["final-res-dual"]) <= cfg["eps"] * 24
    for i in (1, 2, 3):
        ratio = float(report[f"final-mu{i}"]) / cfg[f"mu{i}"]
        assert ratio == 2.0 ** round(np.log2(ratio))


# Options report.txt does not echo: the source and degradation-mode lines
# stand for the first three, truth shows as sa, and the last two only say
# where output goes.
NOT_ECHOED = {"input", "phantom", "apply-degrade", "truth", "out-dir", "trace"}


def test_report_echoes_every_option_once_in_table_order(tmp_path, capsys):
    # A non-default value for every echoed option, spelled as report.txt
    # prints it; a new option fails here until it gets one.
    values = {"degrade": "motion,5,10", "noise-var": "0.02", "seed": "7",
              "lambda": "0.2", "gamma": "2.5", "mu1": "1.5", "mu2": "0.5",
              "mu3": "2", "iota": "1.2", "unconstrained": None, "eps": "0.002",
              "max-iter": "6", "weight-sigma": "1.5", "weight-varsigma": "3",
              "phases": "3"}
    echoed = [opt for opt in cli._OPTIONS if opt[0] not in NOT_ECHOED]
    assert [key for key, *_ in echoed] == list(values)
    spec = "three,24,24,0.1,0.5,0.9"
    argv = ["--phantom", spec, "--out-dir", str(tmp_path)]
    expected = [f"source: {cli._parse_phantom(spec).descriptor}",
                "degradation-mode: in-pipeline"]
    for key, _dest, typ, default in echoed:
        if typ is bool:
            argv.append(f"--{key}")
            expected.append("mode: unconstrained")
        else:
            assert typ(values[key]) != default
            argv += [f"--{key}", values[key]]
            expected.append(f"{key}: {values[key]}")
    assert cli.main(argv) == 0
    capsys.readouterr()
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert lines[:len(expected)] == expected
    assert lines[len(expected)].startswith("iterations: ")
