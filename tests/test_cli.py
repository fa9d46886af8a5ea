"""Command-line behavior: parsing, exit codes, files, and deterministic outputs."""

import contextlib
import io
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqregret import (
    BoundedSequence,
    cli,
    feature_matrix,
    gram_log_det_ratio,
    linear_lag,
    monomial_features,
    regret_report,
    run_online,
)
from seqregret.batch import RegretReport
from seqregret.cli import (
    InputFileError,
    bound_trace,
    default_monomials,
    default_n_grid,
    main,
    read_config_file,
    read_sequence_file,
)
from seqregret.randomized import EXTENDED_CSV_COLUMNS


def run_cli(*args):
    return main(list(args))


def read(path):
    return path.read_text(encoding="utf-8")


# -------------------------------------------------------------- input files


def test_sequence_file_with_bound_header(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("# comment\n# A = 2.0\n0.5\n\n-1.5\n1.0\n")
    seq = read_sequence_file(str(p))
    np.testing.assert_array_equal(seq.values, [0.5, -1.5, 1.0])
    assert seq.bound_A == 2.0


def test_sequence_file_bound_defaults_to_max_abs(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("0.25\n-0.75\n0.5\n")
    assert read_sequence_file(str(p)).bound_A == 0.75
    z = tmp_path / "zeros.txt"
    z.write_text("0.0\n0.0\n")
    assert read_sequence_file(str(z)).bound_A == 0.0


def test_sequence_file_errors_carry_position(tmp_path):
    bad_number = tmp_path / "bad.txt"
    bad_number.write_text("1.0\n0.5\nnot-a-number\n")
    with pytest.raises(InputFileError, match=r"bad\.txt:3"):
        read_sequence_file(str(bad_number))
    bad_header = tmp_path / "hdr.txt"
    bad_header.write_text("# A = huge\n1.0\n")
    with pytest.raises(InputFileError, match=r"hdr\.txt:1"):
        read_sequence_file(str(bad_header))
    empty = tmp_path / "empty.txt"
    empty.write_text("# only comments\n")
    with pytest.raises(InputFileError, match="no samples"):
        read_sequence_file(str(empty))
    with pytest.raises(InputFileError, match="cannot read"):
        read_sequence_file(str(tmp_path / "missing.txt"))


def test_sequence_file_violating_declared_bound_is_rejected(tmp_path):
    p = tmp_path / "over.txt"
    p.write_text("# A = 1.0\n2.5\n")
    with pytest.raises(InputFileError):
        read_sequence_file(str(p))


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("family = zero  # trailing comment\nn=16\nsvg = true\nbig_flag=3\n")
    assert read_config_file(str(p)) == {"family": "zero", "n": "16", "svg": "true", "big-flag": "3"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just-a-token\n")
    with pytest.raises(InputFileError, match="key=value"):
        read_config_file(str(bad))
    anonymous = tmp_path / "anon.cfg"
    anonymous.write_text("= 3\n")
    with pytest.raises(InputFileError, match="empty key"):
        read_config_file(str(anonymous))


def test_small_helpers():
    assert default_monomials(2) == [{1: 1}, {1: 1, 2: 1}]
    assert default_n_grid(512) == [128, 256, 512]
    assert default_n_grid(16) == [16]


# ------------------------------------------------------------ regret command


def test_regret_zero_family_reports_all_zero(tmp_path):
    out = tmp_path / "zero.csv"
    assert run_cli("regret", "--family", "zero", "--n", "16", "--out", str(out)) == 0
    header, row = read(out).splitlines()
    assert header == ",".join(RegretReport.CSV_COLUMNS)
    cells = row.split(",")
    assert cells[0] == "16"
    assert all(float(c) == 0.0 for c in cells[4:])


def test_regret_default_family_to_stdout(capsys):
    assert run_cli("regret", "--n", "32") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(RegretReport.CSV_COLUMNS)
    assert len(lines) == 2


def test_regret_from_input_file(tmp_path, capsys):
    p = tmp_path / "seq.txt"
    p.write_text("# A=1.0\n1.0\n1.0\n1.0\n")
    assert run_cli("regret", "--input", str(p)) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[0] == "3"
    assert float(row[4]) == 2.25  # the worked three-ones run


def test_regret_malformed_input_exits_2(tmp_path, capsys):
    p = tmp_path / "seq.txt"
    p.write_text("1.0\nbroken\n")
    assert run_cli("regret", "--input", str(p)) == 2
    assert "error:" in capsys.readouterr().err


def test_regret_svg_needs_out(capsys):
    assert run_cli("regret", "--n", "8", "--svg") == 2
    assert "--svg requires --out" in capsys.readouterr().err


def test_regret_svg_written_next_to_csv(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli("regret", "--n", "32", "--svg", "--out", str(out)) == 0
    svg = tmp_path / "run.svg"
    text = read(svg)
    assert text.startswith("<svg")
    assert "certificate" in text


# ----------------------------------------------------------------- seed rules


@pytest.mark.parametrize(
    "args",
    [
        ("lowerbound", "--n", "16", "--trials", "4"),
        ("identity", "--n", "8"),
        ("regret", "--family", "walk", "--n", "8"),
        ("regret", "--family", "adversarial", "--n", "8"),
    ],
)
def test_stochastic_runs_require_a_seed(args, capsys):
    assert run_cli(*args) == 2
    assert "--seed is required" in capsys.readouterr().err


def test_deterministic_families_do_not_need_a_seed():
    assert run_cli("regret", "--family", "sinusoid", "--n", "8") == 0
    assert run_cli("regret", "--family", "zero", "--n", "8") == 0


# -------------------------------------------------------------- config files


def test_config_supplies_flags_and_explicit_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=zero\nn=8\n")
    assert run_cli("regret", "--config", str(cfg)) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[0] == "8"
    # explicit --n overrides the file's n
    assert run_cli("regret", "--config", str(cfg), "--n", "4") == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[0] == "4"


def test_config_flag_prefix_is_read_like_argparse(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=walk\nseed=3\nn=64\n")
    full, prefix = tmp_path / "full.csv", tmp_path / "prefix.csv"
    assert run_cli("regret", "--config", str(cfg), "--out", str(full)) == 0
    assert run_cli("regret", "--conf", str(cfg), "--out", str(prefix)) == 0
    assert read(full).splitlines()[1].split(",")[0] == "64"
    assert read(prefix) == read(full)


def test_out_path_naming_config_is_not_a_config(tmp_path):
    out = tmp_path / "x--config.csv"
    assert run_cli("regret", "--out", str(out)) == 0
    assert read(out).splitlines()[1].split(",")[0] == "256"


def test_config_boolean_svg(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=sinusoid\nn=16\nsvg=true\n")
    out = tmp_path / "cfg.csv"
    assert run_cli("regret", "--config", str(cfg), "--out", str(out)) == 0
    assert (tmp_path / "cfg.svg").exists()


def test_config_bad_boolean_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("svg=maybe\n")
    assert run_cli("regret", "--config", str(cfg)) == 2
    assert "expected a boolean" in capsys.readouterr().err


def test_config_missing_file_exits_2(tmp_path, capsys):
    assert run_cli("regret", "--config", str(tmp_path / "nope.cfg")) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble=1\n")
    assert run_cli("regret", "--config", str(cfg)) == 2


@pytest.mark.parametrize(
    "spec", [linear_lag(1, 3), monomial_features([{1: 1}, {1: 1, 2: 1}])], ids=["linear", "monomial"]
)
def test_bound_trace_ends_at_the_report_and_majorizes_every_prefix(spec):
    rng = np.random.default_rng(4)
    seq = BoundedSequence(np.clip(np.cumsum(rng.normal(0, 0.2, 600)), -1, 1), 1.0)
    cum_damped, certificate = bound_trace(run_online(spec, seq, 0.5), seq)
    # oracle at the full horizon: the batch-side regret report
    report = regret_report(spec, seq, 0.5, run_online(spec, seq, 0.5))
    assert cum_damped[-1] == pytest.approx(report.bound_loss, rel=1e-10)
    assert certificate[-1] == pytest.approx(report.batch_loss_ridge + report.det_bound, rel=1e-10)
    # oracle at a prefix crossing a block boundary: the same report on that prefix
    prefix = seq.prefix(300)
    head = regret_report(spec, prefix, 0.5, run_online(spec, prefix, 0.5))
    assert certificate[299] == pytest.approx(head.batch_loss_ridge + head.det_bound, rel=1e-10)
    assert np.all(cum_damped <= certificate + 1e-9)


def test_bound_trace_certificate_matches_an_augmented_least_squares_oracle():
    # the `regret --svg` input of a long, well-fit run: a sinusoid obeys a lag-2
    # recurrence, so the penalized objective stays O(1) while sum x^2 grows with n
    ns = cli.build_parser().parse_args(["regret", "--family", "sinusoid", "--n", "16384", "--m", "4"])
    spec, seq, delta = cli.build_feature_spec(ns), cli.build_sequence(ns), 1.0
    _, certificate = bound_trace(run_online(spec, seq, delta), seq)
    F, x = feature_matrix(spec, seq), seq.values
    worst = 0.0
    for t in range(256, len(seq) + 1, 256):
        # min_w |x - F w|^2 + delta |w|^2 as one least-squares problem on [F; sqrt(delta) I]
        aug = np.vstack([F[:t], math.sqrt(delta) * np.eye(spec.order_m)])
        target = np.concatenate([x[:t], np.zeros(spec.order_m)])
        w = np.linalg.lstsq(aug, target, rcond=None)[0]
        resid = aug @ w - target
        oracle = float(resid @ resid) + seq.bound_A ** 2 * gram_log_det_ratio(F[:t].T @ F[:t], delta)
        worst = max(worst, abs(certificate[t - 1] - oracle) / oracle)
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "args",
    [
        ("regret", "--A", "1e160", "--n", "64"),
        ("compare", "--A", "1e160", "--n", "64"),
        ("regret", "--delta", "1e-300", "--m", "3"),
        ("regret", "--delta", "1e-300", "--m", "3", "--class", "univar"),
        ("identity", "--delta", "1e-300", "--m", "3", "--seed", "1", "--n", "16", "--trials", "4"),
    ],
)
def test_extreme_scales_end_without_traceback(args, capsys):
    code = run_cli(*args)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_overflowing_scale_is_refused_up_front(capsys):
    assert run_cli("regret", "--A", "1e160", "--n", "64") == 2
    assert "A^2 * n / delta overflows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["regret", "compare"])
def test_overflowing_hindsight_weights_are_named(command, tmp_path, capfd):
    # the unregularized fit of 1.0 on a subnormal feature needs a weight past the float
    # range; its residual used to be 0 * inf = nan, with a RuntimeWarning on stderr
    seq = tmp_path / "tiny.txt"
    seq.write_text("2.225073858507e-311\n1.0\n")
    code = run_cli(command, "--input", str(seq))
    out, err = capfd.readouterr()
    assert code == 2
    assert out == ""
    assert "hindsight fit overflows" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_polynomial_feature_overflow_is_refused_up_front(capfd):
    # A^8 overflows: LAPACK used to print onto stdout before the SVD gave up
    code = run_cli("regret", "--family", "sinusoid", "--A", "1e40", "--class", "univar", "--m", "8", "--n", "64")
    out, err = capfd.readouterr()
    assert code == 2
    assert out == ""
    assert "normalization_constant(spec, A)^2 * n / delta overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ("regret", "--class", "univar", "--m", "8", "--A", "1e18"),
        ("compare", "--family", "sinusoid", "--n", "1000", "--m", "4", "--forgetting", "0.5"),
        ("compare", "--family", "adversarial", "--seed", "1", "--n", "1000", "--class", "univar", "--m", "3",
         "--forgetting", "0.9"),
        ("compare", "--family", "zero", "--n", "8000", "--forgetting", "0.9"),
    ],
)
def test_singular_ridge_system_is_named(args, capfd):
    code = run_cli(*args)
    out, err = capfd.readouterr()
    assert code == 2
    assert out == ""
    assert "ridge system R + dI is singular in floating point" in err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err


def test_identity_tiny_delta_names_the_quadrature(capfd):
    code = run_cli("identity", "--family", "walk", "--seed", "1", "--n", "64", "--delta", "1e-300")
    out, err = capfd.readouterr()
    assert code == 2
    assert out == ""
    assert "evidence quadrature failed" in err and "too small" in err
    assert "Traceback" not in err


def test_lowerbound_tiny_concentration_exits_2_promptly(capsys):
    start = time.perf_counter()
    assert run_cli("lowerbound", "--C", "1e-300", "--seed", "1", "--n", "128", "--trials", "3") == 2
    assert time.perf_counter() - start < 1.0
    assert "too small" in capsys.readouterr().err


def test_lowerbound_single_trial_exits_2(capsys):
    assert run_cli("lowerbound", "--seed", "1", "--n", "128", "--trials", "1") == 2
    assert ">= 2" in capsys.readouterr().err


def test_unknown_family_exits_2():
    assert run_cli("regret", "--family", "fractal") == 2


# ------------------------------------------------------------------ compare


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_compare_checkpoints_and_baselines(tmp_path):
    out = tmp_path / "cmp.csv"
    for m in ("1", "3"):
        assert run_cli("compare", "--family", "sinusoid", "--n", "32", "--m", m, "--out", str(out)) == 0
        rows = parse_csv(read(out))
        # sinusoid is not two-valued: three baselines at each of four checkpoints
        assert sorted({r["algo"] for r in rows}) == ["lms", "rls", "universal"]
        assert [int(r["n"]) for r in rows if r["algo"] == "universal"] == [4, 8, 16, 32]
        for row in rows:
            assert float(row["regret"]) == pytest.approx(
                float(row["loss"]) - float(row["batch_raw"]), abs=1e-12
            )
        # plain RLS (forgetting 1) runs the same engine as the unclipped universal run
        universal = [dict(r, algo="") for r in rows if r["algo"] == "universal"]
        assert [dict(r, algo="") for r in rows if r["algo"] == "rls"] == universal


@settings(max_examples=60, deadline=None)
@given(
    forgetting=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    family=st.sampled_from(["zero", "sinusoid", "walk", "adversarial"]),
    klass=st.sampled_from(["univar", "monomial", "linear"]),
    m=st.integers(1, 4),
    n=st.integers(1, 600),
    amplitude=st.floats(min_value=1e-3, max_value=1e6),
)
def test_compare_under_any_forgetting_exits_cleanly_with_finite_rows(forgetting, family, klass, m, n, amplitude):
    args = ["compare", "--family", family, "--class", klass, "--m", str(m), "--n", str(n),
            "--forgetting", repr(forgetting), "--A", repr(amplitude), "--seed", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(*args)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        for row in parse_csv(out.getvalue()):
            assert math.isfinite(float(row["loss"])) and math.isfinite(float(row["regret"])), row


def test_compare_lms_default_step_scales_with_the_feature_magnitude():
    # univar features reach A^m = 1e4 here; a step size normalized by A^2 alone diverged to nan
    args = ["compare", "--class", "univar", "--m", "4", "--A", "10", "--family", "walk", "--seed", "1", "--n", "600"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert run_cli(*args) == 0, err.getvalue()
    rows = parse_csv(out.getvalue())
    assert [r["algo"] for r in rows].count("lms") == 4
    assert all(math.isfinite(float(r["loss"])) for r in rows)


def test_compare_refuses_an_unstable_lms_step(capfd):
    assert run_cli("compare", "--family", "walk", "--seed", "1", "--n", "600", "--mu", "50") == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert "LMS step size mu=50.0 is unstable" in captured.err
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err


def test_compare_includes_bayes_only_on_two_valued_data(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run_cli(
        "compare", "--family", "adversarial", "--seed", "5", "--n", "32", "--out", str(out)
    ) == 0
    rows = parse_csv(read(out))
    assert sorted({r["algo"] for r in rows}) == ["bayes", "lms", "rls", "universal"]


def record_calls(monkeypatch, name):
    """Replace cli.<name> with a pass-through that records (args, kwargs, result) per call."""
    calls = []
    real = getattr(cli, name)

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(cli, name, recorded)
    return calls


REGRET_SVG = ("regret", "--family", "adversarial", "--seed", "4", "--n", "700", "--m", "3", "--delta", "0.1", "--svg")


def test_regret_svg_charts_the_run_it_already_made(tmp_path, monkeypatch):
    ns = cli.build_parser().parse_args(list(REGRET_SVG))
    spec, seq = cli.build_feature_spec(ns), cli.build_sequence(ns)
    fresh = run_online(spec, seq, ns.delta)
    # the chosen run overshoots [-A, A], so --clip changes the run regret reports
    assert np.any(np.abs(fresh.predictions) > seq.bound_A)
    steps = np.arange(1.0, len(seq) + 1)
    cum_damped, certificate = bound_trace(fresh, seq)
    expected = cli.line_chart(
        [("certified loss", steps, cum_damped), ("certificate", steps, certificate)],
        title=f"cumulative certified loss vs certificate ({spec.label}, m={spec.order_m})",
        x_label="t",
        y_label="cumulative squared error",
    )
    for extra, engine_runs in (((), 1), (("--clip",), 2)):
        calls = record_calls(monkeypatch, "run_online")
        out = tmp_path / f"run{len(extra)}.csv"
        assert run_cli(*REGRET_SVG, *extra, "--out", str(out)) == 0
        assert len(calls) == engine_runs, extra
        # the chart reads an unclipped run whether or not the report's run is clipped
        assert (tmp_path / f"run{len(extra)}.svg").read_text(encoding="utf-8") == expected, extra


COMPARE = ("compare", "--family", "adversarial", "--seed", "4", "--n", "700", "--m", "3", "--delta", "0.1")


@pytest.mark.parametrize(
    "extra, runs_rls",
    [((), False), (("--clip",), True), (("--forgetting", "0.99"), True), (("--forgetting", "0.99", "--clip"), True)],
)
def test_compare_runs_rls_only_where_it_is_not_the_universal_run(extra, runs_rls, capsys, monkeypatch):
    calls = record_calls(monkeypatch, "run_rls")
    assert run_cli(*COMPARE, *extra) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert len(calls) == int(runs_rls)
    rls = [r for r in rows if r["algo"] == "rls"]
    if runs_rls:
        per_step = calls[0][2].per_step_losses
        assert [r["loss"] for r in rls] == [repr(float(np.sum(per_step[:int(r["n"])]))) for r in rls]
    else:
        assert [dict(r, algo="") for r in rls] == [dict(r, algo="") for r in rows if r["algo"] == "universal"]
    if extra == ("--clip",):
        # clipping moves the universal rows here, so reused rows would have been wrong
        assert [r["loss"] for r in rls] != [r["loss"] for r in rows if r["algo"] == "universal"]


# ------------------------------------------------------------------ identity


def test_identity_checks_pass_and_write_extended_row(tmp_path, capsys):
    out = tmp_path / "id.csv"
    code = run_cli(
        "identity", "--family", "sinusoid", "--n", "24", "--seed", "7",
        "--trials", "50", "--out", str(out),
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "evidence identity:" in captured.out
    assert "randomized account:" in captured.out
    header, row = read(out).splitlines()
    assert header == ",".join(EXTENDED_CSV_COLUMNS)
    assert len(row.split(",")) == 13


def test_identity_on_adversarial_data(tmp_path, capsys):
    out = tmp_path / "id.csv"
    code = run_cli(
        "identity", "--family", "adversarial", "--n", "16", "--seed", "3",
        "--trials", "40", "--class", "univar", "--out", str(out),
    )
    assert code == 0, capsys.readouterr().err


def test_identity_spot_check_catches_a_wrong_table(tmp_path, monkeypatch, capsys):
    real = cli.identity_mixture

    def skewed(*args):
        rp, preds, probs = real(*args)
        preds = preds.copy()
        preds[1, 32] += 1e-9
        return rp, preds, probs

    monkeypatch.setattr(cli, "identity_mixture", skewed)
    code = run_cli("identity", "--family", "walk", "--seed", "2", "--n", "64", "--out", str(tmp_path / "id.csv"))
    assert code == 1
    assert "engine prediction table differs from the constituents at step 32" in capsys.readouterr().err


def evidence_quadrature_loop(spec, seq, h, sigma2):
    """The per-point trapezoid loop that `evidence_quadrature` evaluates in chunks."""
    F = feature_matrix(spec, seq)[:, 0]
    x = seq.values
    R = float(F @ F)
    r = float(x @ F)
    center = r / (R + h / sigma2)
    width = math.sqrt(h / (R + h / sigma2))
    grid = np.linspace(center - 12.0 * width, center + 12.0 * width, 20001)
    log_vals = np.empty(grid.size)
    for i, b in enumerate(grid):
        resid = x - b * F
        log_vals[i] = -0.5 * b * b / sigma2 - float(resid @ resid) / (2.0 * h)
    shift = float(np.max(log_vals))
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    integral = trapezoid(np.exp(log_vals - shift), grid)
    return -2.0 * h * (shift + math.log(integral) - 0.5 * math.log(2.0 * math.pi * sigma2))


@pytest.mark.parametrize("n", [1, 16, 128, 1000])
def test_chunked_quadrature_matches_the_point_loop(n):
    rng = np.random.default_rng(n)
    seq = BoundedSequence(rng.uniform(-1, 1, n), 1.0)
    spec = linear_lag(1, 1)
    h, sigma2 = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
    assert cli.QUADRATURE_POINTS == 20001
    if n == 1000:  # the grid spans several chunks
        assert cli.QUADRATURE_POINTS * n > 2 * cli.QUADRATURE_CHUNK
    oracle = evidence_quadrature_loop(spec, seq, h, sigma2)
    assert abs(cli.evidence_quadrature(spec, seq, h, sigma2) - oracle) <= 1e-12 * abs(oracle)


# ---------------------------------------------------- deterministic reruns


def rerun_bytes(tmp_path, name, *args):
    a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    return a.read_bytes(), b.read_bytes()


def test_seeded_reruns_are_byte_identical(tmp_path):
    pairs = [
        ("regret", ("regret", "--family", "walk", "--seed", "3", "--n", "64")),
        ("lower", ("lowerbound", "--seed", "11", "--n", "16", "--trials", "8")),
        ("compare", ("compare", "--family", "adversarial", "--seed", "5", "--n", "32")),
        ("identity", ("identity", "--family", "sinusoid", "--seed", "7", "--n", "16", "--trials", "20")),
    ]
    for name, args in pairs:
        first, second = rerun_bytes(tmp_path, name, *args)
        assert first == second, name
        assert first  # nonempty


def test_seeded_svg_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "sa.csv", tmp_path / "sb.csv"
    args = ("regret", "--family", "walk", "--seed", "9", "--n", "48", "--svg")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert (tmp_path / "sa.svg").read_bytes() == (tmp_path / "sb.svg").read_bytes()


def test_lowerbound_csv_structure(tmp_path):
    out = tmp_path / "lb.csv"
    assert run_cli("lowerbound", "--seed", "2", "--n", "16", "--trials", "6", "--out", str(out)) == 0
    lines = read(out).splitlines()
    assert lines[0] == "n,mean_regret,std_error,trials"
    assert lines[-1].startswith("slope_fit,")


def test_lowerbound_monomial_class(tmp_path):
    out = tmp_path / "lbm.csv"
    code = run_cli(
        "lowerbound", "--class", "monomial", "--seed", "4", "--n", "16",
        "--trials", "6", "--out", str(out),
    )
    assert code == 0
    assert len(read(out).splitlines()) == 3  # header, one horizon, slope


def test_config_cannot_supply_the_subcommand(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n=8\n")
    assert run_cli("--config", str(cfg)) == 2


# ---------------------------------------------------- flags a command reads


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--class", "univar"), "no univar adversary"),
        (("--class", "monomial", "--m", "3"), "--m and --k do not apply"),
        (("--class", "monomial", "--k", "2"), "--m and --k do not apply"),
    ],
    ids=["univar", "monomial-m", "monomial-k"],
)
def test_lowerbound_refuses_class_settings_it_would_ignore(flags, named, capsys):
    # univar used to run the lag-1 floor, and monomial its fixed x[t-1]*x[t-2]
    # whatever --m and --k said, both with exit 0
    assert run_cli("lowerbound", "--seed", "7", "--n", "256", "--trials", "50", *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("flags", [("--delta", "2"), ("--clip",)], ids=["delta", "clip"])
def test_lowerbound_has_no_ridge_flags(flags, capsys):
    assert run_cli("lowerbound", "--seed", "7", "--n", "16", "--trials", "4", *flags) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["identity", "compare"])
def test_svg_is_a_usage_error_where_nothing_is_charted(command, tmp_path, capsys):
    out = tmp_path / "c.csv"
    trials = ("--trials", "4") if command == "identity" else ()
    base = (command, "--family", "sinusoid", "--seed", "1", "--n", "16", *trials, "--out", str(out))
    assert run_cli(*base) == 0
    out.unlink()
    assert run_cli(*base, "--svg") == 2
    assert "unrecognized arguments: --svg" in capsys.readouterr().err
    cfg = tmp_path / "svg.cfg"
    cfg.write_text("svg=true\n")
    assert run_cli(*base, "--config", str(cfg)) == 2
    assert "unrecognized arguments: --svg" in capsys.readouterr().err
    assert not out.exists() and not list(tmp_path.glob("*.svg"))


@pytest.mark.parametrize("command", ["regret", "compare"])
def test_trials_is_a_usage_error_where_nothing_is_drawn(command, tmp_path, capsys):
    # regret and compare run no Monte-Carlo trials; --trials used to be accepted and ignored
    assert run_cli(command, "--n", "16", "--trials", "5") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --trials 5" in captured.err
    cfg = tmp_path / "trials.cfg"
    cfg.write_text("trials=5\n")
    assert run_cli(command, "--n", "16", "--config", str(cfg)) == 2
    assert "unrecognized arguments: --trials=5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "--family", "sinusoid", "--n", "64"),
        ("regret", "--family", "walk", "--seed", "1", "--n", "64"),
        ("identity", "--family", "zero", "--seed", "1", "--n", "16", "--trials", "4"),
        ("regret", "--family", "adversarial", "--seed", "1", "--n", "64", "--input", "SEQ"),
    ],
    ids=["compare-sinusoid", "regret-walk", "identity-zero", "regret-input"],
)
def test_prior_is_a_usage_error_where_nothing_reads_it(argv, tmp_path, capsys):
    # --C used to be accepted and ignored off the adversarial family; as a flag or a config key it is refused
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n-1\n1\n1\n")
    argv = [str(seq) if a == "SEQ" else a for a in argv]
    assert run_cli(*argv) == 0
    capsys.readouterr()
    assert run_cli(*argv, "--C", "5") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--C is not read by {argv[0]}" in captured.err
    cfg = tmp_path / "prior.cfg"
    cfg.write_text("C=0.001\n")
    assert run_cli(*argv, "--config", str(cfg)) == 2
    assert "--C is not read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["regret", "compare", "identity"])
def test_prior_is_read_on_the_generated_adversarial_family(command, capsys):
    trials = ("--trials", "4") if command == "identity" else ()
    base = (command, "--family", "adversarial", "--seed", "3", "--n", "64", *trials)
    assert run_cli(*base) == 0
    default = capsys.readouterr().out
    assert run_cli(*base, "--C", "1") == 0
    assert capsys.readouterr().out == default  # the default prior is C = 1
    assert run_cli(*base, "--C", "0.05") == 0
    assert capsys.readouterr().out != default  # a different prior draws a different sequence


def test_prior_is_read_by_compare_bayes_rows_on_an_input_file(tmp_path, capsys):
    seq = tmp_path / "pm.txt"
    seq.write_text("".join(f"{v}\n" for v in (1, 1, -1, 1, 1, 1, -1, -1, 1, 1, 1, 1)))
    rows = {}
    for prior in ("1", "0.05"):
        assert run_cli("compare", "--input", str(seq), "--C", prior) == 0
        rows[prior] = [line for line in capsys.readouterr().out.splitlines() if line.startswith("bayes,")]
    assert rows["1"] and rows["1"] != rows["0.05"]


@pytest.mark.parametrize("command, key", [("identity", "svg"), ("compare", "svg"), ("lowerbound", "clip")])
def test_config_boolean_for_a_missing_flag_is_refused_at_any_value(command, key, tmp_path, capsys):
    # 'svg=false' used to be dropped before argparse saw it, so it passed where 'svg=true' was refused
    cfg = tmp_path / "flag.cfg"
    for value in ("false", "true", "0"):
        cfg.write_text(f"{key}={value}\n")
        assert run_cli(command, "--seed", "1", "--n", "16", "--config", str(cfg)) == 2, value
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --{key}" in captured.err


def test_lowerbound_svg_written_next_to_csv(tmp_path):
    out = tmp_path / "floor.csv"
    assert run_cli("lowerbound", "--seed", "3", "--n", "256", "--trials", "6", "--out", str(out), "--svg") == 0
    assert (tmp_path / "floor.svg").read_text(encoding="utf-8").startswith("<svg")


def test_lowerbound_svg_of_one_large_point(tmp_path):
    # below n = 128 the chart has one point; at A = 1e10 its regret (~1e20) used to
    # flatten the y range to zero width and end in a ZeroDivisionError traceback
    out = tmp_path / "big.csv"
    args = ("lowerbound", "--seed", "1", "--n", "16", "--trials", "4", "--A", "1e10", "--out", str(out), "--svg")
    assert run_cli(*args) == 0
    assert (tmp_path / "big.svg").read_text(encoding="utf-8").startswith("<svg")


@pytest.mark.parametrize("svg", [False, True], ids=["csv", "svg"])
@pytest.mark.parametrize("amplitude", ["1e150", "1e154"])
def test_lowerbound_refuses_an_overflowing_scale_before_any_trial(amplitude, svg, tmp_path, capsys):
    # these used to write an inf std_error (1e150) or a nan mean_regret row (1e154) and exit 0
    out = tmp_path / "big.csv"
    args = ("lowerbound", "--seed", "1", "--n", "16", "--trials", "4", "--A", amplitude)
    args += ("--out", str(out), "--svg") if svg else ()
    assert run_cli(*args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "regret floor scale" in captured.err and "overflows" in captured.err
    assert not list(tmp_path.iterdir())


def test_lowerbound_large_but_representable_scale_runs(capsys):
    assert run_cli("lowerbound", "--seed", "1", "--n", "16", "--trials", "4", "--A", "1e70") == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert [row[0] for row in rows] == ["16"]
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_undecodable_files_exit_2_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"0.5\n\xe9\n")
    assert run_cli("regret", "--input", str(bad)) == 2
    assert f"cannot read sequence file {bad}" in capsys.readouterr().err
    assert run_cli("regret", "--config", str(bad)) == 2
    assert f"cannot read config file {bad}" in capsys.readouterr().err


# ----------------------------------------- fuzzed sequence and config files


def assert_clean_exit(argv, cwd):
    """cli.main exits 0, 1 or 2 without a traceback, and its stdout is CSV or empty."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)  # a stray relative --out lands in the scratch directory
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    if text:
        lines = text.splitlines()
        assert text.endswith("\n") and lines[0].count(",") > 0, text
        assert all(line.count(",") == lines[0].count(",") for line in lines), text
    return code


NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["", "-", "1e999", "-1e-999", "0x10", "1_0", "nan", "+inf", "1e308", "５"]),
)
# text lines without '=' or newlines, so a fuzzed config line never names a flag
JUNK_LINE = st.text(st.characters(blacklist_characters="=\n\r", blacklist_categories=("Cs",)), max_size=12)

SAMPLE_TEXT = st.floats(-2.0, 2.0).map(repr)
SEQUENCE_LINE = st.one_of(
    SAMPLE_TEXT,
    SAMPLE_TEXT,
    SAMPLE_TEXT.map(lambda v: f"  {v}\t"),
    NUMBER_TEXT,
    NUMBER_TEXT.map(lambda v: f"# A={v}"),
    NUMBER_TEXT.map(lambda v: f"#A = {v}  "),
    JUNK_LINE.map(lambda v: "#" + v),
    JUNK_LINE,
)


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(SEQUENCE_LINE, max_size=40),
    raw=st.one_of(st.none(), st.binary(max_size=64)),
    command=st.sampled_from(["regret", "compare"]),
    klass=st.sampled_from(["linear", "univar", "monomial"]),
    m=st.integers(1, 3),
)
def test_fuzzed_sequence_files_exit_cleanly(tmp_path_factory, lines, raw, command, klass, m):
    work = tmp_path_factory.mktemp("seqfuzz")
    path = work / "seq.txt"
    if raw is None:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        path.write_bytes(raw)
    assert_clean_exit([command, "--input", str(path), "--class", klass, "--m", str(m)], work)


# keys the config may name, with values that keep every run small; out, input
# and config (and their prefixes) are left out so a run writes no stray files
SMALL_INT_TEXT = st.one_of(st.integers(2, 64).map(str), st.integers(-3, 64).map(str),
                           st.sampled_from(["", "x", "1.5", "1e3", "-0"]))
CONFIG_VALUES = {
    "n": SMALL_INT_TEXT,
    "m": st.one_of(st.integers(-1, 5).map(str), st.sampled_from(["", "two"])),
    "k": st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["", "1.0"])),
    "trials": SMALL_INT_TEXT,
    "seed": st.one_of(st.integers(-2, 2 ** 64 + 1).map(str), st.sampled_from(["", "seed"])),
    "delta": st.one_of(st.floats(1e-3, 1e3).map(repr), NUMBER_TEXT),
    "A": st.one_of(st.floats(1e-3, 1e3).map(repr), NUMBER_TEXT),
    "C": st.one_of(st.floats(0.05, 50).map(repr), st.sampled_from(["0", "-1", "nan", "inf", ""])),
    "class": st.sampled_from(["linear", "univar", "monomial", "poly", ""]),
    "family": st.sampled_from(["zero", "sinusoid", "walk", "adversarial", "noise"]),
    "mu": st.one_of(st.floats(1e-4, 1.0).map(repr), NUMBER_TEXT),
    "forgetting": st.one_of(st.floats(0.5, 1.0).map(repr), NUMBER_TEXT),
    "svg": st.sampled_from(["true", "false", "on", "0", "maybe", ""]),
    "clip": st.sampled_from(["true", "no", "YES", "2"]),
    "wibble": NUMBER_TEXT,
}
CONFIG_ENTRY = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: st.tuples(
        st.sampled_from([key, key, f" {key} ", key.upper(), f"--{key}"]),
        CONFIG_VALUES[key],
        st.sampled_from(["", "  # note", "#"]),
    ).map(lambda t: f"{t[0]}={t[1]}{t[2]}")
)
CONFIG_LINE = st.one_of(
    CONFIG_ENTRY,
    CONFIG_ENTRY,
    CONFIG_ENTRY,
    JUNK_LINE,
    JUNK_LINE.map(lambda v: "#" + v + "=x"),
    st.just("=1"),
)
EXPLICIT_FLAGS = st.lists(
    st.sampled_from([("--n", "12"), ("--seed", "4"), ("--m", "2"), ("--trials", "3"), ("--k", "2"),
                     ("--class", "univar"), ("--family", "walk"), ("--svg",), ("--clip",)]),
    max_size=3,
).map(lambda pairs: [a for pair in pairs for a in pair])


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(CONFIG_LINE, max_size=8),
    command=st.sampled_from(["regret", "compare", "lowerbound"]),
    explicit=EXPLICIT_FLAGS,
    seeded=st.booleans(),
)
def test_fuzzed_config_files_splice_and_exit_cleanly(tmp_path_factory, lines, command, explicit, seeded):
    work = tmp_path_factory.mktemp("cfgfuzz")
    cfg = work / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    seed = ["--seed", "5"] if seeded else []
    assert_clean_exit([command, *seed, "--config", str(cfg), *explicit], work)
