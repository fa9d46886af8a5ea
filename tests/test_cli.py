"""Command-line behavior: parsing, exit codes, files, and deterministic outputs."""

import contextlib
import io
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqregret import BoundedSequence, cli, feature_matrix, linear_lag, monomial_features, regret_report, run_online
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
    cum_damped, certificate = bound_trace(spec, seq, 0.5)
    # oracle at the full horizon: the batch-side regret report
    report = regret_report(spec, seq, 0.5, run_online(spec, seq, 0.5))
    assert cum_damped[-1] == pytest.approx(report.bound_loss, rel=1e-10)
    assert certificate[-1] == pytest.approx(report.batch_loss_ridge + report.det_bound, rel=1e-10)
    # oracle at a prefix crossing a block boundary: the same report on that prefix
    prefix = seq.prefix(300)
    head = regret_report(spec, prefix, 0.5, run_online(spec, prefix, 0.5))
    assert certificate[299] == pytest.approx(head.batch_loss_ridge + head.det_bound, rel=1e-10)
    assert np.all(cum_damped <= certificate + 1e-9)


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
)
def test_compare_under_any_forgetting_exits_cleanly_with_finite_rows(forgetting, family, klass, m, n):
    args = ["compare", "--family", family, "--class", klass, "--m", str(m), "--n", str(n),
            "--forgetting", repr(forgetting), "--seed", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(*args)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        for row in parse_csv(out.getvalue()):
            assert math.isfinite(float(row["loss"])) and math.isfinite(float(row["regret"])), row


def test_compare_includes_bayes_only_on_two_valued_data(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run_cli(
        "compare", "--family", "adversarial", "--seed", "5", "--n", "32", "--out", str(out)
    ) == 0
    rows = parse_csv(read(out))
    assert sorted({r["algo"] for r in rows}) == ["bayes", "lms", "rls", "universal"]


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
