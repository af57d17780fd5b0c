import json
import math
import warnings

import pytest

from cplab import ConfigError, cli
from cplab.cli import emit, main, parse_config, run


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_empty_document_gives_passing_defaults():
    cfg = parse_config("")
    assert (cfg.e, cfg.nu0, cfg.xi) == (0.5, 2.0, 1.0)
    assert (cfg.L, cfg.Lambda) == (2.0, 1.0)
    assert cfg.max_order == 4 and cfg.quad_rel_tol == 1e-10
    assert cfg.include_direct_term is False
    report = run("check", cfg)
    assert all(report.constraints[name] for name in
               ("c_inf_lt_half", "sqrt2_e_nu0_ge_1", "sqrt2_e_norm_lt_1",
                "a_lt_quarter"))


def test_key_value_document():
    cfg = parse_config("""
    # couplings
    e = 0.8
    nu0 = 2.5
    xi = 0.5
    R_grid = 10, 20, 40
    include_direct_term = true
    output_format = json
    """)
    assert cfg.e == 0.8 and cfg.nu0 == 2.5
    assert cfg.resolved_grid() == [10.0, 20.0, 40.0]
    assert cfg.include_direct_term is True
    assert cfg.output_format == "json"


def test_json_document_equivalent():
    cfg = parse_config(json.dumps({"e": 0.8, "nu0": 2.5,
                                   "R_grid": [10, 20, 40]}))
    assert cfg.e == 0.8
    assert cfg.resolved_grid() == [10.0, 20.0, 40.0]


def test_spaced_grid_forms():
    cfg = parse_config("R_grid = 2, 16, 4, geometric")
    assert cfg.resolved_grid() == pytest.approx([2.0, 4.0, 8.0, 16.0])
    cfg = parse_config("R_grid = 1, 4, 4, linear")
    assert cfg.resolved_grid() == pytest.approx([1.0, 2.0, 3.0, 4.0])


def test_default_grid_scales_with_width():
    cfg = parse_config("xi = 2")
    assert cfg.resolved_grid() == [60.0, 84.0, 120.0, 168.0, 240.0]


@pytest.mark.parametrize("doc,fragment", [
    ("max_order = 3", "max_order"),
    ("max_order = 0", "max_order"),
    ("nu0 = -1", "nu0"),
    ("xi = 0", "xi"),
    ("quad_rel_tol = -1e-10", "quad_rel_tol"),
    ("r_grid = 1,2", "unknown key"),
    ("frobnicate = 1", "unknown key"),
    ("e = charge", "e"),
    ("R_grid = 3, 2, 1", "R_grid"),
    ("R_grid = 1, 2, 3, exponential", "R_grid"),
    ("output_format = yaml", "output_format"),
    ("just a line", "key = value"),
    ("xi = nan", "xi"),
    ("e = inf", "e"),
    ("R_grid = nan, 120, 3, geometric", "R_grid"),
    ("R_grid = 30, inf, 3, geometric", "R_grid"),
    ("R_grid = 30, nan", "R_grid"),
    ("R_grid = 30, inf", "R_grid"),
    ('{"max_order": Infinity}', "max_order"),
    ('{"R_grid": [30, 120, Infinity, "linear"]}', "R_grid"),
    # no silent coercion: a fraction truncated, a boolean read as 1
    ('{"max_order": 4.7}', "'max_order'"),
    ('{"L": true}', "'L'"),
    ('{"R_grid": [1, 10, 3.5, "linear"]}', "'R_grid'"),
    ('{"R_grid": [true, 10]}', "'R_grid'"),
])
def test_rejected_documents(doc, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert fragment in str(err.value)


def test_integral_json_max_order_accepted():
    assert parse_config('{"max_order": 6}').max_order == 6


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------

def make_report():
    cfg = parse_config("")
    return run("check", cfg)


def test_emit_csv_shape_and_roundtrip():
    report = make_report()
    doc = emit(report, "csv")
    lines = doc.splitlines()
    assert lines[0] == ",".join(report.columns)
    assert doc.endswith("\n")
    values = [float(x) for x in lines[1].split(",")]
    for got, want in zip(values, report.rows[0]):
        assert got == float(want)  # 17 significant digits round-trip


def test_emit_csv_header_only_for_empty_table():
    report = make_report()
    report.rows = []
    doc = emit(report, "csv")
    assert doc == ",".join(report.columns) + "\n"


def test_emit_json_roundtrip_bit_exact():
    report = make_report()
    doc = emit(report, "json")
    parsed = json.loads(doc)
    assert parsed["rows"] == [list(map(float, row)) for row in report.rows]
    assert parsed["constraints"]["c_inf"] == report.constraints["c_inf"]
    assert parsed["wall_clock_s"] is None
    assert parsed["version"] == report.version


def test_same_config_byte_identical_documents():
    doc1 = emit(run("check", parse_config("")), "json")
    doc2 = emit(run("check", parse_config("")), "json")
    assert doc1 == doc2


def test_emit_rejects_unknown_format():
    with pytest.raises(ConfigError):
        emit(make_report(), "yaml")


# ---------------------------------------------------------------------------
# subcommands through main()
# ---------------------------------------------------------------------------

def invoke(tmp_path, subcommand, config_text, fmt="csv", capsys=None):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_text)
    out = tmp_path / f"out.{fmt}"
    code = main([subcommand, "--config", str(cfg), "--out", str(out),
                 "--format", fmt])
    return code, out.read_text() if out.exists() else ""


def test_check_exits_zero_on_defaults(tmp_path):
    code, doc = invoke(tmp_path, "check", "")
    assert code == 0
    assert doc.splitlines()[0].startswith("c_inf,")


def test_check_exit_two_on_violation(tmp_path):
    # tiny charge violates the lower coupling bound but still reports
    code, doc = invoke(tmp_path, "check", "e = 0.001")
    assert code == 2
    assert len(doc.splitlines()) == 2


def test_energy_subcommand(tmp_path):
    code, doc = invoke(tmp_path, "energy", "L = 1")
    assert code == 0
    header, row = doc.splitlines()
    cols = header.split(",")
    vals = dict(zip(cols, map(float, row.split(","))))
    shift = 1.5 * 0.5 * math.sqrt(2) * 2.0
    assert vals["zero_point_shift"] == pytest.approx(shift)
    assert vals["energy"] == pytest.approx(shift, abs=1e-6)


def test_binding_subcommand_flags_periodicity(tmp_path):
    code, doc = invoke(tmp_path, "binding",
                       "L = 1\nxi = 0.25\nnu0 = 3\nR_grid = 0.3, 0.6")
    assert code == 0
    rows = [line.split(",") for line in doc.splitlines()[1:]]
    assert float(rows[0][2]) == 0.0
    assert float(rows[1][2]) == 1.0
    assert float(rows[0][1]) > 0.0


def test_binding_subcommand_silences_periodicity_only(monkeypatch):
    # a numerical warning inside the binding reaches the caller, while the
    # periodicity warning, which warn_period reports, stays silent
    cfg = parse_config("L = 1\nxi = 0.25\nnu0 = 3\nR_grid = 0.3, 0.6")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run("binding", cfg)
    assert [row[2] for row in report.rows] == [0.0, 1.0]

    def noisy(*args):
        warnings.warn("overflow in the mode sums", RuntimeWarning)
        return 0.0

    monkeypatch.setattr(cli, "binding_energy_exact", noisy)
    with pytest.warns(RuntimeWarning, match="overflow in the mode sums"):
        run("binding", cfg)


def test_series_subcommand_within_tail(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("L = 1\nxi = 0.25\nnu0 = 3\nmax_order = 6")
    code = main(["series", "--config", str(cfg), "--out",
                 str(tmp_path / "out.csv")])
    assert code == 0
    err = capsys.readouterr().err
    assert "within_tail = 1" in err


def test_integrals_selftest_passes(tmp_path, capsys):
    code, doc = invoke(tmp_path, "integrals-selftest", "")
    assert code == 0
    err = capsys.readouterr().err
    assert "all_passed = 1" in err


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_bad_config_file_is_error(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nu0 = -1")
    assert main(["check", "--config", str(cfg)]) == 1


def test_non_finite_config_is_error(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("R_grid = nan, 120, 3, geometric")
    assert main(["cp-sweep", "--config", str(cfg)]) == 1


def test_unwritable_output_path(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("")
    code = main(["check", "--config", str(cfg), "--out",
                 str(tmp_path / "missing" / "out.csv")])
    assert code == 1


def test_convergence_subcommand(tmp_path):
    # small box keeps the ladder's dense eigenproblems quick
    code, doc = invoke(tmp_path, "convergence", "L = 1\nxi = 0.25\nnu0 = 3")
    assert code == 0
    lines = doc.splitlines()
    assert lines[0] == "Lambda,L,N,E1,E2,binding,dE1,dbinding"
    assert len(lines) >= 4


def test_cp_sweep_document_deterministic(tmp_path):
    # small grid to keep the run quick; byte-identical across runs
    text = "R_grid = 20, 30\nquad_rel_tol = 1e-8"
    code1, doc1 = invoke(tmp_path, "cp-sweep", text)
    code2, doc2 = invoke(tmp_path, "cp-sweep", text)
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1.splitlines()[0] == "R,value,r7_scaled,r9_scaled"
