import json
import math
import warnings

import pytest

from cplab import AccuracyError, ConfigError, CplabError, cli
from cplab.cli import emit, main, parse_config, run
from cplab.model import (ConstraintReport, ModelParams, build_lattice,
                         check_constraints, make_gaussian_profile)
from cplab.oscillator import assemble_one_electron, ground_energy


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
    # a repeated key does not override the earlier value, in either form
    ("e = 0.5\ne = 0.8", "key 'e': repeated"),
    ('{"e": 0.5, "e": 0.8}', "key 'e': repeated"),
    # JSON non-strings are not read as text or as a boolean spelling
    ('{"output_path": 5}', "'output_path'"),
    ('{"output_format": 5}', "'output_format'"),
    ('{"include_direct_term": 1}', "'include_direct_term'"),
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


def test_warnings_name_the_false_flags_in_order(tmp_path):
    # a tiny charge on a narrow profile fails three of the four flags; the
    # document warns about exactly those, in the report's flag order
    text = "e = 0.001\nxi = 0.05"
    code, doc = invoke(tmp_path, "check", text, fmt="json")
    assert code == 2
    doc = json.loads(doc)
    cfg = parse_config(text)
    report = check_constraints(ModelParams(cfg.e, cfg.nu0),
                               make_gaussian_profile(cfg.xi),
                               build_lattice(cfg.L, cfg.Lambda))
    false = [name for name in ConstraintReport.FLAGS
             if not doc["constraints"][name]]
    assert false == list(report.violated) and len(false) == 3
    assert doc["warnings"] == [f"constraint violated: {name}"
                               for name in false]


def test_energy_subcommand(tmp_path):
    # at this config the correction is -1.9e-3 of a 3.18 energy: the CSV's
    # trace difference must be the library's double, not merely near it
    text = "nu0 = 3\nxi = 0.25\nL = 1"
    code, doc = invoke(tmp_path, "energy", text)
    assert code == 0
    header, row = doc.splitlines()
    cols = header.split(",")
    vals = dict(zip(cols, map(float, row.split(","))))
    cfg = parse_config(text)
    params = ModelParams(cfg.e, cfg.nu0)
    res = ground_energy(assemble_one_electron(
        params, build_lattice(cfg.L, cfg.Lambda),
        make_gaussian_profile(cfg.xi)))
    assert vals["trace_difference"] == res.trace_difference
    assert -2e-3 < res.trace_difference < -1.8e-3
    shift = 1.5 * cfg.e * math.sqrt(2) * cfg.nu0
    assert vals["zero_point_shift"] == pytest.approx(shift, rel=1e-15)


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


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_json_documents_parse_strictly(tmp_path, subcommand):
    # JSON has no NaN or Infinity: a strict parser must accept every
    # document, and convergence's first row per Lambda, which has no
    # coarser box to difference against, reads null

    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    code, doc = invoke(tmp_path, subcommand,
                       "L = 1\nxi = 0.25\nnu0 = 3\nR_grid = 20, 30\n"
                       "quad_rel_tol = 1e-8", fmt="json")
    assert code == 0
    parsed = json.loads(doc, parse_constant=refuse)
    if subcommand == "convergence":
        cols = parsed["columns"]
        firsts = [row for row in parsed["rows"] if row[cols.index("L")] == 1]
        assert len(firsts) == 2
        for row in parsed["rows"]:
            diffs = [row[cols.index(c)] for c in ("dE1", "dbinding")]
            if row in firsts:
                assert diffs == [None, None]
            else:
                assert all(math.isfinite(d) for d in diffs)


def test_emit_writes_null_json_and_nan_csv():
    report = make_report()
    report.rows = [[math.nan, math.inf, 1.0]]
    report.scalars = {"x": -math.inf}
    parsed = json.loads(emit(report, "json"))
    assert parsed["rows"] == [[None, None, 1.0]]
    assert parsed["scalars"] == {"x": None}
    assert emit(report, "csv").splitlines()[1] == "nan,inf,1"


def test_cp_sweep_document_deterministic(tmp_path):
    # small grid to keep the run quick; byte-identical across runs
    text = "R_grid = 20, 30\nquad_rel_tol = 1e-8"
    code1, doc1 = invoke(tmp_path, "cp-sweep", text)
    code2, doc2 = invoke(tmp_path, "cp-sweep", text)
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1.splitlines()[0] == "R,value,r7_scaled,r9_scaled"


def test_error_sweep_main_gap_at_max_is_error(tmp_path, monkeypatch, capsys):
    # the crossed-over-main ratio reads the main term at the grid's last R;
    # a gap there is a typed error naming R and the gap, not an IndexError
    real = cli.fourth_order_main

    def failing_at_max(R, *args, **kwargs):
        if R == 120.0:
            raise AccuracyError("node budget exhausted", 0.0, math.inf)
        return real(R, *args, **kwargs)

    monkeypatch.setattr(cli, "fourth_order_main", failing_at_max)
    cfg = parse_config("R_grid = 30, 60, 120")
    with pytest.raises(CplabError, match=r"R = 120\.0.*AccuracyError: "
                                         r"node budget exhausted"):
        run("error-sweep", cfg)
    code, doc = invoke(tmp_path, "error-sweep", "R_grid = 30, 60, 120")
    assert (code, doc) == (1, "")
    assert "error: the main term at R = 120.0" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["cp-sweep", "error-sweep"])
def test_one_point_sweep_is_config_error(tmp_path, monkeypatch, capsys,
                                         subcommand):
    # a single separation cannot be fitted: the config is refused before
    # any term is evaluated, naming the key and the subcommand
    calls = []

    def recording(R, *args, **kwargs):
        calls.append(R)
        raise AssertionError("term evaluated")

    for term in ("fourth_order_main", "fourth_order_error"):
        monkeypatch.setattr(cli, term, recording)
    with pytest.raises(ConfigError, match=rf"'R_grid': {subcommand} "):
        run(subcommand, parse_config("R_grid = 50"))
    code, doc = invoke(tmp_path, subcommand, "R_grid = 50")
    assert (code, doc) == (1, "")
    assert f"error: key 'R_grid': {subcommand}" in capsys.readouterr().err
    assert calls == []


def test_binding_accepts_one_separation(tmp_path):
    code, doc = invoke(tmp_path, "binding", "R_grid = 0.5\nL = 2")
    assert code == 0
    assert len(doc.splitlines()) == 2


@pytest.mark.parametrize("subcommand,evaluator,term", [
    ("cp-sweep", "fourth_order_main", "main"),
    ("error-sweep", "fourth_order_error", "crossed"),
])
def test_sweep_gap_at_max_is_error(monkeypatch, subcommand, evaluator, term):
    # the at-max scalars read the swept term at the grid's last R: a gap
    # there is a typed error naming R and the gap, not the scalar of the
    # last R that is not a gap; a gap below it stays a dropped row
    real = getattr(cli, evaluator)
    failing = {120.0}

    def failing_at(R, *args, **kwargs):
        if R in failing:
            raise AccuracyError("node budget exhausted", 0.0, math.inf)
        return real(R, *args, **kwargs)

    monkeypatch.setattr(cli, evaluator, failing_at)
    cfg = parse_config("R_grid = 30, 60, 90, 120")
    with pytest.raises(CplabError, match=rf"the {term} term at R = 120\.0, "
                                         r"the grid's last separation, is a "
                                         r"gap: AccuracyError: node budget "
                                         r"exhausted"):
        run(subcommand, cfg)
    failing.clear()
    failing.add(60.0)
    assert [row[0] for row in run(subcommand, cfg).rows] == [30.0, 90.0,
                                                             120.0]
