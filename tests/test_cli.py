import json
import math
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nakao import cli, lifespan, output, svg
from nakao.cli import dispatch
from nakao.exponents import Verdict, region_axes


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# config: ")
    return lines[0], lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def test_unknown_command_and_flags_exit_2():
    assert dispatch(["nonsense"]) == 2
    assert dispatch(["region", "--n", "2", "--grid", "5", "--bogus"]) == 2


def test_missing_required_exits_2(tmp_path):
    assert dispatch(["region", "--out", str(tmp_path / "r")]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"n": 2, "grids": 5}')
    assert dispatch(["region", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("key,value", [("n", 1.9), ("n", True), ("n", "1.5"),
                                       ("n", 1e400), ("epsilon", True)])
def test_non_integral_or_boolean_number_exits_2(tmp_path, key, value):
    # int() would truncate 1.9 and true to n = 1, float() reads true as 1.0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 2, "p": 2.0, "q": 2.0, key: value}))
    out = tmp_path / "rep"
    assert dispatch(["report", "--config", str(cfg), "--out", str(out)]) == 2
    assert not Path(f"{out}.json").exists()


@pytest.mark.parametrize("value", ["ture", "maybe", "", None, 0.5, 2, 1, 0])
def test_non_boolean_value_for_bool_key_exits_2(tmp_path, capsys, value):
    # bool("ture") and bool(0.5) would read junk as a choice
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 2, "grid": 3, "svg": value}))
    out = tmp_path / "reg"
    assert dispatch(["region", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: bad value for 'svg': {value!r}"]
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("value,drawn", [
    (True, True), (False, False), ("TRUE", True), ("Yes", True), ("1", True),
    ("false", False), ("NO", False), ("0", False)])
def test_boolean_value_for_bool_key_accepted(tmp_path, value, drawn):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 2, "grid": 3, "svg": value}))
    out = tmp_path / "reg"
    assert dispatch(["region", "--config", str(cfg), "--out", str(out)]) == 0
    assert Path(f"{out}.svg").exists() is drawn


@pytest.mark.parametrize("value", [2, 2.0, "2"])
def test_integral_int_key_accepted(tmp_path, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": value, "p": 2.0, "q": 2.0}))
    out = tmp_path / "rep"
    assert dispatch(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(Path(f"{out}.json").read_text())["config"]["n"] == 2


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("key", ["t-max", "h", "threshold"])
def test_infinite_numerics_exit_2_without_output(tmp_path, command, key):
    # an infinite t_max or h gives no finite grid, and an infinite threshold
    # would step until the values overflow (a nan value reads as missing)
    out = tmp_path / "sim"
    assert dispatch([command, "--n", "1", "--p", "2", "--q", "2",
                     "--h", "0.05", f"--{key}", "inf",
                     "--out", str(out)]) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_cfl_past_the_dimension_bound_exits_2_without_output(
        tmp_path, capsys, command):
    # cfl_max(10) = 0.447: the default cfl 0.45 would step an unstable scheme
    assert dispatch([command, "--n", "10", "--p", "1.1", "--q", "1.1",
                     "--h", "0.05", "--cfl", "0.45", "--t-max", "5",
                     "--out", str(tmp_path / "o")]) == 2
    assert "CFL violation" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_v1_finite_past_phi_overflow(tmp_path):
    # the span passes r ~ 709, where Phi overflows, from t ~ 320 on; V1 sums
    # v * w * exp(log Phi - t) past Phi ~ 2^512, so every row stays finite
    # (the product v * Phi gave nan rows from there)
    out = tmp_path / "far"
    assert dispatch(["simulate", "--n", "2", "--p", "2", "--q", "2",
                     "--epsilon", "0.1", "--h", "0.1", "--t-max", "750",
                     "--out", str(out)]) == 0
    _, header, rows = read_csv(f"{out}.csv")
    v1 = [float(row[header.index("V1")]) for row in rows]
    assert len(v1) == 16668 and all(math.isfinite(x) for x in v1)
    assert min(v1) > 0.0


@pytest.mark.parametrize("argv,name", [
    (["simulate", "--n", "1", "--p", "2", "--q", "2", "--epsilon", "inf"],
     "epsilon"),
    (["sweep", "--n", "1", "--p", "2", "--q", "2",
      "--epsilons", "inf,0.3,0.2,0.1"], "epsilon"),
    (["report", "--n", "2", "--p", "inf", "--q", "2"], "p"),
    (["simulate", "--n", "1", "--p", "inf", "--q", "2"], "p"),
    (["simulate", "--n", "1", "--p", "2", "--q", "2", "--amp-v1", "inf"],
     "amp_v1"),
    (["report", "--n", "1", "--p", "1e200", "--q", "1e200"], "pq"),
    (["sequences", "--n", "1", "--p", "1e200", "--q", "1e200"], "pq"),
    (["region", "--n", "1", "--p-max", "1e200", "--q-max", "1e200"], "pq"),
])
def test_non_finite_params_exit_2_naming_them(tmp_path, capsys, argv, name):
    # an infinite epsilon used to give an all-nan trace reported as blow-up;
    # an overflowing pq, "cannot convert float NaN to integer" (report,
    # sequences) or every region cell wakasugi_only with overflow warnings
    assert dispatch([*argv, "--out", str(tmp_path / "o")]) == 2
    assert f"error: {name} must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["simulate", "--epsilon", "6e7"],
    ["simulate", "--epsilon", "1e200"],
    ["sweep", "--epsilons", "6e7,0.3,0.2,0.1"],
    ["sweep", "--epsilons", "0.4,0.3,0.2,1e200"],
])
def test_data_past_threshold_exit_2_without_output(tmp_path, capsys, argv):
    # such data used to be reported as blow-up at t = 0 (exit 0), or to
    # overflow in the back level (a RuntimeWarning)
    assert dispatch([*argv, "--n", "1", "--p", "2", "--q", "2",
                     "--h", "0.1", "--t-max", "1",
                     "--out", str(tmp_path / "o")]) == 2
    assert "past the blow-up threshold" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("tol", ["-1", "-0.1", "inf"])
def test_sweep_bad_tol_exit_2_without_output(tmp_path, capsys, tol):
    # --tol -1 used to exit 0 with the bound 0 * (1/F), consistent: false
    assert dispatch(["sweep", "--n", "1", "--p", "2", "--q", "2",
                     "--tol", tol, "--out", str(tmp_path / "o")]) == 2
    assert "tol must be finite and nonnegative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    # an OverflowError traceback from rounding the infinite j0 (exit 1)
    ["report", "--n", "1", "--p", "1e150", "--q", "1e150"],
    ["report", "--n", "1", "--p", "1e300", "--q", "2"],
    # exit 0 with nan logD_lower and logQ_lower
    ["sequences", "--n", "1", "--p", "1e150", "--q", "1e150"],
])
def test_overflowing_iteration_constants_exit_2(tmp_path, capsys, argv):
    assert dispatch([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the iteration constants overflow")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,last", [
    # an OverflowError traceback (exit 1) from pq ** (j / 2.0) in even_beta_b
    (["--p", "1e10", "--q", "1e10"], 31),
    # refused in two steps: 309 and 1023, the last j with finite
    # closed-form exponents, were named first and then refused in turn
    (["--p", "10", "--q", "10", "--jmax", "400"], 308),
    (["--p", "2", "--q", "2", "--jmax", "1200"], 1022),
    # exit 0 with a last row of -inf logD_j, logD_lower and logQ_lower,
    # marked ok
    (["--p", "10", "--q", "10", "--jmax", "309"], 308),
    # exit 0 with a last row of -inf logQ_j, marked ok
    (["--p", "2", "--q", "2", "--mode", "direct", "--jmax", "1022"], 1021),
    # exit 0 with a last row of -inf logD_lower, logD_j still finite
    (["--p", "1.5", "--q", "1.2", "--jmax", "2405"], 2404),
    # exit 0 with 850 rows of L_j = inf, marked ok: the product of slice
    # factors leaves the float range first
    (["--p", "1.001", "--q", "1.001", "--jmax", "3000"], 2150),
    # refused in two steps: 2406, the last j with a finite state, was named
    # first and then refused in turn (logD_lower leaves the float range at
    # 2405)
    (["--p", "1.5", "--q", "1.2", "--jmax", "1000000000"], 2404),
    # the state leaves the float range at an odd j where (pq)^{(j-1)/2}
    # overflows too: the certified lower bounds must not be formed there
    (["--p", "50", "--q", "50", "--jmax", "1000"], 182),
])
def test_sequences_jmax_past_float_range_exit_2(tmp_path, capsys, argv, last):
    out = tmp_path / "o"
    assert dispatch(["sequences", "--n", "1", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: j_max") and f"past j = {last}, " in err
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())
    # one step: the j the error names is accepted (the later --jmax wins),
    # and every row it writes is finite and agrees with the closed forms
    assert dispatch(["sequences", "--n", "1", *argv, "--jmax", str(last),
                     "--out", str(out)]) == 0
    _, _, rows = read_csv(f"{out}.csv")
    assert [int(row[0]) for row in rows] == list(range(1, last + 1))
    cells = {cell for row in rows for cell in row}
    assert not cells & {"inf", "-inf", "nan", "FAIL"}


def test_invalid_params_exit_2(tmp_path):
    assert dispatch(["report", "--n", "1", "--p", "0.5", "--q", "2",
                     "--out", str(tmp_path / "r")]) == 2


def test_region_csv_and_svg(tmp_path):
    out = tmp_path / "reg"
    assert dispatch(["region", "--n", "3", "--grid", "6", "--svg",
                     "--out", str(out)]) == 0
    _, header, rows = read_csv(f"{out}.csv")
    assert header == ["p", "q", "alphaN", "F", "verdict", "binding_component"]
    assert len(rows) == 36
    svg = Path(f"{out}.svg").read_text()
    assert svg.startswith("<svg") and "blow_up" in svg


def test_region_svg_draws_each_cell_in_its_csv_verdict(tmp_path,
                                                       monkeypatch):
    # 16,900 cells in three 8,192-row blocks, written on two CPUs: the CSV
    # rows come from the forked writer, the drawing from its own scan of
    # each p column
    monkeypatch.setattr(output, "_usable_cpus", lambda: 2)
    assert len(output._parts(130 * 130)) == 2
    out = tmp_path / "reg"
    assert dispatch(["region", "--n", "3", "--grid", "130", "--svg",
                     "--out", str(out)]) == 0
    _, _, rows = read_csv(f"{out}.csv")
    color = dict(zip((v.value for v in Verdict), svg.FILLS))
    want = [color[row[4]] for row in rows]
    # one square per cell, in row order; the point size 360/130 prints 2.8
    cells = re.findall(r'<rect x="[^"]+" y="[^"]+" width="2.8" '
                       r'height="2.8" fill="[^"]+"/>\n',
                       Path(f"{out}.svg").read_text())
    drawn = [re.search(r'fill="([^"]+)"', c)[1] for c in cells]
    assert len(want) == 16_900 and len(set(want)) == 3
    assert drawn == want
    # the room check counts each cell's line without its numbers and fill
    assert {len(re.sub(r'"[^"]*"', '""', c)) for c in cells} == {svg.RECT_BYTES}


def test_region_svg_failure_leaves_no_svg(tmp_path, monkeypatch):
    # the third p column is classified with a code that has no fill, after
    # two were written
    column_codes = iter([0, 0, 4, 0])
    monkeypatch.setattr(svg, "region_scan", lambda n, p_axis, q_axis: np.full(
        len(q_axis), next(column_codes), dtype=np.int8))
    p_axis, q_axis = region_axes(2, (1.1, 3.0), (1.1, 3.0), 4)
    with pytest.raises(IndexError):
        svg.region_svg(tmp_path / "r.svg", 2, p_axis, q_axis, {})
    assert not list(tmp_path.iterdir())


def test_region_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"n": 2, "grid": 5}')
    out = tmp_path / "reg"
    assert dispatch(["region", "--config", str(cfg), "--grid", "7",
                     "--out", str(out)]) == 0
    head, _, rows = read_csv(f"{out}.csv")
    assert '"grid":7' in head
    assert len(rows) == 49


def test_config_file_is_closed(tmp_path):
    # a file object left for the collector to close warns when collected
    cfg = tmp_path / "c.json"
    cfg.write_text('{"n": 2, "grid": 3}')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch(["region", "--config", str(cfg),
                         "--out", str(tmp_path / "reg")]) == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("box", [
    ["--p-min", "0.5"],                       # lower end not above 1
    ["--p-min", "3", "--p-max", "2"],         # empty range
    ["--q-min", "2", "--q-max", "2"],         # degenerate range
    ["--grid", "1"],
    ["--grid", "0"],
    ["--n", "0"],                             # no such dimension (every
    ["--n", "-2"],                            # cell used to read blow_up)
])
def test_region_rejected_box_exits_2_without_csv(tmp_path, box):
    out = tmp_path / "reg"
    assert dispatch(["region", "--n", "2", "--grid", "5", *box,
                     "--out", str(out)]) == 2
    assert not Path(f"{out}.csv").exists()


def test_nan_flag_is_a_bad_value_not_a_missing_key(tmp_path, capsys):
    out = tmp_path / "sim"
    assert dispatch(["simulate", "--n", "1", "--p", "2", "--q", "2",
                     "--threshold", "nan", "--out", str(out)]) == 2
    assert "bad value for 'threshold': nan" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_nan_in_config_file_is_a_bad_value(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"n": 1, "p": NaN, "q": 2}')
    out = tmp_path / "sim"
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "bad value for 'p': nan" in capsys.readouterr().err
    assert not Path(f"{out}.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["curves", "--n-min", "5", "--n-max", "2"], "n_min must be <= n_max"),
    (["testfn", "--n", "1", "--num", "0"], "num must be >= 1"),
], ids=["curves", "testfn"])
def test_empty_ranges_refused_without_output(tmp_path, capsys, argv,
                                             message):
    # an empty range wrote a header-only CSV and exited 0
    assert dispatch([*argv, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("r_max", ["inf", "-inf"])
def test_testfn_non_finite_r_max_exit_2_without_output(tmp_path, capsys,
                                                       r_max):
    # r_max = inf wrote rows nan,nan,nan and inf,nan,nan and exited 0
    assert dispatch(["testfn", "--n", "2", f"--r-max={r_max}", "--num", "3",
                     "--out", str(tmp_path / "o")]) == 2
    assert f"r_max must be finite, got {r_max}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_region_grid_too_large_for_memory_exit_2(tmp_path, capsys):
    # output.check_room refuses the 1e8 x 1e8 grid's CSV before any array
    # exists; numpy's refusal of the grid (71.1 PiB) used to escape as a
    # MemoryError traceback (exit 1)
    assert dispatch(["region", "--n", "2", "--grid", "100000000",
                     "--out", str(tmp_path / "reg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_region_csv_too_large_for_disk_exit_2(tmp_path, monkeypatch, capsys):
    # each of the 1e6 x 6 cells writes at least its ',' or newline
    free = os.statvfs_result((4096, 4096, 2**20, 256, 256, 0, 0, 0, 0, 255))
    monkeypatch.setattr(os, "statvfs", lambda path: free)
    assert dispatch(["region", "--n", "2", "--grid", "1000",
                     "--out", str(tmp_path / "reg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1048576 free" in err
    assert not list(tmp_path.iterdir())


def test_region_svg_too_large_for_disk_exit_2(tmp_path, monkeypatch, capsys):
    # 10 MiB free holds the least bytes of the 1e6 x 6 CSV (6e6), but not
    # those and the SVG's 45 bytes of <rect/> text per cell: 5.1e7 in all
    free = os.statvfs_result((4096, 4096, 2**20, 2560, 2560, 0, 0, 0, 0, 255))
    monkeypatch.setattr(os, "statvfs", lambda path: free)
    output.check_room(tmp_path / "reg", 6 * 10**6)   # the CSV alone fits
    assert dispatch(["region", "--n", "2", "--grid", "1000", "--svg",
                     "--out", str(tmp_path / "reg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "51000000 bytes; 10485760 free" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["curves"],
    ["region", "--n", "2", "--grid", "5"],
    ["simulate", "--n", "1", "--p", "2", "--q", "2", "--h", "0.1",
     "--t-max", "1"],
    ["sweep", "--n", "1", "--p", "2", "--q", "2", "--h", "0.1"],
], ids=["curves", "region", "simulate", "sweep"])
def test_out_in_missing_directory_exit_2_before_work(tmp_path, monkeypatch,
                                                     capsys, argv):
    # ended in a FileNotFoundError traceback (exit 1) once the output was
    # computed; now resolve_config refuses it and no command runs
    monkeypatch.setitem(cli._COMMANDS, argv[0],
                        lambda cfg: pytest.fail("the command ran"))
    out = tmp_path / "missing" / "o"
    assert dispatch([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing" in err
    assert not list(tmp_path.iterdir())


def test_region_nan_box_edge_means_default(tmp_path):
    default, explicit = tmp_path / "default", tmp_path / "explicit"
    assert dispatch(["region", "--n", "2", "--grid", "5",
                     "--out", str(default)]) == 0
    assert dispatch(["region", "--n", "2", "--grid", "5", "--p-min", "nan",
                     "--q-max", "nan", "--out", str(explicit)]) == 0
    # the config lines differ only in "out"
    assert read_csv(f"{default}.csv")[1:] == read_csv(f"{explicit}.csv")[1:]


def test_curves_csv(tmp_path):
    out = tmp_path / "curves"
    assert dispatch(["curves", "--n-min", "2", "--n-max", "6",
                     "--out", str(out)]) == 0
    _, header, rows = read_csv(f"{out}.csv")
    assert header == ["n", "strauss", "fujita", "p0", "diagonal_bound", "cap"]
    assert [r[0] for r in rows] == ["2", "3", "4", "5", "6"]


@pytest.mark.parametrize("mode", ["eigenfunction", "direct"])
def test_sequences_closed_form_column(tmp_path, mode):
    out = tmp_path / "seq"
    assert dispatch(["sequences", "--n", "1", "--p", "2", "--q", "2",
                     "--jmax", "41", "--mode", mode, "--out", str(out)]) == 0
    _, header, rows = read_csv(f"{out}.csv")
    assert header == ["j", "ell_j", "L_j", "alpha_j", "a_j", "beta_j", "b_j",
                      "logD_j", "logQ_j", "logD_lower", "logQ_lower",
                      "closed_form_ok"]
    assert len(rows) == 41
    assert all(r[-1] == "ok" for r in rows)
    # lower-bound columns only on odd rows
    assert rows[1][9] == "" and rows[0][9] != ""


def test_sequences_nan_state_fails_closed_form_check(tmp_path, monkeypatch):
    real = cli.iterate

    def with_nan(config, j_max):
        states = list(real(config, j_max))
        states[2] = replace(states[2], alpha=math.nan)
        return states

    monkeypatch.setattr(cli, "iterate", with_nan)
    out = tmp_path / "seq"
    assert dispatch(["sequences", "--n", "1", "--p", "2", "--q", "2",
                     "--jmax", "5", "--out", str(out)]) == 0
    _, _, rows = read_csv(f"{out}.csv")
    assert [r[-1] for r in rows] == ["ok", "ok", "FAIL", "ok", "ok"]


def test_testfn_csv(tmp_path):
    out = tmp_path / "phi"
    assert dispatch(["testfn", "--n", "3", "--r-max", "4", "--num", "5",
                     "--out", str(out)]) == 0
    _, header, rows = read_csv(f"{out}.csv")
    assert header == ["r", "phi", "log_phi"]
    assert len(rows) == 5


def test_testfn_overflowing_phi_is_inf_without_warning(tmp_path):
    # Phi passes the float range near r = 709; its column saturates to inf
    # quietly while log_phi stays finite
    out = tmp_path / "phi"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["testfn", "--n", "1", "--r-max", "800", "--num",
                         "101", "--out", str(out)]) == 0
    _, _, rows = read_csv(f"{out}.csv")
    phi = [float(row[1]) for row in rows]
    log_phi = [float(row[2]) for row in rows]
    assert [row[1] for row in rows].count("inf") == 12
    assert all(math.isinf(v) == (r > 709.0) for v, r in
               zip(phi, (float(row[0]) for row in rows)))
    assert all(math.isfinite(v) for v in log_phi)


def test_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    assert dispatch(["simulate", "--n", "1", "--p", "2", "--q", "2",
                     "--epsilon", "0.5", "--h", "0.04", "--t-max", "10",
                     "--out", str(out)]) == 0
    _, header, rows = read_csv(f"{out}.csv")
    assert header == ["t", "U", "V", "V1", "maxu", "maxv", "res_u", "res_v"]
    meta = json.loads(Path(f"{out}.meta.json").read_text())
    assert meta["t_blowup"] is not None
    assert meta["blowup_reason"] == "max_norm"
    assert meta["config"]["epsilon"] == 0.5
    assert float(rows[-1][0]) == pytest.approx(meta["t_blowup"])


def test_sweep_outputs_and_exit_codes(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "n": 1, "p": 2.0, "q": 2.0, "h": 0.04, "t_max": 30.0,
        "epsilons": [0.5, 0.4, 0.3, 0.2],
    }))
    out = tmp_path / "sw"
    assert dispatch(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, header, rows = read_csv(f"{out}.csv")
    assert header == ["epsilon", "T_blowup", "h", "threshold"]
    assert len(rows) == 4
    verdict = json.loads(Path(f"{out}.json").read_text())
    assert verdict["consistent"] is True
    assert verdict["predicted"] == pytest.approx(0.75)
    # truncated time budget: every point inconclusive -> exit 3
    out2 = tmp_path / "sw2"
    assert dispatch(["sweep", "--config", str(cfg), "--t-max", "3",
                     "--out", str(out2)]) == 3
    assert "error" in json.loads(Path(f"{out2}.json").read_text())


def test_report_output(tmp_path):
    out = tmp_path / "rep"
    assert dispatch(["report", "--n", "1", "--p", "2", "--q", "2",
                     "--epsilon", "0.001", "--out", str(out)]) == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["verdict"] == "blow_up"
    assert doc["F"] == pytest.approx(4.0 / 3.0)
    assert doc["binding_exponent"] == "F3"
    assert doc["strauss"] == "inf"
    assert doc["product_limit"] == pytest.approx(4.768462058062743, rel=1e-9)


def test_report_near_pq_one_writes_inf_product_limit(tmp_path):
    # p q = 1.002: the product limit passes the largest float, which ended
    # in an OverflowError traceback (exit 1)
    out = tmp_path / "rep"
    assert dispatch(["report", "--n", "1", "--p", "1.001", "--q", "1.001",
                     "--out", str(out)]) == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["product_limit"] == "inf"
    assert doc["lifespan_upper_bound"] == "inf"


@pytest.mark.parametrize("p, q, exact", [
    # inside the n = 4 strip 1 + 1/p - 2p + (5/2)(pq - 1) < 0: F = F1 < F4
    ("1.5", "1.01", False),
    ("1.5", "1.5", True),
])
def test_report_exposes_split_gap(tmp_path, p, q, exact):
    out = tmp_path / "rep"
    assert dispatch(["report", "--n", "4", "--p", p, "--q", q,
                     "--out", str(out)]) == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["verdict"] == "blow_up"
    assert doc["F_max"] == max(doc[f"F{i}"] for i in range(1, 5))
    assert doc["F"] == doc["F1"]
    assert doc["split_exact"] is exact
    assert (doc["F"] == doc["F_max"]) is exact


def test_sweep_jobs_accepted_and_echoed(tmp_path, monkeypatch):
    def fake_sweep(*args, **kwargs):
        assert "jobs" not in kwargs
        raise cli.InconclusiveSweep("stub")

    monkeypatch.setattr(cli, "sweep", fake_sweep)
    out = tmp_path / "sw"
    assert dispatch(["sweep", "--n", "1", "--p", "2", "--q", "2",
                     "--jobs", "3", "--out", str(out)]) == 3
    assert json.loads(Path(f"{out}.json").read_text())["config"]["jobs"] == 3


@pytest.mark.parametrize("ladder", ["0.5", "", "0.5,0.4,0.3"])
def test_sweep_refuses_short_ladder_before_running(tmp_path, monkeypatch,
                                                   ladder):
    def no_run(*args, **kwargs):
        raise AssertionError("the simulator ran")

    monkeypatch.setattr(lifespan, "blowup_times", no_run)
    out = tmp_path / "sw"
    assert dispatch(["sweep", "--n", "1", "--p", "2", "--q", "2",
                     "--epsilons", ladder, "--out", str(out)]) == 2
    assert not list(tmp_path.iterdir())


def test_config_roundtrip_through_echo(tmp_path):
    out = tmp_path / "seq"
    assert dispatch(["sequences", "--n", "2", "--p", "1.7", "--q", "2.3",
                     "--jmax", "7", "--out", str(out)]) == 0
    first = Path(f"{out}.csv").read_bytes()
    head = first.decode().splitlines()[0]
    echoed = json.loads(head.removeprefix("# config: "))
    cfg2 = tmp_path / "echo.json"
    cfg2.write_text(json.dumps(echoed))
    # the echo names the same output, so the rerun overwrites the first file
    Path(f"{out}.csv").unlink()
    assert dispatch(["sequences", "--config", str(cfg2)]) == 0
    assert Path(f"{echoed['out']}.csv").read_bytes() == first


def test_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"n": 2, "grid": 12, "svg": true}')
    out = tmp_path / "reg"
    first = []
    for rerun in (False, True):
        assert dispatch(["region", "--config", str(cfg),
                         "--out", str(out)]) == 0
        blobs = (Path(f"{out}.csv").read_bytes(),
                 Path(f"{out}.svg").read_bytes())
        if rerun:
            assert blobs == tuple(first)
        else:
            first = list(blobs)
