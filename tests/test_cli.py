import json
import math
import warnings
from pathlib import Path

import pytest

from nakao import cli
from nakao.cli import dispatch


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


def test_region_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"n": 2, "grid": 5}')
    out = tmp_path / "reg"
    assert dispatch(["region", "--config", str(cfg), "--grid", "7",
                     "--out", str(out)]) == 0
    head, _, rows = read_csv(f"{out}.csv")
    assert '"grid":7' in head
    assert len(rows) == 49


@pytest.mark.parametrize("box", [
    ["--p-min", "0.5"],                       # lower end not above 1
    ["--p-min", "3", "--p-max", "2"],         # empty range
    ["--q-min", "2", "--q-max", "2"],         # degenerate range
    ["--grid", "1"],
    ["--grid", "0"],
])
def test_region_rejected_box_exits_2_without_csv(tmp_path, box):
    out = tmp_path / "reg"
    assert dispatch(["region", "--n", "2", "--grid", "5", *box,
                     "--out", str(out)]) == 2
    assert not Path(f"{out}.csv").exists()


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


def test_jobs_env_fallback(tmp_path, monkeypatch):
    seen = []

    def fake_sweep(*args, jobs, **kwargs):
        seen.append(jobs)
        raise cli.InconclusiveSweep("stub")

    monkeypatch.setattr(cli, "sweep", fake_sweep)
    argv = ["sweep", "--n", "1", "--p", "2", "--q", "2",
            "--out", str(tmp_path / "sw")]
    monkeypatch.setenv("NAKAO_JOBS", "2")
    assert dispatch(argv) == 3
    assert dispatch([*argv, "--jobs", "3"]) == 3   # the flag wins
    monkeypatch.delenv("NAKAO_JOBS")
    assert dispatch(argv) == 3
    assert seen == [2, 3, 1]


def test_config_roundtrip_through_echo(tmp_path):
    out = tmp_path / "seq"
    assert dispatch(["sequences", "--n", "2", "--p", "1.7", "--q", "2.3",
                     "--jmax", "7", "--out", str(out)]) == 0
    head = Path(f"{out}.csv").read_text().splitlines()[0]
    echoed = json.loads(head.removeprefix("# config: "))
    cfg2 = tmp_path / "echo.json"
    cfg2.write_text(json.dumps(echoed))
    assert dispatch(["sequences", "--config", str(cfg2)]) == 0
    assert (Path(f"{out}.csv").read_bytes()
            == Path(f"{out}.csv").read_bytes())
    rerun = Path(f"{echoed['out']}.csv").read_bytes()
    assert rerun == Path(f"{out}.csv").read_bytes()


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
