"""Command-line entry point: one executable, file-based reproducible configs.

Subcommands: region, curves, sequences, testfn, simulate, sweep, report.
Every run resolves its configuration from built-in defaults, then an optional
JSON config file (unknown keys rejected), then explicit flags, and embeds the
resolved config in each output.  Exit codes: 0 success, 2 invalid
configuration or usage, 3 inconclusive sweep.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .exponents import (Verdict, critical_values, diagonal_blowup_bound,
                        fujita_exponent, p0_exponent, region_axes, scan_block,
                        strauss_exponent)
from .lifespan import InconclusiveSweep, sweep
from .output import check_room, column_texts, write_csv, write_json
from .params import ProblemParams, admissible_cap
from .pde import InitialDataSpec, Numerics, run
from .slicing import (InitMode, IterationConfig, closed_form_deviation,
                      iterate, iteration_bounds, lifespan_upper_bound,
                      log_lower_bounds, product_limit, thresholds)
from .svg import RECT_BYTES, region_svg
from .testfn import PhiEvaluator


class ConfigError(ValueError):
    pass


# per-subcommand schema: key -> (type, default); None default means required
_COMMON = {"out": (str, None), "seed": (int, 0)}
# one point of the experiment space, and the simulator's grid and data
_POINT = {"n": (int, None), "p": (float, None), "q": (float, None),
          "R": (float, 1.0)}
_MARCH = {"h": (float, 0.02), "cfl": (float, 0.45), "threshold": (float, 1e8),
          "shape": (str, "bump"), "amp_u0": (float, 1.0),
          "amp_u1": (float, 1.0), "amp_v0": (float, 1.0), "amp_v1": (float, 1.0)}

_SCHEMAS: dict[str, dict] = {
    "region": {
        **_COMMON,
        "n": (int, None),
        "grid": (int, 200),
        "p_min": (float, math.nan), "p_max": (float, math.nan),
        "q_min": (float, math.nan), "q_max": (float, math.nan),
        "svg": (bool, False),
        "jobs": (int, 0),  # unread; kept so old configs and the echo hold
    },
    "curves": {**_COMMON, "n_min": (int, 2), "n_max": (int, 12)},
    "sequences": {**_COMMON, **_POINT, "epsilon": (float, 1.0),
                  "jmax": (int, 41), "mode": (str, "eigenfunction")},
    "testfn": {**_COMMON, "n": (int, None), "r_max": (float, 10.0),
               "num": (int, 201)},
    "simulate": {**_COMMON, **_POINT, "epsilon": (float, 1.0), **_MARCH,
                 "t_max": (float, 40.0)},
    "sweep": {
        **_COMMON, **_POINT,
        "epsilons": (list, [0.4, 0.3, 0.2, 0.15, 0.1]),
        **_MARCH, "t_max": (float, 60.0), "tol": (float, 0.35),
        "jobs": (int, 0),  # unread; kept so old configs and the echo hold
    },
    "report": {**_COMMON, **_POINT, "epsilon": (float, 1.0)},
}


_BOOLS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}


def _coerce(key: str, kind, value):
    """value as the schema's kind.  Bool keys take JSON booleans or the
    strings of _BOOLS (any case) only, and no other key takes a boolean;
    int keys take integral numbers only (2, 2.0 and "2", not 1.9 or "2.0")."""
    try:
        if kind is bool:
            flag = _BOOLS.get(value.lower()) if isinstance(value, str) else value
            if not isinstance(flag, bool):
                raise TypeError("not a boolean")
            return flag
        if isinstance(value, bool):
            raise TypeError("a boolean for a non-boolean key")
        if kind is list:
            if isinstance(value, str):
                return [float(v) for v in value.split(",") if v]
            return [float(v) for v in value]
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("not an integer")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def resolve_config(command: str, file_path: str | None,
                   flags: dict) -> dict:
    """defaults <- config file <- explicit flags, with strict key checking."""
    schema = _SCHEMAS[command]
    cfg = {k: d for k, (_, d) in schema.items()}
    cfg["out"] = "testfn_phi" if command == "testfn" else command
    if file_path:
        try:
            with open(file_path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {file_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(raw) - set(schema))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for k, v in raw.items():
            cfg[k] = _coerce(k, schema[k][0], v)
    for k, v in flags.items():
        if v is not None and k in schema:
            cfg[k] = _coerce(k, schema[k][0], v)
    missing = [k for k, v in cfg.items() if v is None]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(sorted(missing))}")
    for k, v in cfg.items():
        # NaN region box edges mean "use the default"; NaN is bad anywhere else
        if (isinstance(v, float) and math.isnan(v)
                and k not in ("p_min", "p_max", "q_min", "q_max")):
            raise ConfigError(f"bad value for {k!r}: {v!r}")
    # refused before any work, so a missing directory costs no computation
    out_dir = Path(cfg["out"]).parent
    if not out_dir.is_dir():
        raise ConfigError(f"no directory {str(out_dir)!r} for out "
                          f"{cfg['out']!r}")
    return cfg


# ---------------------------------------------------------------------------
# subcommands

_REGION_HEADER = ["p", "q", "alphaN", "F", "verdict", "binding_component"]


def cmd_region(cfg: dict) -> int:
    n, res = cfg["n"], cfg["grid"]
    if res < 2:
        raise ConfigError(f"grid must be >= 2, got {res}")
    cap = admissible_cap(n)
    cfg = dict(cfg)
    for x in "pq":   # a NaN box edge takes its default; the echo shows it
        if math.isnan(cfg[f"{x}_max"]):
            cfg[f"{x}_max"] = cap if math.isfinite(cap) else 6.0
        if math.isnan(cfg[f"{x}_min"]):
            cfg[f"{x}_min"] = 1.0 + (cfg[f"{x}_max"] - 1.0) / res
    p_axis, q_axis = region_axes(n, (cfg["p_min"], cfg["p_max"]),
                                 (cfg["q_min"], cfg["q_max"]), res)
    # each CSV cell writes at least its ',' or newline, each drawn cell the
    # fixed text of its <rect/> line
    check_room(cfg["out"], res * res * (len(_REGION_HEADER)
                                        + (RECT_BYTES if cfg["svg"] else 0)))
    # the grid repeats res p values, res q values, 4 verdicts and 3 binding
    # indices: each is formatted once, here, before write_csv forks
    p_text, q_text, verdicts, bindings = (
        np.array(list(column_texts(v)), dtype=object)
        for v in (p_axis, q_axis, [x.value for x in Verdict], np.arange(4)))

    def texts(lo, hi):   # each row block is classified where it is written
        rows, cols, (aN, F, verdict, binding) = scan_block(n, p_axis, q_axis,
                                                           lo, hi)
        return [p_text[rows].tolist(), q_text[cols].tolist(),
                column_texts(aN), column_texts(F), verdicts[verdict].tolist(),
                bindings[binding].tolist()]

    write_csv(f"{cfg['out']}.csv", cfg, _REGION_HEADER, texts, res * res)
    if cfg["svg"]:
        region_svg(f"{cfg['out']}.svg", n, p_axis, q_axis, cfg)
    return 0


def cmd_curves(cfg: dict) -> int:
    if cfg["n_min"] > cfg["n_max"]:
        raise ConfigError(f"n_min must be <= n_max, got {cfg['n_min']} > "
                          f"{cfg['n_max']}")
    rows = []
    for n in range(cfg["n_min"], cfg["n_max"] + 1):
        rows.append((n, strauss_exponent(n), fujita_exponent(n),
                     p0_exponent(n) if n >= 2 else None,
                     diagonal_blowup_bound(n), admissible_cap(n)))
    write_csv(f"{cfg['out']}.csv", cfg,
              ["n", "strauss", "fujita", "p0", "diagonal_bound", "cap"],
              zip(*rows))
    return 0


def _params(cfg: dict) -> ProblemParams:
    # sweep has no epsilon key: its ladder scales the data, at epsilon = 1
    return ProblemParams(n=cfg["n"], p=cfg["p"], q=cfg["q"], R=cfg["R"],
                         epsilon=cfg.get("epsilon", 1.0))


def cmd_sequences(cfg: dict) -> int:
    params = _params(cfg)
    config = IterationConfig(params=params, init_mode=InitMode(cfg["mode"]))
    # the constants first: past a pq where they overflow, that is the error
    bounds = iteration_bounds(config)
    rows = []
    # iterate checks state j before it yields it and steps on only after
    # this row's check, so the first refusal names the last finite row
    for st in iterate(config, cfg["jmax"]):
        lo_u = lo_v = None
        if st.j % 2 == 1:
            lo_u, lo_v = log_lower_bounds(st.j, config, bounds)
            if not (math.isfinite(lo_u) and math.isfinite(lo_v)):
                raise ValueError(
                    f"j_max {cfg['jmax']} is past j = {st.j - 1}, the last "
                    "index before the certified lower bounds leave the float "
                    f"range at pq = {params.pq!r}")
        ok = closed_form_deviation(st, config) <= 1e-10  # NaN fails
        rows.append((st.j, st.ell, st.L, st.alpha, st.a, st.beta, st.b,
                     st.log_d, st.log_q, lo_u, lo_v, "ok" if ok else "FAIL"))
    write_csv(f"{cfg['out']}.csv", cfg,
              ["j", "ell_j", "L_j", "alpha_j", "a_j", "beta_j", "b_j",
               "logD_j", "logQ_j", "logD_lower", "logQ_lower",
               "closed_form_ok"],
              zip(*rows))
    return 0


def cmd_testfn(cfg: dict) -> int:
    if cfg["num"] < 1:
        raise ConfigError(f"num must be >= 1, got {cfg['num']}")
    if not math.isfinite(cfg["r_max"]):
        raise ConfigError(f"r_max must be finite, got {cfg['r_max']!r}")
    ev = PhiEvaluator(cfg["n"])
    r = np.linspace(0.0, cfg["r_max"], cfg["num"])
    log_phi = ev.log_phi(r)
    with np.errstate(over="ignore"):  # phi saturates to inf past r ~ 709
        phi = np.exp(log_phi)
    write_csv(f"{cfg['out']}.csv", cfg, ["r", "phi", "log_phi"],
              [r, phi, log_phi])
    return 0


def _sim_pieces(cfg: dict):
    # the schema's keys are named like the fields of the data and grid specs
    spec, numerics = (cls(**{f.name: cfg[f.name] for f in fields(cls)})
                      for cls in (InitialDataSpec, Numerics))
    return _params(cfg), spec, numerics


def cmd_simulate(cfg: dict) -> int:
    params, spec, numerics = _sim_pieces(cfg)
    trace = run(params, spec, numerics)
    out = cfg["out"]
    write_csv(f"{out}.csv", cfg,
              ["t", "U", "V", "V1", "maxu", "maxv", "res_u", "res_v"],
              [trace.times, trace.U, trace.V, trace.V1, trace.max_u,
               trace.max_v, trace.res_u, trace.res_v])
    write_json(f"{out}.meta.json", {
        "config": cfg,
        "dt": numerics.cfl * numerics.h,
        "r_max": numerics.resolved_r_max(params.R),
        "t_blowup": trace.t_blowup,
        "blowup_reason": trace.reason.value,
        "support_max_excess": trace.support_max_excess,
        "res_u_max": trace.res_u_max,
        "res_v_max": trace.res_v_max,
        "du0": trace.du0,
        "dv0": trace.dv0,
    })
    return 0


def cmd_sweep(cfg: dict) -> int:
    params, spec, numerics = _sim_pieces(cfg)
    out = cfg["out"]
    try:
        fit = sweep(params, cfg["epsilons"], spec, numerics, tol=cfg["tol"])
    except InconclusiveSweep as exc:
        write_json(f"{out}.json", {"config": cfg, "error": str(exc)})
        print(f"sweep inconclusive: {exc}", file=sys.stderr)
        return 3
    write_csv(f"{out}.csv", cfg, ["epsilon", "T_blowup", "h", "threshold"],
              zip(*[(e, t, numerics.h, numerics.threshold)
                    for e, t in zip(fit.epsilons, fit.t_values)]))
    write_json(f"{out}.json", {
        "config": cfg,
        "fitted": fit.fitted_slope,
        "stderr": fit.slope_stderr,
        "predicted": fit.predicted_slope,
        "consistent": fit.consistent,
        "tol": fit.tol,
        "epsilons": list(fit.epsilons),
        "t_values": list(fit.t_values),
        "inconclusive": sorted(fit.inconclusive),
    })
    return 3 if fit.inconclusive else 0


def cmd_report(cfg: dict) -> int:
    params = _params(cfg)
    rep = critical_values(params)
    lb = lifespan_upper_bound(params) if rep.verdict is Verdict.BLOW_UP \
        else None
    F_max = max(rep.F1, rep.F2, rep.F3, rep.F4)
    doc = {
        "config": cfg,
        "alpha_w": rep.alpha_w, "alpha_dw": rep.alpha_dw,
        "alpha_nw": rep.alpha_nw, "alpha0": rep.alpha0,
        "alpha1": rep.alpha1, "alphaN": rep.alpha_n,
        "F1": rep.F1, "F2": rep.F2, "F3": rep.F3, "F4": rep.F4, "F": rep.F,
        # F is the dimension split; in the blow-up region it drops a larger
        # F_i only on the n = 4 strip, where split_exact is false
        "F_max": F_max, "split_exact": rep.F == F_max,
        "verdict": rep.verdict.value,
        "strauss": strauss_exponent(params.n),
        "fujita": fujita_exponent(params.n),
        "p0": p0_exponent(params.n) if params.n >= 2 else None,
        "diagonal_bound": diagonal_blowup_bound(params.n),
        "product_limit": product_limit(params.pq) if lb is None
        else lb.product_limit,
    }
    for mode in InitMode:
        config = IterationConfig(params=params, init_mode=mode)
        j0, j1 = thresholds(config)
        doc[f"j0_{mode.value}"] = j0
        doc[f"j1_{mode.value}"] = j1
    if lb is not None:
        doc["lifespan_upper_bound"] = lb.t_upper
        doc["binding_exponent"] = lb.binding
        doc["bound_floor"] = lb.floor
        doc["bound_candidates"] = lb.candidates
    write_json(f"{cfg['out']}.json", doc)
    return 0


_COMMANDS = {
    "region": cmd_region, "curves": cmd_curves, "sequences": cmd_sequences,
    "testfn": cmd_testfn, "simulate": cmd_simulate, "sweep": cmd_sweep,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakao",
        description="Critical curves, iteration bounds and blow-up "
                    "experiments for the coupled damped-wave/wave system.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in _SCHEMAS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file (strict keys)")
        for key, (kind, _) in schema.items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                sp.add_argument(flag, dest=key, action="store_const",
                                const=True, default=None)
            elif kind is list:
                sp.add_argument(flag, dest=key, default=None,
                                help="comma-separated values")
            else:
                sp.add_argument(flag, dest=key, type=str, default=None)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    flags = {k: v for k, v in vars(ns).items()
             if k not in ("command", "config")}
    try:
        cfg = resolve_config(ns.command, ns.config, flags)
        return _COMMANDS[ns.command](cfg)
    except (ConfigError, ValueError, MemoryError) as exc:
        # MemoryError: numpy refuses an array too large for the host (the
        # axes of an absurd region --grid) before anything is written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
