"""Config-driven experiment orchestration and result serialization.

A single JSON document describes the lattice, the payoff family, the
information structure, the task to run and the master seed; the schema
below is the authoritative description.  Identical configs produce
byte-identical result payloads (wall time is reported outside the
payload), which is what the determinism tests pin.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import jsonschema
import numpy as np

from . import __version__
from ._rng import STREAM_CHECK, derive_rng
from .lattice import HARD_STEP_CAP, AdaptedMeasure, LatticeModel, build_lattice
from .mfe import (EquilibriumResult, IterationResult, public_info_equilibrium,
                  solve_mfe, verify_mfe)
from .nplayer import (EXACT_GENERAL_CAP, Exact, MonteCarlo, convergence_experiment,
                      estimate_epsilon, exact_tractable)
from .payoffs import (BankRunParams, CrowdDiscountParams,
                      DiffusionPayoffParams, PayoffSpec, bankrun_payoff,
                      check_increasing_differences, check_submartingale,
                      constant_payoff, crowd_discount_payoff,
                      crowd_fraction_payoff, diffusion_payoff, evaluate_J,
                      exhaustive_increasing_differences,
                      sample_ordered_measures)
from .trees import (InfoTree, SignalModel, StoppingRule, build_signal_tree,
                    conditional_law, full_tree, public_tree)

_NUMBER = {"type": "number"}
_LIQUIDATION_PRESETS = ("linear", "sqrt")
_PHI_PRESETS = ("zero", "relu", "affine", "neg_part", "concave_ramp")
_F_PRESETS = ("identity_y", "common_plus_y")


def _payoff_kind(kind: str, required: tuple = (), **fields) -> dict:
    """Schema branch of one payoff kind: its required keys, and no key
    besides ``kind`` and its own fields."""
    return {"if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
            "then": {"required": list(required), "additionalProperties": False,
                     "properties": {"kind": {}, **fields}}}


CONFIG_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["lattice", "payoff", "info", "task", "seed"],
    "additionalProperties": False,
    "properties": {
        "lattice": {
            "type": "object",
            "required": ["steps", "dt", "b0", "db", "dw"],
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 1},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "b0": {"type": "number"},
                "db": {"type": "number", "exclusiveMinimum": 0},
                "dw": {"type": "number", "exclusiveMinimum": 0},
                "max_steps": {"type": "integer", "minimum": 1},
            },
        },
        "payoff": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["bankrun", "crowd_discount", "diffusion",
                                  "constant", "crowd_fraction"]},
            },
            "allOf": [
                _payoff_kind("bankrun", ("rbar", "r"), rbar=_NUMBER, r=_NUMBER,
                             d0=_NUMBER, liquidation={
                                 "type": "object", "additionalProperties": False,
                                 "properties": {
                                     "preset": {"enum": list(_LIQUIDATION_PRESETS)},
                                     "a": _NUMBER, "c": _NUMBER}}),
                _payoff_kind("crowd_discount", ("r", "c"), r=_NUMBER, c=_NUMBER),
                _payoff_kind("diffusion", f={"enum": list(_F_PRESETS)}, f_bound=_NUMBER, phi={
                    "type": "object", "additionalProperties": False,
                    "properties": {"preset": {"enum": list(_PHI_PRESETS)},
                                   "scale": _NUMBER}}),
                _payoff_kind("constant", value=_NUMBER),
                _payoff_kind("crowd_fraction"),
            ],
        },
        "info": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["public", "full", "signal"]},
                "sigma": {"type": "number", "minimum": 0},
            },
        },
        "closed_interval": {"type": "boolean"},
        "seed": {"type": "integer", "minimum": 0},
        "task": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["solve-mfe", "check", "eps-nash",
                                  "converge", "bankrun-demo"]},
                "max_iter": {"type": "integer", "minimum": 1},
                "trials": {"type": "integer", "minimum": 1},
                "exhaustive": {"type": "boolean"},
                "submartingale_pairs": {"type": "integer", "minimum": 0},
                "n_list": {"type": "array", "minItems": 1,
                           "items": {"type": "integer", "minimum": 1}},
                "method": {"enum": ["exact", "monte-carlo"]},
                "samples": {"type": "integer", "minimum": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["json", "csv"]},
            },
        },
    },
}

class ConfigError(ValueError):
    """Invalid experiment configuration, with a JSON-path message."""


# the schema is a constant, checked against its metaschema by the tests, so
# a config is validated without checking the schema again (tens of ms each)
_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def validate_config(config: dict) -> None:
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(config))
    if error is not None:
        raise ConfigError(f"{error.json_path}: {error.message}") from error
    task = config["task"]
    kind = task["kind"]
    if kind == "check" and "trials" not in task:
        raise ConfigError("$.task.trials: required for check")
    if kind in ("eps-nash", "converge"):
        if "n_list" not in task:
            raise ConfigError(f"$.task.n_list: required for {kind}")
        ns = task["n_list"]
        if sorted(ns) != ns or len(set(ns)) != len(ns):
            raise ConfigError("$.task.n_list: must be strictly ascending")
        if kind == "converge" and "samples" not in task:
            raise ConfigError("$.task.samples: required for converge")
    if kind == "bankrun-demo":
        if config["payoff"]["kind"] != "bankrun":
            raise ConfigError("$.payoff.kind: bankrun-demo needs the bankrun payoff")
        if config["info"]["kind"] != "public":
            raise ConfigError("$.info.kind: bankrun-demo needs public information")


# ---------------------------------------------------------------------------
# config -> domain objects
# ---------------------------------------------------------------------------


def _make_liquidation(cfg: dict) -> Callable[[float], float]:
    preset = cfg.get("preset", "linear")
    a = float(cfg.get("a", 0.5))
    c = float(cfg.get("c", 0.0))
    if preset == "linear":
        return lambda x: max(a * x + c, 0.0)
    return lambda x: max(a * math.sqrt(max(x, 0.0)) + c, 0.0)


def _make_phi(cfg: dict, lat: LatticeModel) -> Callable[[float], float]:
    preset = cfg.get("preset", "affine")
    scale = float(cfg.get("scale", 1.0))
    horizon = lat.horizon
    if preset == "zero":
        return lambda u: 0.0
    if preset == "relu":
        return lambda u: scale * max(u, 0.0)
    if preset == "affine":
        return lambda u: scale * (u + horizon)
    if preset == "neg_part":
        return lambda u: scale * min(u, 0.0)
    return lambda u: scale * (u - u * u / (4.0 * horizon))


def _bankrun_params(cfg: dict) -> BankRunParams:
    return BankRunParams(
        rbar=float(cfg["rbar"]), r=float(cfg["r"]),
        liquidation=_make_liquidation(cfg.get("liquidation", {})),
        d0=float(cfg.get("d0", 1.0)))


def build_payoff(config: dict, lat: LatticeModel) -> PayoffSpec:
    cfg = config["payoff"]
    kind = cfg["kind"]
    closed = bool(config.get("closed_interval", False))
    if kind == "bankrun":
        return bankrun_payoff(_bankrun_params(cfg), lat, closed_interval=closed)
    if kind == "crowd_discount":
        return crowd_discount_payoff(
            CrowdDiscountParams(r=float(cfg["r"]), c=float(cfg["c"])), lat)
    if kind == "diffusion":
        phi = _make_phi(cfg.get("phi", {}), lat)
        phi_max = max(abs(phi(float(u) * lat.dt)) for u in range(-lat.steps, lat.steps + 1))
        if cfg.get("f", "identity_y") == "identity_y":
            f = lambda x, y, t: y
            bound = max(phi_max, 1e-9)
        else:
            f = lambda x, y, t: x + y
            bound = abs(lat.b0) + lat.steps * lat.db + max(phi_max, 0.0) + 1e-9
        bound = float(cfg.get("f_bound", bound))
        return diffusion_payoff(DiffusionPayoffParams(f=f, phi=phi, f_bound=bound), lat)
    if kind == "constant":
        return constant_payoff(float(cfg.get("value", 1.0)), lat)
    if kind == "crowd_fraction":
        return crowd_fraction_payoff(lat)
    raise ConfigError(f"$.payoff.kind: unknown kind {kind!r}")


def build_tree(config: dict, lat: LatticeModel) -> InfoTree:
    cfg = config["info"]
    if cfg["kind"] == "public":
        return public_tree(lat)
    if cfg["kind"] == "full":
        return full_tree(lat)
    sigma = float(cfg.get("sigma", lat.db / lat.dw))  # default: ambiguous alphabet
    return build_signal_tree(lat, SignalModel(sigma))


def build_lattice_from(config: dict) -> LatticeModel:
    cfg = config["lattice"]
    return build_lattice(cfg["steps"], cfg["dt"], cfg["b0"], cfg["db"],
                         cfg["dw"], max_steps=cfg.get("max_steps", HARD_STEP_CAP))


# ---------------------------------------------------------------------------
# serialization of domain objects
# ---------------------------------------------------------------------------


def rule_payload(rule: StoppingRule) -> dict:
    steps = rule.stop_steps()
    out = {
        "tree": rule.tree.kind,
        "num_nodes": int(rule.tree.num_nodes),
        "decisions_hex": np.packbits(rule.decision).tobytes().hex(),
    }
    if steps.shape[1] == 1:
        out["stop_step_by_common_path"] = [int(s) for s in steps[:, 0]]
    return out


def law_payload(law: AdaptedMeasure) -> dict:
    return {"cdf": [[float(x) for x in row] for row in law.cdf]}


def iteration_payload(res: IterationResult) -> dict:
    """One iteration end.  A trace entry holds the rule and its value; the
    law it answered is the conditional law of the entry before it (of the
    starting rule for the first), so no law is stored."""
    return {
        "rule": rule_payload(res.rule),
        "value": res.value,
        "converged": res.converged,
        "iterations": res.iterations,
        "monotone": res.monotone,
        "cycle_length": res.cycle_length,
        "trace": [{"rule": rule_payload(rec.rule), "value": rec.value}
                  for rec in res.trace],
    }


def equilibrium_payload(res: EquilibriumResult) -> dict:
    return {
        "top": iteration_payload(res.top),
        "bottom": iteration_payload(res.bottom),
        "converged": res.converged,
        "iterations": res.iterations,
        "bracket_tight": res.tight,
        "value_max": res.value_max,
        "value_min": res.value_min,
    }


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def _task_solve_mfe(config, lat, payoff, tree) -> dict:
    res = solve_mfe(payoff, tree, lat, config["task"].get("max_iter"))
    out = equilibrium_payload(res)
    for name, end in (("verify_top", res.top), ("verify_bottom", res.bottom)):
        v = end.verification  # a converged end's last step already solved its law
        if v is None:
            v = verify_mfe(payoff, end.rule, tree, lat)
        out[name] = {"is_mfe": v.is_mfe, "gap": v.gap}
    return out


def _task_check(config, lat, payoff, tree) -> dict:
    task = config["task"]
    seed = config["seed"]
    if task.get("exhaustive", False):
        report = exhaustive_increasing_differences(payoff, lat, tree)
    else:
        report = check_increasing_differences(payoff, lat, task["trials"], seed, tree)
    out = {
        "increasing_differences": {
            "passed": report.passed,
            "trials": report.trials,
            "exhaustive": bool(task.get("exhaustive", False)),
        }
    }
    if report.violation is not None:
        v = report.violation
        out["increasing_differences"]["violation"] = {
            "lhs": v.lhs, "rhs": v.rhs,
            "mu_cdf": law_payload(v.mu), "mu_tilde_cdf": law_payload(v.mu_tilde),
            "tau": rule_payload(v.tau), "tau_tilde": rule_payload(v.tau_tilde),
        }
    pairs = task.get("submartingale_pairs", 0)
    if pairs:
        rng = derive_rng(seed, STREAM_CHECK)
        rows = []
        for _ in range(pairs):
            early, late = sample_ordered_measures(lat, rng, tree)
            rep = check_submartingale(payoff, early, late, lat)
            rows.append({"passed": rep.passed, "worst_gap": rep.worst_gap})
        out["submartingale"] = {
            "pairs": pairs,
            "passed": all(r["passed"] for r in rows),
            "worst_gap": min(r["worst_gap"] for r in rows),
        }
    return out


def _mfe_rule_for(config, lat, payoff, tree) -> StoppingRule:
    res = solve_mfe(payoff, tree, lat, config["task"].get("max_iter"))
    return res.rule_max


def _task_eps_nash(config, lat, payoff, tree) -> dict:
    task = config["task"]
    if task.get("method", "exact") == "exact":
        method = Exact()
        n_max = max(task["n_list"])
        if not exact_tractable(payoff, n_max):
            raise ConfigError(
                f"$.task.n_list: exact n-player integration of the {payoff.label} "
                f"payoff, which reads more than the crowd mass strictly before the "
                f"date, needs n <= {EXACT_GENERAL_CAP}, got {n_max}; "
                f"use method monte-carlo")
    else:
        method = MonteCarlo(task.get("samples", 1000), config["seed"])
    rule = _mfe_rule_for(config, lat, payoff, tree)
    rows = []
    for n in task["n_list"]:
        rep = estimate_epsilon(payoff, rule, n, lat, method)
        rows.append({"n": rep.n, "eq_value": rep.eq_value,
                     "best_dev_value": rep.best_dev_value,
                     "epsilon": rep.epsilon, "stderr": rep.stderr})
    return {"mfe_rule": rule_payload(rule), "reports": rows}


def _task_converge(config, lat, payoff, tree) -> dict:
    task = config["task"]
    rule = _mfe_rule_for(config, lat, payoff, tree)
    rows = convergence_experiment(rule, task["n_list"], task["samples"],
                                  config["seed"], lat)
    return {"mfe_rule": rule_payload(rule), "rows": rows}


def _task_bankrun_demo(config, lat, payoff, tree) -> dict:
    params = _bankrun_params(config["payoff"])
    hitting = public_info_equilibrium(params, lat)
    # full-recovery payoff by direct path enumeration
    rho = params.rbar - params.r
    steps = hitting.stop_steps()[:, 0]
    oracle = float(np.mean(np.exp(rho * lat.grid[steps]))) * params.d0
    law = conditional_law(hitting)
    achieved = evaluate_J(payoff, law, hitting, lat)
    res = solve_mfe(payoff, tree, lat, config["task"].get("max_iter"))
    return {
        "hitting_rule": rule_payload(hitting),
        "expected_payoff": achieved,
        "full_recovery_oracle": oracle,
        "top_matches_hitting_rule": res.rule_max == hitting,
        "solve_mfe": equilibrium_payload(res),
    }


_TASKS = {
    "solve-mfe": _task_solve_mfe,
    "check": _task_check,
    "eps-nash": _task_eps_nash,
    "converge": _task_converge,
    "bankrun-demo": _task_bankrun_demo,
}


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    config: dict
    version: str
    wall_time_s: float
    result: dict


def run(config: dict) -> RunRecord:
    """Validate, dispatch to the task, and wrap the result.

    The result payload is a pure function of (config, seed): reruns are
    byte-identical after JSON serialization.
    """
    validate_config(config)
    t0 = time.perf_counter()
    lat = build_lattice_from(config)
    payoff = build_payoff(config, lat)
    tree = build_tree(config, lat)
    result = _TASKS[config["task"]["kind"]](config, lat, payoff, tree)
    return RunRecord(config=config, version=__version__,
                     wall_time_s=time.perf_counter() - t0, result=result)


def payload_bytes(record: RunRecord) -> bytes:
    """Deterministic serialization of everything except wall time."""
    doc = {"config": record.config, "version": record.version,
           "result": record.result}
    return json.dumps(doc, sort_keys=True, indent=2).encode()


def emit(record: RunRecord, fmt: str = "json") -> bytes:
    """Serialize a run record; JSON round-trips losslessly."""
    if fmt == "json":
        doc = {"config": record.config, "version": record.version,
               "wall_time_s": record.wall_time_s, "result": record.result}
        return json.dumps(doc, sort_keys=True, indent=2).encode()
    if fmt == "csv":
        return _emit_csv(record).encode()
    raise ValueError(f"unknown format {fmt!r}")


def _emit_csv(record: RunRecord) -> str:
    kind = record.config["task"]["kind"]
    res = record.result
    lines: list[str] = []
    if kind == "eps-nash":
        lines.append("n,eq_value,best_dev_value,epsilon,stderr")
        for row in res["reports"]:
            se = "" if row["stderr"] is None else repr(row["stderr"])
            lines.append(f"{row['n']},{row['eq_value']!r},{row['best_dev_value']!r},"
                         f"{row['epsilon']!r},{se}")
    elif kind == "converge":
        lines.append("n,mean_kolmogorov_distance")
        for row in res["rows"]:
            lines.append(f"{row['n']},{row['mean_kolmogorov_distance']!r}")
    elif kind == "solve-mfe":
        lines.append("direction,iteration,value,stopped_nodes")
        for direction in ("top", "bottom"):
            for i, rec in enumerate(res[direction]["trace"], start=1):
                stops = bin(int(rec["rule"]["decisions_hex"] or "0", 16)).count("1")
                lines.append(f"{direction},{i},{rec['value']!r},{stops}")
    elif kind == "check":
        rep = res["increasing_differences"]
        v = rep.get("violation")
        lines.append("passed,trials,lhs,rhs")
        if v is None:
            lines.append(f"{rep['passed']},{rep['trials']},,")
        else:
            lines.append(f"{rep['passed']},{rep['trials']},{v['lhs']!r},{v['rhs']!r}")
    elif kind == "bankrun-demo":
        lines.append("b_path,stop_step")
        for b, s in enumerate(res["hitting_rule"].get("stop_step_by_common_path", [])):
            lines.append(f"{b},{s}")
    return "\n".join(lines) + "\n"


def write_output(record: RunRecord, path: str, fmt: str = "json") -> None:
    data = emit(record, fmt)
    with open(path, "wb") as fh:
        fh.write(data)
