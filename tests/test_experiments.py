import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import mfgtiming as m
from mfgtiming.cli import main as cli_main
from mfgtiming.nplayer import EXACT_GENERAL_CAP


def base_config(**over):
    cfg = {
        "lattice": {"steps": 3, "dt": 0.5, "b0": 3.0, "db": 1.0, "dw": 1.0},
        "payoff": {"kind": "bankrun", "rbar": 0.1, "r": 0.05, "d0": 1.0,
                   "liquidation": {"preset": "linear", "a": 0.5, "c": 0.0}},
        "info": {"kind": "public"},
        "seed": 20260810,
        "task": {"kind": "solve-mfe"},
    }
    cfg.update(over)
    return cfg


def test_config_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(m.CONFIG_SCHEMA)


def test_schema_rejects_with_field_path():
    cfg = base_config()
    del cfg["lattice"]["dt"]
    with pytest.raises(m.ConfigError, match=r"\$\.lattice"):
        m.validate_config(cfg)
    cfg2 = base_config(task={"kind": "eps-nash", "n_list": [4, 2]})
    with pytest.raises(m.ConfigError, match="ascending"):
        m.validate_config(cfg2)
    cfg3 = base_config(task={"kind": "check"})
    with pytest.raises(m.ConfigError, match="trials"):
        m.validate_config(cfg3)


def test_run_is_deterministic_per_seed():
    cfg = base_config(task={"kind": "eps-nash", "n_list": [2, 4],
                            "method": "monte-carlo", "samples": 60})
    a, b = m.run(cfg), m.run(cfg)
    assert m.payload_bytes(a) == m.payload_bytes(b)
    other = m.run(base_config(seed=1,
                              task={"kind": "eps-nash", "n_list": [2, 4],
                                    "method": "monte-carlo", "samples": 60}))
    assert m.payload_bytes(a) != m.payload_bytes(other)


def test_json_round_trip_lossless():
    rec = m.run(base_config())
    doc = json.loads(m.emit(rec, "json").decode())
    assert doc["result"] == rec.result
    assert doc["config"] == rec.config


def test_solve_mfe_task_payload():
    rec = m.run(base_config())
    res = rec.result
    assert res["converged"] is True
    assert res["verify_top"]["is_mfe"] is True
    assert res["verify_bottom"]["is_mfe"] is True
    assert res["top"]["trace"]


def test_check_task_identity_violation():
    cfg = base_config(payoff={"kind": "crowd_fraction"},
                      lattice={"steps": 2, "dt": 0.5, "b0": 0.0, "db": 1.0, "dw": 1.0},
                      task={"kind": "check", "exhaustive": True})
    rec = m.run(cfg)
    rep = rec.result["increasing_differences"]
    assert rep["passed"] is False
    assert rep["violation"]["lhs"] < rep["violation"]["rhs"] - 1e-9


def test_check_task_constant_passes_with_submartingale():
    cfg = base_config(payoff={"kind": "constant", "value": 2.0},
                      task={"kind": "check", "trials": 25,
                            "submartingale_pairs": 5})
    rec = m.run(cfg)
    assert rec.result["increasing_differences"]["passed"] is True
    assert rec.result["submartingale"]["passed"] is True


def test_eps_nash_csv_schema():
    cfg = base_config(task={"kind": "eps-nash", "n_list": [2, 4], "method": "exact"})
    rec = m.run(cfg)
    lines = m.emit(rec, "csv").decode().splitlines()
    assert lines[0] == "n,eq_value,best_dev_value,epsilon,stderr"
    assert len(lines) == 3


def test_converge_csv_schema():
    cfg = base_config(info={"kind": "signal", "sigma": 1.0},
                      task={"kind": "converge", "n_list": [2, 8], "samples": 30})
    rec = m.run(cfg)
    lines = m.emit(rec, "csv").decode().splitlines()
    assert lines[0] == "n,mean_kolmogorov_distance"
    assert len(lines) == 3


def test_bankrun_demo_payload():
    rec = m.run(base_config(task={"kind": "bankrun-demo"}))
    res = rec.result
    assert res["top_matches_hitting_rule"] is True
    assert res["expected_payoff"] == pytest.approx(res["full_recovery_oracle"],
                                                   abs=1e-9)


def test_bankrun_demo_csv_rows_are_the_hitting_rule():
    lines = m.emit(m.run(base_config(task={"kind": "bankrun-demo"})), "csv").decode()
    lat = m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)
    params = m.BankRunParams(rbar=0.1, r=0.05, liquidation=lambda x: max(0.5 * x, 0.0))
    steps = m.public_info_equilibrium(params, lat).stop_steps()[:, 0].tolist()
    assert len(set(steps)) > 1  # some common paths run early, others wait
    assert lines.splitlines() == (["b_path,stop_step"]
                                  + [f"{b},{s}" for b, s in enumerate(steps)])


def test_signal_info_defaults_to_ambiguous_alphabet():
    from mfgtiming.experiments import build_tree
    cfg = base_config(info={"kind": "signal"})
    lat = m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)
    tree = build_tree(cfg, lat)
    assert tree.kind == "signal"
    assert len(tree.symbols) == 3


def test_cli_runs_and_writes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "out.json"
    cfg_path.write_text(json.dumps(base_config(task={"kind": "bankrun-demo"})))
    code = cli_main(["bankrun-demo", "--config", str(cfg_path),
                     "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["result"]["top_matches_hitting_rule"] is True


def test_cli_task_mismatch(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    assert cli_main(["check", "--config", str(cfg_path)]) == 2


def test_cli_invalid_config_exit_code(tmp_path):
    cfg = base_config()
    del cfg["seed"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["solve-mfe", "--config", str(cfg_path)]) == 2


def _cli_rejects(tmp_path, capsys, cfg, *expect):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main([cfg["task"]["kind"], "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    for text in expect:
        assert text in err


def test_cli_bankrun_without_rbar_names_path(tmp_path, capsys):
    cfg = base_config()
    del cfg["payoff"]["rbar"]
    _cli_rejects(tmp_path, capsys, cfg, "$.payoff:", "'rbar'")


def test_cli_task_key_typo_names_path(tmp_path, capsys):
    cfg = base_config(task={"kind": "converge", "n_list": [2], "samples": 5,
                            "sample": 5})
    _cli_rejects(tmp_path, capsys, cfg, "$.task:", "'sample'")


def test_cli_unknown_liquidation_field_names_path(tmp_path, capsys):
    cfg = base_config()
    cfg["payoff"]["liquidation"]["slope"] = 2.0
    _cli_rejects(tmp_path, capsys, cfg, "$.payoff.liquidation:", "'slope'")


def test_cli_unknown_bankrun_key_names_path(tmp_path, capsys):
    cfg = base_config()
    cfg["payoff"]["d_0"] = 2.0
    _cli_rejects(tmp_path, capsys, cfg, "$.payoff:", "'d_0'")


def test_cli_unknown_diffusion_phi_key_names_path(tmp_path, capsys):
    cfg = base_config(payoff={"kind": "diffusion", "f": "identity_y",
                              "phi": {"preset": "relu", "scael": 2.0}})
    _cli_rejects(tmp_path, capsys, cfg, "$.payoff.phi:", "'scael'")


@pytest.mark.parametrize("payoff, path", [
    ({"kind": "bankrun", "rbar": 0.1, "r": 0.0, "liquidation": {"preset": "cubic"}},
     "$.payoff.liquidation.preset:"),
    ({"kind": "diffusion", "phi": {"preset": "concave"}}, "$.payoff.phi.preset:"),
    ({"kind": "diffusion", "f": "identity"}, "$.payoff.f:"),
])
def test_cli_unknown_preset_names_path(tmp_path, capsys, payoff, path):
    """A preset name the builders do not know fails validation, before the run."""
    _cli_rejects(tmp_path, capsys, base_config(payoff=payoff), path, "is not one of")
    with pytest.raises(m.ConfigError, match=re.escape(path)):
        m.validate_config(base_config(payoff=payoff))


def test_cli_non_object_task_names_path(tmp_path, capsys):
    cfg = base_config(task="solve-mfe")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["solve-mfe", "--config", str(cfg_path)]) == 2
    assert "$.task:" in capsys.readouterr().err


def test_cli_non_object_output_names_path(tmp_path, capsys):
    cfg = base_config(output="out.json")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["solve-mfe", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out.json")]) == 2
    assert "$.output:" in capsys.readouterr().err


@pytest.mark.parametrize("payoff, closed", [
    ({"kind": "crowd_discount", "r": 0.3, "c": 0.8}, False),
    ({"kind": "diffusion", "f": "identity_y", "phi": {"preset": "relu"}}, False),
    (base_config()["payoff"], True),
])
def test_cli_exact_eps_nash_past_general_cap_fails_before_solving(
        tmp_path, capsys, monkeypatch, payoff, closed):
    """A payoff that reads more than the mass strictly before the date has
    an exact n-player crowd only up to EXACT_GENERAL_CAP players."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting the config")

    monkeypatch.setattr(m.experiments, "solve_mfe", no_solve)
    monkeypatch.setattr(m.experiments, "iterate_from_top", no_solve)
    cfg = base_config(payoff=payoff, task={"kind": "eps-nash", "n_list": [4, 16]})
    if closed:
        cfg["closed_interval"] = True
    _cli_rejects(tmp_path, capsys, cfg, "$.task.n_list:", f"n <= {EXACT_GENERAL_CAP}",
                 "monte-carlo")


@pytest.mark.parametrize("over, expect", [
    ({"lattice": {"steps": 15, "dt": 0.5, "b0": 3.0, "db": 1.0, "dw": 1.0}},
     ("$.lattice.steps:", "$.lattice.max_steps")),
    ({"payoff": {"kind": "bankrun", "rbar": 0.05, "r": 0.05}}, ("$.payoff.rbar:",)),
    ({"payoff": {"kind": "bankrun", "rbar": 0.1, "r": 0.0, "d0": 0}}, ("$.payoff.d0:",)),
    ({"payoff": {"kind": "crowd_discount", "r": 0.0, "c": 0.8}}, ("$.payoff.r:",)),
    ({"payoff": {"kind": "crowd_discount", "r": 0.3, "c": -1.0}}, ("$.payoff.c:",)),
    ({"payoff": {"kind": "diffusion", "f_bound": 10.0}}, ("$.payoff:", "'f_bound'")),
    ({"lattice": {"steps": 6, "dt": 0.5, "b0": 3.0, "db": 1.0, "dw": 1.0},
      "task": {"kind": "check", "exhaustive": True}},
     ("$.task.exhaustive:", "210066388901 rules")),
], ids=["steps-past-cap", "rbar-not-above-r", "d0-zero", "crowd_discount-r",
        "crowd_discount-c", "diffusion-f_bound", "exhaustive-public-k6"])
def test_cli_invalid_values_exit_2_before_solving(tmp_path, capsys, monkeypatch,
                                                  over, expect):
    """Values the schema's types admit but the model refuses exit 2 with the
    JSON path, before any solve or enumeration."""
    def no_work(*args, **kwargs):
        raise AssertionError("worked before rejecting the config")

    monkeypatch.setattr(m.experiments, "solve_mfe", no_work)
    monkeypatch.setattr(m.experiments, "exhaustive_increasing_differences", no_work)
    _cli_rejects(tmp_path, capsys, base_config(**over), *expect)


# the task keys each kind reads, and a minimal valid task of that kind
TASK_VALUES = {"max_iter": 3, "trials": 5, "exhaustive": False, "submartingale_pairs": 1,
               "n_list": [2], "method": "monte-carlo", "samples": 10}
TASK_READS = {
    "solve-mfe": ({}, ("max_iter",)),
    "check": ({"trials": 5}, ("trials", "exhaustive", "submartingale_pairs")),
    "eps-nash": ({"n_list": [2]}, ("n_list", "method", "samples", "max_iter")),
    "converge": ({"n_list": [2], "samples": 10}, ("n_list", "samples", "max_iter")),
    "bankrun-demo": ({}, ("max_iter",)),
}


@pytest.mark.parametrize("kind", sorted(TASK_READS))
def test_task_accepts_every_key_it_reads(kind):
    minimal, reads = TASK_READS[kind]
    m.validate_config(base_config(task={"kind": kind, **minimal}))
    m.validate_config(base_config(task={"kind": kind, **{k: TASK_VALUES[k] for k in reads}}))


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind, (_, reads) in sorted(TASK_READS.items())
    for key in TASK_VALUES if key not in reads])
def test_cli_task_key_the_kind_never_reads_names_path(tmp_path, capsys, monkeypatch,
                                                       kind, key):
    """A task key that only other task kinds read exits 2 before any work."""
    monkeypatch.setattr(m.experiments, "_TASKS", {})
    task = {"kind": kind, **TASK_READS[kind][0], key: TASK_VALUES[key]}
    _cli_rejects(tmp_path, capsys, base_config(task=task), "$.task:", f"'{key}'")


@pytest.mark.parametrize("task, path, why", [
    ({"kind": "eps-nash", "n_list": [2], "samples": 10}, "samples", "monte-carlo"),
    ({"kind": "eps-nash", "n_list": [2], "method": "exact", "samples": 10}, "samples",
     "monte-carlo"),
    ({"kind": "check", "exhaustive": True, "trials": 5}, "trials", "exhaustive"),
    ({"kind": "eps-nash", "n_list": [2], "method": "monte-carlo", "samples": 2 ** 32 + 1},
     "samples", "maximum"),
    ({"kind": "converge", "n_list": [2], "samples": 2 ** 32 + 1}, "samples", "maximum"),
], ids=["eps-nash-default-method", "eps-nash-exact", "check-exhaustive",
        "eps-nash-past-2**32", "converge-past-2**32"])
def test_cli_task_key_not_read_under_its_condition_names_path(tmp_path, capsys, monkeypatch,
                                                              task, path, why):
    """Samples only under Monte Carlo, trials only when sampling rule pairs,
    and no sample index past one uint32 stream key: else exit 2 before any
    work, naming the key."""
    monkeypatch.setattr(m.experiments, "_TASKS", {})
    _cli_rejects(tmp_path, capsys, base_config(task=task), f"$.task.{path}:", why)


def test_exhaustive_check_needs_no_trials():
    m.validate_config(base_config(task={"kind": "check", "exhaustive": True}))
    with pytest.raises(m.ConfigError, match="'trials' is a required property"):
        m.validate_config(base_config(task={"kind": "check", "exhaustive": False}))


@pytest.mark.parametrize("payoff", [
    {"kind": "crowd_discount", "r": 0.3, "c": 0.8},
    {"kind": "diffusion"},
    {"kind": "constant", "value": 2.0},
    {"kind": "crowd_fraction"},
], ids=lambda p: p["kind"])
@pytest.mark.parametrize("closed", [True, False])
def test_cli_closed_interval_off_bankrun_names_path(tmp_path, capsys, monkeypatch,
                                                    payoff, closed):
    """Only the bank run reads ``closed_interval``; with any other payoff it
    exits 2, whatever its value."""
    monkeypatch.setattr(m.experiments, "_TASKS", {})
    cfg = base_config(payoff=payoff, closed_interval=closed)
    _cli_rejects(tmp_path, capsys, cfg, "$.closed_interval:", "bankrun")


def test_benchmark_configs_validate():
    """The seven configs of the benchmark's workloads pass the schema."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"
    loader = importlib.util.spec_from_file_location("bench_spec", path)
    spec = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spec)
    configs = [cfg for _, make in spec.WORKLOADS.values() for _, cfg in make(7)]
    assert len(configs) == 7
    for cfg in configs:
        m.validate_config(cfg)


def test_config_max_steps_raises_the_lattice_cap():
    cfg = base_config()
    cfg["lattice"].update(steps=15, max_steps=15)
    m.validate_config(cfg)


def test_solve_mfe_unconverged_end_is_verified_and_written_as_csv():
    """An end that stopped at ``max_iter`` unconverged is verified by solving
    its rule's law again; the CSV has one row per trace entry."""
    cfg = base_config(task={"kind": "solve-mfe", "max_iter": 1})
    rec = m.run(cfg)
    lat = m.experiments.build_lattice_from(cfg)
    payoff = m.experiments.build_payoff(cfg, lat)
    tree = m.experiments.build_tree(cfg, lat)
    res = m.solve_mfe(payoff, tree, max_iter=1)
    assert not res.top.converged
    ends = (("top", res.top), ("bottom", res.bottom))
    for name, end in ends:
        v = m.verify_mfe(payoff, end.rule)
        assert rec.result[f"verify_{name}"] == {"is_mfe": v.is_mfe, "gap": v.gap}
    lines = m.emit(rec, "csv").decode().splitlines()
    assert lines[0] == "direction,iteration,value,stopped_nodes"
    expected = [(name, i, step.value, int(step.rule.decision.sum()))
                for name, end in ends for i, step in enumerate(end.trace, start=1)]
    rows = [line.split(",") for line in lines[1:]]
    assert [(d, int(i), float(v), int(s)) for d, i, v, s in rows] == expected


def test_cli_exact_eps_nash_at_general_cap_runs(tmp_path):
    cfg = base_config(closed_interval=True,
                      task={"kind": "eps-nash", "n_list": [2, EXACT_GENERAL_CAP]})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["eps-nash", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out.json")]) == 0


def test_cli_missing_file_exit_code():
    assert cli_main(["solve-mfe", "--config", "/no/such/file.json"]) == 2


def test_cli_entry_point_subprocess(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(task={"kind": "check", "trials": 5},
                                               payoff={"kind": "constant"})))
    # the child imports the package from where this process found it
    env = dict(os.environ, PYTHONPATH=str(Path(m.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "mfgtiming.cli", "check", "--config", str(cfg_path),
         "--format", "csv"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "passed,trials,lhs,rhs"


def test_seed_override_changes_payload(tmp_path):
    cfg = base_config(task={"kind": "converge", "n_list": [2, 4], "samples": 20},
                      info={"kind": "signal", "sigma": 1.0})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["converge", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["converge", "--config", str(cfg_path), "--seed", "9",
                     "--out", str(out2)]) == 0
    r1 = json.loads(out1.read_text())["result"]
    r2 = json.loads(out2.read_text())["result"]
    assert r1 != r2
