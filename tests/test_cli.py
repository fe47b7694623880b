import hashlib
import json
import os
import re

import pytest

from proxlab import cli
from proxlab.errors import ConfigError, NoStrategy
from proxlab.legendre import parse_legendre
from proxlab.operators import parse_operator
from proxlab.resolvent import _route


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "cosh" in out
    assert "abs:w=1" in out


def test_prox_soft_threshold(capsys):
    code, out, _ = run_cli(capsys, "prox", "--f", "quadratic", "--op", "abs:w=1",
                           "--lam", "1", "--x", "2", "--eta", "0")
    assert code == 0
    assert "y  = 1.0" in out
    assert "xi = 1.0" in out
    assert "pass" in out


def test_prox_with_eta(capsys):
    code, out, _ = run_cli(capsys, "prox", "--op", "abs:w=1", "--lam", "1",
                           "--x", "2", "--eta", "0.25")
    assert code == 0
    assert "y  = 1.25" in out


def test_prox_negative_lambda_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "prox", "--op", "abs:w=1", "--lam", "-1", "--x", "2")
    assert code == 1
    assert "lam" in err


def test_radius_command(capsys):
    code, out, _ = run_cli(capsys, "radius", "--op", "abs:w=1", "--lam", "1",
                           "--x", "2", "--form", "ss", "--sigma", "0.5")
    assert code == 0
    r = float(out.splitlines()[0].split("=")[1])
    assert 0.45 <= r <= 0.55


@pytest.mark.parametrize("x, directions", [("2", 2), ("1,-2", 64)])
def test_radius_reports_the_directions_searched(capsys, x, directions):
    # in 1-D the probe set is the two signs, whatever --probes asks for
    code, out, _ = run_cli(capsys, "radius", "--op", "abs:w=1,shift=0", "--x", x, "--form", "ss")
    assert code == 0
    assert f"probes = {directions} directions x 5 magnitudes" in out.splitlines()[1]


def test_radius_at_zero_exits_3(capsys):
    code, _, err = run_cli(capsys, "radius", "--op", "abs:w=1", "--lam", "1",
                           "--x", "0", "--form", "ss", "--sigma", "0.5")
    assert code == 3
    assert "strong implicitness fails at 0" in err


def test_radius_sigma_zero_exits_3(capsys):
    code, _, _ = run_cli(capsys, "radius", "--op", "abs:w=1", "--lam", "1",
                         "--x", "2", "--form", "ss", "--sigma", "0")
    assert code == 3


def _eckstein_config(tmp_path, **overrides):
    cfg = {
        "space_dim": 2,
        "scheme": "eckstein",
        "x0": [0.0, 0.0],
        "legendre": "quadratic",
        "operator": "affine:diag=1,b=-1,-2",
        "scheme_params": {"lambda": {"kind": "constant", "value": 1.0}},
        "policy": {"kind": "zero"},
        "stop": {"max_iters": 100, "zero_detect": 1e-8},
        "seed": 1,
        "output_path": str(tmp_path / "trace.csv"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_run_eckstein_contraction(tmp_path, capsys):
    path, cfg = _eckstein_config(tmp_path)
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "n,x0,x1,eta_norm,step_param,zero_residual,notes"
    assert len(lines) <= 61  # header + at most 60 rows under contraction 1/2
    sidecar = json.loads((tmp_path / "trace.csv.json").read_text())
    assert sidecar["summary"]["termination_reason"] == "zero detected"
    assert len(lines) == sidecar["summary"]["iterations"] + 2  # header + rows 0..n
    cli.parse_config(sidecar["config"])  # the sidecar config re-parses


def test_run_zero_start_single_row(tmp_path, capsys):
    cfg = {
        "space_dim": 1,
        "scheme": "ss",
        "x0": [1.0],
        "operator": "abs:w=1,shift=1",
        "scheme_params": {"mu": {"kind": "constant", "value": 1.0}, "sigma": 0.5},
        "policy": {"kind": "zero"},
        "stop": {"max_iters": 100, "zero_detect": 1e-8},
        "seed": 1,
        "output_path": str(tmp_path / "zero.csv"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    lines = (tmp_path / "zero.csv").read_text().splitlines()
    assert len(lines) == 2  # header + the initialization row only
    assert "zero detected" in out


def test_run_terminate_far_from_zero_exits_4(tmp_path, capsys):
    # mu = 1e9 trips the hybrid step's terminate clause at x = 2, where the
    # stop residual is 1: the run must exhaust its budget, not report a zero
    cfg = {
        "space_dim": 1,
        "scheme": "ss",
        "x0": [2.0],
        "operator": "abs:w=1,shift=1",
        "scheme_params": {"sigma": 0.5, "mu": {"kind": "constant", "value": 1e9}},
        "policy": {"kind": "zero"},
        "output_path": str(tmp_path / "term.csv"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 4
    assert "termination=max_iters" in out
    sidecar = json.loads((tmp_path / "term.csv.json").read_text())
    assert sidecar["summary"]["converged"] is False
    assert sidecar["summary"]["final_residual"] > 0.99


def test_run_invalid_policy_exits_1(tmp_path, capsys):
    path, _ = _eckstein_config(tmp_path,
                               policy={"kind": "summable_geometric", "c": 0.1, "q": 1.0})
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "q in (0, 1)" in err


def test_run_missing_field_exits_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scheme": "eckstein"}))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "space_dim" in err


def test_run_max_iters_exits_4(tmp_path, capsys):
    path, _ = _eckstein_config(tmp_path, stop={"max_iters": 3, "zero_detect": 1e-12})
    code, _, _ = run_cli(capsys, "run", str(path))
    assert code == 4


def test_run_determinism(tmp_path, capsys):
    path, cfg = _eckstein_config(
        tmp_path,
        policy={"kind": "summable_geometric", "c": 0.1, "q": 0.5},
        output_path=str(tmp_path / "a.csv"),
    )
    assert cli.main(["run", str(path)]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert cli.main(["run", str(path)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == first
    capsys.readouterr()


def test_no_temp_leftovers(tmp_path, capsys):
    path, _ = _eckstein_config(tmp_path)
    run_cli(capsys, "run", str(path))
    stray = [p for p in os.listdir(tmp_path) if p.startswith(".proxlab-")]
    assert stray == []


def test_seed_env_is_ignored(tmp_path, capsys, monkeypatch):
    # the config's seed is the only seed: the sidecar must echo the seed the run used
    path, _ = _eckstein_config(
        tmp_path,
        policy={"kind": "summable_geometric", "c": 0.1, "q": 0.5},
        seed=1,
        output_path=str(tmp_path / "env.csv"),
    )
    monkeypatch.delenv("PROXLAB_SEED", raising=False)
    outputs = []
    for env in (None, "99"):
        if env is not None:
            monkeypatch.setenv("PROXLAB_SEED", env)
        assert cli.main(["run", str(path)]) == 0
        outputs.append(((tmp_path / "env.csv").read_text(),
                        (tmp_path / "env.csv.json").read_text()))
    assert outputs[1] == outputs[0]
    capsys.readouterr()


def test_config_roundtrip(tmp_path):
    _, raw = _eckstein_config(tmp_path)
    cfg = cli.parse_config(raw)
    again = cli.parse_config(cfg.to_dict())
    assert cfg.to_dict() == again.to_dict()


def test_parse_config_rejects_unknown_scheme():
    with pytest.raises(ConfigError):
        cli.parse_config({"space_dim": 1, "scheme": "sgd", "x0": [0.0], "operator": "abs:w=1"})


def test_parse_config_rejects_unknown_field():
    with pytest.raises(ConfigError, match="poliy"):
        cli.parse_config({"space_dim": 1, "scheme": "ss", "x0": [2.0],
                          "operator": "abs:w=1", "poliy": {"kind": "zero"}})


def test_nested_sum_spec_exits_1(capsys):
    nested = "sum:scale:2.0:sum:abs:w=1.0,shift=0.0|affine:diag=1.0,b=0.0|affine:diag=2.0,b=1.0"
    with pytest.raises(ConfigError, match="cannot itself hold a sum"):
        cli.parse_config({"space_dim": 1, "scheme": "ss", "x0": [2.0], "operator": nested})
    code, _, err = run_cli(capsys, "prox", "--f", "quadratic", "--op", nested, "--x", "0.5")
    assert code == 1 and "cannot itself hold a sum" in err


def test_prox_no_strategy_exits_2(capsys):
    code, _, err = run_cli(capsys, "prox", "--f", "power:rho=4", "--op", "abs:w=1",
                           "--x", "1,2,3")
    assert code == 2
    assert "no solver strategy" in err


def test_run_solver_failure_preserves_partial_trace(tmp_path, capsys):
    cfg = {
        "space_dim": 2,
        "scheme": "eckstein",
        "x0": [1.0, 2.0],
        "legendre": "power:rho=4",
        "operator": "abs:w=1",
        "policy": {"kind": "zero"},
        "stop": {"max_iters": 10, "zero_detect": 1e-8},
        "seed": 0,
        "output_path": str(tmp_path / "fail.csv"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, _, _ = run_cli(capsys, "run", str(path))
    assert code == 2
    lines = (tmp_path / "fail.csv").read_text().splitlines()
    assert len(lines) == 2  # header + preserved initialization row
    sidecar = json.loads((tmp_path / "fail.csv.json").read_text())
    assert sidecar["summary"]["termination_reason"] == "solver failure"
    assert "no solver strategy" in sidecar["summary"]["error"]


def test_dense_specs_of_a_failed_run_reproduce_its_error(tmp_path, capsys):
    # pls with a random SPD metric and abs: its metric's f has no strategy with abs
    cfg = {"space_dim": 2, "scheme": "pls", "x0": [1.0, -2.0], "operator": "abs:w=1",
           "scheme_params": {"metric": {"kind": "random_spd", "eig_min": 0.5, "eig_max": 2.0}},
           "stop": {"max_iters": 20, "zero_detect": 1e-8}, "seed": 3,
           "output_path": str(tmp_path / "pls.csv")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, _, _ = run_cli(capsys, "run", str(path))
    assert code == 2
    assert (tmp_path / "pls.csv").read_text() == ("n,x0,x1,eta_norm,step_param,zero_residual,notes\n"
                                                  "0,1.0,-2.0,0.0,0.0,1.4142135623730951,init\n")
    error = json.loads((tmp_path / "pls.csv.json").read_text())["summary"]["error"]
    f_spec, op_spec = re.fullmatch(r"no solver strategy for f=(\S+) with A=(\S+) in dim 2", error).groups()
    assert f_spec.startswith("quadratic:m=")
    with pytest.raises(NoStrategy) as exc:
        _route(parse_legendre(f_spec, 2), parse_operator(op_spec, 2), 1.0)
    assert str(exc.value) == error
    code, _, err = run_cli(capsys, "prox", "--f", f_spec, "--op", op_spec, "--x", "1,-2")
    assert code == 2 and err == f"solver error: {error}\n"


def test_run_rs_config(tmp_path, capsys):
    cfg = {
        "space_dim": 1,
        "scheme": "rs",
        "x0": [1.0],
        "operators": ["abs:w=1", "affine:diag=1,b=0"],
        "scheme_params": {"lambda": {"kind": "constant", "value": 1.0},
                          "common_zero": [0.0]},
        "policy": {"kind": "summable_geometric", "c": 0.05, "q": 0.5},
        "stop": {"max_iters": 2000, "zero_detect": 1e-8},
        "seed": 8,
        "output_path": str(tmp_path / "rs.csv"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    assert "zero detected" in out


def test_check_command_fast_suites(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "legendre", "--seed", "1")
    assert code == 0
    assert "fenchel_young" in out
    code, out, _ = run_cli(capsys, "check", "--suite", "algorithms", "--seed", "2")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


ALL_CHECKS = """
numerics.pairing_symmetry numerics.metric_norm_identity numerics.spd_solve_roundtrip
legendre.fenchel_young legendre.grad_inverse_roundtrip legendre.conjugate_vs_closed_form
legendre.bregman_nonnegativity legendre.gradient_vs_finite_differences
operators.monotonicity_audit operators.scaling_law operators.enlargement_monotone_in_eps
operators.zero_residual_zero_sets resolvent.prop42_roundtrip resolvent.two_strategy_agreement_1d
resolvent.exact_case_degeneration resolvent.continuous_dependence resolvent.holder_nonexpansive
resolvent.holder_power_type algorithms.exactness_degeneration algorithms.ss_condition_audit
algorithms.projection_geometry algorithms.fejer_monotonicity algorithms.termination_soundness
algorithms.eckstein_condition_audit algorithms.ips_condition_audit algorithms.pls_condition_audit
algorithms.rs_zero_containment algorithms.rs_cosh_projection
""".split()


CHECK_ALL_SEED1_SHA256 = "809c0cc3ca709aeaea2a2291da3271fdcc3483e2fecb2cf495ced06b81c37041"


def test_check_all_suites_exit_zero(capsys):
    # shipping requirement: the full invariant battery passes at seed 1, and
    # no invariant is dropped or renamed
    code, out, _ = run_cli(capsys, "check", "--suite", "all", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"PASS {name}" for name in ALL_CHECKS]
    assert lines[-1] == "28/28 checks passed"
    # every figure the battery prints is pinned too: a change to one is a
    # change to the numbers and must be named as such
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_SEED1_SHA256


def test_csv_floats_roundtrip(tmp_path, capsys):
    path, _ = _eckstein_config(
        tmp_path, policy={"kind": "summable_geometric", "c": 0.1, "q": 0.5})
    run_cli(capsys, "run", str(path))
    lines = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    for line in lines:
        fields = line.split(",")
        # every numeric field reparses exactly (shortest round-trip repr)
        for tok in fields[1:-1]:
            assert repr(float(tok)) == tok


def _schema_config(scheme="eckstein", **overrides):
    cfg = {"space_dim": 1, "scheme": scheme, "x0": [2.0], "operator": "abs:w=1",
           "policy": {"kind": "zero"}}
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("cfg, field", [
    (_schema_config(scheme_params={"lamda": {"kind": "constant", "value": 0.01}}),
     "scheme_params.lamda"),
    (_schema_config(stop={"max_iter": 10}), "stop.max_iter"),
    (_schema_config("pls", scheme_params={"metric": {"kind": "random_spd", "eig_mn": 0.1}}),
     "scheme_params.metric.eig_mn"),
    (_schema_config("ips", scheme_params={"nu_from": {"sigma": 0.25, "rho": 0.0,
                                                      "lambda_hat": 1.0, "junk": 1}}),
     "scheme_params.nu_from.junk"),
    (_schema_config(scheme_params={"lambda": {"kind": "constant", "vlaue": 1.0}}),
     "scheme_params.lambda.vlaue"),
    (_schema_config("ss", scheme_params={"mu": {"kind": "geometric", "c": 1.0, "q": 0.9,
                                                "value": 2.0}}),
     "scheme_params.mu.value"),
    # keys that belong to another scheme
    (_schema_config(scheme_params={"sigma": 0.5}), "scheme_params.sigma"),
    (_schema_config("ss", scheme_params={"z_basis": [[1.0]]}), "scheme_params.z_basis"),
    # ss, ips and pls fix their own geometry
    (_schema_config("ss", legendre="cosh"), "legendre"),
    (_schema_config("pls", legendre="quadratic:diag=2"), "legendre"),
    # the seed is a non-negative integer, not a float, bool or string
    (_schema_config(seed=-1), "seed"),
    (_schema_config(seed=1.7), "seed"),
    (_schema_config(seed=True), "seed"),
    (_schema_config(seed="7"), "seed"),
])
def test_parse_config_schema_is_closed(cfg, field):
    with pytest.raises(ConfigError) as info:
        cli.parse_config(cfg)
    assert info.value.field == field


def test_run_misspelt_scheme_param_exits_1(tmp_path, capsys):
    path, _ = _eckstein_config(
        tmp_path, scheme_params={"lamda": {"kind": "constant", "value": 0.01}})
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "scheme_params.lamda: unknown field" in err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("params", [
    {"sigma": float("nan")},
    {"sigma": 0.5, "radius_probes": 0},
])
def test_parse_config_rejects_bad_scheme_scalars(tmp_path, capsys, params):
    cfg = _schema_config("ss", scheme_params=params, output_path=str(tmp_path / "t.csv"))
    with pytest.raises(ConfigError):
        cli.parse_config(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))  # json writes the NaN literal, which json.load reads
    code, _, _ = run_cli(capsys, "run", str(path))
    assert code == 1


def test_radius_zero_probes_exits_1(capsys):
    code, _, err = run_cli(capsys, "radius", "--op", "abs:w=1", "--x", "1,-2",
                           "--form", "ss", "--probes", "0")
    assert code == 1
    assert "probes" in err


def test_prox_nan_lambda_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "prox", "--op", "abs:w=1", "--lam", "nan", "--x", "2")
    assert code == 1
    assert "lam" in err


@pytest.mark.parametrize("params, field", [
    ({"nu_from": {"sigma": 0.5, "rho": 1.0, "lambda_hat": 1.0}}, "scheme_params.nu_from"),
    ({"nu": -0.1}, None),
])
def test_run_negative_ips_nu_exits_1(tmp_path, capsys, params, field):
    # a negative nu used to reach the run loop and end in an AttributeError
    cfg = _schema_config("ips", scheme_params=params, output_path=str(tmp_path / "t.csv"))
    with pytest.raises(ConfigError) as info:
        cli.build_run_inputs(cli.parse_config(cfg))
    assert info.value.field == field
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "nu" in err
