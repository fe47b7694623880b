"""Command line front end: catalog | prox | radius | run | check.

Exit codes: 0 success, 1 usage/config error, 2 solver failure,
3 strong-implicitness failure at zero, 4 iteration budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import algorithms as alg
from . import checks, legendre, operators
from .errors import ConfigError, SolverError, StrongImplicitnessFailure
from .numerics import as_vector, residual_norm, unit_directions
from .resolvent import (DEFAULT_MAGNITUDES, InclusionInstance, ips_form, pls_form,
                        radius_search, solve_inclusion, ss_form, verify_solution)


def _fmt(x: float) -> str:
    return repr(float(x))


def _vec(text: str):
    try:
        return as_vector([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector {text!r}: {exc}")


#  experiment config

@dataclass
class ExperimentConfig:
    space_dim: int
    scheme: str
    x0: np.ndarray
    legendre_spec: str = "quadratic"
    operator_specs: list = field(default_factory=list)
    scheme_params: dict = field(default_factory=dict)
    policy: dict = field(default_factory=lambda: {"kind": "zero"})
    stop: dict = field(default_factory=lambda: {"max_iters": 500, "zero_detect": 1e-8})
    seed: int = 0
    output_path: str = "trace.csv"

    def to_dict(self) -> dict:
        return {
            "space_dim": self.space_dim,
            "scheme": self.scheme,
            "x0": [float(v) for v in self.x0],
            "legendre": self.legendre_spec,
            "operators": list(self.operator_specs),
            "scheme_params": self.scheme_params,
            "policy": self.policy,
            "stop": self.stop,
            "seed": self.seed,
            "output_path": self.output_path,
        }


# the closed config schema: every key an object may hold
SCHEME_PARAM_KEYS = {
    "eckstein": {"lambda"},
    "ss": {"mu", "sigma", "radius_probes"},
    "ips": {"lambda", "nu", "nu_from", "z_basis", "radius_probes"},
    "pls": {"c", "sigma", "tau", "metric", "radius_probes"},
    "rs": {"lambda", "common_zero"},
}
SCHEDULE_KEYS = {"constant": {"kind", "value"}, "geometric": {"kind", "c", "q"}}


def _check_keys(obj, allowed, field):
    if not isinstance(obj, dict):
        raise ConfigError("must be an object", field=field)
    for key in obj:
        if key not in allowed:
            raise ConfigError("unknown field", field=f"{field}.{key}")
    return obj


def _schedule_from(params: dict, key: str, default: float) -> alg.Schedule:
    raw = params.get(key)
    if raw is None:
        return alg.Schedule.constant(default)
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("schedule must be an object with a 'kind'", field=f"scheme_params.{key}")
    if raw["kind"] in SCHEDULE_KEYS:
        _check_keys(raw, SCHEDULE_KEYS[raw["kind"]], f"scheme_params.{key}")
    try:
        if raw["kind"] == "constant":
            return alg.Schedule.constant(raw.get("value", default))
        if raw["kind"] == "geometric":
            return alg.Schedule.geometric(raw["c"], raw["q"])
    except (KeyError, ConfigError) as exc:
        raise ConfigError(str(exc), field=f"scheme_params.{key}")
    raise ConfigError(f"unknown schedule kind {raw['kind']!r}", field=f"scheme_params.{key}")


KNOWN_CONFIG_KEYS = frozenset({
    "space_dim", "scheme", "x0", "legendre", "operator", "operators",
    "scheme_params", "policy", "stop", "seed", "output_path",
})


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config mapping, raising ConfigError with a field diagnostic."""
    for key in raw:
        if key not in KNOWN_CONFIG_KEYS:
            raise ConfigError("unknown field", field=key)
    try:
        space_dim = int(raw["space_dim"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError("missing or non-integer", field="space_dim")
    if not 1 <= space_dim <= 64:
        raise ConfigError(f"dimension {space_dim} outside 1..64", field="space_dim")

    scheme = raw.get("scheme")
    if scheme not in alg.SCHEMES:
        raise ConfigError(f"must be one of {alg.SCHEMES}", field="scheme")

    if "x0" not in raw:
        raise ConfigError("missing", field="x0")
    x0 = as_vector(raw["x0"], space_dim)

    if "operators" in raw:
        op_specs = list(raw["operators"])
    elif "operator" in raw:
        op_specs = [raw["operator"]]
    else:
        raise ConfigError("missing", field="operator")
    if scheme != "rs" and len(op_specs) != 1:
        raise ConfigError(f"{scheme} takes exactly one operator", field="operators")

    policy = dict(raw.get("policy", {"kind": "zero"}))
    stop = dict(raw.get("stop", {}))
    stop.setdefault("max_iters", 500)
    stop.setdefault("zero_detect", 1e-8)
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{seed!r} is not a non-negative integer", field="seed")

    cfg = ExperimentConfig(
        space_dim=space_dim,
        scheme=scheme,
        x0=x0,
        legendre_spec=raw.get("legendre", "quadratic"),
        operator_specs=op_specs,
        scheme_params=dict(raw.get("scheme_params", {})),
        policy=policy,
        stop=stop,
        seed=seed,
        output_path=str(raw.get("output_path", "trace.csv")),
    )
    # fail fast on anything the run would reject later
    build_run_inputs(cfg)
    return cfg


def build_run_inputs(cfg: ExperimentConfig):
    """Materialize (RunSpec, policy, stop) from a validated config."""
    seed = cfg.seed
    try:
        f = legendre.parse_legendre(cfg.legendre_spec, cfg.space_dim)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc), field="legendre")
    try:
        ops = [operators.parse_operator(s, cfg.space_dim) for s in cfg.operator_specs]
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc), field="operators")

    params = _check_keys(cfg.scheme_params, SCHEME_PARAM_KEYS[cfg.scheme], "scheme_params")
    nu = params.get("nu", 0.0)
    if "nu_from" in params:
        nf = _check_keys(params["nu_from"], {"sigma", "rho", "lambda_hat"},
                         "scheme_params.nu_from")
        try:
            nu = alg.ips_nu(nf["sigma"], nf["rho"], nf["lambda_hat"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc), field="scheme_params.nu_from")

    metric_raw = _check_keys(params.get("metric", {"kind": "identity"}),
                             {"kind", "eig_min", "eig_max"}, "scheme_params.metric")
    try:
        metric = alg.MetricSchedule(
            kind=metric_raw.get("kind", "identity"),
            eig_lo=metric_raw.get("eig_min", 0.5),
            eig_hi=metric_raw.get("eig_max", 2.0),
            seed=seed,
        )
    except (TypeError, ConfigError) as exc:
        raise ConfigError(str(exc), field="scheme_params.metric")

    try:
        spec = alg.RunSpec(
            scheme=cfg.scheme,
            x0=cfg.x0,
            op=ops[0] if cfg.scheme != "rs" else None,
            ops=ops if cfg.scheme == "rs" else None,
            f=f,
            lam=_schedule_from(params, "lambda", 1.0),
            mu=_schedule_from(params, "mu", 1.0),
            c=_schedule_from(params, "c", 1.0),
            sigma=float(params.get("sigma", 0.5)),
            nu=float(nu),
            tau=float(params.get("tau", 1.0)),
            metric=metric,
            z_basis=params.get("z_basis"),
            common_zero=params.get("common_zero"),
            radius_probes=int(params.get("radius_probes", 16)),
            radius_seed=seed,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), field="scheme_params")

    pol_raw = dict(cfg.policy)
    kind = pol_raw.pop("kind", "zero")
    try:
        policy = alg.PerturbationPolicy(kind=kind, seed=seed, **pol_raw)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(str(exc), field="policy")

    _check_keys(cfg.stop, {"max_iters", "zero_detect"}, "stop")
    try:
        stop = alg.StopRule(max_iters=int(cfg.stop["max_iters"]),
                            zero_detect=float(cfg.stop["zero_detect"]))
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(str(exc), field="stop")

    return spec, policy, stop


#  trace persistence

def trace_csv(trace: alg.IterateTrace, dim: int) -> str:
    header = "n," + ",".join(f"x{i}" for i in range(dim)) + ",eta_norm,step_param,zero_residual,notes"
    lines = [header]
    for rec in trace.records:
        xs = ",".join(_fmt(v) for v in rec.x)
        lines.append(f"{rec.n},{xs},{_fmt(rec.eta_norm)},{_fmt(rec.step_param)},"
                     f"{_fmt(rec.zero_residual)},{rec.note}")
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".proxlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace(trace: alg.IterateTrace, cfg: ExperimentConfig):
    body = trace_csv(trace, cfg.space_dim)
    _atomic_write(cfg.output_path, body)
    sidecar = {
        "config": cfg.to_dict(),
        "summary": {
            "iterations": trace.iterations,
            "final_residual": trace.final_residual,
            "termination_reason": trace.termination_reason,
            "converged": trace.converged,
        },
    }
    if trace.partial_sums:
        sidecar["summary"]["perturbation_pairing_partial_sums"] = trace.partial_sums
    if "error" in trace.meta:
        sidecar["summary"]["error"] = trace.meta["error"]
    _atomic_write(cfg.output_path + ".json", json.dumps(sidecar, indent=2) + "\n")


#  subcommands

def cmd_catalog(_args) -> int:
    print("legendre functions:")
    for line in legendre.CATALOG_SPECS:
        print("  " + line)
    print("operators:")
    for line in operators.CATALOG_SPECS:
        print("  " + line)
    return 0


def cmd_prox(args) -> int:
    x = _vec(args.x)
    eta = _vec(args.eta) if args.eta else np.zeros_like(x)
    if not 0.0 < args.lam < np.inf:
        raise ConfigError("lam must be positive", field="--lam")
    f = legendre.parse_legendre(args.f, x.shape[0])
    op = operators.parse_operator(args.op, x.shape[0])
    inst = InclusionInstance(f=f, op=op, lam=args.lam, x=x, eta=eta)
    sol = solve_inclusion(inst)
    rep = verify_solution(inst, sol.y, sol.xi)
    print("y  = " + ",".join(_fmt(v) for v in sol.y))
    print("xi = " + ",".join(_fmt(v) for v in sol.xi))
    print(f"membership_residual = {rep.membership_residual:.3e}")
    print(f"linear_residual     = {rep.linear_residual:.3e}")
    print("verification: " + ("pass" if rep.passed else "fail"))
    return 0 if rep.passed else 2


def cmd_radius(args) -> int:
    x = _vec(args.x)
    if not 0.0 < args.lam < np.inf:
        raise ConfigError("lam must be positive", field="--lam")
    f = legendre.parse_legendre(args.f, x.shape[0])
    op = operators.parse_operator(args.op, x.shape[0])
    if args.form == "ss":
        mu = args.mu if args.mu is not None else 1.0 / args.lam
        spec = ss_form(args.sigma, mu)
    elif args.form == "ips":
        spec = ips_form(args.nu, args.lam)
    else:
        spec = pls_form(args.sigma, args.lam, legendre.euclidean(x.shape[0]).metric)
    r = radius_search(f, op, args.lam, x, spec, probes=args.probes, seed=args.seed)
    r0 = 1.0 + residual_norm(x)
    directions = len(unit_directions(args.probes, x.shape[0], args.seed))  # the two signs in 1-D
    print(f"radius = {_fmt(r)}")
    print(f"probes = {directions} directions x {len(DEFAULT_MAGNITUDES)} magnitudes, "
          f"r0 = {_fmt(r0)}, form = {spec.label}")
    return 0


def cmd_run(args) -> int:
    try:
        with open(args.config) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    cfg = parse_config(raw)
    spec, policy, stop = build_run_inputs(cfg)
    trace = alg.run(spec, policy, stop)
    write_trace(trace, cfg)
    print(f"scheme={cfg.scheme} iterations={trace.iterations} "
          f"final_residual={trace.final_residual:.3e} termination={trace.termination_reason}")
    print(f"trace written to {cfg.output_path}")
    if trace.termination_reason == "solver failure":
        return 2
    if trace.termination_reason == "max_iters":
        return 4
    return 0


def cmd_check(args) -> int:
    results = checks.run_suite(args.suite, seed=args.seed)
    failures = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proxlab",
                                     description="inexact proximal schemes workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list available function and operator specs")

    p = sub.add_parser("prox", help="solve and verify one inexact inclusion")
    p.add_argument("--f", default="quadratic", help="Legendre spec")
    p.add_argument("--op", "--A", dest="op", required=True, help="operator spec")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--x", required=True, help="comma separated vector")
    p.add_argument("--eta", default="", help="comma separated perturbation")

    p = sub.add_parser("radius", help="sampled strongly-implicit radius at x")
    p.add_argument("--f", default="quadratic")
    p.add_argument("--op", "--A", dest="op", required=True)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--x", required=True)
    p.add_argument("--form", choices=("ss", "ips", "pls"), default="ss")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--nu", type=float, default=0.3)
    p.add_argument("--probes", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("run", help="execute an experiment config")
    p.add_argument("config", help="path to a JSON experiment config")

    p = sub.add_parser("check", help="run the invariant suites")
    p.add_argument("--suite", choices=checks.SUITES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "catalog": cmd_catalog,
        "prox": cmd_prox,
        "radius": cmd_radius,
        "run": cmd_run,
        "check": cmd_check,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StrongImplicitnessFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
