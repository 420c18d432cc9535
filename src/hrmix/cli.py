"""Command-line surface: solve, estimate, simulate, sweep, table, grid, breslow.

Exit codes follow a fixed convention so pipelines can tell user error from
numeric failure: 0 success, 2 invalid input (flags, files, schemas),
3 solver or fit failure.  Every command that writes an output file also
writes ``<out>.manifest.json`` recording the seed, the full configuration,
and library versions; manifests carry no timestamps so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, analysis, data, estimators
from .cox import _fit_trials_and_pooled
from .errors import HrmixError, ParseError, SchemaError

# json.JSONDecodeError is a ValueError, and data._schema turns a missing
# JSON field into a SchemaError, so a bare KeyError is a bug, not bad input
_INPUT_ERRORS = (ParseError, SchemaError, ValueError, OSError)

# The weight schemes of the linear combiners by their --weights names; the
# first is the default
_WEIGHTS = {"size": estimators.SizeProportional, "inverse-variance": estimators.InverseVariance}


def _write_manifest(args, **derived) -> None:
    """Write ``<out>.manifest.json``; its config is the parsed flags updated by ``derived``.

    The subcommand, its handler and the output path are not configuration,
    and ``--threads`` is left out because no output depends on it.
    """
    skip = ("command", "func", "out", "threads")
    config = {k: v for k, v in vars(args).items() if k not in skip} | derived
    payload = {
        "command": args.command,
        "config": config,
        "seed": config.get("seed"),
        "package": {"name": "hrmix", "version": __version__},
        "library_versions": {"numpy": np.__version__},
    }
    payload["config_sha256"] = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()
    with open(f"{args.out}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _effect_json(effect: estimators.CombinedEffect) -> dict:
    return {
        "method": effect.method.value,
        "estimate": [float(v) for v in effect.estimate],
        "covariance": None
        if effect.covariance is None
        else [[float(v) for v in row] for row in effect.covariance],
        "mixing_p": float(effect.mixing_p),
    }


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_solve(args) -> int:
    out = {"a": args.a, "b": args.b, "p": args.p, "q": args.q}
    out.update(estimators._binary_definitions(args.a, args.b, args.p, args.q))
    if args.tmax_H is not None:
        out["H"] = args.tmax_H
        out["c_censored"] = estimators.solve_censored_binary(
            args.a, args.b, args.p, args.q, args.tmax_H
        )
    _print_json(out)
    return 0


def _load_aggregates(path):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    with data._schema("aggregates file"):
        dist = data._law_from_json(obj)
        aggregates = [
            estimators.TrialAggregate(
                beta_hat=np.asarray(t["beta_hat"], dtype=float),
                covariance=np.asarray(t["covariance"], dtype=float),
                size=data._json_int(t["n"], "n"),
                label=str(t.get("label", "")),
            )
            for t in obj["trials"]
        ]
    if any(a.k != dist.k for a in aggregates):
        raise SchemaError(f"aggregates file: every beta_hat must have the law's dimension {dist.k}")
    return aggregates, dist


def _empirical_dist(pooled: data.TrialDataset) -> data.CovariateDistribution:
    """The empirical law of the pooled covariates: distinct rows in lexicographic order.

    Equal to ``np.unique(covariates, axis=0, return_counts=True)`` in value,
    by a lexsort and run lengths.  -0.0 and 0.0 count as one value.
    """
    z = pooled.covariates
    ordered = z[np.lexsort(z.T[::-1])]
    starts = np.flatnonzero(np.r_[True, np.any(ordered[1:] != ordered[:-1], axis=1)])
    counts = np.diff(np.r_[starts, len(ordered)])
    return data.CovariateDistribution(support=ordered[starts], probs=counts / counts.sum())


def _cmd_estimate(args) -> int:
    if not math.isfinite(args.null):
        raise ValueError("--null must be finite")
    scheme = _WEIGHTS[args.weights]()
    out: dict = {"weights": args.weights}
    if args.aggregates:
        aggregates, dist = _load_aggregates(args.aggregates)
    else:
        # the trials are consecutive row blocks of one table, which is the
        # pooled dataset
        pooled, sizes = data._read_trial_table(args.lines)
        if len(sizes) < 2:
            raise ValueError("need at least 2 trials in the patient-line file")
        fits, pooled_fit = _fit_trials_and_pooled(pooled, list(sizes.values()))
        aggregates = [
            estimators.TrialAggregate(
                beta_hat=f.beta_hat, covariance=f.covariance, size=size, label=label
            )
            for f, (label, size) in zip(fits, sizes.items())
        ]
        dist = _empirical_dist(pooled)
        out["pooled_mple"] = _effect_json(
            estimators.CombinedEffect(
                estimators.CombineMethod.POOLED_MPLE,
                pooled_fit.beta_hat,
                pooled_fit.covariance,
                estimators._size_shares(list(sizes.values()))[0],
            )
        )
        out["per_trial"] = [
            {
                "label": a.label,
                "n": a.size,
                "beta_hat": [float(v) for v in a.beta_hat],
                "covariance": [[float(v) for v in row] for row in a.covariance],
            }
            for a in aggregates
        ]
    out["linear_log"] = _effect_json(estimators.linear_log_hr(aggregates, scheme))
    out["linear_hr"] = _effect_json(estimators.linear_hr(aggregates, scheme, z=1.0))
    out["misspecified"] = _effect_json(estimators.theta_m_estimate(aggregates, dist))
    hm = estimators.theta_hm_estimate(aggregates, dist)
    out["harmonic_mean"] = _effect_json(hm)
    wald = estimators.wald_test(hm, null_value=args.null, component=0)
    out["wald_harmonic_mean"] = {
        "statistic": wald.statistic,
        "p_value": wald.p_value,
        "null_value": wald.null_value,
        "component": 0,
    }
    _print_json(out)
    return 0


def _load_scenario(args) -> data.ScenarioSpec:
    spec = data.scenario_from_json(args.scenario)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    return spec


def _cmd_simulate(args) -> int:
    spec = _load_scenario(args)
    datasets = data.simulate_scenario(spec, replicate=args.replicate)
    data.write_patient_csv(datasets, args.out)
    _write_manifest(args, scenario=data.scenario_to_json(spec), seed=spec.seed)
    return 0


def _parse_grid(text: str):
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        vals.append(math.inf if tok.lower() in ("inf", "none") else float(tok))
    if not vals:
        raise ValueError("empty t_max grid")
    return vals


def _cmd_sweep(args) -> int:
    spec = _load_scenario(args)
    result = analysis.bias_sweep(spec, _parse_grid(args.tmax_grid), replicates=args.replicates)
    analysis.write_sweep_csv(result, args.out)
    scenario = data.scenario_to_json(spec)
    _write_manifest(args, scenario=scenario, tmax_grid=result.t_max.tolist(), seed=spec.seed)
    return 0


def _cmd_table(args) -> int:
    result = analysis.table1_grid(p=args.p, q=args.q)
    analysis.write_grid_csv(result, args.out)
    _write_manifest(args)
    return 0


def _cmd_grid(args) -> int:
    result = analysis.figure2_grid(
        a_range=(args.a_min, args.a_max),
        b_range=(args.b_min, args.b_max),
        resolution=args.step,
        p=args.p,
        q=args.q,
    )
    analysis.write_grid_csv(result, args.out)
    _write_manifest(args)
    return 0


def _cmd_breslow(args) -> int:
    if not (math.isfinite(args.t_max) and args.t_max > 0):
        raise ValueError("--t-max must be positive and finite")
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    c_star = estimators.solve_cpl_binary(args.a, args.b, args.p, 0.5)
    t_grid = np.linspace(0.0, args.t_max, args.points)
    comparison = analysis.breslow_limit(
        args.a,
        args.b,
        args.p,
        c_star,
        t_grid,
        n_subjects=args.subjects,
        seed=args.seed,
        window=args.window,
    )
    analysis.write_breslow_csv(comparison, args.out)
    _write_manifest(args, c_star=c_star)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrmix",
        description="Combined hazard-ratio definitions, estimates, and reproduction studies "
        "for pooled survival trials with heterogeneous treatment effects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="combined-effect definitions for two binary-arm trials")
    p.add_argument("--a", type=float, required=True, help="hazard ratio of trial 1")
    p.add_argument("--b", type=float, required=True, help="hazard ratio of trial 2")
    p.add_argument("--p", type=float, required=True, help="mixing proportion of trial 1")
    p.add_argument("--q", type=float, required=True, help="treated-arm probability")
    p.add_argument(
        "--tmax-H",
        dest="tmax_H",
        type=float,
        default=None,
        help="baseline cumulative hazard at study end; adds the censored pooled limit",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("estimate", help="combined effects with variances and a Wald test")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--aggregates", help="JSON file of per-trial aggregates")
    src.add_argument("--lines", help="patient-line CSV; per-trial and pooled fits are computed")
    p.add_argument(
        "--weights",
        choices=list(_WEIGHTS),
        default=next(iter(_WEIGHTS)),
        help="weight scheme for the linear combiners (default size-proportional)",
    )
    p.add_argument("--null", type=float, default=0.0, help="null value for the Wald test")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="draw one scenario replicate to a patient-line CSV")
    p.add_argument("--scenario", required=True, help="scenario JSON config")
    p.add_argument("--out", required=True)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="censoring-bias sweep over study-end times")
    p.add_argument("--scenario", required=True, help="scenario JSON config")
    p.add_argument(
        "--tmax-grid",
        dest="tmax_grid",
        required=True,
        help="comma-separated study-end times; 'inf' means uncensored",
    )
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and has no effect: replicates are "
        "fitted in batches on one thread, and results never depend on it",
    )
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table", help="reference comparison table over the fixed (a, b) cells")
    p.add_argument("--out", required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--q", type=float, default=0.5)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("grid", help="combined-effect surfaces over a rectangular (a, b) grid")
    p.add_argument("--out", required=True)
    p.add_argument("--a-min", dest="a_min", type=float, default=0.2)
    p.add_argument("--a-max", dest="a_max", type=float, default=3.0)
    p.add_argument("--b-min", dest="b_min", type=float, default=0.2)
    p.add_argument("--b-max", dest="b_max", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--q", type=float, default=0.5)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("breslow", help="limiting pooled baseline hazard vs simulation")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, default=200)
    p.add_argument("--t-max", dest="t_max", type=float, default=2.0)
    p.add_argument("--points", type=int, default=41)
    p.set_defaults(func=_cmd_breslow)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"hrmix: input error: {exc}", file=sys.stderr)
        return 2
    except HrmixError as exc:
        print(f"hrmix: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
