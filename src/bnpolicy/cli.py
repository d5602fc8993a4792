"""Command-line surface.

Subcommands: simulate, fit, effects, policy, sweep, impute-costs.
Exit codes: 0 success, 2 validation failure, 3 numerical failure, 4 I/O.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields as dataclass_fields, replace

import numpy as np
from scipy.special import ndtr, ndtri

from . import io as bio
from ._blas import one_blas_thread
from .alearn import fit_a
from .data import FeatureMap, validate_bundle
from .effects import effect_table
from .errors import (BnpolicyError, DataValidationError, EstimationError,
                     RankDeficiencyError, SingularSystemError)
from .exposure import exposure_map
from .costimpute import SplitSpec, fit_cost_models, predict_costs
from .policy import (budget_sweep, knapsack_policy, policy_value, te_ranked_policy,
                     truncate_fractional, unconstrained_policy)
from .propensity import apply_trim, fit_propensity, trim_by_propensity
from .qlearn import OutcomeModelSpec, fit_q
from .simlab import SimConfig, run_monte_carlo

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _load_sim_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataValidationError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from exc
    known = {f.name for f in dataclass_fields(SimConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise DataValidationError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("theta0", "gamma0"):
        if key in doc and doc[key] is not None:
            doc[key] = np.asarray(doc[key], dtype=float)
    try:
        return SimConfig(**doc)
    except TypeError as exc:
        raise DataValidationError(f"bad config value: {exc}") from exc


def _read_bundle(args):
    _, out = bio.read_outcome_csv(args.outcomes)
    ids, intv, _ = bio.read_intervention_csv(args.interventions)
    h = bio.read_interference_csv(args.h, n=out.n, j=intv.j)
    report = validate_bundle(h, out, intv)
    if not report.ok:
        raise DataValidationError("invalid bundle:\n  " + "\n  ".join(report.issues))
    return ids, out, intv, h


def _model_spec(args) -> OutcomeModelSpec:
    return OutcomeModelSpec(basis_f0=FeatureMap(args.f0_basis),
                            basis_fa=FeatureMap(args.fa_basis))


def _fit_estimator(args, out, intv, h, ids):
    """Trim (when asked) and fit; ``ids`` name the intervention units kept."""
    spec = _model_spec(args)
    if args.trim is not None:
        prop = fit_propensity(intv.x, intv.a, FeatureMap(args.prop_basis))
        report = trim_by_propensity(prop, args.trim)
        h, intv = apply_trim(h, intv, report)
        ids = [ids[k] for k in report.kept]
    if args.estimator == "q":
        fit = fit_q(out, exposure_map(h, intv.a), spec)
    else:
        fit = fit_a(out, intv, h, spec, prop_basis=FeatureMap(args.prop_basis))
    return fit, spec, intv, h, ids


def _coef_report(path, prefix, names, estimates, cov, level):
    if not 0.0 < level < 1.0:
        raise DataValidationError("confidence level must lie in (0, 1)")
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    z = ndtri(0.5 + level / 2.0)
    safe = np.where(se > 0, se, 1.0)
    p = np.where(se > 0, 2.0 * ndtr(-np.abs(estimates) / safe),
                 (estimates == 0).astype(float))
    bio.write_coefficients_csv(path, [f"{prefix}{n}" for n in names], estimates, se,
                               estimates - z * se, estimates + z * se, p)


def _basis_names(basis: FeatureMap, width: int, stem: str):
    blocks = {"linear": ("",), "quadratic": ("", "^2"),
              "cubic": ("", "^2", "^3"), "trig": ("", ":sin", ":cos")}[basis.kind]
    names = ["intercept"]
    for suffix in blocks:
        names.extend(f"{stem}{k + 1}{suffix}" for k in range(width))
    return names


def _worker_count(threads) -> int:
    """Worker count from ``--threads``, else ``BNPOLICY_THREADS`` (default 1)."""
    name, raw = (("--threads", str(threads)) if threads is not None else
                 ("BNPOLICY_THREADS", os.environ.get("BNPOLICY_THREADS", "1")))
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise DataValidationError(f"{name} must be a positive integer, got {raw!r}")
    return count


def cmd_simulate(args) -> int:
    config = _load_sim_config(args.config)
    threads = _worker_count(args.threads)
    report = run_monte_carlo(config, n_workers=threads)
    os.makedirs(args.out_dir, exist_ok=True)
    bio.write_sim_report(os.path.join(args.out_dir, "sim_report.json"),
                         os.path.join(args.out_dir, "sim_report.txt"), report)
    print(open(os.path.join(args.out_dir, "sim_report.txt"), encoding="utf-8").read(),
          end="")
    return EXIT_OK


def cmd_fit(args) -> int:
    ids, out, intv, h = _read_bundle(args)
    fit, spec, intv, _, _ = _fit_estimator(args, out, intv, h, ids)
    os.makedirs(args.out_dir, exist_ok=True)
    f0_names = _basis_names(spec.basis_f0, out.p, "x")
    fa_names = _basis_names(spec.basis_fa, out.p, "x")
    names = [f"f0:{n}" for n in f0_names] + [f"fa:{n}" for n in fa_names]
    cov = fit.cov_theta if args.estimator == "q" else fit.cov_alphabeta
    _coef_report(os.path.join(args.out_dir, "outcome_coefficients.csv"), "",
                 names, fit.theta, cov, args.level)
    if args.estimator == "a" and fit.gamma_fit is not None:
        g = fit.gamma_fit
        gcov = np.diag(g.standard_errors() ** 2)
        gnames = _basis_names(g.basis, intv.q, "z")
        _coef_report(os.path.join(args.out_dir, "propensity_coefficients.csv"),
                     "e:", gnames, g.gamma, gcov, args.level)
    print(f"fit written to {args.out_dir}")
    return EXIT_OK


def _effects_for(args, out, intv, h, ids):
    fit, spec, intv, h, ids = _fit_estimator(args, out, intv, h, ids)
    table = effect_table(h, out, fit.beta, fit.cov_beta(), spec.basis_fa,
                         cost=intv.cost, level=args.level)
    return fit, spec, table, intv, h, ids


def cmd_effects(args) -> int:
    ids, out, intv, h = _read_bundle(args)
    _, _, table, _, _, ids = _effects_for(args, out, intv, h, ids)
    os.makedirs(args.out_dir, exist_ok=True)
    bio.write_effects_csv(os.path.join(args.out_dir, "effects.csv"), ids, table)
    print(f"effects written to {args.out_dir}; note: one-sided p-values are "
          "exploratory and carry no multiplicity correction")
    return EXIT_OK


def cmd_policy(args) -> int:
    ids, out, intv, h = _read_bundle(args)
    if intv.cost is None:
        raise DataValidationError("policy command needs a complete cost column")
    fit, spec, table, intv, h, ids = _effects_for(args, out, intv, h, ids)
    te = table.total_effect
    if args.budget_frac is None:
        sol = unconstrained_policy(te, out.n, cost=intv.cost)
    else:
        budget = args.budget_frac * float(intv.cost.sum())
        make = knapsack_policy if args.method == "bc" else te_ranked_policy
        sol = make(te, intv.cost, budget, out.n)
        if args.integral:
            sol = truncate_fractional(sol, te, intv.cost, out.n)
    if out.person_years is not None:
        rate, count = policy_value(te, sol.pi, out.n, h=h, out=out, beta=fit.beta,
                                   basis_fa=spec.basis_fa)
        sol = replace(sol, value_rate=rate, value_count=count)
    os.makedirs(args.out_dir, exist_ok=True)
    bio.write_policy_json(os.path.join(args.out_dir, "policy.json"), sol, ids)
    print(f"policy ({sol.method}) value_rate={sol.value_rate!r} spent={sol.spent!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        fractions = [float(v) for v in args.fractions.split(",")]
    except ValueError as exc:
        raise DataValidationError(f"bad --fractions value: {exc}") from None
    ids, out, intv, h = _read_bundle(args)
    if intv.cost is None:
        raise DataValidationError("sweep command needs a complete cost column")
    _, _, table, intv, _, _ = _effects_for(args, out, intv, h, ids)
    pairs = budget_sweep(table.total_effect, intv.cost, fractions, out.n)
    dominance = all(bc.value_rate <= te.value_rate + 1e-12 for bc, te in pairs)
    os.makedirs(args.out_dir, exist_ok=True)
    bio.write_sweep_csv(os.path.join(args.out_dir, "sweep.csv"), fractions, pairs,
                        dominance)
    print(f"sweep written to {args.out_dir}; dominance_holds={dominance}")
    return EXIT_OK


def cmd_impute_costs(args) -> int:
    ids, intv, raw_cost = bio.read_intervention_csv(args.interventions)
    if raw_cost is None:
        raise DataValidationError("intervention file has no cost column to impute")
    observed = ~np.isnan(raw_cost)
    if observed.all():
        raise DataValidationError("no missing costs to impute")
    fit, leaderboard = fit_cost_models(intv.x[observed], raw_cost[observed],
                                       SplitSpec(train_fraction=args.train_fraction,
                                                 seed=args.seed))
    predicted, n_clipped = predict_costs(fit, intv.x[~observed])
    costs = raw_cost.copy()
    costs[~observed] = predicted
    os.makedirs(args.out_dir, exist_ok=True)
    bio.write_imputed_costs_csv(os.path.join(args.out_dir, "imputed_costs.csv"),
                                ids, observed, costs)
    with open(os.path.join(args.out_dir, "leaderboard.csv"), "w", encoding="utf-8") as fh:
        fh.write("# bnpolicy-cost-leaderboard v1\nmodel,nmae\n")
        for kind, score in leaderboard:
            fh.write(f"{kind},{score!r}\n")
    if fit.importance is not None:
        with open(os.path.join(args.out_dir, "importance.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("# bnpolicy-cost-importance v1\nfeature,importance\n")
            for k, v in enumerate(fit.importance):
                fh.write(f"z{k + 1},{v!r}\n")
    if n_clipped:
        print(f"warning: {n_clipped} negative predictions clipped to 0")
    print(f"selected {fit.model_kind} (validation NMAE {fit.nmae_validation!r}); "
          f"total cost {float(np.sum(costs))!r}")
    return EXIT_OK


def _add_bundle_args(sp):
    sp.add_argument("--outcomes", required=True)
    sp.add_argument("--interventions", required=True)
    sp.add_argument("--h", required=True)
    sp.add_argument("--estimator", choices=("q", "a"), default="a")
    sp.add_argument("--f0-basis", default="linear", dest="f0_basis")
    sp.add_argument("--fa-basis", default="linear", dest="fa_basis")
    sp.add_argument("--prop-basis", default="linear", dest="prop_basis")
    sp.add_argument("--trim", type=float, default=None,
                    help="propensity trim quantile, e.g. 0.05")
    sp.add_argument("--level", type=float, default=0.95)
    sp.add_argument("--out-dir", required=True, dest="out_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnpolicy",
        description="Doubly robust effect estimation and budgeted treatment "
                    "allocation over a bipartite interference network")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run the Monte Carlo validation study")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out-dir", required=True, dest="out_dir")
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("fit", help="fit outcome and propensity models")
    _add_bundle_args(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("effects", help="per-unit total effects with inference")
    _add_bundle_args(sp)
    sp.set_defaults(func=cmd_effects)

    sp = sub.add_parser("policy", help="budgeted or unconstrained allocation")
    _add_bundle_args(sp)
    sp.add_argument("--budget-frac", type=float, default=None, dest="budget_frac")
    sp.add_argument("--method", choices=("bc", "te"), default="bc")
    sp.add_argument("--integral", action="store_true")
    sp.set_defaults(func=cmd_policy)

    sp = sub.add_parser("sweep", help="budget sweep with the naive comparator")
    _add_bundle_args(sp)
    sp.add_argument("--fractions",
                    default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("impute-costs", help="fill in missing treatment costs")
    sp.add_argument("--interventions", required=True)
    sp.add_argument("--train-fraction", type=float, default=0.8,
                    dest="train_fraction")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", required=True, dest="out_dir")
    sp.set_defaults(func=cmd_impute_costs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with one_blas_thread():
            return args.func(args)
    except (RankDeficiencyError, SingularSystemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataValidationError, EstimationError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BnpolicyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
