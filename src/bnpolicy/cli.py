"""Command-line surface.

Subcommands: simulate, fit, effects, policy, sweep, impute-costs.
Exit codes: 0 success, 2 validation failure, 3 numerical failure, 4 I/O.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
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


# a fitted bundle: ids of the intervention units kept, the outcome and
# intervention tables, H, the QFit or AFit and its OutcomeModelSpec
_Run = namedtuple("_Run", "ids out intv h fit spec")


def _fit_bundle(args, need_cost=False) -> _Run:
    """Read and validate the bundle, trim it when ``--trim`` is given, and fit.

    ``need_cost`` rejects an intervention file without a complete cost
    column before the transport file is read.
    """
    _, out = bio.read_outcome_csv(args.outcomes)
    ids, intv, _ = bio.read_intervention_csv(args.interventions)
    if need_cost and intv.cost is None:
        raise DataValidationError(f"{args.command} command needs a complete cost column")
    h = bio.read_interference_csv(args.h, n=out.n, j=intv.j)
    report = validate_bundle(h, out, intv)
    if not report.ok:
        raise DataValidationError("invalid bundle:\n  " + "\n  ".join(report.issues))
    spec = OutcomeModelSpec(basis_f0=FeatureMap(args.f0_basis),
                            basis_fa=FeatureMap(args.fa_basis))
    if args.trim is not None:
        prop = fit_propensity(intv.x, intv.a, FeatureMap(args.prop_basis))
        trim = trim_by_propensity(prop, args.trim)
        h, intv = apply_trim(h, intv, trim)
        ids = [ids[k] for k in trim.kept]
    if args.estimator == "q":
        fit = fit_q(out, exposure_map(h, intv.a), spec)
    else:
        fit = fit_a(out, intv, h, spec, prop_basis=FeatureMap(args.prop_basis))
    return _Run(ids, out, intv, h, fit, spec)


def _effect_table(run, level):
    return effect_table(run.h, run.out, run.fit.beta, run.fit.cov_beta(),
                        run.spec.basis_fa, cost=run.intv.cost, level=level)


def _out_path(args, name) -> str:
    """Path of output file ``name``, creating ``--out-dir`` if needed."""
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _coef_report(path, names, estimates, cov, level):
    if not 0.0 < level < 1.0:
        raise DataValidationError("confidence level must lie in (0, 1)")
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    z = ndtri(0.5 + level / 2.0)
    safe = np.where(se > 0, se, 1.0)
    p = np.where(se > 0, 2.0 * ndtr(-np.abs(estimates) / safe),
                 (estimates == 0).astype(float))
    bio.write_coefficients_csv(path, names, estimates, se,
                               estimates - z * se, estimates + z * se, p)


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
    report = run_monte_carlo(config, n_workers=_worker_count(args.threads))
    print(bio.write_sim_report(_out_path(args, "sim_report.json"),
                               _out_path(args, "sim_report.txt"), report), end="")
    return EXIT_OK


def cmd_fit(args) -> int:
    run = _fit_bundle(args)
    fit, spec = run.fit, run.spec
    names = ([f"f0:{n}" for n in spec.basis_f0.names(run.out.p, "x")]
             + [f"fa:{n}" for n in spec.basis_fa.names(run.out.p, "x")])
    cov = fit.cov_theta if args.estimator == "q" else fit.cov_alphabeta
    _coef_report(_out_path(args, "outcome_coefficients.csv"), names, fit.theta, cov,
                 args.level)
    if args.estimator == "a" and fit.gamma_fit is not None:
        g = fit.gamma_fit
        _coef_report(_out_path(args, "propensity_coefficients.csv"),
                     [f"e:{n}" for n in g.basis.names(run.intv.q, "z")], g.gamma,
                     np.diag(g.standard_errors() ** 2), args.level)
    print(f"fit written to {args.out_dir}")
    return EXIT_OK


def cmd_effects(args) -> int:
    run = _fit_bundle(args)
    bio.write_effects_csv(_out_path(args, "effects.csv"), run.ids,
                          _effect_table(run, args.level))
    print(f"effects written to {args.out_dir}; note: one-sided p-values are "
          "exploratory and carry no multiplicity correction")
    return EXIT_OK


def cmd_policy(args) -> int:
    run = _fit_bundle(args, need_cost=True)
    te, cost, n = _effect_table(run, args.level).total_effect, run.intv.cost, run.out.n
    if args.budget_frac is None:
        sol = unconstrained_policy(te, n, cost=cost)
    else:
        budget = args.budget_frac * float(cost.sum())
        make = knapsack_policy if args.method == "bc" else te_ranked_policy
        sol = make(te, cost, budget, n)
        if args.integral:
            sol = truncate_fractional(sol, te, cost, n)
    if run.out.person_years is not None:
        rate, count = policy_value(te, sol.pi, n, h=run.h, out=run.out, beta=run.fit.beta,
                                   basis_fa=run.spec.basis_fa)
        sol = replace(sol, value_rate=rate, value_count=count)
    bio.write_policy_json(_out_path(args, "policy.json"), sol, run.ids)
    print(f"policy ({sol.method}) value_rate={sol.value_rate!r} spent={sol.spent!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        fractions = [float(v) for v in args.fractions.split(",")]
    except ValueError as exc:
        raise DataValidationError(f"bad --fractions value: {exc}") from None
    run = _fit_bundle(args, need_cost=True)
    pairs = budget_sweep(_effect_table(run, args.level).total_effect, run.intv.cost,
                         fractions, run.out.n)
    dominance = all(bc.value_rate <= te.value_rate + 1e-12 for bc, te in pairs)
    bio.write_sweep_csv(_out_path(args, "sweep.csv"), fractions, pairs, dominance)
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
    bio.write_imputed_costs_csv(_out_path(args, "imputed_costs.csv"), ids, observed, costs)
    bio.write_leaderboard_csv(_out_path(args, "leaderboard.csv"), leaderboard)
    if fit.importance is not None:
        bio.write_importance_csv(_out_path(args, "importance.csv"), fit.importance)
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
