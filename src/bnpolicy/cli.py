"""Command-line surface.

Subcommands: simulate, fit, effects, policy, sweep, impute-costs.
Exit codes: 0 success, 2 validation failure, 3 numerical failure, 4 I/O.

Each command imports the modules it runs inside its own body, so it loads
no other module of the package, and none of them loads scipy.  The imports
stay local and are never bound to this module's globals: a profiler that
swaps module attributes for a while must see every later call go through
the current attribute.  Only the commands that run LAPACK (``simulate``
and ``--estimator q``) load the OpenBLAS bundled with scipy, before any
fork; the others never map it.

Where the process may run on more than one CPU, a bundle command (fit,
effects, policy, sweep) forks a child at its start that parses the first
three quarters of a regular transport file while the command imports its
fit modules and reads the two unit tables.  Where it would have read the
file, the command parses the rest and joins the child's rows to it, so
outputs, messages and exit codes are the same on one CPU or more; where
either part fails, the command reads the whole file itself.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from dataclasses import fields as dataclass_fields

import numpy as np

from . import io as bio
from ._blas import _lapack, one_blas_thread, usable_cpus
from .errors import (BnpolicyError, DataValidationError, EstimationError,
                     RankDeficiencyError, SingularSystemError, _finite)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _load_sim_config(path):
    from .simlab import SimConfig

    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataValidationError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise DataValidationError(f"{path}: not UTF-8 text") from exc
    if not isinstance(doc, dict):
        raise DataValidationError(f"config must be a JSON object, got {type(doc).__name__}")
    known = {f.name for f in dataclass_fields(SimConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise DataValidationError(f"unknown config keys: {', '.join(unknown)}")
    return SimConfig(**doc)


# a fitted bundle: ids of the intervention units kept, the PreparedData of
# the outcome and intervention tables and H, and the OutcomeFit or AFit
_Run = namedtuple("_Run", "ids data fit")


def _fit_bundle(args, need_cost=False) -> _Run:
    """Read and validate the bundle, trim it when ``--trim`` is given, and fit.

    ``need_cost`` rejects an intervention file without a complete cost
    column before the transport file is read; ``--trim``, ``--level`` and
    the three basis kinds are checked before any file is.  On more than one
    CPU, a forked child parses most of a regular transport file while this
    process imports the fit modules and reads the two tables
    (``io.parsing_in_child``); its rows are taken where the transport file
    is read, so every error comes in the same order.  The fit fills the
    returned PreparedData, and each command reads the effect basis FA from
    it rather than expanding it again.
    """
    from .data import FeatureMap, validate_bundle

    if args.trim is not None and not 0.0 <= args.trim < 1.0:
        raise DataValidationError("trim quantile must lie in [0, 1)")
    if not 0.0 < getattr(args, "level", 0.5) < 1.0:
        raise DataValidationError("confidence level must lie in (0, 1)")
    f0_basis, fa_basis, prop_basis = (FeatureMap(kind) for kind in (
        args.f0_basis, args.fa_basis, args.prop_basis))
    if args.estimator == "q":
        _lapack()  # its library starts a helper thread as it loads; the fork stops it
    with bio.parsing_in_child(args.h, usable_cpus() > 1) as h_path:
        from .alearn import _fit_a
        from .prepared import PreparedData
        from .propensity import apply_trim, fit_propensity, trim_by_propensity
        from .qlearn import OutcomeModelSpec, fit_q

        _, out = bio.read_outcome_csv(args.outcomes)
        ids, intv, _ = bio.read_intervention_csv(args.interventions)
        if need_cost and intv.cost is None:
            raise DataValidationError(f"{args.command} command needs a complete cost column")
        h = bio.read_interference_csv(h_path, n=out.n, j=intv.j)
    issues = validate_bundle(h, out, intv)
    if issues:
        raise DataValidationError("invalid bundle: " + "; ".join(issues))
    if args.trim is not None:
        trim = trim_by_propensity(fit_propensity(intv.x, intv.a, prop_basis), args.trim)
        h, intv = apply_trim(h, intv, trim)
        ids = [ids[k] for k in trim.kept]
    data = PreparedData(out, intv, h)
    spec = OutcomeModelSpec(basis_f0=f0_basis, basis_fa=fa_basis)
    if args.estimator == "q":
        fit = fit_q(data, spec)
    else:
        fit = _fit_a(data, spec, prop_basis)
    return _Run(ids, data, fit)


def _out_path(args, name) -> str:
    """Path of output file ``name``, creating ``--out-dir`` if needed."""
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _coef_report(path, names, estimates, se, level):
    from ._normal import ndtr, ndtri

    z = ndtri(0.5 + level / 2.0)
    safe = np.where(se > 0, se, 1.0)
    p = np.where(se > 0, 2.0 * ndtr(-np.abs(estimates) / safe),
                 (estimates == 0).astype(float))
    bio.write_coefficients_csv(path, names, estimates, se,
                               estimates - z * se, estimates + z * se, p)


def cmd_simulate(args) -> int:
    from .simlab import run_monte_carlo

    if args.threads < 1:
        raise DataValidationError(f"--threads must be a positive integer, got '{args.threads}'")
    report = run_monte_carlo(_load_sim_config(args.config), n_workers=args.threads)
    print(bio.write_sim_report(_out_path(args, "sim_report.json"),
                               _out_path(args, "sim_report.txt"), report), end="")
    return EXIT_OK


def cmd_fit(args) -> int:
    run = _fit_bundle(args)
    fit, p = run.fit, run.data.out.p
    names = ([f"f0:{n}" for n in fit.spec.basis_f0.names(p, "x")]
             + [f"fa:{n}" for n in fit.spec.basis_fa.names(p, "x")])
    _coef_report(_out_path(args, "outcome_coefficients.csv"), names, fit.theta,
                 fit.standard_errors(), args.level)
    if args.estimator == "a":  # the fit estimated the propensity model
        g = fit.gamma_fit
        _coef_report(_out_path(args, "propensity_coefficients.csv"),
                     [f"e:{n}" for n in g.basis.names(run.data.intv.q, "z")], g.gamma,
                     g.standard_errors(), args.level)
    print(f"fit written to {args.out_dir}")
    return EXIT_OK


def cmd_effects(args) -> int:
    from .effects import effect_table

    run = _fit_bundle(args)
    table = effect_table(run.data, run.fit.beta, run.fit.cov_beta(),
                         run.fit.spec.basis_fa, run.data.intv.cost, args.level)
    bio.write_effects_csv(_out_path(args, "effects.csv"), run.ids, table)
    print(f"effects written to {args.out_dir}; note: one-sided p-values are "
          "exploratory and carry no multiplicity correction")
    return EXIT_OK


def cmd_policy(args) -> int:
    from .effects import total_effects
    from .policy import (knapsack_policy, policy_count, te_ranked_policy,
                         truncate_fractional, unconstrained_policy)

    if args.budget_frac is None:
        for flag, given in (("--method", args.method), ("--integral", args.integral)):
            if given:
                raise DataValidationError(f"{flag} needs --budget-frac")
    elif not 0.0 <= args.budget_frac < np.inf:
        raise DataValidationError("budget fraction must be finite and >= 0")
    run = _fit_bundle(args, need_cost=True)
    beta, basis_fa = run.fit.beta, run.fit.spec.basis_fa
    te = total_effects(run.data, beta, basis_fa)
    cost, n = run.data.intv.cost, run.data.out.n
    if args.budget_frac is None:
        sol = unconstrained_policy(te, n, cost=cost)
    else:
        budget = args.budget_frac * float(cost.sum())
        make = te_ranked_policy if args.method == "te" else knapsack_policy
        sol = make(te, cost, budget, n)
        if args.integral:
            sol = truncate_fractional(sol, te, cost, n)
    count = (None if run.data.out.person_years is None
             else policy_count(sol.pi, run.data, beta, basis_fa))
    bio.write_policy_json(_out_path(args, "policy.json"), sol, run.ids, count)
    print(f"policy ({sol.method}) value_rate={sol.value_rate!r} spent={sol.spent!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .effects import total_effects
    from .policy import budget_fractions, budget_sweep

    try:
        fractions = [float(v) for v in args.fractions.split(",")]
    except ValueError as exc:
        raise DataValidationError(f"bad --fractions value: {exc}") from None
    fractions = budget_fractions(fractions)
    run = _fit_bundle(args, need_cost=True)
    pairs = budget_sweep(total_effects(run.data, run.fit.beta, run.fit.spec.basis_fa),
                         run.data.intv.cost, fractions, run.data.out.n)
    # the ratio ranking is optimal, so its value is at most the naive one's,
    # up to the rounding of the two sums
    bc_leq_te = [bc.value_rate <= te.value_rate + 1e-12 for bc, te in pairs]
    bio.write_sweep_csv(_out_path(args, "sweep.csv"), fractions, pairs, bc_leq_te)
    print(f"sweep written to {args.out_dir}; dominance_holds={all(bc_leq_te)}")
    return EXIT_OK


def cmd_impute_costs(args) -> int:
    from .costimpute import RESCALE_PLANTS, SplitSpec, fit_cost_models, predict_costs

    spec = SplitSpec(train_fraction=args.train_fraction, seed=args.seed)
    ids, intv, raw_cost = bio.read_intervention_csv(args.interventions)
    if raw_cost is None:
        raise DataValidationError("intervention file has no cost column to impute")
    observed = ~np.isnan(raw_cost)
    if observed.all():
        raise DataValidationError("no missing costs to impute")
    fit, leaderboard = fit_cost_models(intv.x[observed], raw_cost[observed], spec,
                                       n_workers=usable_cpus())
    predicted, n_clipped = predict_costs(fit, intv.x[~observed])
    costs = raw_cost.copy()
    costs[~observed] = predicted
    with np.errstate(over="ignore"):  # an overflow is reported here
        total = float(_finite(np.sum(costs), "total cost", RESCALE_PLANTS))
    bio.write_imputed_costs_csv(_out_path(args, "imputed_costs.csv"), ids, observed, costs)
    bio.write_leaderboard_csv(_out_path(args, "leaderboard.csv"), leaderboard)
    if fit.importance is not None:
        bio.write_importance_csv(_out_path(args, "importance.csv"), fit.importance)
    if n_clipped:
        print(f"warning: {n_clipped} negative predictions clipped to 0")
    print(f"selected {fit.model_kind} (validation NMAE {fit.nmae_validation!r}); "
          f"total cost {total!r}")
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
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes for the replications (default 1); "
                         "the output bytes are the same for any count")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("fit", help="fit outcome and propensity models")
    _add_bundle_args(sp)
    sp.add_argument("--level", type=float, default=0.95)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("effects", help="per-unit total effects with inference")
    _add_bundle_args(sp)
    sp.add_argument("--level", type=float, default=0.95)
    sp.set_defaults(func=cmd_effects)

    sp = sub.add_parser("policy", help="budgeted or unconstrained allocation")
    _add_bundle_args(sp)
    sp.add_argument("--budget-frac", type=float, default=None, dest="budget_frac")
    sp.add_argument("--method", choices=("bc", "te"), default=None,
                    help="greedy ranking under --budget-frac (default bc)")
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
