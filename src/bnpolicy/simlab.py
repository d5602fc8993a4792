"""Seeded synthetic data generation and the Monte Carlo validation harness.

One replication draws covariates, a transport matrix, treatments and
outcomes from a calibrated quadratic ground truth, then evaluates six
estimator cells on the shared dataset: outcome-regression fits with the
baseline correct or degraded to linear, and doubly robust fits under the
four combinations of baseline/propensity misspecification.  Reported per
cell: the coefficient error norm, the root mean squared error of the
per-unit total effects, and 95% CI coverage for the effect coefficients.

The cells share what they read through one ``PreparedData`` per
replication, which computes each shared quantity once: the exposure H a
and the row mass, each basis kind's expansion of the covariates, the
regressors of each baseline kind, and one propensity fit per basis kind
with the exposure it implies and that exposure's sensitivity.  So a
replication fits two propensity models rather than four, and each cell
still gets the bits a fit on its own would give.

The synthetic transport matrix mixes two column populations, mirroring
real pollution-transport geometry: a minority of columns concentrated on
a covariate-defined neighborhood of outcome units, and diffuse columns
reaching a fixed number of randomly chosen units each.  Column masses
follow a lognormal quantile profile and entries carry lognormal noise.
Fully exchangeable i.i.d. matrices make the doubly robust fit
catastrophically heavy-tailed at this scale and erase the
misspecification signature of the plug-in estimator, so they are kept
only as an alternative source.

Replications where a fit fails, or where the fitted CIs are too wide to
carry any information (median coefficient standard error above
``se_fail_threshold`` on truth of magnitude ~0.05), are recorded as
failures, excluded from the means, and counted in the report.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cache, partial

import numpy as np

from ._blas import map_in_order
from ._normal import ndtri
from ._prepared import PreparedData
from .alearn import _fit_a
from .data import FeatureMap, InterferenceMap, InterventionTable, OutcomeTable, standardize
from .effects import _total_effects
from .errors import BnpolicyError, DataValidationError, EstimationError, _finite
from .propensity import calibrate_propensity_intercept, logistic
from .qlearn import OutcomeModelSpec, _fit_q
from .seeding import splitmix64

Z95 = float(ndtri(0.975))

# The basis of the ground truth: the outcome baseline, the effect and the
# propensity are all linear in it.  A cell's model in this basis is correctly
# specified, one in any other basis misspecified (see CellSpec.labels).
TRUTH_BASIS = FeatureMap("quadratic")

# Built-in reference outcome truth theta0 = (alpha0, beta0) for p = 13 outcome
# covariates: 27 + 27 coefficients of the truth basis.  Used when p = 13
# and the config gives no theta0.
THETA0_REFERENCE = np.array([
    -0.000955, 0.0288, 0.0382, -0.000148, -0.00227, 0.0167, -0.0199,
    0.0396, 0.0152, 0.0173, -0.0119, 0.0161, 0.0329, 0.0365,
    -0.0203, 0.0221, -0.0181, -0.0262, 2.170e-05, 0.0305, -0.0310,
    0.0357, -0.0187, 0.00968, 0.0204, 0.0269, 0.00420, -0.000470,
    -0.000344, -0.000490, 0.000127, 0.00115, 0.00140, 0.00118, 0.00133,
    0.00120, -0.000423, -0.000867, 0.000361, -0.00135, -0.001362, 5.567e-05,
    0.000982, -0.000606, 0.000586, -0.00121, -0.000864, -0.000517,
    -0.00135, -0.000558, 0.00103, 0.00106, 0.00117, -0.000676])


@dataclass(frozen=True)
class SimConfig:
    n: int = 2000
    j: int = 100
    p: int = 3
    q: int = 3
    snr: float = 3.0
    reps: int = 1000
    master_seed: int = 20_240_817
    target_mean_propensity: float = 0.19
    propensity_tol: float = 0.01
    target_mean_outcome: float = 0.29
    outcome_tol: float = 0.001
    theta0: np.ndarray | None = None
    gamma0: np.ndarray | None = None
    covariate_source: str = "synthetic_gaussian"
    h_source: str = "synthetic_lognormal"
    # transport-matrix shape (synthetic_lognormal source)
    h_local_frac: float = 0.15
    h_kernel_bandwidth: float = 0.2
    h_entry_log_sd: float = 0.75
    h_colmass_log_sd: float = 0.45
    h_diffuse_degree: int = 12
    se_fail_threshold: float = 2.0
    x_out: np.ndarray | None = None
    x_int: np.ndarray | None = None
    h_matrix: np.ndarray | None = None

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's text
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, numbers.Integral)):
                raise DataValidationError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool) or not isinstance(
                    value, numbers.Real) or not math.isfinite(value)):
                raise DataValidationError(f"{f.name} must be a finite number, got {value!r}")
        if self.snr <= 0:
            raise DataValidationError("snr must be positive")
        if self.reps < 1:
            raise DataValidationError("reps must be at least 1")
        if self.master_seed < 0:
            raise DataValidationError(
                f"master_seed must be a non-negative integer, got {self.master_seed!r}")
        if self.propensity_tol <= 0 or self.outcome_tol <= 0:
            raise DataValidationError("calibration tolerances must be positive")
        if not 0 < self.target_mean_propensity < 1:
            raise DataValidationError("target_mean_propensity must lie in (0, 1)")
        for key, least in (("n", 10), ("j", 2), ("p", 1), ("q", 1)):
            value = getattr(self, key)
            if value < least:
                raise DataValidationError(f"{key} must be at least {least}, got {value!r}")
        if self.covariate_source not in ("synthetic_gaussian", "user_supplied"):
            raise DataValidationError(f"unknown covariate_source {self.covariate_source!r}")
        if self.h_source not in ("synthetic_lognormal", "synthetic_lognormal_iid",
                                 "user_supplied"):
            raise DataValidationError(f"unknown h_source {self.h_source!r}")
        if not 0.0 <= self.h_local_frac < 1.0:
            raise DataValidationError("h_local_frac must lie in [0, 1)")
        if self.h_kernel_bandwidth <= 0:
            raise DataValidationError("h_kernel_bandwidth must be positive")
        if self.h_diffuse_degree < 1:
            raise DataValidationError("h_diffuse_degree must be at least 1")
        if self.h_entry_log_sd < 0:
            raise DataValidationError("h_entry_log_sd must be >= 0")
        if self.se_fail_threshold <= 0:
            raise DataValidationError("se_fail_threshold must be positive")
        n, j, p, q = self.n, self.j, self.p, self.q
        shapes = {"theta0": (2 * TRUTH_BASIS.dim(p),), "gamma0": (TRUTH_BASIS.dim(q),),
                  "x_out": (n, p), "x_int": (j, q), "h_matrix": (n, j)}
        # the source key under which each of these arrays is read when 'user_supplied'
        sources = {"x_out": "covariate_source", "x_int": "covariate_source",
                   "h_matrix": "h_source"}
        # every array is coerced and its ndim checked before any shape is, so a
        # malformed array is named before a mis-shaped one
        for name, shape in shapes.items():
            value, source = getattr(self, name), sources.get(name)
            read = source is None or getattr(self, source) == "user_supplied"
            if value is None:
                if source is not None and read:
                    raise DataValidationError(
                        f"{source} is 'user_supplied' but {name} is not given")
                continue
            if not read:
                raise DataValidationError(
                    f"{name} is given but {source} is {getattr(self, source)!r}, which "
                    f"never reads it (set {source} to 'user_supplied' to use it)")
            try:
                value = np.asarray(value, dtype=float)
            except (ValueError, TypeError):
                raise DataValidationError(
                    f"config key {name!r} must be a numeric array") from None
            if value.ndim != len(shape):
                raise DataValidationError(
                    f"{name} must be a {len(shape)}-d array, got {value.ndim}-d")
            if not np.all(np.isfinite(value)):
                raise DataValidationError(f"{name} must hold finite numbers only")
            object.__setattr__(self, name, value)
        for name, shape in shapes.items():
            value = getattr(self, name)
            if value is not None and value.shape != shape:
                raise DataValidationError(f"{name} must have shape {shape} for n={n}, "
                                          f"j={j}, p={p}, q={q}, got {value.shape}")


@dataclass(frozen=True)
class Truth:
    alpha0: np.ndarray
    beta0: np.ndarray
    gamma0: np.ndarray
    propensities: np.ndarray
    abar: np.ndarray
    expected_abar: np.ndarray
    mu: np.ndarray
    noise_sd: float
    te_true: np.ndarray


@dataclass(frozen=True)
class CellSpec:
    estimator: str            # "q" or "a"
    f0_kind: str              # basis kind for the baseline model
    prop_kind: str | None     # basis kind for the propensity model (a only)

    def labels(self) -> tuple[str, str, str]:
        """(method, baseline, propensity) report labels: a model in the truth basis
        is "correct", one in any other "misspec", and no model "-"."""
        def spec(kind):
            return "-" if kind is None else "correct" if kind == TRUTH_BASIS.kind else "misspec"
        method = "Q-learning" if self.estimator == "q" else "A-learning"
        return method, spec(self.f0_kind), spec(self.prop_kind)


CELLS: dict[str, CellSpec] = {
    "q_correct": CellSpec("q", TRUTH_BASIS.kind, None),
    "q_misspec": CellSpec("q", "linear", None),
    "a_cc": CellSpec("a", TRUTH_BASIS.kind, TRUTH_BASIS.kind),
    "a_c_misP": CellSpec("a", TRUTH_BASIS.kind, "linear"),
    "a_misB_c": CellSpec("a", "linear", TRUTH_BASIS.kind),
    "a_mis_mis": CellSpec("a", "linear", "linear"),
}


@dataclass(frozen=True)
class CellResult:
    bias: float | None
    rmse: float | None
    coverage: float | None
    fail_reason: str | None = None  # None when the fit was scored


@dataclass(frozen=True)
class CellStats:
    mean_bias: float
    mean_rmse: float
    mean_coverage: float
    n_ok: int
    n_failed: int


@dataclass(frozen=True)
class SimReport:
    cells: dict[str, CellStats]
    theta0: np.ndarray
    gamma0_slopes: np.ndarray
    reps: int
    master_seed: int


def resolve_truth_coefficients(config: SimConfig):
    """Fixed (alpha0, beta0, gamma0 slopes) for a run.

    A configured theta0 or gamma0 is used as given, but for gamma0's
    intercept, which generate_dgp calibrates.  Without one, theta0 is the
    built-in reference when p = 13, and any other vector is drawn
    uniform(-0.05, 0.05) from a seed derived from the master seed, so the
    run header can record them.
    """
    dim = TRUTH_BASIS.dim(config.p)
    rng = np.random.default_rng(splitmix64(config.master_seed, 0x7183))
    if config.theta0 is not None:
        theta0 = config.theta0
    elif 2 * dim == THETA0_REFERENCE.shape[0]:
        theta0 = THETA0_REFERENCE.copy()
    else:
        theta0 = rng.uniform(-0.05, 0.05, 2 * dim)
    if config.gamma0 is not None:
        slopes = config.gamma0[1:]
    else:
        slopes = rng.uniform(-0.05, 0.05, TRUTH_BASIS.dim(config.q) - 1)
    return theta0[:dim], theta0[dim:], slopes


@cache
def _normal_scores(size: int) -> np.ndarray:
    """Read-only standard normal quantiles at (k + 0.5) / size, k = 0 .. size - 1."""
    scores = ndtri((np.arange(size) + 0.5) / size)
    scores.flags.writeable = False
    return scores


def _smallest(keys: np.ndarray, deg: int) -> np.ndarray:
    """Mask of each row's ``deg`` smallest keys: the set ``np.argpartition`` picks.

    Each row's keys up to its deg-th smallest are exactly deg of them unless
    that key ties with another; then argpartition's own picks are taken.
    """
    chosen = keys <= np.partition(keys, deg - 1, axis=1)[:, deg - 1:deg]
    if np.any(np.count_nonzero(chosen, axis=1) != deg):
        chosen = np.zeros(keys.shape, dtype=bool)
        np.put_along_axis(chosen, np.argpartition(keys, deg - 1, axis=1)[:, :deg], True,
                          axis=1)
    return chosen


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
def _draw_h(rng, config: SimConfig, x_out) -> np.ndarray:
    """The replication's transport matrix; a synthetic one that overflows is
    an error naming the config key that scales it."""
    n, j = config.n, config.j
    if config.h_source == "user_supplied":
        return config.h_matrix
    entries = "synthetic transport matrix H", "lower h_entry_log_sd"
    if config.h_source == "synthetic_lognormal_iid":
        return _finite(rng.lognormal(0.0, config.h_entry_log_sd, (n, j)), *entries)
    # structured default: lognormal-profile column masses, a localized
    # column minority anchored to the first covariate, diffuse remainder
    # with a fixed per-row degree
    colmass = _finite(rng.permutation(np.exp(config.h_colmass_log_sd * _normal_scores(j))),
                      "column-mass profile of the synthetic H", "lower h_colmass_log_sd")
    j_loc = int(round(config.h_local_frac * j))
    n_diff = j - j_loc
    if j_loc > 0:
        centers = rng.permutation(_normal_scores(j_loc))
        u = x_out[:, 0]
        local = colmass[:j_loc] * np.exp(
            -0.5 * ((u[:, None] - centers[None, :]) / config.h_kernel_bandwidth) ** 2)
    if n_diff > 0:
        chosen = _smallest(rng.random((n, n_diff)), min(config.h_diffuse_degree, n_diff))
    # the noise becomes H in place, each cell the product of the same factors
    # in the same order: (mass * kernel) * noise on the local block, and
    # mass * noise * (0 or 1) on the diffuse one
    h = rng.lognormal(0.0, config.h_entry_log_sd, (n, j))
    if j_loc > 0:
        h[:, :j_loc] *= local
    if n_diff > 0:
        h[:, j_loc:] *= colmass[j_loc:]
        h[:, j_loc:] *= chosen
    return _finite(h, *entries)


def generate_dgp(config: SimConfig, seed: int):
    """One replication's data and ground truth.

    Covariates are standardized, the propensity intercept is calibrated
    so the average propensity hits its target within tolerance, and the
    baseline intercept is shifted so the average outcome under the
    expected exposure matches its target (the mean is affine in the
    intercept, so the shift is closed form).  Noise is Gaussian with
    variance Var(mu)/snr^2.  Both calibration postconditions are checked
    on every call.
    """
    rng = np.random.default_rng(seed)
    alpha0, beta0, gamma_slopes = resolve_truth_coefficients(config)

    if config.covariate_source == "user_supplied":
        x_out_raw, x_int_raw = config.x_out, config.x_int
    else:
        x_out_raw = rng.standard_normal((config.n, config.p))
        x_int_raw = rng.standard_normal((config.j, config.q))
    x_out = standardize(x_out_raw)
    x_int = standardize(x_int_raw)

    h = InterferenceMap(_draw_h(rng, config, x_out))

    intercept = calibrate_propensity_intercept(
        x_int, TRUTH_BASIS, gamma_slopes, config.target_mean_propensity,
        config.propensity_tol)
    gamma0 = np.concatenate([[intercept], gamma_slopes])
    e = logistic(TRUTH_BASIS.expand(x_int) @ gamma0)
    if abs(float(e.mean()) - config.target_mean_propensity) > config.propensity_tol:
        raise EstimationError("propensity calibration postcondition violated")

    a = (rng.random(config.j) < e).astype(float)
    abar = h.exposure(a)
    abar_exp = h.exposure(e)

    bx = TRUTH_BASIS.expand(x_out)
    f0_vals = bx @ alpha0
    fa_vals = bx @ beta0
    shift = config.target_mean_outcome - float(np.mean(f0_vals + abar_exp * fa_vals))
    alpha0 = alpha0.copy()
    alpha0[0] += shift
    f0_vals = f0_vals + shift
    if abs(float(np.mean(f0_vals + abar_exp * fa_vals))
           - config.target_mean_outcome) > config.outcome_tol:
        raise EstimationError("outcome calibration postcondition violated")

    mu = f0_vals + abar * fa_vals
    var_mu = float(np.var(mu, ddof=1))
    if var_mu == 0.0:
        raise EstimationError("degenerate data: Var(mu) = 0, noise level undefined")
    noise_sd = np.sqrt(var_mu) / config.snr
    y = mu + rng.normal(0.0, noise_sd, config.n)

    out = OutcomeTable(x=x_out, y=y)
    intv = InterventionTable(x=x_int, a=a)
    truth = Truth(alpha0=alpha0, beta0=beta0, gamma0=gamma0, propensities=e,
                  abar=abar, expected_abar=abar_exp, mu=mu, noise_sd=float(noise_sd),
                  te_true=h.aggregate(fa_vals))
    return out, intv, h, truth


def run_cell(data: PreparedData, truth: Truth, cell: CellSpec,
             se_fail_threshold: float = SimConfig.se_fail_threshold) -> CellResult:
    """Fit one estimator cell to a replication's prepared data and score it
    against the ground truth.

    The fit is ``fit_q`` or ``fit_a`` on the tables of ``data``, reading
    what ``data`` holds instead of computing it again.  Coverage compares
    each effect coefficient's 95% CI against the truth; when a misspecified
    basis makes the fitted vector shorter, the shared leading coordinates
    are compared.
    """
    spec = OutcomeModelSpec(basis_f0=FeatureMap(cell.f0_kind), basis_fa=TRUTH_BASIS)
    try:
        if cell.estimator == "q":
            fit = _fit_q(data, spec)
        else:
            fit = _fit_a(data, spec, FeatureMap(cell.prop_kind))
        beta = fit.beta
        cov_beta = fit.cov_beta()
    except BnpolicyError as exc:
        return CellResult(None, None, None, f"fit failed: {exc}")

    se = np.sqrt(np.clip(np.diag(cov_beta), 0.0, None))
    if float(np.median(se)) > se_fail_threshold:
        return CellResult(None, None, None,
                          "uninformative fit: median effect-coefficient standard "
                          f"error {float(np.median(se)):.3g} exceeds "
                          f"{se_fail_threshold}")

    shared = min(beta.shape[0], truth.beta0.shape[0])
    b_hat, b0 = beta[:shared], truth.beta0[:shared]
    se_s = se[:shared]
    bias = float(np.linalg.norm(b_hat - b0))
    covered = (b_hat - Z95 * se_s <= b0) & (b0 <= b_hat + Z95 * se_s)
    coverage = float(np.mean(covered) * 100.0)
    te_hat = _total_effects(data, beta, spec.basis_fa)
    rmse = float(np.sqrt(np.mean((te_hat - truth.te_true) ** 2)))
    return CellResult(bias=bias, rmse=rmse, coverage=coverage)


def run_replication(config: SimConfig, rep: int) -> dict[str, CellResult]:
    seed = splitmix64(config.master_seed, rep)
    out, intv, h, truth = generate_dgp(config, seed)
    data = PreparedData(out, intv, h)
    return {name: run_cell(data, truth, cell, config.se_fail_threshold)
            for name, cell in CELLS.items()}


def run_monte_carlo(config: SimConfig, n_workers: int = 1) -> SimReport:
    """Run the full study; deterministic for a given (config, master_seed).

    Replications are independent with per-rep seeds derived from the
    master seed, and results are aggregated in replication order; BLAS
    runs on one thread in this process and in every worker.  So the report
    is bitwise identical for any worker count and any BLAS thread count.
    The pool has at most one worker per replication and per usable CPU.
    """
    alpha0, beta0, gamma_slopes = resolve_truth_coefficients(config)
    per_rep = map_in_order(partial(run_replication, config), range(config.reps), n_workers)

    cells = {}
    for name in CELLS:
        ok = [rep[name] for rep in per_rep if rep[name].fail_reason is None]
        # a cell with no scored replication has NaN means
        means = [float(np.mean([getattr(res, key) for res in ok])) if ok else float("nan")
                 for key in ("bias", "rmse", "coverage")]
        cells[name] = CellStats(*means, n_ok=len(ok), n_failed=len(per_rep) - len(ok))
    return SimReport(cells=cells, theta0=np.concatenate([alpha0, beta0]),
                     gamma0_slopes=gamma_slopes, reps=config.reps,
                     master_seed=config.master_seed)
