"""Seeded synthetic data generation and the Monte Carlo validation harness.

One replication draws covariates, a transport matrix, treatments and
outcomes from a calibrated quadratic ground truth, then evaluates six
estimator cells on the shared dataset: outcome-regression fits with the
baseline correct or degraded to linear, and doubly robust fits under the
four combinations of baseline/propensity misspecification.  Reported per
cell: the coefficient error norm, the root mean squared error of the
per-unit total effects, and 95% CI coverage for the effect coefficients.

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

import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._blas import one_blas_thread, pin_one_thread
from .data import FeatureMap, InterferenceMap, InterventionTable, OutcomeTable, fit_standardizer
from .effects import total_effects
from .errors import BnpolicyError, DataValidationError, EstimationError
from .exposure import exposure_map
from .propensity import calibrate_propensity_intercept, logistic
from .qlearn import OutcomeModelSpec, fit_q
from .seeding import splitmix64
from .alearn import fit_a

Z95 = float(ndtri(0.975))

# Built-in reference coefficient vectors for the 13-outcome-covariate
# configuration (27+27 entries; intervention-model vector of 12).  Used
# verbatim when the configured widths allow, seeded-uniform otherwise.
THETA0_REFERENCE = np.array([
    -0.000955, 0.0288, 0.0382, -0.000148, -0.00227, 0.0167, -0.0199,
    0.0396, 0.0152, 0.0173, -0.0119, 0.0161, 0.0329, 0.0365,
    -0.0203, 0.0221, -0.0181, -0.0262, 2.170e-05, 0.0305, -0.0310,
    0.0357, -0.0187, 0.00968, 0.0204, 0.0269, 0.00420, -0.000470,
    -0.000344, -0.000490, 0.000127, 0.00115, 0.00140, 0.00118, 0.00133,
    0.00120, -0.000423, -0.000867, 0.000361, -0.00135, -0.001362, 5.567e-05,
    0.000982, -0.000606, 0.000586, -0.00121, -0.000864, -0.000517,
    -0.00135, -0.000558, 0.00103, 0.00106, 0.00117, -0.000676])
GAMMA0_REFERENCE = np.array([
    -0.681, 0.131, -0.704, 0.386, 0.334, 0.424,
    0.00141, -0.00471, 0.010, -0.0140, -0.0107, -1.449])


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
        for name in ("n", "j", "p", "q", "reps", "master_seed", "h_diffuse_degree"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DataValidationError(f"{name} must be an integer, got {value!r}")
        if self.snr <= 0:
            raise DataValidationError("snr must be positive")
        if self.reps < 1:
            raise DataValidationError("reps must be at least 1")
        if self.propensity_tol <= 0 or self.outcome_tol <= 0:
            raise DataValidationError("calibration tolerances must be positive")
        if not 0 < self.target_mean_propensity < 1:
            raise DataValidationError("target_mean_propensity must lie in (0, 1)")
        if self.n < 10 or self.j < 2 or self.p < 1 or self.q < 1:
            raise DataValidationError("n, j, p, q out of range")
        if self.covariate_source not in ("synthetic_gaussian", "user_supplied"):
            raise DataValidationError(f"unknown covariate_source {self.covariate_source!r}")
        if self.h_source not in ("synthetic_lognormal", "synthetic_lognormal_iid",
                                 "user_supplied"):
            raise DataValidationError(f"unknown h_source {self.h_source!r}")
        if not 0.0 <= self.h_local_frac < 1.0:
            raise DataValidationError("h_local_frac must lie in [0, 1)")
        if self.se_fail_threshold <= 0:
            raise DataValidationError("se_fail_threshold must be positive")


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


CELLS: dict[str, CellSpec] = {
    "q_correct": CellSpec("q", "quadratic", None),
    "q_misspec": CellSpec("q", "linear", None),
    "a_cc": CellSpec("a", "quadratic", "quadratic"),
    "a_c_misP": CellSpec("a", "quadratic", "linear"),
    "a_misB_c": CellSpec("a", "linear", "quadratic"),
    "a_mis_mis": CellSpec("a", "linear", "linear"),
}


@dataclass(frozen=True)
class CellResult:
    bias: float | None
    rmse: float | None
    coverage: float | None
    failed: bool
    fail_reason: str | None = None


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

    Reference vectors are used when the configured widths match them;
    otherwise coefficients are drawn uniform(-0.05, 0.05) from a seed
    derived from the master seed, so the run header can record them.
    """
    dim = 1 + 2 * config.p
    rng = np.random.default_rng(splitmix64(config.master_seed, 0x7183))
    if config.theta0 is not None:
        theta0 = np.asarray(config.theta0, dtype=float)
        if theta0.shape[0] != 2 * dim:
            raise DataValidationError(
                f"theta0 must have length {2 * dim} for p={config.p}")
    elif 2 * dim == THETA0_REFERENCE.shape[0]:
        theta0 = THETA0_REFERENCE.copy()
    else:
        theta0 = rng.uniform(-0.05, 0.05, 2 * dim)
    gdim = 1 + 2 * config.q
    if config.gamma0 is not None:
        gamma0 = np.asarray(config.gamma0, dtype=float)
        if gamma0.shape[0] != gdim:
            raise DataValidationError(
                f"gamma0 must have length {gdim} for q={config.q}")
        slopes = gamma0[1:]
    elif gdim == GAMMA0_REFERENCE.shape[0]:
        slopes = GAMMA0_REFERENCE[1:]
    else:
        slopes = rng.uniform(-0.05, 0.05, gdim - 1)
    return theta0[:dim], theta0[dim:], slopes


def _draw_h(rng, config: SimConfig, x_out) -> np.ndarray:
    n, j = config.n, config.j
    if config.h_source == "user_supplied":
        if config.h_matrix is None:
            raise DataValidationError("h_source is user_supplied but h_matrix is None")
        return np.asarray(config.h_matrix, dtype=float)
    if config.h_source == "synthetic_lognormal_iid":
        return rng.lognormal(0.0, config.h_entry_log_sd, (n, j))
    # structured default: lognormal-profile column masses, a localized
    # column minority anchored to the first covariate, diffuse remainder
    # with a fixed per-row degree
    zgrid = ndtri((np.arange(j) + 0.5) / j)
    colmass = rng.permutation(np.exp(config.h_colmass_log_sd * zgrid))
    j_loc = int(round(config.h_local_frac * j))
    load = np.zeros((n, j))
    if j_loc > 0:
        centers = rng.permutation(ndtri((np.arange(j_loc) + 0.5) / j_loc))
        u = x_out[:, 0]
        load[:, :j_loc] = np.exp(
            -0.5 * ((u[:, None] - centers[None, :]) / config.h_kernel_bandwidth) ** 2)
    n_diff = j - j_loc
    deg = min(config.h_diffuse_degree, n_diff)
    if n_diff > 0 and deg > 0:
        # only the set of the deg smallest keys per row matters, not their order
        pick = np.argpartition(rng.random((n, n_diff)), deg - 1, axis=1)[:, :deg]
        rows = np.repeat(np.arange(n), deg)
        load[rows, j_loc + pick.ravel()] = 1.0
    return colmass[None, :] * load * rng.lognormal(0.0, config.h_entry_log_sd, (n, j))


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
        if config.x_out is None or config.x_int is None:
            raise DataValidationError("covariate_source is user_supplied but x_out/x_int are None")
        x_out_raw = np.asarray(config.x_out, dtype=float)
        x_int_raw = np.asarray(config.x_int, dtype=float)
    else:
        x_out_raw = rng.standard_normal((config.n, config.p))
        x_int_raw = rng.standard_normal((config.j, config.q))
    x_out = fit_standardizer(x_out_raw).apply(x_out_raw)
    x_int = fit_standardizer(x_int_raw).apply(x_int_raw)

    h = InterferenceMap(_draw_h(rng, config, x_out))

    prop_basis = FeatureMap("quadratic")
    intercept = calibrate_propensity_intercept(
        x_int, prop_basis, gamma_slopes, config.target_mean_propensity,
        config.propensity_tol)
    gamma0 = np.concatenate([[intercept], gamma_slopes])
    e = logistic(prop_basis.expand(x_int) @ gamma0)
    if abs(float(e.mean()) - config.target_mean_propensity) > config.propensity_tol:
        raise EstimationError("propensity calibration postcondition violated")

    a = (rng.random(config.j) < e).astype(float)
    abar = h.h @ a / config.j
    abar_exp = h.h @ e / config.j

    out_basis = FeatureMap("quadratic")
    bx = out_basis.expand(x_out)
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
                  te_true=total_effects(h, out, beta0, out_basis))
    return out, intv, h, truth


def run_cell(out: OutcomeTable, intv: InterventionTable, h: InterferenceMap,
             truth: Truth, cell: CellSpec,
             se_fail_threshold: float = 2.0) -> CellResult:
    """Fit one estimator cell and score it against the ground truth.

    Coverage compares each effect coefficient's 95% CI against the truth;
    when a misspecified basis makes the fitted vector shorter, the shared
    leading coordinates are compared.
    """
    spec = OutcomeModelSpec(basis_f0=FeatureMap(cell.f0_kind),
                            basis_fa=FeatureMap("quadratic"))
    try:
        if cell.estimator == "q":
            fit = fit_q(out, exposure_map(h, intv.a), spec)
        else:
            fit = fit_a(out, intv, h, spec, prop_basis=FeatureMap(cell.prop_kind))
        beta = fit.beta
        cov_beta = fit.cov_beta()
    except BnpolicyError as exc:
        return CellResult(None, None, None, True, f"fit failed: {exc}")
    except np.linalg.LinAlgError as exc:
        return CellResult(None, None, None, True, f"linear algebra failure: {exc}")

    se = np.sqrt(np.clip(np.diag(cov_beta), 0.0, None))
    if float(np.median(se)) > se_fail_threshold:
        return CellResult(None, None, None, True,
                          "uninformative fit: median effect-coefficient standard "
                          f"error {float(np.median(se)):.3g} exceeds "
                          f"{se_fail_threshold}")

    shared = min(beta.shape[0], truth.beta0.shape[0])
    b_hat, b0 = beta[:shared], truth.beta0[:shared]
    se_s = se[:shared]
    bias = float(np.linalg.norm(b_hat - b0))
    covered = (b_hat - Z95 * se_s <= b0) & (b0 <= b_hat + Z95 * se_s)
    coverage = float(np.mean(covered) * 100.0)
    te_hat = total_effects(h, out, beta, spec.basis_fa)
    rmse = float(np.sqrt(np.mean((te_hat - truth.te_true) ** 2)))
    return CellResult(bias=bias, rmse=rmse, coverage=coverage, failed=False)


def run_replication(config: SimConfig, rep: int) -> dict[str, CellResult]:
    seed = splitmix64(config.master_seed, rep)
    out, intv, h, truth = generate_dgp(config, seed)
    return {name: run_cell(out, intv, h, truth, cell, config.se_fail_threshold)
            for name, cell in CELLS.items()}


def _worker(args):
    config, rep = args
    return rep, run_replication(config, rep)


def run_monte_carlo(config: SimConfig, n_workers: int = 1) -> SimReport:
    """Run the full study; deterministic for a given (config, master_seed).

    Replications are independent with per-rep seeds derived from the
    master seed, and results are aggregated in replication order; BLAS
    runs on one thread in this process and in every worker.  So the report
    is bitwise identical for any worker count and any BLAS thread count.
    The pool has at most one worker per replication and per CPU.
    """
    if not isinstance(n_workers, numbers.Integral) or n_workers < 1:
        raise DataValidationError(
            f"n_workers must be a positive integer, got {n_workers!r}")
    alpha0, beta0, gamma_slopes = resolve_truth_coefficients(config)
    n_workers = min(n_workers, config.reps, os.cpu_count() or 1)
    with one_blas_thread():
        if n_workers > 1:
            with ProcessPoolExecutor(max_workers=n_workers,
                                     initializer=pin_one_thread) as pool:
                results = dict(pool.map(
                    _worker, ((config, r) for r in range(config.reps)),
                    chunksize=max(1, config.reps // (4 * n_workers))))
            per_rep = [results[r] for r in range(config.reps)]
        else:
            per_rep = [run_replication(config, r) for r in range(config.reps)]

    cells = {}
    for name in CELLS:
        biases, rmses, coverages = [], [], []
        n_failed = 0
        for rep_result in per_rep:
            res = rep_result[name]
            if res.failed:
                n_failed += 1
            else:
                biases.append(res.bias)
                rmses.append(res.rmse)
                coverages.append(res.coverage)
        if not biases:
            cells[name] = CellStats(float("nan"), float("nan"), float("nan"),
                                    0, n_failed)
        else:
            cells[name] = CellStats(mean_bias=float(np.mean(biases)),
                                    mean_rmse=float(np.mean(rmses)),
                                    mean_coverage=float(np.mean(coverages)),
                                    n_ok=len(biases), n_failed=n_failed)
    return SimReport(cells=cells, theta0=np.concatenate([alpha0, beta0]),
                     gamma0_slopes=gamma_slopes, reps=config.reps,
                     master_seed=config.master_seed)
