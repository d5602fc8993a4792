"""Treatment-cost imputation: linear and forest models picked by validation NMAE.

Only a subset of intervention units has observed installation costs; a
model trained on them predicts costs for the rest.  Candidate models are
scored by normalized mean absolute error on a held-out split, the winner
is refit on all labeled rows, and predictions are clipped at zero.

The regression forest is self-contained: bootstrap per tree, a random
feature subset per split (one scalar draw when the subset is a single
feature, as it is for q <= 3), variance-reduction splitting, and
node-purity importance (summed SSE reduction per feature, averaged over
trees).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._blas import map_in_order
from .errors import DataValidationError, EstimationError, SingularSystemError
from .seeding import splitmix64

NMAE_DENOM_GUARD = 1e-12


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataValidationError("train_fraction must lie in (0, 1)")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise DataValidationError(f"seed must be a non-negative integer, got {self.seed!r}")


def split_train_val(n_labeled: int, spec: SplitSpec):
    """Seeded shuffle split: first ceil(fraction * m) rows train, rest validate."""
    if n_labeled < 5:
        raise DataValidationError(f"need at least 5 labeled rows, got {n_labeled}")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n_labeled)
    n_train = math.ceil(spec.train_fraction * n_labeled)
    if n_train >= n_labeled:
        n_train = n_labeled - 1
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def nmae(actual, predicted) -> float:
    """Mean of |C - C_hat| / |C_hat|; the denominator is the prediction."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise DataValidationError("actual and predicted must have equal length")
    if np.any(np.abs(predicted) < NMAE_DENOM_GUARD):
        raise DataValidationError("zero prediction: NMAE undefined")
    return float(np.mean(np.abs(actual - predicted) / np.abs(predicted)))


def _best_split(x, y, features, min_leaf, mean):
    """(feature, threshold, sse_reduction) of the best variance-reducing split.

    A cut after sorted row k leaves k + 1 rows on the left, so only the cuts
    k in [min_leaf - 1, n - min_leaf) are scored, and none between equal values.
    ``mean`` is y's mean, ``np.add.reduce(y) / n``, which the caller has already.
    """
    n = y.shape[0]
    parent_sse = float(np.add.reduce((y - mean) ** 2))
    lo, hi = min_leaf - 1, n - min_leaf
    sizes = np.arange(min_leaf, hi + 1)  # left rows of each scored cut
    best = None
    for f in features:
        col = x[:, f]
        order = col.argsort(kind="stable")
        xs, ys = col[order], y[order]
        csum, csq = ys.cumsum(), (ys**2).cumsum()
        left_sum, left_sq = csum[lo:hi], csq[lo:hi]
        left_sse = left_sq - left_sum**2 / sizes
        right_sse = (csq[-1] - left_sq) - (csum[-1] - left_sum)**2 / (n - sizes)
        red = np.where(xs[lo:hi] < xs[lo + 1:hi + 1],
                       parent_sse - (left_sse + right_sse), -np.inf)
        k = int(red.argmax())
        if red[k] <= 1e-12:
            continue
        if best is None or red[k] > best[2]:
            best = (f, float(0.5 * (xs[lo + k] + xs[lo + k + 1])), float(red[k]))
    return best


class RegressionTree:
    """Variance-reduction CART for regression, no depth cap.

    The tree is five flat arrays in preorder, ``nodes`` = (feature,
    threshold, left, right, value): rows with x[feature] <= threshold go to
    node ``left``, the others to ``right``, and a leaf has feature -1 and
    its rows' mean as value.  Nodes grow depth first, and each split draws
    its candidate features from the tree's one generator: one scalar
    ``integers(q)`` when one feature is drawn, which consumes the stream
    exactly as ``choice(q, 1, replace=False)`` does and returns the same
    feature, else ``choice`` without replacement.
    """

    def __init__(self, min_leaf=5, max_features=None, seed=0):
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.seed = seed
        self.nodes = None
        self.importance_ = None

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        q = x.shape[1]
        n_features = min(self.max_features or q, q)
        rng = np.random.default_rng(self.seed)
        feature, threshold, left, right, value = [], [], [], [], []
        self.importance_ = np.zeros(q)
        stack = [(x, y, -1)]  # a node's rows, and the split it is the right child of
        while stack:
            node_x, node_y, parent = stack.pop()
            node = len(value)
            if parent >= 0:
                right[parent] = node
            n = node_y.shape[0]
            mean = np.add.reduce(node_y) / n
            value.append(float(mean))
            best = None
            if n >= 2 * self.min_leaf and (node_y != node_y[0]).any():
                if n_features == 1:  # the bits of choice(q, 1, replace=False), 4x faster
                    features = (rng.integers(q),)
                else:
                    features = rng.choice(q, size=n_features, replace=False)
                best = _best_split(node_x, node_y, features, self.min_leaf, mean)
            if best is None:
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                continue
            f, thr, red = best
            self.importance_[f] += red
            feature.append(f)
            threshold.append(thr)
            left.append(node + 1)
            right.append(-1)
            mask = node_x[:, f] <= thr
            stack.append((node_x[~mask], node_y[~mask], node))
            stack.append((node_x[mask], node_y[mask], -1))
        self.nodes = (np.array(feature), np.array(threshold), np.array(left),
                      np.array(right), np.array(value))
        return self

    def predict(self, x):
        """Leaf value of each row: every row still above a leaf steps down one
        level per numpy pass."""
        x = np.asarray(x, dtype=float)
        feature, threshold, left, right, value = self.nodes
        at = np.zeros(x.shape[0], dtype=np.intp)
        live = np.flatnonzero(feature[at] >= 0)
        while live.size:
            node = at[live]
            step = np.where(x[live, feature[node]] <= threshold[node], left[node], right[node])
            at[live] = step
            live = live[feature[step] >= 0]
        return value[at]


def _bagged_tree(x, y, max_features, tree_seed):
    """One forest tree, grown on its own bootstrap draw of the rows."""
    n = y.shape[0]
    idx = np.random.default_rng(splitmix64(tree_seed, 1)).integers(0, n, n)
    return RegressionTree(max_features=max_features, seed=tree_seed).fit(x[idx], y[idx])


class RegressionForest:
    """Bagged trees, each on a bootstrap sample with max(1, ceil(q / 3)) features per split.

    Tree t is grown from seed ``splitmix64(seed, t)``, in a pool of
    ``n_workers`` processes when that is above 1; importances and
    predictions are summed in tree order, so every bit of the fit is the
    same for any worker count.
    """

    def __init__(self, n_trees=500, seed=0, n_workers=1):
        self.n_trees = n_trees
        self.seed = seed
        self.n_workers = n_workers
        self.trees: list[RegressionTree] = []
        self.importance_ = None

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        q = x.shape[1]
        grow = partial(_bagged_tree, x, y, max(1, math.ceil(q / 3)))
        self.trees = map_in_order(grow, (splitmix64(self.seed, t) for t in range(self.n_trees)),
                                  self.n_workers)
        self.importance_ = np.zeros(q)
        for tree in self.trees:
            self.importance_ += tree.importance_
        self.importance_ /= self.n_trees
        return self

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape[0])
        for tree in self.trees:
            acc += tree.predict(x)
        return acc / len(self.trees)


class LinearModel:
    """Ordinary least squares with an intercept."""

    def __init__(self):
        self.coef = None

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        if design.shape[0] < design.shape[1]:
            raise EstimationError(
                f"too few labeled rows ({x.shape[0]}) for {design.shape[1]} "
                "linear parameters")
        try:
            self.coef, *_ = np.linalg.lstsq(design, np.asarray(y, dtype=float), rcond=None)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"the linear cost model's SVD failed: {exc}") from exc
        return self

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        return np.hstack([np.ones((x.shape[0], 1)), x]) @ self.coef


@dataclass(frozen=True)
class CostModelFit:
    model_kind: str
    model: object
    nmae_validation: float
    importance: np.ndarray | None


def fit_cost_models(x, c, spec: SplitSpec, n_trees=500, n_workers=1):
    """Train candidates, pick the lower validation NMAE, refit on all rows.

    The forest grows its trees in ``n_workers`` processes; the result is the
    same for any worker count.

    Returns (selected CostModelFit, leaderboard), where the leaderboard is
    the validation ranking as (kind, nmae) pairs ordered by (nmae, kind).
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    if c.size == 0:
        raise DataValidationError("no observed costs to train on")
    if np.all(c == c[0]):
        raise EstimationError("constant cost target: nothing to model")
    train, val = split_train_val(c.shape[0], spec)

    candidates = {
        "linear": lambda: LinearModel(),
        "forest": lambda: RegressionForest(n_trees=n_trees, seed=splitmix64(spec.seed, 0xF0),
                                           n_workers=n_workers),
    }
    scores = {}
    for kind, make in candidates.items():
        model = make().fit(x[train], c[train])
        scores[kind] = nmae(c[val], model.predict(x[val]))
    leaderboard = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    winner = leaderboard[0][0]
    final = candidates[winner]().fit(x, c)
    importance = final.importance_.copy() if winner == "forest" else None
    return (CostModelFit(model_kind=winner, model=final,
                         nmae_validation=scores[winner], importance=importance),
            leaderboard)


def predict_costs(fit: CostModelFit, x):
    """Predicted costs for unlabeled units, clipped below at zero.

    Returns (costs, n_clipped); a nonzero clip count is worth surfacing
    since negative fitted costs indicate extrapolation.
    """
    x = np.asarray(x, dtype=float)
    raw = fit.model.predict(x)
    clipped = np.clip(raw, 0.0, None)
    return clipped, int(np.sum(raw < 0.0))
