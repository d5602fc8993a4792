"""Treatment-cost imputation: linear and forest models picked by validation NMAE.

Only a subset of intervention units has observed installation costs; a
model trained on them predicts costs for the rest.  Candidate models are
scored by normalized mean absolute error on a held-out split, the winner
is refit on all labeled rows, and predictions are clipped at zero.  A
validation score or prediction that overflows, or a zero validation
prediction, is an error that names the model and the input to rescale.

The regression forest is self-contained: bootstrap per tree, a random
feature subset per split, variance-reduction splitting, and node-purity
importance (summed SSE reduction per feature, averaged over trees).  Most
of its time goes to numpy calls on small nodes, so the grower makes few
per node: a node holds its covariates one contiguous row per feature, a
child gathers them only when it is large enough to split, and when the
subset is a single feature (as it is for q <= 3) the draws come from the
tree's generator in blocks.  Prediction walks ``TREE_BLOCK`` trees down
together, one numpy pass per level.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._blas import map_in_order
from .errors import DataValidationError, EstimationError, SingularSystemError, _finite
from .seeding import splitmix64

NMAE_DENOM_GUARD = 1e-12
RESCALE_PLANTS = "rescale the costs or covariates of the plant table"  # when a model fails
FEATURE_BLOCK = 64  # one-feature split draws taken from a tree's generator at once
TREE_BLOCK = 32  # trees RegressionForest.predict walks down together


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


def _best_split(cols, y, features, min_leaf, mean, cuts):
    """(feature, threshold, sse_reduction) of the best variance-reducing split.

    ``cols`` holds the node's covariates, one contiguous row per feature.  A
    cut after sorted row k leaves k + 1 rows on the left, so only the cuts
    k in [min_leaf - 1, n - min_leaf) are scored, and none between equal values.
    ``mean`` is y's mean, ``np.add.reduce(y) / n``, which the caller has already,
    and ``cuts`` holds the left and right row counts of those cuts (``_cut_sizes``).
    """
    n = y.shape[0]
    parent_sse = float(np.add.reduce((y - mean) ** 2))
    lo, hi = min_leaf - 1, n - min_leaf
    sizes, rest = cuts
    best = None
    for f in features:
        col = cols[f]
        order = col.argsort(kind="stable")
        xs, ys = col[order], y[order]
        csum, csq = ys.cumsum(), (ys**2).cumsum()
        left_sum, left_sq = csum[lo:hi], csq[lo:hi]
        left_sse = left_sq - left_sum**2 / sizes
        right_sse = (csq[-1] - left_sq) - (csum[-1] - left_sum)**2 / rest
        red = np.where(xs[lo:hi] < xs[lo + 1:hi + 1],
                       parent_sse - (left_sse + right_sse), -np.inf)
        k = int(red.argmax())
        if red[k] <= 1e-12:
            continue
        if best is None or red[k] > best[2]:
            best = (f, float(0.5 * (xs[lo + k] + xs[lo + k + 1])), float(red[k]))
    return best


def _cut_sizes(span, n, min_leaf):
    """(left rows, right rows) of each cut ``_best_split`` scores in n rows, as
    views of ``span`` = ``np.arange(m + 1.0)`` for any m >= n."""
    return span[min_leaf:n - min_leaf + 1], span[n - min_leaf:min_leaf - 1:-1]


class RegressionTree:
    """Variance-reduction CART for regression, no depth cap.

    The tree is five flat arrays in preorder, ``nodes`` = (feature,
    threshold, left, right, value): rows with x[feature] <= threshold go to
    node ``left``, the others to ``right``, and a leaf has feature -1 and
    its rows' mean as value.  Nodes grow depth first, and each split draws
    its candidate features from the tree's one generator: when one feature
    is drawn, the next of a block of ``integers(q, size=FEATURE_BLOCK)``,
    which consumes the stream exactly as that many ``choice(q, 1,
    replace=False)`` calls do and returns the same features, else ``choice``
    without replacement.  A node holds its covariates one contiguous row per
    feature, and a child too small to split gathers only its targets.
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
        min_split = 2 * self.min_leaf
        rng = np.random.default_rng(self.seed)
        drawn = iter(())  # one-feature draws not used yet
        feature, threshold, left, right, value = [], [], [], [], []
        self.importance_ = np.zeros(q)
        # a node's covariates (None when it is too small to split) and rows,
        # and the split it is the right child of
        stack = [(np.ascontiguousarray(x.T), y, -1)]
        span = np.arange(y.shape[0] + 1.0)  # every node's cut sizes are views of it
        while stack:
            node_x, node_y, parent = stack.pop()
            node = len(value)
            if parent >= 0:
                right[parent] = node
            n = node_y.shape[0]
            mean = np.add.reduce(node_y) / n
            value.append(float(mean))
            best = None
            if n >= min_split and np.count_nonzero(node_y != node_y[0]):
                if n_features == 1:
                    f = next(drawn, None)
                    if f is None:
                        drawn = iter(rng.integers(q, size=FEATURE_BLOCK).tolist())
                        f = next(drawn)
                    features = (f,)
                else:
                    features = rng.choice(q, size=n_features, replace=False)
                best = _best_split(node_x, node_y, features, self.min_leaf, mean,
                                   _cut_sizes(span, n, self.min_leaf))
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
            goes_left = node_x[f] <= thr
            for rows, right_of in ((~goes_left, node), (goes_left, -1)):
                child_y = node_y[rows]
                child_x = (node_x.compress(rows, axis=1) if child_y.shape[0] >= min_split
                           else None)
                stack.append((child_x, child_y, right_of))
        self.nodes = (np.array(feature), np.array(threshold), np.array(left),
                      np.array(right), np.array(value))
        return self

    def predict(self, x):
        """Leaf value of each row: the one-tree case of ``_walk``."""
        return _walk([self], np.asarray(x, dtype=float))[0]


def _walk(trees, x):
    """Leaf value of each row of ``x`` in each of ``trees``, one row of the
    result per tree.

    The trees' node arrays are laid end to end, and every (tree, row) pair
    still above a leaf steps down one level per numpy pass.
    """
    m = x.shape[0]
    counts = [tree.nodes[0].shape[0] for tree in trees]
    roots = np.cumsum([0] + counts[:-1])
    feature, threshold, left, right, value = (
        np.concatenate(arrays) for arrays in zip(*(tree.nodes for tree in trees)))
    shift = np.repeat(roots, counts)
    left, right = left + shift, right + shift
    at = np.repeat(roots, m)
    row = np.tile(np.arange(m), len(trees))
    live = np.flatnonzero(feature[at] >= 0)
    while live.size:
        node = at[live]
        step = np.where(x[row[live], feature[node]] <= threshold[node], left[node], right[node])
        at[live] = step
        live = live[feature[step] >= 0]
    return value[at].reshape(len(trees), m)


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
        """Mean of the trees' predictions, walked down ``TREE_BLOCK`` trees at a
        time and added in tree order."""
        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape[0])
        for start in range(0, len(self.trees), TREE_BLOCK):
            for leaf_values in _walk(self.trees[start:start + TREE_BLOCK], x):
                acc += leaf_values
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


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
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
        predicted = make().fit(x[train], c[train]).predict(x[val])
        if np.any(np.abs(predicted) < NMAE_DENOM_GUARD):
            raise DataValidationError(f"the {kind} cost model predicts a zero cost on the "
                                      f"validation split, so its NMAE is undefined; "
                                      f"{RESCALE_PLANTS}")
        scores[kind] = _finite(nmae(c[val], predicted), f"{kind} cost model's validation NMAE",
                               RESCALE_PLANTS)
    leaderboard = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    winner = leaderboard[0][0]
    final = candidates[winner]().fit(x, c)
    importance = final.importance_.copy() if winner == "forest" else None
    return (CostModelFit(model_kind=winner, model=final,
                         nmae_validation=scores[winner], importance=importance),
            leaderboard)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
def predict_costs(fit: CostModelFit, x):
    """Predicted costs for unlabeled units, clipped below at zero.

    Returns (costs, n_clipped); a nonzero clip count is worth surfacing
    since negative fitted costs indicate extrapolation.
    """
    x = np.asarray(x, dtype=float)
    raw = _finite(fit.model.predict(x), f"{fit.model_kind} cost model's predicted cost",
                  RESCALE_PLANTS)
    clipped = np.clip(raw, 0.0, None)
    return clipped, int(np.sum(raw < 0.0))
