"""Treatment-cost imputation: linear and forest models picked by validation NMAE.

Only a subset of intervention units has observed installation costs; a
model trained on them predicts costs for the rest.  Candidate models are
scored by normalized mean absolute error on a held-out split, the winner
is refit on all labeled rows, and predictions are clipped at zero.  A
validation score or prediction that overflows, or a zero validation
prediction, is an error that names the model and the input to rescale.

The regression forest is self-contained: bootstrap per tree, a random
feature subset per split, variance-reduction splitting, and node-purity
importance (summed SSE reduction per feature, averaged over trees).  Its
nodes are small and numpy calls cost more than their arithmetic, so
``TREE_BLOCK`` trees grow in lockstep: each step takes the next node of
every tree in the block, in that tree's own depth-first preorder, and
searches their splits in one set of padded 2-D arrays.  A block keeps
its trees' rows in one buffer that each split reorders in place, so a
node is a range of rows.  A tree draws its split features from its own
generator, in blocks when the subset is a single feature (as it is for
q <= 3), and grows to the same bits in any block.  The grower builds each
block packed as the walk reads it (``_Block``): three arrays over the
block's nodes and one importance row per tree, never an object per tree,
and the forest keeps the blocks as built.  A ``RegressionTree`` holds a
block of one.  Prediction walks a block's trees down together, one numpy
pass per level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._blas import map_in_order, usable_cpus
from .errors import (DataValidationError, EstimationError, SingularSystemError, _finite,
                     _integer)
from .seeding import splitmix64

NMAE_DENOM_GUARD = 1e-12
RESCALE_PLANTS = "rescale the costs or covariates of the plant table"  # when a model fails
FEATURE_BLOCK = 64  # one-feature split draws taken from a tree's generator at once
TREE_BLOCK = 32  # forest trees grown together, and walked down together by predict
BLOCK_ROWS = 16384  # most rows a block of growing trees holds; bounds its padded arrays
MIN_LEAF = 5  # fewest rows on each side of a forest tree's split


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataValidationError("train_fraction must lie in (0, 1)")
        _integer(self.seed, "seed", least=0)


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


def _checked_rows(x, y):
    """``x`` and ``y`` as floats, checked to be n >= 1 rows of q >= 1 covariates
    and one target per row."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or 0 in x.shape:
        raise DataValidationError(f"x must be an (n, q) array with n, q >= 1, "
                                  f"got shape {x.shape}")
    if y.shape != x.shape[:1]:
        raise DataValidationError(f"y must hold one target per row of x ({x.shape[0]}), "
                                  f"got shape {y.shape}")
    return x, y


class _Block(NamedTuple):
    """Trees packed end to end in preorder, as the walk reads them.

    A split node sends rows with x[feature] <= cut to the next node and the
    others to node ``right``, an index into the block; a leaf has feature
    -1, its value as cut and right -1.  ``roots`` is where each tree starts,
    and ``importance`` holds one row of SSE reductions per tree.
    """

    feature: np.ndarray  # int32
    cut: np.ndarray      # threshold at a split, value at a leaf
    right: np.ndarray    # int32
    roots: np.ndarray    # int32
    importance: np.ndarray  # (trees, q)


class RegressionTree:
    """Variance-reduction CART for regression, no depth cap.

    The fitted tree is ``block``, a ``_Block`` of one tree, and its
    importances ``importance_``.  Nodes grow depth first, and each split draws
    its candidate features from the tree's one generator: when one feature
    is drawn, the next of a block of ``integers(q, size=FEATURE_BLOCK)``,
    which consumes the stream exactly as that many ``choice(q, 1,
    replace=False)`` calls do and returns the same features, else ``choice``
    without replacement.  A split's threshold is the midpoint of the two
    values it falls between, or the lower value where the midpoint rounds
    outside them (next to +inf, say), so rows always go where the split was
    scored.  Trees grow in blocks (``_grow``); ``fit`` grows a block of one,
    and ``predict`` walks it as a forest's blocks are walked.
    """

    def __init__(self, min_leaf=MIN_LEAF, max_features=None, seed=0):
        self.min_leaf = _integer(min_leaf, "min_leaf")
        self.max_features = (None if max_features is None
                             else _integer(max_features, "max_features"))
        self.seed = _integer(seed, "seed", least=0)
        self.block = None
        self.importance_ = None

    def fit(self, x, y):
        x, y = _checked_rows(x, y)
        # copies, never the caller's arrays: the grower reorders its rows in place
        self.block = _grow([self.seed], self.min_leaf, self.max_features,
                           np.array(x.T, order="C"), y.copy(), [(0, y.shape[0])])
        self.importance_ = self.block.importance[0]
        return self

    def predict(self, x):
        return _walk(self.block, np.asarray(x, dtype=float))[0]


class _Growing:
    """A tree while its block grows: its generator, the one-feature draws it
    has not used yet, its stack of nodes to visit, each (first row, end row,
    the split it is the right child of), and its node lists and importances."""

    __slots__ = ("rng", "drawn", "stack", "nodes", "importance")

    def __init__(self, seed, start, end, q):
        self.rng = np.random.default_rng(seed)
        self.drawn = iter(())
        self.stack = [(start, end, -1)]
        self.nodes = ([], [], [])  # feature, cut, right (an index within the tree)
        self.importance = [0.0] * q

    def features(self, q, n_features):
        """The candidate features of the tree's next split."""
        if n_features > 1:
            return self.rng.choice(q, size=n_features, replace=False).tolist()
        f = next(self.drawn, None)
        if f is None:
            self.drawn = iter(self.rng.integers(q, size=FEATURE_BLOCK).tolist())
            f = next(self.drawn)
        return (f,)


def _grow(seeds, min_leaf, max_features, cols, y, spans) -> _Block:
    """The ``_Block`` of one tree per seed: tree i grows from generator
    ``seeds[i]`` on the rows ``spans[i]`` = (start, end) of ``cols`` (the
    covariates, one contiguous row per feature) and ``y``.

    Each split reorders its node's rows in place, its right child's rows
    first, each child's in their order in the node, so every node's rows
    are one contiguous range.  The trees grow in lockstep.  Each step, every
    tree still growing pops nodes in its own depth-first preorder: a node
    too small to split becomes a leaf whose value waits for the end, and
    the first node large enough ends the tree's turn.  ``_search`` then
    scores all the popped nodes at once, and ``_partition`` splits them.
    At the end, the leaves of each size get their means from one row-wise
    ``np.add.reduce``, which sums each row as it sums the row alone, and
    each tree's right indices are offset by its root in the block.
    """
    q = cols.shape[0]
    min_split = 2 * min_leaf
    n_features = min(max_features or q, q)
    everyone = [_Growing(seed, start, end, q) for seed, (start, end) in zip(seeds, spans)]
    leaves = {}  # rows -> (cut list, node, first row) of each leaf waiting for its mean
    growing = everyone
    while growing:
        popped = []  # (tree, node, first row, end row)
        for growth in growing:
            feature, cut, right = growth.nodes
            stack = growth.stack
            while stack:
                start, end, parent = stack.pop()
                node = len(cut)
                if parent >= 0:
                    right[parent] = node
                feature.append(-1)
                cut.append(0.0)
                right.append(-1)
                if end - start < min_split:
                    leaves.setdefault(end - start, []).append((cut, node, start))
                else:
                    popped.append((growth, node, start, end))
                    break
        if popped:
            splits, rows, goes_left = _search(popped, cols, y, n_features, min_leaf)
            if splits:
                _partition(popped, splits, rows, goes_left, cols, y)
        growing = [growth for growth in growing if growth.stack]
    for n, waiting in leaves.items():
        rows = np.array([start for *_, start in waiting])[:, None] + np.arange(n)
        means = np.add.reduce(y.take(rows), axis=1) / n
        for (cut, node, _), mean in zip(waiting, means.tolist()):
            cut[node] = mean
    counts = [len(grown.nodes[0]) for grown in everyone]
    roots = np.cumsum([0] + counts[:-1])
    feature, cut, right = (np.concatenate(column)
                           for column in zip(*(grown.nodes for grown in everyone)))
    return _Block(feature.astype(np.int32), cut,
                  np.where(feature >= 0, right + np.repeat(roots, counts), -1).astype(np.int32),
                  roots.astype(np.int32), np.array([grown.importance for grown in everyone]))


def _search(popped, cols, y, n_features, min_leaf):
    """Record each popped node's mean as its cut and search its best
    variance-reducing split.  Returns the splits found, each (node's index
    in ``popped``, its pair's index, feature, threshold, SSE reduction), the
    rows of their nodes one node after another, and which of those rows go
    left.

    The search runs on every (node, candidate feature) pair at once, one
    padded row each.  The covariates are padded with NaN, so a stable row
    sort keeps a node's own NaNs ahead of the padding and its rows sort as
    they would alone; the targets repeat a node's first one.  A cut after
    sorted row k leaves k + 1 rows on the left, and only the cuts k in
    [min_leaf - 1, n - min_leaf) between unequal values are scored.  Each
    node's mean and parent SSE are 1-D sums of its own rows, since a sum
    over a padded row would add in another order.
    """
    q, n_cols = cols.shape
    starts = [start for _, _, start, _ in popped]
    n_rows = [end - start for _, _, start, end in popped]
    width = max(n_rows)
    counts = np.array(n_rows)
    span = np.arange(width)
    inside = span < counts[:, None]
    grid = np.array(starts)[:, None] + span  # each node's rows, then the padding
    y_pad = y.take(grid, mode="clip")
    np.copyto(y_pad, y_pad[:, :1], where=~inside)
    varies = (y_pad != y_pad[:, :1]).any(axis=1).tolist()
    means = np.array([np.add.reduce(y[start:start + n])
                      for start, n in zip(starts, n_rows)]) / counts
    for (growth, node, _, _), mean in zip(popped, means.tolist()):
        growth.nodes[1][node] = mean
    deviation = y_pad - means[:, None]
    deviation **= 2
    pairs, pair_f, parent_sse, tried = [], [], [], []
    for r, vary in enumerate(varies):
        if vary:
            features = popped[r][0].features(q, n_features)
            tried.append((r, features))
            sse = np.add.reduce(deviation[r, :n_rows[r]])
            for f in features:
                pairs.append(r)
                pair_f.append(f)
                parent_sse.append(sse)
    del deviation  # each padded array goes once read, which holds a block's peak down
    if not pairs:
        return [], None, None
    pair_inside = inside[pairs]
    x_pad = cols.take(grid[pairs] + (np.array(pair_f) * n_cols)[:, None], mode="clip")
    np.copyto(x_pad, np.nan, where=~pair_inside)
    row_at = np.arange(0, len(pairs) * width, width)  # where each pair's row starts, flat
    order = x_pad.argsort(axis=1, kind="stable")
    order += row_at[:, None]
    xs = x_pad.take(order)
    ys = y_pad[pairs].take(order)
    del order, y_pad
    csum = ys.cumsum(1)
    ys **= 2
    csq = ys.cumsum(1, out=ys)
    n = counts[pairs]
    last = row_at + n - 1
    lo, hi = min_leaf - 1, width - min_leaf
    sizes = np.arange(min_leaf, hi + 1.0)  # left rows of each cut
    left_sum, left_sq = csum[:, lo:hi], csq[:, lo:hi]
    red = left_sum**2
    red /= sizes
    np.subtract(left_sq, red, out=red)  # left SSE
    right = csum.take(last)[:, None] - left_sum
    right **= 2
    rest = n[:, None] - sizes
    right /= np.maximum(rest, 1.0, out=rest)  # a cut past a node's rows is not scored
    np.subtract(np.subtract(csq.take(last)[:, None], left_sq, out=rest), right,
                out=right)  # right SSE
    red += right
    np.subtract(np.array(parent_sse)[:, None], red, out=red)
    del csum, csq, ys, right, rest, left_sum, left_sq
    scored = xs[:, lo:hi] < xs[:, lo + 1:hi + 1]
    scored &= pair_inside[:, 2 * min_leaf - 1:]  # min_leaf rows right of the cut
    np.copyto(red, -np.inf, where=~scored)
    k = red.argmax(axis=1)
    best_red = red.max(axis=1).tolist()
    below = xs.take(row_at + lo + k)
    above = xs.take(row_at + lo + k + 1)
    with np.errstate(over="ignore"):  # an overflowing midpoint falls back below
        mid = 0.5 * (below + above)
    best_thr = np.where((below <= mid) & (mid < above), mid, below).tolist()
    splits, i = [], 0
    for r, features in tried:
        best = None
        for f in features:
            if not best_red[i] <= 1e-12 and (best is None or best_red[i] > best[4]):
                best = (r, i, f, best_thr[i], best_red[i])
            i += 1
        if best is not None:
            splits.append(best)
    if not splits:
        return [], None, None
    nodes = [split[0] for split in splits]
    split_inside = inside[nodes]
    goes_left = (x_pad[[split[1] for split in splits]]
                 <= np.array([split[3] for split in splits])[:, None])
    return splits, grid[nodes][split_inside], goes_left[split_inside]


def _partition(popped, splits, rows, goes_left, cols, y):
    """Record each split, its threshold in place of its node's mean, move its
    node's rows into its two children in place, and push the right child,
    then the left one.

    ``rows`` are the split nodes' rows one node after another, and one stable
    argsort on 2 * split + goes_left groups them by child and keeps their
    order within each child.
    """
    n_rows = [popped[r][3] - popped[r][2] for r, *_ in splits]
    tag = np.arange(0, 2 * len(splits), 2, dtype=np.min_scalar_type(2 * len(splits)))
    key = np.repeat(tag, n_rows) + goes_left  # small integers sort by radix
    moved = rows.take(key.argsort(kind="stable"))
    for values in (y, *cols):
        values[rows] = values.take(moved)
    n_left = np.bincount(key, minlength=2 * len(splits))[1::2].tolist()
    for (r, _, f, thr, red), to_left in zip(splits, n_left):
        growth, node, start, end = popped[r]
        feature, cut, _ = growth.nodes
        feature[node] = f
        cut[node] = thr
        growth.importance[f] += red
        growth.stack.append((start, end - to_left, node))
        growth.stack.append((end - to_left, end, -1))


def _walk(block, x):
    """Leaf value of each row of ``x`` in each tree of ``block``, one row of
    the result per tree: every (tree, row) pair still above a leaf steps
    down one level per numpy pass."""
    feature, cut, right, roots, _ = block
    m = x.shape[0]
    at = np.repeat(roots, m)
    row = np.tile(np.arange(m), roots.shape[0])
    live = np.flatnonzero(feature[at] >= 0)
    while live.size:
        node = at[live]
        step = np.where(x[row[live], feature[node]] <= cut[node], node + 1, right[node])
        at[live] = step
        live = live[feature[step] >= 0]
    return cut[at].reshape(roots.shape[0], m)


def _bagged_block(x, y, max_features, tree_seeds):
    """The ``_Block`` of forest trees, one per seed, each on its own
    bootstrap draw of the rows."""
    n = y.shape[0]
    rows = np.concatenate([np.random.default_rng(splitmix64(tree_seed, 1)).integers(0, n, n)
                           for tree_seed in tree_seeds])
    cols, y = np.ascontiguousarray(x.T).take(rows, axis=1), y.take(rows)
    del rows
    return _grow(tree_seeds, MIN_LEAF, max_features, cols, y,
                 [(t * n, (t + 1) * n) for t in range(len(tree_seeds))])


class RegressionForest:
    """Bagged trees, each on a bootstrap sample with max(1, ceil(q / 3)) features per split.

    Tree t is grown from seed ``splitmix64(seed, t)``.  Consecutive trees
    grow together in blocks of ``TREE_BLOCK``, or of fewer where a block
    would hold more than ``BLOCK_ROWS`` bootstrap rows, or where that gives
    each process of the pool (``n_workers``, at most one per usable CPU) a
    block.  The forest keeps each block as its ``_Block`` (``blocks``), in
    tree order.  A tree grows to the same bits in any block, and
    importances and predictions are summed in tree order, so every bit of
    the fit is the same for any worker count.
    """

    def __init__(self, n_trees=500, seed=0, n_workers=1):
        self.n_trees = _integer(n_trees, "n_trees")
        self.seed = _integer(seed, "seed", least=0)
        self.n_workers = _integer(n_workers, "n_workers")
        self.blocks: list[_Block] = []
        self.importance_ = None

    def fit(self, x, y):
        x, y = _checked_rows(x, y)
        q = x.shape[1]
        seeds = [splitmix64(self.seed, t) for t in range(self.n_trees)]
        size = min(TREE_BLOCK, max(1, BLOCK_ROWS // y.shape[0]),
                   -(-self.n_trees // min(self.n_workers, usable_cpus())))
        grow = partial(_bagged_block, x, y, max(1, math.ceil(q / 3)))
        self.blocks = map_in_order(grow, (seeds[start:start + size]
                                          for start in range(0, self.n_trees, size)),
                                   self.n_workers)
        self.importance_ = np.zeros(q)
        for block in self.blocks:
            for tree_importance in block.importance:
                self.importance_ += tree_importance
        self.importance_ /= self.n_trees
        return self

    def predict(self, x):
        """Mean of the trees' predictions, walked down a block at a time and
        added in tree order."""
        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape[0])
        for block in self.blocks:
            for leaf_values in _walk(block, x):
                acc += leaf_values
        return acc / self.n_trees


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
