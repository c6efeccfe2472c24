//! CART decision-tree classifier with Gini impurity.
//!
//! # Presorted fitting
//!
//! Training sorts every feature once per training set ([`SortedColumns`]),
//! not once per node. A node owns the same range `[lo, hi)` of every
//! feature's sorted row list. A split sweeps those ranges in order, and
//! then stably partitions each of them by the split predicate, so both
//! children's ranges stay sorted. Trees fit from per-row multiplicity
//! counts ([`DecisionTree::fit_counts`]): a bootstrap resample is a count
//! vector over the shared sort, not a materialized copy, and every tree of
//! a forest or committee shares one sort.
//!
//! The result equals sorting each node's materialized rows, tree for tree.
//! A threshold falls only between two distinct consecutive values. At such
//! a boundary the score depends only on the sorted value sequence and on
//! the counts to its left, and the threshold only on the two values.
//! Neither depends on the order among tied rows, nor on whether a
//! duplicate is one row with count 2 or two rows; identical NaNs count as
//! ties for this reason. Counts are exact integers in `f64`. The
//! sort-per-node fit stays as the test oracle `DecisionTree::fit_reference`
//! (built only for tests and under the `reference` feature).
//!
//! # Batch evaluation
//!
//! [`fold_leaves`] evaluates a slice of trees on many rows at once, for
//! the Bootstrap committee vote and a forest's whole-pool probabilities
//! ([`RandomForest::predict_proba_rows`](crate::RandomForest::predict_proba_rows)).
//! Rows go in blocks of [`BLOCK`] over `morer_sim::par`; each block's
//! values are copied column-major once. Each tree then splits the block's
//! row ids node by node with a stable, branch-free partition on
//! `x[f] <= t`: every id is written to the left and the right buffer and
//! one counter advances by the comparison. Ids that reach a leaf stop
//! there, so a shallow leaf costs its rows one pass, not the tree's depth.
//!
//! Each row reaches exactly one leaf per tree, and trees are walked in
//! slice order, so a row's fold sees its leaf probabilities in the same
//! order as the per-row walk `trees.iter().map(|t| t.predict_proba(row))`
//! and the results are equal bit for bit. The comparison is the one
//! [`DecisionTree::predict_proba`] makes, so NaNs go right and `±0.0`
//! compare equal on both paths.

use morer_sim::par;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::dataset::{FeatureMatrix, TrainingSet};

/// Hyperparameters for [`DecisionTree::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Number of features examined per split; `None` = all features.
    pub max_features: Option<usize>,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        Self { max_depth: 12, min_samples_split: 2, min_samples_leaf: 1, max_features: None }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
enum Node {
    Leaf { proba: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// A trained binary CART classifier. Leaves store the positive-class
/// fraction of their training samples as the predicted probability.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

/// A training set sorted once for [`DecisionTree::fit_counts`]: a
/// column-major copy of the values, the labels, and per feature the row ids
/// in ascending `total_cmp` order of that feature.
#[derive(Debug, Clone)]
pub struct SortedColumns {
    rows: usize,
    num_features: usize,
    /// Feature `f` of row `r` is `values[f * rows + r]`.
    values: Vec<f64>,
    labels: Vec<bool>,
    /// Feature `f`'s row ids, sorted, are `order[f * rows..(f + 1) * rows]`.
    order: Vec<u32>,
}

impl SortedColumns {
    /// Copy `data` column-major and sort every feature.
    ///
    /// # Panics
    /// Panics if `data` has more than `u32::MAX` rows.
    pub fn new(data: &TrainingSet) -> Self {
        let rows = data.len();
        let ids = u32::try_from(rows).expect("SortedColumns holds at most u32::MAX rows");
        let num_features = data.num_features();
        let mut values = Vec::with_capacity(rows * num_features);
        let mut order: Vec<u32> = Vec::with_capacity(rows * num_features);
        for f in 0..num_features {
            values.extend((0..rows).map(|r| data.x.get(r, f)));
            let column = &values[f * rows..];
            let start = order.len();
            order.extend(0..ids);
            order[start..].sort_by(|&a, &b| column[a as usize].total_cmp(&column[b as usize]));
        }
        Self { rows, num_features, values, labels: data.y.clone(), order }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn column(&self, feature: usize) -> &[f64] {
        &self.values[feature * self.rows..(feature + 1) * self.rows]
    }

    fn sorted(&self, feature: usize) -> &[u32] {
        &self.order[feature * self.rows..(feature + 1) * self.rows]
    }
}

impl DecisionTree {
    /// Train a tree. `rng` drives feature subsampling (only consulted when
    /// `max_features` is set).
    ///
    /// An empty training set yields a constant 0.0-probability stump.
    pub fn fit(data: &TrainingSet, config: &DecisionTreeConfig, rng: &mut SmallRng) -> Self {
        Self::fit_counts(&SortedColumns::new(data), &vec![1; data.len()], config, rng)
    }

    /// Train a tree on the multiset that repeats row `r` of `columns`
    /// `counts[r]` times. The tree equals [`DecisionTree::fit`] on that
    /// multiset materialized in any row order, and `rng` is consumed the
    /// same way.
    ///
    /// An empty multiset yields a constant 0.0-probability stump.
    ///
    /// # Panics
    /// Panics if `counts.len() != columns.len()`.
    pub fn fit_counts(
        columns: &SortedColumns,
        counts: &[u32],
        config: &DecisionTreeConfig,
        rng: &mut SmallRng,
    ) -> Self {
        assert_eq!(counts.len(), columns.len(), "one count per row");
        let num_features = columns.num_features;
        let (mut n, mut pos) = (0usize, 0usize);
        for (&c, &label) in counts.iter().zip(&columns.labels) {
            n += c as usize;
            if label {
                pos += c as usize;
            }
        }
        if n == 0 {
            return Self { nodes: vec![Node::Leaf { proba: 0.0 }], num_features };
        }
        let live = counts.iter().filter(|&&c| c > 0).count();
        let mut lists = Vec::with_capacity(live * num_features);
        for f in 0..num_features {
            lists.extend(columns.sorted(f).iter().filter(|&&r| counts[r as usize] > 0));
        }
        let mut grower = CountsGrower {
            columns,
            counts,
            config,
            lists,
            live,
            goes_left: vec![false; columns.len()],
            spill: Vec::with_capacity(live),
            nodes: Vec::new(),
        };
        grower.build(0, live, n, pos, 0, rng);
        Self { nodes: grower.nodes, num_features }
    }

    /// Number of nodes (splits + leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            match nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, left).max(walk(nodes, right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Predicted probability that `x` is a match.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match self.nodes[i] {
                Node::Leaf { proba } => return proba,
                Node::Split { feature, threshold, left, right } => {
                    i = if x[feature] <= threshold { left } else { right };
                }
            }
        }
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }
}

/// Rows per block of [`fold_leaves`]: a block's values and row ids stay in
/// cache while every tree partitions them.
pub const BLOCK: usize = 256;

/// Fold each tree's leaf probability, in slice order, into one value per
/// row of `rows` (indices into `x`). Entry `i` of the result equals
/// `trees.iter().map(|t| t.predict_proba(x.row(rows[i]))).fold(init, &f)`
/// bit for bit; with no trees every entry is `init`. See the module docs'
/// "Batch evaluation" for how the rows are walked.
///
/// # Panics
/// Panics if a row index is out of range for `x`, or a tree tests a
/// feature `x` does not have.
pub fn fold_leaves<T, F>(
    trees: &[DecisionTree],
    x: &FeatureMatrix,
    rows: &[usize],
    init: T,
    f: F,
) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(T, f64) -> T + Sync,
{
    par::map_indexed(rows.len().div_ceil(BLOCK), 2, |b| {
        let block = &rows[b * BLOCK..((b + 1) * BLOCK).min(rows.len())];
        fold_block(trees, x, block, init, &f)
    })
    .concat()
}

/// [`fold_leaves`] on one nonempty block of at most [`BLOCK`] rows.
fn fold_block<T: Copy>(
    trees: &[DecisionTree],
    x: &FeatureMatrix,
    block: &[usize],
    init: T,
    f: &impl Fn(T, f64) -> T,
) -> Vec<T> {
    let n = block.len();
    // feature `c` of block row `i` is `values[c * n + i]`
    let mut values = vec![0.0; x.cols() * n];
    for (i, &r) in block.iter().enumerate() {
        for (c, &v) in x.row(r).iter().enumerate() {
            values[c * n + i] = v;
        }
    }
    let mut acc = vec![init; n];
    let mut ids: Vec<u32> = Vec::with_capacity(n);
    let mut spill = vec![0u32; n];
    // `(node, lo, hi)`: the node owns `ids[lo..hi]`, never empty
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    for tree in trees {
        ids.clear();
        ids.extend(0..n as u32);
        stack.push((0, 0, n));
        while let Some((node, lo, hi)) = stack.pop() {
            match tree.nodes[node] {
                Node::Leaf { proba } => {
                    for &i in &ids[lo..hi] {
                        acc[i as usize] = f(acc[i as usize], proba);
                    }
                }
                Node::Split { feature, threshold, left, right } => {
                    let column = &values[feature * n..(feature + 1) * n];
                    // left ids are written in place (`mid <= k`), right
                    // ids to `spill`; only the counter depends on the test
                    let mut mid = lo;
                    for k in lo..hi {
                        let i = ids[k];
                        ids[mid] = i;
                        spill[k - mid] = i;
                        mid += usize::from(column[i as usize] <= threshold);
                    }
                    ids[mid..hi].copy_from_slice(&spill[..hi - mid]);
                    if mid < hi {
                        stack.push((right, mid, hi));
                    }
                    if lo < mid {
                        stack.push((left, lo, mid));
                    }
                }
            }
        }
    }
    acc
}

/// The features one split examines: all of them, or with `max_features`
/// set a fresh shuffle truncated to that many (one RNG use per split).
fn split_features(
    num_features: usize,
    config: &DecisionTreeConfig,
    rng: &mut SmallRng,
) -> Vec<usize> {
    let mut features: Vec<usize> = (0..num_features).collect();
    if let Some(k) = config.max_features {
        features.shuffle(rng);
        features.truncate(k.max(1).min(num_features));
    }
    features
}

/// The lowest weighted Gini impurity over the boundaries of sorted feature
/// values offered to it, first boundary winning ties.
struct SplitSearch {
    n: f64,
    total_pos: f64,
    min_samples_leaf: usize,
    /// `(feature, threshold, score)`.
    best: Option<(usize, f64, f64)>,
}

impl SplitSearch {
    fn new(n: usize, total_pos: usize, config: &DecisionTreeConfig) -> Self {
        Self {
            n: n as f64,
            total_pos: total_pos as f64,
            min_samples_leaf: config.min_samples_leaf,
            best: None,
        }
    }

    /// Score a threshold between consecutive sorted values `v_here` and
    /// `v_next` of `feature`, with `left_n` samples, `left_pos` of them
    /// positive, at or before `v_here`.
    #[inline]
    fn offer(&mut self, feature: usize, v_here: f64, v_next: f64, left_n: f64, left_pos: f64) {
        // not a distinct boundary; identical NaNs are ties like any value
        if v_next <= v_here || v_next.to_bits() == v_here.to_bits() {
            return;
        }
        let right_n = self.n - left_n;
        if (left_n as usize) < self.min_samples_leaf || (right_n as usize) < self.min_samples_leaf {
            return;
        }
        let right_pos = self.total_pos - left_pos;
        let gini = |cnt: f64, pos: f64| {
            if cnt == 0.0 {
                0.0
            } else {
                let p = pos / cnt;
                2.0 * p * (1.0 - p)
            }
        };
        let score = (left_n * gini(left_n, left_pos) + right_n * gini(right_n, right_pos)) / self.n;
        if self.best.is_none_or(|(_, _, s)| score < s - 1e-15) {
            // The midpoint can round up to v_next when the two values
            // are adjacent floats, which would leave the right child
            // empty (and its leaf probability 0/0). Fall back to
            // v_here, which always separates the sides.
            let mid = (v_here + v_next) / 2.0;
            let threshold = if mid > v_here && mid < v_next { mid } else { v_here };
            self.best = Some((feature, threshold, score));
        }
    }

    fn split(self) -> Option<(usize, f64)> {
        self.best.map(|(f, t, _)| (f, t))
    }
}

/// Grows one tree from multiplicity counts over a [`SortedColumns`].
struct CountsGrower<'a> {
    columns: &'a SortedColumns,
    counts: &'a [u32],
    config: &'a DecisionTreeConfig,
    /// Feature `f`'s sorted rows with a nonzero count are
    /// `lists[f * live..(f + 1) * live]`; a node owns the same `[lo, hi)`
    /// of every feature's list.
    lists: Vec<u32>,
    live: usize,
    /// Scratch: the side of each row of the node being split.
    goes_left: Vec<bool>,
    /// Scratch: the right-hand rows of the list being partitioned.
    spill: Vec<u32>,
    nodes: Vec<Node>,
}

impl CountsGrower<'_> {
    fn list(&self, feature: usize, lo: usize, hi: usize) -> &[u32] {
        &self.lists[feature * self.live + lo..feature * self.live + hi]
    }

    fn leaf(&mut self, proba: f64) -> usize {
        self.nodes.push(Node::Leaf { proba });
        self.nodes.len() - 1
    }

    /// Grow the subtree of the node owning `[lo, hi)`, which holds `n`
    /// samples, `pos` of them positive. Nodes are pushed in depth-first
    /// order, left before right.
    fn build(
        &mut self,
        lo: usize,
        hi: usize,
        n: usize,
        pos: usize,
        depth: usize,
        rng: &mut SmallRng,
    ) -> usize {
        let proba = pos as f64 / n as f64;
        let pure = pos == 0 || pos == n;
        if pure || depth >= self.config.max_depth || n < self.config.min_samples_split {
            return self.leaf(proba);
        }
        let Some((feature, threshold)) = self.best_split(lo, hi, n, pos, rng) else {
            return self.leaf(proba);
        };
        let column = self.columns.column(feature);
        let (mut left_rows, mut left_n, mut left_pos) = (0usize, 0usize, 0usize);
        for &r in &self.lists[feature * self.live + lo..feature * self.live + hi] {
            let r = r as usize;
            let left = column[r] <= threshold;
            self.goes_left[r] = left;
            if left {
                left_rows += 1;
                left_n += self.counts[r] as usize;
                if self.columns.labels[r] {
                    left_pos += self.counts[r] as usize;
                }
            }
        }
        if left_rows == 0 || left_rows == hi - lo {
            // defensive: a degenerate split must never create an empty child
            return self.leaf(proba);
        }
        for f in 0..self.columns.num_features {
            let list = &mut self.lists[f * self.live + lo..f * self.live + hi];
            self.spill.clear();
            let mut kept = 0;
            for i in 0..list.len() {
                let r = list[i];
                if self.goes_left[r as usize] {
                    list[kept] = r;
                    kept += 1;
                } else {
                    self.spill.push(r);
                }
            }
            list[kept..].copy_from_slice(&self.spill);
        }
        // placeholder, patched after children are built
        let node_id = self.leaf(proba);
        let mid = lo + left_rows;
        let left = self.build(lo, mid, left_n, left_pos, depth + 1, rng);
        let right = self.build(mid, hi, n - left_n, pos - left_pos, depth + 1, rng);
        self.nodes[node_id] = Node::Split { feature, threshold, left, right };
        node_id
    }

    /// Best split over (a sample of) features: sweep each feature's sorted
    /// range, adding each row's count to the left side.
    fn best_split(
        &self,
        lo: usize,
        hi: usize,
        n: usize,
        pos: usize,
        rng: &mut SmallRng,
    ) -> Option<(usize, f64)> {
        let mut search = SplitSearch::new(n, pos, self.config);
        for feature in split_features(self.columns.num_features, self.config, rng) {
            let column = self.columns.column(feature);
            let (mut left_n, mut left_pos) = (0.0f64, 0.0f64);
            for pair in self.list(feature, lo, hi).windows(2) {
                let (r, next) = (pair[0] as usize, pair[1] as usize);
                let c = self.counts[r] as f64;
                left_n += c;
                if self.columns.labels[r] {
                    left_pos += c;
                }
                search.offer(feature, column[r], column[next], left_n, left_pos);
            }
        }
        search.split()
    }
}

/// The sort-per-node fit that presorting replaced, kept as the oracle the
/// presorted fit is tested and benchmarked against.
#[cfg(any(test, feature = "reference"))]
impl DecisionTree {
    /// Train a tree like [`DecisionTree::fit`], re-sorting every node's
    /// rows for every examined feature.
    pub fn fit_reference(
        data: &TrainingSet,
        config: &DecisionTreeConfig,
        rng: &mut SmallRng,
    ) -> Self {
        let mut tree = Self { nodes: Vec::new(), num_features: data.num_features() };
        if data.is_empty() {
            tree.nodes.push(Node::Leaf { proba: 0.0 });
            return tree;
        }
        let indices: Vec<usize> = (0..data.len()).collect();
        tree.build_reference(data, indices, 0, config, rng);
        tree
    }

    fn build_reference(
        &mut self,
        data: &TrainingSet,
        indices: Vec<usize>,
        depth: usize,
        config: &DecisionTreeConfig,
        rng: &mut SmallRng,
    ) -> usize {
        let n = indices.len();
        let pos = indices.iter().filter(|&&i| data.y[i]).count();
        let proba = pos as f64 / n as f64;
        let pure = pos == 0 || pos == n;
        if pure || depth >= config.max_depth || n < config.min_samples_split {
            self.nodes.push(Node::Leaf { proba });
            return self.nodes.len() - 1;
        }
        let Some((feature, threshold)) = self.best_split_reference(data, &indices, config, rng)
        else {
            self.nodes.push(Node::Leaf { proba });
            return self.nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.into_iter().partition(|&i| data.x.get(i, feature) <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            self.nodes.push(Node::Leaf { proba });
            return self.nodes.len() - 1;
        }
        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { proba });
        let left = self.build_reference(data, left_idx, depth + 1, config, rng);
        let right = self.build_reference(data, right_idx, depth + 1, config, rng);
        self.nodes[node_id] = Node::Split { feature, threshold, left, right };
        node_id
    }

    fn best_split_reference(
        &self,
        data: &TrainingSet,
        indices: &[usize],
        config: &DecisionTreeConfig,
        rng: &mut SmallRng,
    ) -> Option<(usize, f64)> {
        let pos = indices.iter().filter(|&&i| data.y[i]).count();
        let mut search = SplitSearch::new(indices.len(), pos, config);
        let mut sorted: Vec<usize> = Vec::with_capacity(indices.len());
        for feature in split_features(self.num_features, config, rng) {
            sorted.clear();
            sorted.extend_from_slice(indices);
            sorted.sort_by(|&a, &b| data.x.get(a, feature).total_cmp(&data.x.get(b, feature)));
            let (mut left_n, mut left_pos) = (0.0f64, 0.0f64);
            for pair in sorted.windows(2) {
                left_n += 1.0;
                if data.y[pair[0]] {
                    left_pos += 1.0;
                }
                search.offer(
                    feature,
                    data.x.get(pair[0], feature),
                    data.x.get(pair[1], feature),
                    left_n,
                    left_pos,
                );
            }
        }
        search.split()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    fn threshold_data() -> TrainingSet {
        // match iff feature0 > 0.5
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0, 0.3]).collect();
        let labels: Vec<bool> = (0..40).map(|i| i as f64 / 40.0 > 0.5).collect();
        TrainingSet::from_rows(&rows, &labels)
    }

    #[test]
    fn learns_simple_threshold() {
        let data = threshold_data();
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), &mut rng());
        assert!(tree.predict(&[0.9, 0.3]));
        assert!(!tree.predict(&[0.1, 0.3]));
        // depth 1 suffices for a single threshold
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let rows = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let labels = vec![false, true, true, false];
        let data = TrainingSet::from_rows(&rows, &labels);
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), &mut rng());
        for (r, &l) in rows.iter().zip(&labels) {
            assert_eq!(tree.predict(r), l, "row {r:?}");
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_data_yields_single_leaf() {
        let data = TrainingSet::from_rows(&[vec![0.1], vec![0.9]], &[true, true]);
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), &mut rng());
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict_proba(&[0.5]), 1.0);
    }

    #[test]
    fn empty_data_predicts_non_match() {
        let data = TrainingSet::new(3);
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), &mut rng());
        assert_eq!(tree.predict_proba(&[0.5, 0.5, 0.5]), 0.0);
    }

    #[test]
    fn max_depth_zero_is_majority_stump() {
        let data = threshold_data();
        let cfg = DecisionTreeConfig { max_depth: 0, ..Default::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng());
        assert_eq!(tree.num_nodes(), 1);
        let p = tree.predict_proba(&[0.0, 0.0]);
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let data = threshold_data();
        let cfg = DecisionTreeConfig { min_samples_leaf: 25, ..Default::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng());
        // 40 samples cannot be split into two leaves of >= 25
        assert_eq!(tree.num_nodes(), 1);
    }

    #[test]
    fn identical_features_cannot_split() {
        let data = TrainingSet::from_rows(
            &[vec![0.5], vec![0.5], vec![0.5], vec![0.5]],
            &[true, false, true, false],
        );
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), &mut rng());
        assert_eq!(tree.num_nodes(), 1);
        assert!((tree.predict_proba(&[0.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probabilities_are_leaf_fractions() {
        // 3 matches, 1 non-match on the high side of a split
        let rows = vec![vec![0.9], vec![0.95], vec![0.85], vec![0.8], vec![0.1], vec![0.2]];
        let labels = vec![true, true, true, false, false, false];
        let data = TrainingSet::from_rows(&rows, &labels);
        let cfg = DecisionTreeConfig { max_depth: 1, ..Default::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng());
        let p_high = tree.predict_proba(&[0.9]);
        assert!((0.5..=1.0).contains(&p_high));
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let data = threshold_data();
        let cfg = DecisionTreeConfig { max_features: Some(1), ..Default::default() };
        let a = DecisionTree::fit(&data, &cfg, &mut SmallRng::seed_from_u64(7));
        let b = DecisionTree::fit(&data, &cfg, &mut SmallRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
