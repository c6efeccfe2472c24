//! Similarity distribution analysis between ER problems (paper §4.2).
//!
//! The univariate tests (KS, WD, PSI) compare each feature's distribution
//! independently; per-feature similarities are aggregated into `sim_p` with
//! weights proportional to the feature's pooled standard deviation — "to
//! consider the discriminative power of these features". The classifier
//! two-sample test (C2ST) trains a classifier to tell the two problems'
//! vector sets apart and defines `sim_p` as the inverse F1.
//!
//! # Distribution sketches
//!
//! The two hot loops that consume `sim_p` — the O(P²) problem-graph build of
//! repository construction and the per-solve model search — redo identical
//! per-problem work on every comparison if implemented naively: column
//! extraction, subsampling, sorting, grid evaluation, histogram binning and
//! moment accumulation are all properties of *one* side. A
//! [`DistributionSketch`] precomputes them once per feature sample
//! (O(t·n): three linear passes per column, see [`morer_stats::sketch`]);
//! [`sketch_similarity`] then scores a pair from the two sketches without
//! touching the raw matrices, through the *same* `morer_stats` cores as the
//! direct path — so with `sample_cap >= rows` (no subsampling) the sketched
//! `sim_p` is bit-identical to [`problem_similarity_with`].
//!
//! Subsample seeding differs between the paths by design: the direct path
//! draws a fresh seeded subsample per pair *and side*, while a sketch is
//! built once per problem and therefore fixes one subsample per problem
//! (seeded by [`AnalysisOptions::for_problem`]). Both are valid estimators
//! of the same similarity; the per-problem scheme is what makes O(problems)
//! precomputation possible (see ROADMAP "Distribution sketches").

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use morer_data::ErProblem;
use morer_graph::Graph;
use morer_ml::dataset::{FeatureMatrix, TrainingSet};
use morer_ml::forest::{RandomForest, RandomForestConfig};
use morer_ml::metrics::PairCounts;
use morer_sim::par;
use morer_stats::describe::{weighted_mean, Moments};
use morer_stats::{ColumnSketch, UnivariateTest};

/// The distribution tests evaluated in the paper (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistributionTest {
    /// Kolmogorov-Smirnov (Eq. 1).
    KolmogorovSmirnov,
    /// Wasserstein distance (Eq. 2).
    Wasserstein,
    /// Population Stability Index (Eq. 3).
    Psi,
    /// Classifier two-sample test (multivariate).
    C2st,
}

impl DistributionTest {
    /// Short name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Self::KolmogorovSmirnov => "KS",
            Self::Wasserstein => "WD",
            Self::Psi => "PSI",
            Self::C2st => "C2ST",
        }
    }

    /// All tests, for sweeps (Fig. 6).
    pub fn all() -> [Self; 4] {
        [Self::KolmogorovSmirnov, Self::Wasserstein, Self::Psi, Self::C2st]
    }

    pub(crate) fn univariate(self) -> Option<UnivariateTest> {
        match self {
            Self::KolmogorovSmirnov => Some(UnivariateTest::KolmogorovSmirnov),
            Self::Wasserstein => Some(UnivariateTest::Wasserstein),
            Self::Psi => Some(UnivariateTest::Psi),
            Self::C2st => None,
        }
    }
}

/// A bag of similarity feature vectors standing in for one side of a
/// distribution comparison — either a full ER problem or a cluster's stored
/// representatives `P_C`.
pub trait FeatureSample {
    /// Number of features `t`.
    fn num_features(&self) -> usize;
    /// Column `f` of the sample.
    fn feature_column(&self, f: usize) -> Vec<f64>;
    /// All rows (for the multivariate C2ST).
    fn rows(&self) -> &FeatureMatrix;
}

impl FeatureSample for ErProblem {
    fn num_features(&self) -> usize {
        self.features.cols()
    }
    fn feature_column(&self, f: usize) -> Vec<f64> {
        self.features.column(f)
    }
    fn rows(&self) -> &FeatureMatrix {
        &self.features
    }
}

impl FeatureSample for FeatureMatrix {
    fn num_features(&self) -> usize {
        self.cols()
    }
    fn feature_column(&self, f: usize) -> Vec<f64> {
        self.column(f)
    }
    fn rows(&self) -> &FeatureMatrix {
        self
    }
}

/// Options for the distribution analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Which two-sample test computes per-feature similarity.
    pub test: DistributionTest,
    /// Rows consumed per side (seeded subsampling keeps analysis O(1) in
    /// problem size).
    pub sample_cap: usize,
    /// Weight per-feature similarities by their pooled stddev (§4.2's
    /// "discriminative power"); `false` = plain mean (ablation).
    pub weight_by_stddev: bool,
    /// RNG seed.
    pub seed: u64,
}

impl AnalysisOptions {
    /// Paper defaults: KS test, stddev weighting on.
    pub fn new(test: DistributionTest, sample_cap: usize, seed: u64) -> Self {
        Self { test, sample_cap, weight_by_stddev: true, seed }
    }

    /// The options used to sketch problem `p`: same test/cap, with the seed
    /// decorrelated per problem (sketch subsampling is per-problem, not
    /// per-pair — see the module docs).
    pub fn for_problem(&self, p: usize) -> Self {
        Self { seed: self.seed ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15), ..*self }
    }

    /// The options used to score repository entry `i` during model search:
    /// a per-entry seed that is stable across solves, so entry sketch
    /// caches stay warm. Shared by `best_entry_for` and its direct-path
    /// cross-checks (quick-bench, property tests).
    pub fn for_entry(&self, i: usize) -> Self {
        Self { seed: self.seed ^ (i as u64) << 12, ..*self }
    }
}

/// The per-pair analysis seed used by the direct path and (for the C2ST
/// classifier) the sketched graph build — unchanged from the pre-sketch
/// implementation so direct results stay reproducible.
fn pair_seed(seed: u64, i: usize, j: usize) -> u64 {
    seed ^ ((i as u64) << 20) ^ j as u64
}

/// `sim_p` with explicit [`AnalysisOptions`] — the direct (sketch-free)
/// path. Kept as the reference implementation; it shares every numeric core
/// with [`sketch_similarity`], so the two agree bit-for-bit whenever their
/// subsamples do (always true for `sample_cap >= rows`).
pub fn problem_similarity_with<A: FeatureSample + ?Sized, B: FeatureSample + ?Sized>(
    a: &A,
    b: &B,
    opts: &AnalysisOptions,
) -> f64 {
    assert_eq!(a.num_features(), b.num_features(), "feature spaces must agree (§4.2)");
    match opts.test.univariate() {
        Some(uni) => {
            let t = a.num_features();
            let mut sims = Vec::with_capacity(t);
            let mut weights = Vec::with_capacity(t);
            for f in 0..t {
                let ca = subsample(a.feature_column(f), opts.sample_cap, opts.seed ^ f as u64);
                let cb =
                    subsample(b.feature_column(f), opts.sample_cap, opts.seed ^ (f as u64) << 8);
                sims.push(uni.similarity(&ca, &cb));
                if opts.weight_by_stddev {
                    // discriminative power: pooled stddev across both
                    // problems, via an O(1) moments merge instead of
                    // allocating the concatenated sample
                    weights.push(Moments::of(&ca).merge(&Moments::of(&cb)).stddev());
                } else {
                    weights.push(1.0);
                }
            }
            weighted_mean(&sims, &weights).clamp(0.0, 1.0)
        }
        None => c2st_similarity(a.rows(), b.rows(), opts.sample_cap, opts.seed),
    }
}

// ---------------------------------------------------------------------------
// Distribution sketches
// ---------------------------------------------------------------------------

/// Precomputed per-problem analysis profile: one [`ColumnSketch`] per
/// feature (subsample-capped, sorted, pre-gridded, pre-binned, with Welford
/// moments) plus a capped row sample for the multivariate C2ST.
///
/// Built once per feature sample in O(t·n) and reused across every
/// pair comparison ([`build_problem_graph_sketched`]) and every solve
/// (`ClusterEntry` caches the sketch of its representatives `P_C`).
#[derive(Debug, Clone)]
pub struct DistributionSketch {
    /// Number of features `t` of the sketched sample (kept separately:
    /// whether `columns` is materialized depends on the configured test).
    num_features: usize,
    /// Per-feature column sketches. Only materialized for the univariate
    /// tests — a C2ST comparison never reads columns, so sketching for
    /// C2ST skips the per-column subsample/sort/grid/histogram work.
    columns: Vec<ColumnSketch>,
    /// Subsampled rows for the C2ST (capped at the C2ST's own `[16, 2000]`
    /// clamp of `sample_cap`), in sampled order. Only materialized when the
    /// sketch was built for [`DistributionTest::C2st`] — univariate
    /// comparisons never touch rows, so sketching for KS/WD/PSI skips the
    /// row copy entirely.
    rows: Option<FeatureMatrix>,
}

impl DistributionSketch {
    /// Sketch `sample` under `opts`. Column `f` is subsampled with seed
    /// `opts.seed ^ f` — the same convention the direct path uses for its
    /// first argument — so uncapped sketches hold exactly the raw columns.
    pub fn of<S: FeatureSample + ?Sized>(sample: &S, opts: &AnalysisOptions) -> Self {
        let t = sample.num_features();
        let (columns, rows) = if opts.test == DistributionTest::C2st {
            (Vec::new(), Some(sample_rows(sample.rows(), c2st_cap(opts.sample_cap), opts.seed)))
        } else {
            let columns = (0..t)
                .map(|f| {
                    let col =
                        subsample(sample.feature_column(f), opts.sample_cap, opts.seed ^ f as u64);
                    ColumnSketch::new(&col)
                })
                .collect();
            (columns, None)
        };
        Self { num_features: t, columns, rows }
    }

    /// Number of features `t`.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Rows retained for the C2ST (0 for univariate-only sketches).
    pub fn num_rows(&self) -> usize {
        self.rows.as_ref().map_or(0, FeatureMatrix::rows)
    }

    /// Whether this sketch carries the C2ST row sample (true only when
    /// built with `test == C2st`).
    pub fn has_c2st_rows(&self) -> bool {
        self.rows.is_some()
    }

    /// Whether this sketch carries per-column univariate sketches (true
    /// unless built with `test == C2st` over a non-empty feature space).
    pub fn has_univariate_columns(&self) -> bool {
        self.columns.len() == self.num_features
    }

    /// The per-feature column sketches (empty for C2ST-built sketches).
    pub fn columns(&self) -> &[ColumnSketch] {
        &self.columns
    }
}

/// `sim_p` between two prebuilt sketches — the fast path of
/// [`problem_similarity_with`]. `opts.seed` only seeds the C2ST classifier
/// (subsampling already happened at sketch build time); `opts.test` and
/// `opts.weight_by_stddev` select the scoring exactly as in the direct path.
pub fn sketch_similarity(
    a: &DistributionSketch,
    b: &DistributionSketch,
    opts: &AnalysisOptions,
) -> f64 {
    assert_eq!(a.num_features(), b.num_features(), "feature spaces must agree (§4.2)");
    match opts.test.univariate() {
        Some(uni) => {
            assert!(
                a.has_univariate_columns() && b.has_univariate_columns(),
                "sketch was built without univariate columns (test mismatch)"
            );
            let t = a.columns.len();
            let mut sims = Vec::with_capacity(t);
            let mut weights = Vec::with_capacity(t);
            for (ca, cb) in a.columns.iter().zip(&b.columns) {
                sims.push(ca.similarity(cb, uni));
                weights.push(if opts.weight_by_stddev { ca.pooled_stddev(cb) } else { 1.0 });
            }
            weighted_mean(&sims, &weights).clamp(0.0, 1.0)
        }
        None => {
            let ra = a.rows.as_ref().expect("sketch was built without C2ST rows (test mismatch)");
            let rb = b.rows.as_ref().expect("sketch was built without C2ST rows (test mismatch)");
            // both sides are cut to the common row count, mirroring the
            // direct path's min() cap. Equal counts use the stored samples
            // as-is (bit-identical to the direct path when uncapped);
            // unequal counts re-draw a seeded random subset of each side so
            // the larger side is not truncated to a biased prefix of its
            // stored (blocking-ordered) rows.
            let cap = ra.rows().min(rb.rows());
            if cap < 4 {
                return 1.0;
            }
            if ra.rows() == rb.rows() {
                c2st_core(ra, rb, opts.seed)
            } else {
                let sa = sample_rows(ra, cap, opts.seed);
                let sb = sample_rows(rb, cap, opts.seed ^ 0xA5A5);
                c2st_core(&sa, &sb, opts.seed)
            }
        }
    }
}

/// The C2ST's effective row cap for a configured `sample_cap`.
fn c2st_cap(sample_cap: usize) -> usize {
    sample_cap.clamp(16, 2000)
}

/// Classifier two-sample test: train a forest to separate the two samples;
/// `sim_p = 1 − F1` on a held-out third (balanced subsamples, so F1 ≈ 0.5
/// for indistinguishable problems → sim ≈ 0.5; F1 → 1 for distinct ones).
fn c2st_similarity(a: &FeatureMatrix, b: &FeatureMatrix, sample_cap: usize, seed: u64) -> f64 {
    let cap = c2st_cap(sample_cap).min(a.rows()).min(b.rows());
    if cap < 4 {
        // not enough data to distinguish
        return 1.0;
    }
    let rows_a = sample_rows(a, cap, seed);
    let rows_b = sample_rows(b, cap, seed ^ 0xA5A5);
    c2st_core(&rows_a, &rows_b, seed)
}

/// C2ST scoring core on two already-sampled row sets: train on the first
/// two thirds of each side, score the held-out rows *by index* — no
/// per-row cloning.
fn c2st_core(a: &FeatureMatrix, b: &FeatureMatrix, seed: u64) -> f64 {
    let (na, nb) = (a.rows(), b.rows());
    let split_a = (na * 2) / 3;
    let split_b = (nb * 2) / 3;
    // label: does the row come from problem b?
    let mut train = TrainingSet::new(a.cols());
    for i in 0..split_a {
        train.push(a.row(i), false);
    }
    for i in 0..split_b {
        train.push(b.row(i), true);
    }
    let forest = RandomForest::fit(
        &train,
        &RandomForestConfig { n_trees: 16, max_depth: 8, seed, ..Default::default() },
    );
    let mut counts = PairCounts::new();
    for i in split_a..na {
        counts.record(forest.predict(a.row(i)), false);
    }
    for i in split_b..nb {
        counts.record(forest.predict(b.row(i)), true);
    }
    (1.0 - counts.f1()).clamp(0.0, 1.0)
}

fn subsample(mut col: Vec<f64>, cap: usize, seed: u64) -> Vec<f64> {
    if col.len() <= cap {
        return col;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    col.shuffle(&mut rng);
    col.truncate(cap);
    col
}

fn sample_rows(m: &FeatureMatrix, cap: usize, seed: u64) -> FeatureMatrix {
    let mut idx: Vec<usize> = (0..m.rows()).collect();
    if idx.len() > cap {
        let mut rng = SmallRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        idx.truncate(cap);
    }
    m.select(&idx)
}

// ---------------------------------------------------------------------------
// Problem graph construction
// ---------------------------------------------------------------------------

/// Build the ER problem similarity graph `G_P` over `problems` (§4.3):
/// vertices are problems (indexed positionally), edges weighted by `sim_p`,
/// pruned below `min_edge_similarity`. Problems are sketched once
/// (O(problems)) and the O(P²) pair loop runs over the sketches on scoped
/// threads. The sketches are returned too, so callers that keep
/// integrating problems (the `sel_cov` pipeline) can reuse them instead of
/// re-sketching on every solve.
pub fn build_problem_graph_sketched(
    problems: &[&ErProblem],
    opts: &AnalysisOptions,
    min_edge_similarity: f64,
) -> (Graph, Vec<DistributionSketch>) {
    let n = problems.len();
    let sketches: Vec<DistributionSketch> =
        par::map_indexed(n, 1, |p| DistributionSketch::of(problems[p], &opts.for_problem(p)));
    let pairs: Vec<(usize, usize)> =
        (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j))).collect();
    let sims: Vec<f64> = par::map_indexed(pairs.len(), 8, |k| {
        let (i, j) = pairs[k];
        let local = AnalysisOptions { seed: pair_seed(opts.seed, i, j), ..*opts };
        sketch_similarity(&sketches[i], &sketches[j], &local)
    });
    let mut g = Graph::new(n);
    for (&(i, j), &s) in pairs.iter().zip(&sims) {
        if s >= min_edge_similarity {
            g.add_edge(i, j, s);
        }
    }
    (g, sketches)
}

/// Append `new` problems to an existing problem graph and sketch store —
/// the O(P)-per-insert mutation path of streaming ingest
/// ([`crate::pipeline::Morer::add_problems`]).
///
/// Each new problem is sketched once (with the same
/// [`AnalysisOptions::for_problem`] seed its global index would get in a
/// batch build) and scored against **every stored sketch** — O(P) sketch
/// comparisons fanned over [`morer_sim::par::map_indexed`], no re-sketching
/// of the existing problems. Pair scoring uses the batch build's per-pair
/// seed convention, and edges are appended in the same adjacency order the
/// batch pair loop produces, so extending an empty graph problem by problem
/// yields a graph **bit-identical** to [`build_problem_graph_sketched`] over
/// the full list (asserted by `crates/core/tests/ingest.rs` and quick-bench).
///
/// Returns the number of edges added (those with `sim_p >=
/// min_edge_similarity`).
///
/// # Panics
/// Panics if a new problem's feature count disagrees with the stored
/// sketches (feature spaces must agree, §4.2).
pub fn extend_problem_graph_sketched(
    graph: &mut Graph,
    sketches: &mut Vec<DistributionSketch>,
    new: &[&ErProblem],
    opts: &AnalysisOptions,
    min_edge_similarity: f64,
) -> usize {
    assert_eq!(graph.num_nodes(), sketches.len(), "graph and sketch store out of sync");
    let base = sketches.len();
    let new_sketches: Vec<DistributionSketch> = par::map_indexed(new.len(), 1, |k| {
        DistributionSketch::of(new[k], &opts.for_problem(base + k))
    });
    let mut edges_added = 0usize;
    for (k, sketch) in new_sketches.into_iter().enumerate() {
        let j = base + k;
        let node = graph.add_node();
        debug_assert_eq!(node, j);
        // O(P): one comparison against every already-stored sketch,
        // including this batch's earlier arrivals
        let sims: Vec<f64> = par::map_indexed(j, 8, |i| {
            let local = AnalysisOptions { seed: pair_seed(opts.seed, i, j), ..*opts };
            sketch_similarity(&sketches[i], &sketch, &local)
        });
        for (i, &s) in sims.iter().enumerate() {
            if s >= min_edge_similarity {
                graph.add_edge(i, j, s);
                edges_added += 1;
            }
        }
        sketches.push(sketch);
    }
    edges_added
}

/// The retained direct (sketch-free) graph build: every pair re-extracts,
/// re-subsamples and re-sorts both sides via [`problem_similarity_with`].
/// Reference implementation for the equivalence assertions and the
/// `analysis` benchmark baseline.
pub fn build_problem_graph_direct(
    problems: &[&ErProblem],
    opts: &AnalysisOptions,
    min_edge_similarity: f64,
) -> Graph {
    let n = problems.len();
    let pairs: Vec<(usize, usize)> =
        (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j))).collect();
    let sims: Vec<f64> = par::map_indexed(pairs.len(), 8, |k| {
        let (i, j) = pairs[k];
        let local = AnalysisOptions { seed: pair_seed(opts.seed, i, j), ..*opts };
        problem_similarity_with(problems[i], problems[j], &local)
    });
    let mut g = Graph::new(n);
    for (&(i, j), &s) in pairs.iter().zip(&sims) {
        if s >= min_edge_similarity {
            g.add_edge(i, j, s);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic problem whose match similarities centre on `mu`.
    fn synthetic_problem(id: usize, mu: f64, n: usize) -> ErProblem {
        let mut features = FeatureMatrix::new(2);
        let mut labels = Vec::new();
        let mut pairs = Vec::new();
        for i in 0..n {
            let jitter = ((i * 37) % 100) as f64 / 1000.0;
            let is_match = i % 3 == 0;
            let base = if is_match { mu } else { 0.15 };
            features.push_row(&[(base + jitter).min(1.0), (base * 0.9 + jitter).min(1.0)]);
            labels.push(is_match);
            pairs.push((i as u32, (i + n) as u32));
        }
        ErProblem {
            id,
            sources: (0, 1),
            pairs,
            features,
            labels,
            feature_names: vec!["f0".into(), "f1".into()],
        }
    }

    #[test]
    fn identical_problems_are_maximally_similar() {
        let p = synthetic_problem(0, 0.8, 200);
        for test in DistributionTest::all() {
            let s = problem_similarity_with(&p, &p, &AnalysisOptions::new(test, 1000, 1));
            match test {
                // C2ST on identical data cannot separate: F1 ~ 0.5 → sim ~ 0.5
                DistributionTest::C2st => assert!(s > 0.2, "{test:?}: {s}"),
                _ => assert!(s > 0.97, "{test:?}: {s}"),
            }
        }
    }

    #[test]
    fn similar_beats_dissimilar_for_every_test() {
        let a = synthetic_problem(0, 0.80, 300);
        let near = synthetic_problem(1, 0.78, 300);
        let far = synthetic_problem(2, 0.45, 300);
        for test in DistributionTest::all() {
            let opts = AnalysisOptions::new(test, 1000, 1);
            let s_near = problem_similarity_with(&a, &near, &opts);
            let s_far = problem_similarity_with(&a, &far, &opts);
            assert!(
                s_near > s_far,
                "{test:?}: near {s_near} <= far {s_far}"
            );
        }
    }

    #[test]
    fn similarity_is_bounded() {
        let a = synthetic_problem(0, 0.9, 150);
        let b = synthetic_problem(1, 0.3, 150);
        for test in DistributionTest::all() {
            let s = problem_similarity_with(&a, &b, &AnalysisOptions::new(test, 500, 9));
            assert!((0.0..=1.0).contains(&s), "{test:?}: {s}");
        }
    }

    #[test]
    fn subsampling_is_deterministic() {
        let a = synthetic_problem(0, 0.8, 5000);
        let b = synthetic_problem(1, 0.6, 5000);
        let opts = AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, 100, 3);
        let s1 = problem_similarity_with(&a, &b, &opts);
        let s2 = problem_similarity_with(&a, &b, &opts);
        assert_eq!(s1, s2);
    }

    #[test]
    fn graph_clusters_similar_problems() {
        let problems: Vec<ErProblem> = (0..6)
            .map(|i| synthetic_problem(i, if i < 3 { 0.85 } else { 0.40 }, 200))
            .collect();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let g = build_problem_graph_sketched(
            &refs,
            &AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, 1000, 7),
            0.5,
        )
        .0;
        assert_eq!(g.num_nodes(), 6);
        // within-group edges should exist and be strong
        assert!(g.edge_weight(0, 1).unwrap_or(0.0) > 0.8);
        assert!(g.edge_weight(3, 4).unwrap_or(0.0) > 0.8);
        // cross-group similarity is much weaker
        let cross = g.edge_weight(0, 3).unwrap_or(0.0);
        assert!(cross < g.edge_weight(0, 1).unwrap(), "cross {cross}");
    }

    #[test]
    fn sketched_graph_matches_direct_graph_uncapped() {
        let problems: Vec<ErProblem> = (0..8)
            .map(|i| synthetic_problem(i, 0.3 + 0.07 * i as f64, 120))
            .collect();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        for test in [
            DistributionTest::KolmogorovSmirnov,
            DistributionTest::Wasserstein,
            DistributionTest::Psi,
        ] {
            let opts = AnalysisOptions::new(test, 10_000, 11);
            let (sketched, sketches) = build_problem_graph_sketched(&refs, &opts, 0.0);
            let direct = build_problem_graph_direct(&refs, &opts, 0.0);
            assert_eq!(sketches.len(), refs.len());
            for i in 0..refs.len() {
                for j in (i + 1)..refs.len() {
                    assert_eq!(
                        sketched.edge_weight(i, j),
                        direct.edge_weight(i, j),
                        "{test:?} edge ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn sketch_similarity_matches_direct_uncapped() {
        let a = synthetic_problem(0, 0.8, 150);
        let b = synthetic_problem(1, 0.5, 150);
        for test in DistributionTest::all() {
            let opts = AnalysisOptions::new(test, 100_000, 5);
            let sa = DistributionSketch::of(&a, &opts);
            let sb = DistributionSketch::of(&b, &opts);
            assert_eq!(
                sketch_similarity(&sa, &sb, &opts),
                problem_similarity_with(&a, &b, &opts),
                "{test:?}"
            );
        }
    }

    #[test]
    fn extending_an_empty_graph_matches_the_batch_build() {
        let problems: Vec<ErProblem> = (0..7)
            .map(|i| synthetic_problem(i, 0.35 + 0.08 * i as f64, 90))
            .collect();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        for test in [DistributionTest::KolmogorovSmirnov, DistributionTest::C2st] {
            let opts = AnalysisOptions::new(test, usize::MAX, 13);
            let (batch, batch_sketches) = build_problem_graph_sketched(&refs, &opts, 0.4);
            let mut g = Graph::new(0);
            let mut sketches = Vec::new();
            // arbitrary chunking: 2 + 1 + 4 arrivals
            let mut added = 0;
            for chunk in [&refs[..2], &refs[2..3], &refs[3..]] {
                added += extend_problem_graph_sketched(&mut g, &mut sketches, chunk, &opts, 0.4);
            }
            assert_eq!(g.num_nodes(), batch.num_nodes(), "{test:?}");
            assert_eq!(g.num_edges(), batch.num_edges(), "{test:?}");
            assert_eq!(added, batch.num_edges(), "{test:?}");
            assert_eq!(sketches.len(), batch_sketches.len(), "{test:?}");
            for i in 0..refs.len() {
                // bit-identical weights *and* adjacency order
                assert_eq!(g.neighbors(i), batch.neighbors(i), "{test:?} node {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn extend_rejects_desynced_graph_and_sketches() {
        let p = synthetic_problem(0, 0.8, 30);
        let opts = AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, 100, 1);
        let mut g = Graph::new(3);
        let mut sketches = Vec::new();
        extend_problem_graph_sketched(&mut g, &mut sketches, &[&p], &opts, 0.5);
    }

    #[test]
    fn feature_matrix_is_a_feature_sample() {
        let p = synthetic_problem(0, 0.8, 100);
        let opts = AnalysisOptions::new(DistributionTest::Wasserstein, 500, 2);
        let s = problem_similarity_with(&p, &p.features, &opts);
        assert!(s > 0.97, "{s}");
    }

    #[test]
    #[should_panic(expected = "feature spaces must agree")]
    fn mismatched_feature_spaces_panic() {
        let a = synthetic_problem(0, 0.8, 50);
        let m = FeatureMatrix::from_rows(&[vec![0.5]]);
        let opts = AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, 100, 1);
        let _ = problem_similarity_with(&a, &m, &opts);
    }

    #[test]
    #[should_panic(expected = "feature spaces must agree")]
    fn mismatched_sketches_panic() {
        let a = synthetic_problem(0, 0.8, 50);
        let m = FeatureMatrix::from_rows(&[vec![0.5]]);
        let opts = AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, 100, 1);
        let sa = DistributionSketch::of(&a, &opts);
        let sm = DistributionSketch::of(&m, &opts);
        let _ = sketch_similarity(&sa, &sm, &opts);
    }

    #[test]
    fn sketch_respects_sample_cap() {
        let p = synthetic_problem(0, 0.8, 500);
        let opts = AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, 64, 3);
        let s = DistributionSketch::of(&p, &opts);
        assert_eq!(s.num_features(), 2);
        for c in s.columns() {
            assert_eq!(c.len(), 64);
        }
        // univariate sketches skip the C2ST row sample entirely
        assert!(!s.has_c2st_rows());
        assert_eq!(s.num_rows(), 0);
        // a C2ST sketch materializes rows under the clamped cap, and skips
        // the (unused) per-column univariate sketches
        let c2st = DistributionSketch::of(&p, &AnalysisOptions::new(DistributionTest::C2st, 64, 3));
        assert!(c2st.has_c2st_rows());
        assert!(!c2st.has_univariate_columns());
        assert_eq!(c2st.num_rows(), 64);
        assert_eq!(c2st.num_features(), 2);
    }

    #[test]
    fn c2st_sketches_with_unequal_rows_resample_rather_than_truncate() {
        // 300-row vs 60-row problems: the larger sketch stores all 300 rows
        // (cap 2000), so the pairwise comparison must draw a seeded random
        // 60-subset instead of the first 60 blocking-ordered rows
        let a = synthetic_problem(0, 0.8, 300);
        let b = synthetic_problem(1, 0.78, 60);
        let opts = AnalysisOptions::new(DistributionTest::C2st, 100_000, 4);
        let sa = DistributionSketch::of(&a, &opts);
        let sb = DistributionSketch::of(&b, &opts);
        assert_eq!(sa.num_rows(), 300);
        assert_eq!(sb.num_rows(), 60);
        let s1 = sketch_similarity(&sa, &sb, &opts);
        let s2 = sketch_similarity(&sa, &sb, &opts);
        assert_eq!(s1, s2, "resampling must be seed-deterministic");
        assert!((0.0..=1.0).contains(&s1));
    }

    #[test]
    fn test_names() {
        assert_eq!(DistributionTest::KolmogorovSmirnov.name(), "KS");
        assert_eq!(DistributionTest::C2st.name(), "C2ST");
    }
}
