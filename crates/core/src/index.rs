//! Sub-linear `sel_base` model search: a two-level candidate index over
//! [`DistributionSketch`]es.
//!
//! Exhaustive model search ([`crate::selection::best_entry_for`]) scores the
//! query against **every** searchable entry — O(P) full sketch comparisons
//! per solve. [`SearchIndex`] keeps the exhaustive path as the only scorer
//! but drives it through provable *upper bounds*, so only a shortlist of
//! entries is ever exactly scored while the returned hit stays
//! **bit-identical** to the exhaustive search (recall-1; pinned by
//! `crates/core/tests/index_properties.rs` and quick-bench).
//!
//! # Level 1 — coarse per-column signatures
//!
//! Each searchable entry's cached representative sketch is distilled into an
//! `EntrySig`: per feature column a `ColumnSig` holding
//!
//! * the empty-sample gate flags (ECDF emptiness for KS/WD, binned total
//!   for PSI) — when a gate fires, the *exact* per-column distance is the
//!   gate constant, so the bound collapses to the exact value;
//! * an exact copy of the column's Welford [`Moments`] — the pooled-stddev
//!   aggregation weight `merge(q, e).stddev()` is recomputed bit-identically
//!   to [`ColumnSketch::pooled_stddev`] ([`Moments::merge`] is commutative
//!   bit-for-bit);
//! * a stride-[`SIG_STRIDE`] subset of the [`CDF_GRID`]-point CDF grid and of
//!   the [`PSI_BINS`](morer_stats::tests::PSI_BINS) PSI proportions — exact copies of the vectors the
//!   full-distance cores consume;
//! * a quantized signature code (see *quantization* below) feeding the
//!   inverted index.
//!
//! Per-column **distance lower bounds** follow from the subsets alone:
//!
//! * **KS**: `max_k |G_q[k] − G_e[k]|` over the grid subset lower-bounds the
//!   supremum over all x (every grid point is a candidate x);
//! * **WD**: `Σ_{k∈S} |G_q[k] − G_e[k]| / CDF_GRID` lower-bounds the full
//!   mean because every omitted term is non-negative;
//! * **PSI**: each per-bin term `(max(x,ε) − max(y,ε))·ln(max(x,ε)/max(y,ε))`
//!   is non-negative, so the partial sum over the bin subset lower-bounds the
//!   full sum (identical per-term formula, identical ε = [`PSI_EPSILON`]).
//!
//! # Level 2 — pivot / triangle pruning
//!
//! Per-column KS (sup-norm of CDF differences) and WD (scaled L1 on the
//! shared grid) are genuine pseudometrics on sketch space, so for any
//! pivot sketch p: `d(q, e) ≥ |d(q, p) − d(p, e)|`. The index stores exact
//! per-column distances from each entry to the first [`NUM_PIVOTS`]
//! searchable entries (a deterministic pure function of the searchable set);
//! a query computes its own exact pivot distances once and tightens every
//! per-column lower bound with the triangle inequality. The empty-sample
//! gate constants preserve the inequality (all gated distances are 0 or the
//! one-sided constant 1, and every KS/WD distance is ≤ 1; the one-sided
//! cases are checked exhaustively in the tests below). PSI does **not**
//! satisfy the triangle inequality and uses the partial-sum bound only.
//!
//! # Aggregation: why the bound survives `weighted_mean`
//!
//! Per-column similarity upper bounds come from the monotone-decreasing
//! distance→similarity transform ([`UnivariateTest::similarity_from_distance`]):
//! a distance lower bound maps to a similarity upper bound. They are
//! aggregated by the *same* [`weighted_mean`] with *bit-identical* weights
//! (the exact pooled-stddev from the stored moment copies) — and
//! `weighted_mean` is monotone in its values under IEEE-754 (products with
//! non-negative weights, sequential sums, and the final division are each
//! monotone roundings), so the aggregate of upper bounds upper-bounds the
//! aggregate of exact similarities. A [`BOUND_MARGIN`] of 1e-9 is added to
//! absorb the places where the two paths round differently at the ulp level
//! (grid values are `fl(count/n)` while the exact KS supremum, from the
//! bucket-pruned kernel of [`ColumnSketch::distance`], is tracked in
//! integers; the all-zero-weight fallback of `weighted_mean` is a Welford
//! mean; pivot distances carry their own evaluation error). The margin only
//! ever *loosens* pruning — exact scores are computed by the unchanged
//! [`sketch_similarity`] path, so a looser bound can cost a wasted exact
//! score but never change a result.
//!
//! # Quantization (inverted-index codes)
//!
//! Each column quantizes to `code = mean_bucket·80 + stddev_bucket·10 +
//! psi_decile` with `mean_bucket = ⌊clamp(mean,0,1)·8⌋ ∈ [0,7]`,
//! `stddev_bucket = ⌊stddev·16⌋ ∈ [0,7]` (unit-interval data has stddev
//! ≤ 0.5) and `psi_decile = argmax-bin/10 ∈ [0,9]`. The inverted index maps
//! `(feature, code)` to the entries carrying it; the query probes its own
//! codes and the entry sharing the most codes (ties → lowest position) is
//! exactly scored *first*, seeding the pruning threshold high. The codes are
//! a heuristic only — correctness never depends on them.
//!
//! # Candidate scan
//!
//! The inverted-index seed is exactly scored *first*, fixing an incumbent
//! `(best_pos, best_sim)`. The bound pass then visits every searchable
//! entry cheapest-bound-first: the pivot-only triangle bound
//! (O([`NUM_PIVOTS`]) per column) is tested against the incumbent before
//! the stride-[`SIG_STRIDE`] signature bound is computed, and an entry is
//! dropped as soon as *any* of its valid upper bounds proves it cannot win
//! under the exhaustive comparator (`max` similarity, ties to the
//! **lowest** position). Survivors are sorted by `(upper bound desc,
//! position asc)` and exactly scored in that order; the scan stops at the
//! first candidate whose bound cannot beat the current best: once
//! `ub < best_sim`, no remaining candidate can win; once `ub == best_sim`
//! with `position > best_pos`, every remaining candidate either has a
//! smaller bound or an even larger position, so none can win the tie
//! either. Both prunes rely only on `score ≤ ub` and on `best_sim` never
//! decreasing (and `best_pos` only decreasing at equal score), so entries
//! the index never exactly scores are exactly the entries whose bound
//! proves they lose — recall-1 by construction.
//!
//! # Composition
//!
//! [`crate::searcher::ModelSearcher`] owns the index behind an `IndexCell`
//! (copy-on-write like the entry store: snapshot clones copy the current
//! `Arc<SearchIndex>`, so readers never block and never observe a torn
//! index). The index is *self-validating*: every `EntrySig` remembers the
//! `Arc` identity of the sketch it was distilled from, and a refresh
//! compares those identities against the entries' current cached sketches —
//! unchanged entries are reused wholesale ([`SearchIndex::refresh`] is
//! O(dirty) sketch/signature work plus O(P) pointer checks), and a fully
//! valid index is returned as the *same* `Arc` with no allocation.
//! [`crate::pipeline::Morer`] refreshes the writer's index on every commit,
//! so incremental maintenance under any `add_problems` chunking equals a
//! fresh build (pure functions of sketch content; property-tested).
//! C2ST repositories, feature-width mismatches and options drift all fall
//! back to the exhaustive scorer — identical results, no speedup.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use morer_obs::Histogram;

use serde::{Deserialize, Serialize};

use crate::distribution::{sketch_similarity, AnalysisOptions, DistributionSketch};
use crate::repository::ClusterEntry;
use crate::selection::best_entry_for;
use morer_data::ErProblem;
use morer_stats::describe::{weighted_mean, Moments};
use morer_stats::tests::{CDF_GRID, PSI_EPSILON};
use morer_stats::{ColumnSketch, UnivariateTest};

/// Stride of the grid/proportion subsets stored per column signature
/// (26 of the 101 CDF grid points, 25 of the 100 PSI bins).
pub const SIG_STRIDE: usize = 4;

/// Number of pivot entries of the triangle-pruning layer.
pub const NUM_PIVOTS: usize = 4;

/// Additive slack on every aggregate upper bound; absorbs cross-path
/// IEEE-754 rounding differences (see the module docs). Loosening only —
/// never affects exact scores.
pub const BOUND_MARGIN: f64 = 1e-9;

/// One feature column's coarse signature (see the module docs).
#[derive(Debug, Clone, PartialEq)]
struct ColumnSig {
    /// ECDF emptiness — drives the KS/WD empty-sample gate.
    ecdf_empty: bool,
    /// Binned-total emptiness — drives the PSI empty-sample gate.
    hist_empty: bool,
    /// Exact copy of the column's Welford moments (aggregation weights).
    moments: Moments,
    /// `grid[0], grid[SIG_STRIDE], …` — exact copies.
    grid_sub: Vec<f64>,
    /// `props[0], props[SIG_STRIDE], …` — exact copies.
    props_sub: Vec<f64>,
    /// Quantized signature code for the inverted index.
    code: u32,
}

impl ColumnSig {
    fn of(col: &ColumnSketch) -> Self {
        Self {
            ecdf_empty: col.is_empty(),
            hist_empty: col.hist_total() == 0,
            moments: *col.moments(),
            grid_sub: col.grid().iter().step_by(SIG_STRIDE).copied().collect(),
            props_sub: col.props().iter().step_by(SIG_STRIDE).copied().collect(),
            code: quantize(col),
        }
    }
}

/// Quantized signature code of one column (see the module docs). A pure
/// function of the sketch content, shared by index build and query probing.
fn quantize(col: &ColumnSketch) -> u32 {
    let m = col.moments();
    let mean_bucket = ((m.mean.clamp(0.0, 1.0) * 8.0) as u32).min(7);
    let stddev_bucket = ((m.stddev() * 16.0) as u32).min(7);
    let mut dominant = 0usize;
    let mut best = f64::NEG_INFINITY;
    for (i, &p) in col.props().iter().enumerate() {
        if p > best {
            best = p;
            dominant = i;
        }
    }
    mean_bucket * 80 + stddev_bucket * 10 + (dominant as u32 / 10).min(9)
}

/// The empty-sample gate, replicated from `morer_stats` (where it is crate
/// private): when at least one side is empty the exact distance is a
/// constant, making the "bound" exact.
#[inline]
fn empty_gate(a_empty: bool, b_empty: bool, one_sided: f64) -> Option<f64> {
    match (a_empty, b_empty) {
        (true, true) => Some(0.0),
        (true, false) | (false, true) => Some(one_sided),
        (false, false) => None,
    }
}

/// Lower bound on `q.distance(entry_column, uni)` from the entry's stored
/// signature subsets. Exact when an empty-sample gate fires.
fn signature_distance_lb(q: &ColumnSketch, sig: &ColumnSig, uni: UnivariateTest) -> f64 {
    let gated = match uni {
        UnivariateTest::Psi => empty_gate(q.hist_total() == 0, sig.hist_empty, f64::INFINITY),
        _ => empty_gate(q.is_empty(), sig.ecdf_empty, 1.0),
    };
    if let Some(d) = gated {
        return d;
    }
    match uni {
        UnivariateTest::KolmogorovSmirnov => {
            let mut sup = 0.0f64;
            for (x, y) in q.grid().iter().step_by(SIG_STRIDE).zip(&sig.grid_sub) {
                sup = sup.max((x - y).abs());
            }
            sup
        }
        UnivariateTest::Wasserstein => {
            let sum: f64 = q
                .grid()
                .iter()
                .step_by(SIG_STRIDE)
                .zip(&sig.grid_sub)
                .map(|(x, y)| (x - y).abs())
                .sum();
            sum / CDF_GRID as f64
        }
        UnivariateTest::Psi => q
            .props()
            .iter()
            .step_by(SIG_STRIDE)
            .zip(&sig.props_sub)
            .map(|(&x, &y)| {
                let x = x.max(PSI_EPSILON);
                let y = y.max(PSI_EPSILON);
                (x - y) * (x / y).ln()
            })
            .sum(),
    }
}

/// One entry's index record.
#[derive(Debug, Clone)]
struct EntrySig {
    /// `Arc` identity of the representative sketch this signature was
    /// distilled from — the self-validation key of [`SearchIndex::refresh`].
    source: Arc<DistributionSketch>,
    /// Per-feature coarse signatures.
    cols: Vec<ColumnSig>,
    /// Exact per-column distances to the pivots, laid out
    /// `[pivot · t + feature]`; empty when pivots do not apply (PSI, or a
    /// pivot/entry feature-width mismatch).
    pivot_dists: Vec<f64>,
}

impl PartialEq for EntrySig {
    fn eq(&self, other: &Self) -> bool {
        // structural: the source Arc is an identity key, not content
        self.cols == other.cols && self.pivot_dists == other.pivot_dists
    }
}

/// A pivot of the triangle-pruning layer: a searchable entry position and
/// its representative sketch.
#[derive(Debug, Clone)]
struct Pivot {
    position: usize,
    sketch: Arc<DistributionSketch>,
}

impl PartialEq for Pivot {
    fn eq(&self, other: &Self) -> bool {
        self.position == other.position && self.sketch.columns() == other.sketch.columns()
    }
}

/// The two-level candidate index (see the module docs). Immutable once
/// built; published behind `Arc` copy-on-write like the entry store.
#[derive(Debug)]
pub struct SearchIndex {
    /// The analysis options the index was built under (searches under
    /// different options fall back to the exhaustive path).
    options: AnalysisOptions,
    /// The univariate family the bounds run in; `None` for C2ST (no bound
    /// exists — every search falls back, identical results, no speedup).
    uni: Option<UnivariateTest>,
    /// One record per entry position; `None` for unsearchable entries.
    sigs: Vec<Option<EntrySig>>,
    /// The pivots (empty for PSI/C2ST).
    pivots: Vec<Pivot>,
    /// Inverted index: `(feature, code)` → sorted searchable positions.
    postings: BTreeMap<(u32, u32), Vec<u32>>,
}

impl PartialEq for SearchIndex {
    fn eq(&self, other: &Self) -> bool {
        self.options == other.options
            && self.uni == other.uni
            && self.sigs == other.sigs
            && self.pivots == other.pivots
            && self.postings == other.postings
    }
}

/// Whether the triangle-pruning layer applies to this family (KS/WD are
/// pseudometrics; PSI is not).
fn is_metric(uni: UnivariateTest) -> bool {
    !matches!(uni, UnivariateTest::Psi)
}

impl SearchIndex {
    /// Build an index from scratch over `entries` under `opts`.
    pub fn build(entries: &[Arc<ClusterEntry>], opts: &AnalysisOptions) -> Arc<Self> {
        Self::refresh(None, entries, opts)
    }

    /// Validate `prev` against the entries' current cached sketches and
    /// return it unchanged (same `Arc`, no allocation) when fully valid;
    /// otherwise rebuild reusing every still-valid record — O(dirty)
    /// sketch/signature/pivot-distance work plus O(P) pointer-equality
    /// checks. Incremental refresh equals a fresh [`SearchIndex::build`]
    /// structurally because every component is a deterministic pure
    /// function of sketch content and the searchable set (property-tested).
    pub fn refresh(
        prev: Option<&Arc<Self>>,
        entries: &[Arc<ClusterEntry>],
        opts: &AnalysisOptions,
    ) -> Arc<Self> {
        let uni = opts.test.univariate();
        // current sketch per searchable entry — `representative_sketch`
        // returns the cached Arc when warm and rebuilds only dirty entries
        // (every mutation path invalidates the cache)
        let sketches: Vec<Option<Arc<DistributionSketch>>> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                (uni.is_some() && !e.representatives.is_empty())
                    .then(|| e.representative_sketch(&opts.for_entry(i)))
            })
            .collect();
        if let Some(prev) = prev {
            let valid = prev.options == *opts
                && prev.sigs.len() == entries.len()
                && sketches.iter().zip(&prev.sigs).all(|(s, sig)| match (s, sig) {
                    (Some(s), Some(sig)) => Arc::ptr_eq(s, &sig.source),
                    (None, None) => true,
                    _ => false,
                });
            if valid {
                return Arc::clone(prev);
            }
        }
        let pivots: Vec<Pivot> = match uni {
            Some(u) if is_metric(u) => sketches
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    s.as_ref().map(|s| Pivot { position: i, sketch: Arc::clone(s) })
                })
                .take(NUM_PIVOTS)
                .collect(),
            _ => Vec::new(),
        };
        let pivots_unchanged = prev.is_some_and(|p| {
            p.pivots.len() == pivots.len()
                && p.pivots.iter().zip(&pivots).all(|(a, b)| {
                    a.position == b.position && Arc::ptr_eq(&a.sketch, &b.sketch)
                })
        });
        let sigs: Vec<Option<EntrySig>> = sketches
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let s = s.as_ref()?;
                let reused = prev
                    .and_then(|p| p.sigs.get(i))
                    .and_then(Option::as_ref)
                    .filter(|sig| Arc::ptr_eq(&sig.source, s));
                Some(match reused {
                    Some(sig) if pivots_unchanged => sig.clone(),
                    Some(sig) => EntrySig {
                        pivot_dists: pivot_distances(&pivots, s, uni),
                        ..sig.clone()
                    },
                    None => EntrySig {
                        source: Arc::clone(s),
                        cols: s.columns().iter().map(ColumnSig::of).collect(),
                        pivot_dists: pivot_distances(&pivots, s, uni),
                    },
                })
            })
            .collect();
        let mut postings: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
        for (i, sig) in sigs.iter().enumerate() {
            if let Some(sig) = sig {
                for (f, col) in sig.cols.iter().enumerate() {
                    postings.entry((f as u32, col.code)).or_default().push(i as u32);
                }
            }
        }
        Arc::new(Self { options: *opts, uni, sigs, pivots, postings })
    }

    /// Entries carrying an index record (= searchable entries at build time).
    pub fn num_indexed(&self) -> usize {
        self.sigs.iter().filter(|s| s.is_some()).count()
    }

    /// Pivots of the triangle layer.
    pub fn num_pivots(&self) -> usize {
        self.pivots.len()
    }

    /// Distinct `(feature, code)` posting lists of the inverted index.
    pub fn num_postings(&self) -> usize {
        self.postings.len()
    }

    /// Index-accelerated `sel_base` search: identical semantics (and
    /// results, bit-for-bit — including which panics fire on inconsistent
    /// inputs) to [`best_entry_for`] over the same entries and options.
    pub fn search(
        &self,
        problem: &ErProblem,
        entries: &[Arc<ClusterEntry>],
        opts: &AnalysisOptions,
        stats: &IndexStats,
    ) -> Option<(usize, f64)> {
        if entries.iter().all(|e| e.representatives.is_empty()) {
            return None;
        }
        stats.queries.fetch_add(1, Ordering::Relaxed);
        let searchable = entries.iter().filter(|e| !e.representatives.is_empty()).count();
        stats.considered.fetch_add(searchable as u64, Ordering::Relaxed);
        let fallback = |stats: &IndexStats| {
            stats.fallbacks.fetch_add(1, Ordering::Relaxed);
            stats.exact_scored.fetch_add(searchable as u64, Ordering::Relaxed);
            best_entry_for(problem, entries, opts)
        };
        let Some(uni) = self.uni else {
            return fallback(stats);
        };
        if self.options != *opts || self.sigs.len() != entries.len() {
            return fallback(stats);
        }
        let t = problem.num_features();
        // the bounds assume one shared feature width; anything else falls
        // back (where the exhaustive path raises its own width assertion)
        if self.sigs.iter().flatten().any(|sig| sig.cols.len() != t) {
            return fallback(stats);
        }
        // index/entry searchability must agree position by position
        // (should always hold — refresh runs before search); on drift,
        // stay exhaustive rather than wrong
        if self
            .sigs
            .iter()
            .zip(entries)
            .any(|(sig, e)| sig.is_some() == e.representatives.is_empty())
        {
            return fallback(stats);
        }
        // stage timing: everything from query sketching through the bound
        // scan and candidate sort is the "bound scan"; the re-scoring loop
        // below is the "exact score" phase. Pure observability — recording
        // never changes which entries are scored or in what order.
        let bound_started = Instant::now();
        let query = DistributionSketch::of(problem, opts);
        if !query.has_univariate_columns() {
            return fallback(stats);
        }
        let qcols = query.columns();

        // exact query→pivot per-column distances (amortized over all
        // entries; the whole triangle layer costs ~NUM_PIVOTS exact scores)
        let qp: Vec<Vec<f64>> = self
            .pivots
            .iter()
            .filter(|p| p.sketch.num_features() == t)
            .map(|p| {
                qcols
                    .iter()
                    .zip(p.sketch.columns())
                    .map(|(qc, pc)| qc.distance(pc, uni))
                    .collect()
            })
            .collect();
        let full_pivots = qp.len() == self.pivots.len();

        // inverted-index seed: the entry sharing the most quantized codes
        // with the query is scored first to raise the pruning threshold
        let seed = {
            let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
            for (f, qc) in qcols.iter().enumerate() {
                if let Some(list) = self.postings.get(&(f as u32, quantize(qc))) {
                    for &i in list {
                        *counts.entry(i).or_insert(0) += 1;
                    }
                }
            }
            counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .map(|(&i, _)| i as usize)
        };

        let mut scored = 0u64;
        let mut score = |i: usize| -> f64 {
            scored += 1;
            let entry_opts = opts.for_entry(i);
            let sketch = entries[i].representative_sketch(&entry_opts);
            sketch_similarity(&query, &sketch, &entry_opts)
        };
        let mut best: Option<(usize, f64)> = seed.map(|i| (i, score(i)));

        // upper bound per searchable entry, cheapest first: the pivot-only
        // triangle bound (O(NUM_PIVOTS) per column) is tried against the
        // seed incumbent before the stride-4 signature bound is computed —
        // both are valid upper bounds, and `best` only ever tightens, so an
        // entry skipped here could never have won (same argument as the
        // scan's early break below).
        let cannot_beat = |ub: f64, i: usize, best: &Option<(usize, f64)>| -> bool {
            match best {
                Some((bi, bs)) => matches!(
                    ub.total_cmp(bs).then(bi.cmp(&i)),
                    std::cmp::Ordering::Less
                ),
                None => false,
            }
        };
        let mut candidates: Vec<(usize, f64)> = Vec::with_capacity(searchable);
        let mut sims = vec![0.0f64; t];
        let mut weights = vec![1.0f64; t];
        for (i, sig) in self.sigs.iter().enumerate() {
            let Some(sig) = sig else { continue };
            let has_pivots = full_pivots && sig.pivot_dists.len() == self.pivots.len() * t;
            for f in 0..t {
                let mut lb = 0.0f64;
                if has_pivots {
                    for (p, qpd) in qp.iter().enumerate() {
                        lb = lb.max((qpd[f] - sig.pivot_dists[p * t + f]).abs());
                    }
                }
                sims[f] = uni.similarity_from_distance(lb);
                weights[f] = if opts.weight_by_stddev {
                    qcols[f].moments().merge(&sig.cols[f].moments).stddev()
                } else {
                    1.0
                };
            }
            if has_pivots {
                let pivot_ub = weighted_mean(&sims, &weights).clamp(0.0, 1.0) + BOUND_MARGIN;
                if cannot_beat(pivot_ub, i, &best) {
                    continue;
                }
            }
            for f in 0..t {
                let mut lb = signature_distance_lb(&qcols[f], &sig.cols[f], uni);
                if has_pivots {
                    for (p, qpd) in qp.iter().enumerate() {
                        lb = lb.max((qpd[f] - sig.pivot_dists[p * t + f]).abs());
                    }
                }
                sims[f] = uni.similarity_from_distance(lb);
            }
            let ub = weighted_mean(&sims, &weights).clamp(0.0, 1.0) + BOUND_MARGIN;
            if cannot_beat(ub, i, &best) {
                continue;
            }
            candidates.push((i, ub));
        }
        candidates.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        stats.bound_scan_micros.record_micros(bound_started.elapsed());
        stats.shortlist.record(candidates.len() as u64);

        let exact_started = Instant::now();
        for &(i, ub) in &candidates {
            if Some(i) == seed {
                continue;
            }
            if let Some((bi, bs)) = best {
                // sorted by (ub desc, pos asc): once the bound cannot beat
                // the incumbent under the exhaustive comparator, nothing
                // after it can either (see the module docs)
                match ub.total_cmp(&bs) {
                    std::cmp::Ordering::Less => break,
                    std::cmp::Ordering::Equal if i > bi => break,
                    _ => {}
                }
            }
            let s = score(i);
            let wins = match best {
                // the exhaustive comparator: max similarity under
                // `total_cmp`, ties to the lowest position
                Some((bi, bs)) => matches!(
                    s.total_cmp(&bs).then(bi.cmp(&i)),
                    std::cmp::Ordering::Greater
                ),
                None => true,
            };
            if wins {
                best = Some((i, s));
            }
        }
        stats.exact_score_micros.record_micros(exact_started.elapsed());
        stats.exact_scored.fetch_add(scored, Ordering::Relaxed);
        debug_assert!(best.is_some(), "searchable entries exist but none was scored");
        best
    }
}

/// Exact per-column distances from every pivot to `sketch` (flattened
/// `[pivot · t + feature]`), or empty when the layer does not apply.
fn pivot_distances(
    pivots: &[Pivot],
    sketch: &Arc<DistributionSketch>,
    uni: Option<UnivariateTest>,
) -> Vec<f64> {
    let Some(uni) = uni else { return Vec::new() };
    if pivots.is_empty() || !is_metric(uni) {
        return Vec::new();
    }
    let t = sketch.num_features();
    if pivots.iter().any(|p| p.sketch.num_features() != t) {
        return Vec::new();
    }
    let mut dists = Vec::with_capacity(pivots.len() * t);
    for p in pivots {
        for (pc, ec) in p.sketch.columns().iter().zip(sketch.columns()) {
            dists.push(pc.distance(ec, uni));
        }
    }
    dists
}

/// Cumulative index query counters (relaxed atomics — observability only).
/// Shared by every clone of a searcher lineage so `morer-serve` `/stats`
/// aggregates across snapshot republications.
#[derive(Debug, Default)]
pub struct IndexStats {
    queries: AtomicU64,
    exact_scored: AtomicU64,
    considered: AtomicU64,
    fallbacks: AtomicU64,
    /// Per-query shortlist size: candidates surviving the bound scan
    /// (the entries the exact phase may re-score).
    shortlist: Histogram,
    /// Per-query bound-phase cost (query sketching, pivot distances,
    /// signature bounds, candidate sort), in microseconds.
    bound_scan_micros: Histogram,
    /// Per-query exact re-scoring cost, in microseconds.
    exact_score_micros: Histogram,
}

impl IndexStats {
    /// Per-query shortlist-size distribution (indexed path only).
    pub fn shortlist(&self) -> &Histogram {
        &self.shortlist
    }

    /// Per-query bound-scan timing distribution, in microseconds.
    pub fn bound_scan_micros(&self) -> &Histogram {
        &self.bound_scan_micros
    }

    /// Per-query exact re-scoring timing distribution, in microseconds.
    pub fn exact_score_micros(&self) -> &Histogram {
        &self.exact_score_micros
    }

    /// Point-in-time report over these counters and `index`'s sizes.
    pub fn overview(&self, index: &SearchIndex) -> IndexOverview {
        let exact_scored = self.exact_scored.load(Ordering::Relaxed);
        let considered = self.considered.load(Ordering::Relaxed);
        IndexOverview {
            indexed_entries: index.num_indexed(),
            pivots: index.num_pivots(),
            postings: index.num_postings(),
            queries: self.queries.load(Ordering::Relaxed),
            exact_scored,
            considered,
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            shortlist_frac: if considered == 0 {
                0.0
            } else {
                exact_scored as f64 / considered as f64
            },
        }
    }
}

/// Wire-facing snapshot of an index and its query counters (the
/// `morer-serve` `/stats` `search_index` row).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndexOverview {
    /// Entries carrying an index record.
    pub indexed_entries: usize,
    /// Pivots of the triangle layer (0 for PSI/C2ST).
    pub pivots: usize,
    /// Distinct posting lists of the inverted index.
    pub postings: usize,
    /// Index-routed searches since the searcher lineage was created.
    pub queries: u64,
    /// Exact sketch comparisons those searches performed.
    pub exact_scored: u64,
    /// Searchable entries those searches considered (the exhaustive path
    /// would have exactly scored all of them).
    pub considered: u64,
    /// Searches answered by the exhaustive path (C2ST, options drift,
    /// width mismatch).
    pub fallbacks: u64,
    /// `exact_scored / considered` — the fraction of the repository the
    /// index could not prune (1.0 = no pruning, equivalent to exhaustive).
    pub shortlist_frac: f64,
}

/// Interior-mutable, clone-isolated slot a [`crate::searcher::ModelSearcher`]
/// keeps its index in.
///
/// Cloning a cell (how snapshots publish) copies the *contents* of the slot
/// — each searcher clone then validates/refreshes against its own frozen
/// entries, so a writer and its published snapshots can never clobber each
/// other's indexes across epochs — but **shares** the stats `Arc`, so query
/// counters aggregate over the whole searcher lineage. Like
/// [`crate::repository::SketchCache`], the cell is an acceleration
/// structure: refilling is idempotent (a race wastes a rebuild, never
/// changes a result).
pub(crate) struct IndexCell {
    slot: Mutex<Option<Arc<SearchIndex>>>,
    stats: Arc<IndexStats>,
}

impl Default for IndexCell {
    fn default() -> Self {
        Self { slot: Mutex::new(None), stats: Arc::new(IndexStats::default()) }
    }
}

impl Clone for IndexCell {
    fn clone(&self) -> Self {
        Self {
            slot: Mutex::new(self.slot.lock().expect("index cell poisoned").clone()),
            stats: Arc::clone(&self.stats),
        }
    }
}

impl std::fmt::Debug for IndexCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.slot.lock().map(|s| s.is_some()).unwrap_or(false);
        write!(f, "IndexCell({})", if filled { "filled" } else { "empty" })
    }
}

impl IndexCell {
    /// The currently published index, if one was built.
    pub(crate) fn get(&self) -> Option<Arc<SearchIndex>> {
        self.slot.lock().expect("index cell poisoned").clone()
    }

    /// Validate-or-rebuild against `entries` and publish the result. The
    /// common (nothing dirty) path is O(P) pointer checks and returns the
    /// already-published `Arc`.
    pub(crate) fn refresh(
        &self,
        entries: &[Arc<ClusterEntry>],
        opts: &AnalysisOptions,
    ) -> Arc<SearchIndex> {
        let prev = self.get();
        let index = SearchIndex::refresh(prev.as_ref(), entries, opts);
        if prev.as_ref().is_none_or(|p| !Arc::ptr_eq(p, &index)) {
            *self.slot.lock().expect("index cell poisoned") = Some(Arc::clone(&index));
        }
        index
    }

    /// The lineage-shared query counters.
    pub(crate) fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Point-in-time overview, `None` until an index was built.
    pub(crate) fn overview(&self) -> Option<IndexOverview> {
        self.get().map(|index| self.stats.overview(&index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionTest;
    use crate::testutil::{entry_with_mu, problem_with_mu};

    fn opts(test: DistributionTest) -> AnalysisOptions {
        AnalysisOptions::new(test, 1000, 7)
    }

    fn shared(entries: Vec<ClusterEntry>) -> Vec<Arc<ClusterEntry>> {
        entries.into_iter().map(Arc::new).collect()
    }

    fn spread_entries(n: usize) -> Vec<Arc<ClusterEntry>> {
        shared((0..n).map(|i| entry_with_mu(i, 0.2 + 0.6 * (i as f64 / n as f64))).collect())
    }

    #[test]
    fn indexed_search_matches_exhaustive_for_every_family() {
        for test in DistributionTest::all() {
            let o = opts(test);
            let entries = spread_entries(12);
            let index = SearchIndex::build(&entries, &o);
            let stats = IndexStats::default();
            for q in 0..8 {
                let problem = problem_with_mu(q, 0.2 + 0.1 * q as f64);
                assert_eq!(
                    index.search(&problem, &entries, &o, &stats),
                    best_entry_for(&problem, &entries, &o),
                    "{test:?} query {q}"
                );
            }
        }
    }

    #[test]
    fn column_bounds_never_undercut_exact_distances() {
        let o = opts(DistributionTest::KolmogorovSmirnov);
        let entries = spread_entries(10);
        let index = SearchIndex::build(&entries, &o);
        let problem = problem_with_mu(3, 0.5);
        let query = DistributionSketch::of(&problem, &o);
        for uni in UnivariateTest::all() {
            for sig in index.sigs.iter().flatten() {
                let zipped = query
                    .columns()
                    .iter()
                    .zip(sig.source.columns())
                    .zip(&sig.cols);
                for ((qc, exact_col), sc) in zipped {
                    let lb = signature_distance_lb(qc, sc, uni);
                    let exact = qc.distance(exact_col, uni);
                    assert!(
                        lb <= exact + 1e-12,
                        "{uni:?}: lower bound {lb} exceeds exact distance {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_gate_constants_preserve_the_triangle_inequality() {
        // all KS/WD distances live in [0, 1] with gate constants
        // {0, 1}; verify |d(q,p) − d(p,e)| ≤ d(q,e) over every emptiness
        // combination with at least one gate firing, for any non-gated
        // distance values in [0, 1] (the all-nonempty case is the genuine
        // pseudometric property of sup/L1 norms)
        let stand_ins = [0.0, 0.37, 1.0];
        for q in [false, true] {
            for p in [false, true] {
                for e in [false, true] {
                    if !(q || p || e) {
                        continue;
                    }
                    for &free in &stand_ins {
                        let d = |a: bool, b: bool| empty_gate(a, b, 1.0).unwrap_or(free);
                        let (dqp, dpe, dqe) = (d(q, p), d(p, e), d(q, e));
                        assert!(
                            (dqp - dpe).abs() <= dqe,
                            "gate combination ({q},{p},{e}) with free distance {free}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_reuses_a_fully_valid_index_by_pointer() {
        let o = opts(DistributionTest::KolmogorovSmirnov);
        let entries = spread_entries(6);
        let a = SearchIndex::build(&entries, &o);
        let b = SearchIndex::refresh(Some(&a), &entries, &o);
        assert!(Arc::ptr_eq(&a, &b), "valid index must be returned unchanged");
    }

    #[test]
    fn refresh_rebuilds_only_dirty_entries() {
        let o = opts(DistributionTest::KolmogorovSmirnov);
        let mut entries = spread_entries(8);
        let a = SearchIndex::build(&entries, &o);
        // mutate entry 6 (a non-pivot): its cache invalidates, sig rebuilds
        let e = Arc::make_mut(&mut entries[6]);
        e.representatives.push(&[0.5, 0.5], true);
        e.mark_mutated();
        let b = SearchIndex::refresh(Some(&a), &entries, &o);
        assert!(!Arc::ptr_eq(&a, &b));
        for i in (0..8).filter(|&i| i != 6) {
            let (sa, sb) = (a.sigs[i].as_ref().unwrap(), b.sigs[i].as_ref().unwrap());
            assert!(Arc::ptr_eq(&sa.source, &sb.source), "entry {i} must be reused");
        }
        assert!(!Arc::ptr_eq(
            &a.sigs[6].as_ref().unwrap().source,
            &b.sigs[6].as_ref().unwrap().source
        ));
        // and the refreshed index equals a from-scratch build structurally
        let fresh = SearchIndex::build(&entries, &o);
        assert_eq!(*b, *fresh);
    }

    #[test]
    fn c2st_indexes_fall_back_to_exhaustive() {
        let o = opts(DistributionTest::C2st);
        let entries = spread_entries(4);
        let index = SearchIndex::build(&entries, &o);
        assert_eq!(index.num_indexed(), 0);
        let stats = IndexStats::default();
        let problem = problem_with_mu(1, 0.4);
        assert_eq!(
            index.search(&problem, &entries, &o, &stats),
            best_entry_for(&problem, &entries, &o)
        );
        let report = stats.overview(&index);
        assert_eq!(report.fallbacks, 1);
        assert_eq!(report.exact_scored, report.considered);
    }

    #[test]
    fn stats_report_shortlist_fraction() {
        let o = opts(DistributionTest::KolmogorovSmirnov);
        let entries = spread_entries(20);
        let index = SearchIndex::build(&entries, &o);
        let stats = IndexStats::default();
        for q in 0..5 {
            let problem = problem_with_mu(q, 0.3 + 0.08 * q as f64);
            index.search(&problem, &entries, &o, &stats);
        }
        let report = stats.overview(&index);
        assert_eq!(report.queries, 5);
        assert_eq!(report.considered, 100);
        assert!(report.exact_scored >= 5, "at least one exact score per query");
        assert!(report.shortlist_frac <= 1.0 + 1e-12);
        assert_eq!(report.indexed_entries, 20);
        // serde round trip (the serve /stats row)
        let json = serde_json::to_string(&report).unwrap();
        let back: IndexOverview = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn cell_clones_isolate_the_slot_but_share_stats() {
        let o = opts(DistributionTest::KolmogorovSmirnov);
        let entries = spread_entries(5);
        let cell = IndexCell::default();
        let a = cell.refresh(&entries, &o);
        let clone = cell.clone();
        // the clone starts from the same published index…
        assert!(Arc::ptr_eq(&a, &clone.get().unwrap()));
        // …but refreshing the clone against different entries does not
        // clobber the original's slot
        let other = spread_entries(7);
        let b = clone.refresh(&other, &o);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &cell.get().unwrap()), "original slot untouched");
        // stats are lineage-shared: a query through the clone's index is
        // visible in the original cell's overview
        b.search(&problem_with_mu(0, 0.5), &other, &o, clone.stats());
        assert_eq!(cell.overview().unwrap().queries, 1);
        assert_eq!(clone.overview().unwrap().queries, 1);
    }
}
