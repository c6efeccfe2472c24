//! DittoSim — the supervised transformer baseline (Li et al., VLDB 2020)
//! under the embedding substitution of DESIGN.md §3.
//!
//! Ditto serializes record pairs as `COL … VAL … [SEP] …` and fine-tunes
//! DistilBERT. The stand-in keeps the exact serialization and the
//! "needs-lots-of-labels, strong-on-text" profile: records are embedded with
//! hashed n-grams, pairs become `[cos, |a − b|, a ⊙ b]` interaction features, and
//! a one-hidden-layer MLP is trained on the (50% or all) labeled pairs.

use std::collections::HashMap;

use crate::{score_problem, BaselineContext, BaselineRun, ErBaseline};
use morer_embed::serialize::serialize_record;
use morer_embed::{Embedder, EmbedderConfig};
use morer_ml::metrics::PairCounts;
use morer_ml::mlp::{Mlp, MlpConfig};
use morer_ml::TrainingSet;
use morer_sim::par;

/// Configuration of the Ditto stand-in.
#[derive(Debug, Clone)]
pub struct DittoConfig {
    /// Embedding dimensionality (pair features are twice this).
    pub embedding_dim: usize,
    /// MLP head.
    pub mlp: MlpConfig,
}

impl Default for DittoConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 128,
            mlp: MlpConfig { hidden: 24, epochs: 12, batch_size: 64, ..Default::default() },
        }
    }
}

/// The Ditto stand-in.
#[derive(Debug, Clone, Default)]
pub struct DittoSim {
    /// Hyperparameters.
    pub config: DittoConfig,
}

impl DittoSim {
    /// Create with the given configuration.
    pub fn new(config: DittoConfig) -> Self {
        Self { config }
    }
}

/// Embed every record referenced by the given problems once.
pub(crate) fn embed_records(
    ctx: &BaselineContext<'_>,
    dim: usize,
) -> (Embedder, HashMap<u32, Vec<f32>>) {
    let attributes = ctx.dataset.schema.attributes().to_vec();
    let mut uids: Vec<u32> = ctx
        .initial
        .iter()
        .chain(&ctx.unsolved)
        .flat_map(|p| p.pairs.iter().flat_map(|&(a, b)| [a, b]))
        .collect();
    uids.sort_unstable();
    uids.dedup();
    let corpus: Vec<String> = uids
        .iter()
        .map(|&uid| serialize_record(&attributes, &ctx.dataset.record(uid).values))
        .collect();
    let embedder = Embedder::fit(
        EmbedderConfig { dim, ..Default::default() },
        &corpus,
    );
    let embeddings: HashMap<u32, Vec<f32>> =
        par::map_indexed(uids.len(), 64, |i| (uids[i], embedder.embed(&corpus[i])))
            .into_iter()
            .collect();
    (embedder, embeddings)
}

/// Build the supervised pair-feature training set (fraction per problem).
pub(crate) fn pair_training_set(
    ctx: &BaselineContext<'_>,
    embedder: &Embedder,
    embeddings: &HashMap<u32, Vec<f32>>,
) -> TrainingSet {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut ts = TrainingSet::new(embedder.pair_feature_dim());
    for (pi, p) in ctx.initial.iter().enumerate() {
        let mut idx: Vec<usize> = (0..p.num_pairs()).collect();
        if ctx.train_fraction < 1.0 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(ctx.seed ^ (pi as u64) << 16);
            idx.shuffle(&mut rng);
            idx.truncate(((idx.len() as f64) * ctx.train_fraction).round() as usize);
        }
        for i in idx {
            let (a, b) = p.pairs[i];
            ts.push(&embedder.pair_features(&embeddings[&a], &embeddings[&b]), p.labels[i]);
        }
    }
    ts
}

/// Oversample the minority class until it reaches at least `1 / max_ratio`
/// of the majority (gradient-trained heads collapse to all-negative on the
/// ~5% match rates of blocked ER data otherwise — real Ditto balances its
/// batches for the same reason).
pub(crate) fn oversample_minority(ts: &TrainingSet, max_ratio: usize, seed: u64) -> TrainingSet {
    use rand::Rng;
    use rand::SeedableRng;
    let (pos, neg) = ts.class_counts();
    if pos == 0 || neg == 0 {
        return ts.clone();
    }
    let (minority_label, minority, majority) =
        if pos < neg { (true, pos, neg) } else { (false, neg, pos) };
    let target = majority / max_ratio.max(1);
    if minority >= target {
        return ts.clone();
    }
    let minority_rows: Vec<usize> =
        (0..ts.len()).filter(|&i| ts.y[i] == minority_label).collect();
    let mut out = ts.clone();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    for _ in 0..(target - minority) {
        let i = minority_rows[rng.gen_range(0..minority_rows.len())];
        out.push(ts.x.row(i), minority_label);
    }
    out
}

impl ErBaseline for DittoSim {
    fn name(&self) -> &'static str {
        "ditto"
    }

    fn run(&self, ctx: &BaselineContext<'_>) -> BaselineRun {
        let (embedder, embeddings) = embed_records(ctx, self.config.embedding_dim);
        let training = pair_training_set(ctx, &embedder, &embeddings);
        let labels_used = training.len();
        let balanced = oversample_minority(&training, 2, ctx.seed);
        let mlp = Mlp::fit(
            &balanced,
            &MlpConfig { seed: ctx.seed, ..self.config.mlp.clone() },
        );
        let mut counts = PairCounts::new();
        for p in &ctx.unsolved {
            let predictions: Vec<bool> = par::map_indexed(p.pairs.len(), 256, |i| {
                let (a, b) = p.pairs[i];
                mlp.predict(&embedder.pair_features(&embeddings[&a], &embeddings[&b]))
            });
            score_problem(&mut counts, &predictions, p);
        }
        BaselineRun { counts, labels_used }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{tiny_benchmark, tiny_context};

    #[test]
    fn ditto_learns_textual_matching() {
        let bench = tiny_benchmark();
        let ctx = tiny_context(&bench);
        let run = DittoSim::default().run(&ctx);
        assert!(run.counts.f1() > 0.5, "F1 = {}", run.counts.f1());
        let total_initial: usize = ctx.initial.iter().map(|p| p.num_pairs()).sum();
        assert_eq!(run.labels_used, total_initial);
    }

    #[test]
    fn half_fraction_uses_half_labels() {
        let bench = tiny_benchmark();
        let mut ctx = tiny_context(&bench);
        ctx.train_fraction = 0.5;
        let run = DittoSim::default().run(&ctx);
        let total_initial: usize = ctx.initial.iter().map(|p| p.num_pairs()).sum();
        assert!(run.labels_used < total_initial * 6 / 10);
        assert!(run.labels_used > total_initial * 4 / 10);
    }

    #[test]
    fn embeddings_cover_all_records_in_pairs() {
        let bench = tiny_benchmark();
        let ctx = tiny_context(&bench);
        let (_, embeddings) = embed_records(&ctx, 64);
        for p in ctx.initial.iter().chain(&ctx.unsolved) {
            for &(a, b) in &p.pairs {
                assert!(embeddings.contains_key(&a));
                assert!(embeddings.contains_key(&b));
            }
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(DittoSim::default().name(), "ditto");
    }
}
