//! SudowoodoSim — contrastive self-supervised ER (Wang et al., ICDE 2023)
//! under the embedding substitution of DESIGN.md §3.
//!
//! Sudowoodo learns a similarity-aware representation with contrastive
//! self-supervision (augmented views of the same record pulled together) and
//! needs only a small labeled set downstream. The stand-in: hashed record
//! embeddings → triplet-trained linear projection on corruption-augmented
//! views → cosine scores → a matching threshold calibrated on the same
//! labeling budget MoRER gets (the paper's semi-supervised variant).

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{score_problem, BaselineContext, BaselineRun, ErBaseline};
use morer_data::corruption::{corrupt_value, AttributeKind, SourceProfile};
use morer_embed::contrastive::{ContrastiveConfig, ContrastiveProjection};
use morer_embed::serialize::serialize_record;
use morer_embed::{cosine, Embedder, EmbedderConfig};
use morer_ml::metrics::{f1_score, PairCounts};
use morer_sim::par;

/// Configuration of the Sudowoodo stand-in.
#[derive(Debug, Clone)]
pub struct SudowoodoConfig {
    /// Embedding dimensionality before projection.
    pub embedding_dim: usize,
    /// Contrastive projection training.
    pub contrastive: ContrastiveConfig,
    /// Cap on self-supervised training pairs (records sampled for views).
    pub max_pretrain_records: usize,
}

impl Default for SudowoodoConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 256,
            contrastive: ContrastiveConfig { epochs: 8, ..Default::default() },
            max_pretrain_records: 4000,
        }
    }
}

/// The Sudowoodo stand-in.
#[derive(Debug, Clone, Default)]
pub struct SudowoodoSim {
    /// Hyperparameters.
    pub config: SudowoodoConfig,
}

impl SudowoodoSim {
    /// Create with the given configuration.
    pub fn new(config: SudowoodoConfig) -> Self {
        Self { config }
    }
}

impl ErBaseline for SudowoodoSim {
    fn name(&self) -> &'static str {
        "sudowoodo"
    }

    fn run(&self, ctx: &BaselineContext<'_>) -> BaselineRun {
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let attributes = ctx.dataset.schema.attributes().to_vec();

        // --- corpus + base embeddings -----------------------------------
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
        let embedder =
            Embedder::fit(EmbedderConfig { dim: self.config.embedding_dim, ..Default::default() }, &corpus);

        // --- self-supervised pretraining on augmented views --------------
        let profile = SourceProfile::noisy();
        let mut pretrain_uids = uids.clone();
        pretrain_uids.shuffle(&mut rng);
        pretrain_uids.truncate(self.config.max_pretrain_records);
        let pairs: Vec<(Vec<f32>, Vec<f32>)> = pretrain_uids
            .iter()
            .map(|&uid| {
                let record = ctx.dataset.record(uid);
                let augmented: Vec<Option<String>> = record
                    .values
                    .iter()
                    .map(|v| {
                        v.as_deref()
                            .and_then(|s| corrupt_value(s, AttributeKind::Text, &profile, &[], &mut rng))
                    })
                    .collect();
                let anchor = embedder.embed(&serialize_record(&attributes, &record.values));
                let view = embedder.embed(&serialize_record(&attributes, &augmented));
                (anchor, view)
            })
            .collect();
        let projection = ContrastiveProjection::train(
            &pairs,
            &ContrastiveConfig { seed: ctx.seed, ..self.config.contrastive.clone() },
        );
        let projected: HashMap<u32, Vec<f32>> = par::map_indexed(uids.len(), 64, |i| {
            (uids[i], projection.project(&embedder.embed(&corpus[i])))
        })
        .into_iter()
        .collect();

        // --- semi-supervised threshold calibration on the budget ---------
        let mut all_rows: Vec<(usize, usize)> = ctx
            .initial
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| (0..p.num_pairs()).map(move |i| (pi, i)))
            .collect();
        all_rows.shuffle(&mut rng);
        all_rows.truncate(ctx.budget);
        let labeled: Vec<(f64, bool)> = all_rows
            .iter()
            .map(|&(pi, i)| {
                let p = ctx.initial[pi];
                let (a, b) = p.pairs[i];
                (f64::from(cosine(&projected[&a], &projected[&b])), p.labels[i])
            })
            .collect();
        let labels_used = labeled.len();
        let threshold = calibrate_threshold(&labeled);

        // --- classification ----------------------------------------------
        let mut counts = PairCounts::new();
        for p in &ctx.unsolved {
            let predictions: Vec<bool> = par::map_indexed(p.pairs.len(), 256, |i| {
                let (a, b) = p.pairs[i];
                f64::from(cosine(&projected[&a], &projected[&b])) >= threshold
            });
            score_problem(&mut counts, &predictions, p);
        }
        BaselineRun { counts, labels_used }
    }
}

/// Best F1 threshold over a grid of cosine cut points.
fn calibrate_threshold(labeled: &[(f64, bool)]) -> f64 {
    if labeled.is_empty() {
        return 0.8;
    }
    let actual: Vec<bool> = labeled.iter().map(|&(_, l)| l).collect();
    let mut best = (0.8f64, -1.0f64);
    for step in 0..100 {
        let t = step as f64 / 100.0;
        let preds: Vec<bool> = labeled.iter().map(|&(s, _)| s >= t).collect();
        let f1 = f1_score(&preds, &actual);
        if f1 > best.1 {
            best = (t, f1);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{tiny_benchmark, tiny_context};

    #[test]
    fn sudowoodo_runs_and_respects_budget() {
        let bench = tiny_benchmark();
        let ctx = tiny_context(&bench);
        let run = SudowoodoSim::default().run(&ctx);
        assert!(run.labels_used <= ctx.budget);
        assert!(run.counts.total() > 0);
        // self-supervised + threshold: weaker than supervised but not random
        assert!(run.counts.recall() > 0.3, "recall = {}", run.counts.recall());
    }

    #[test]
    fn threshold_calibration_prefers_separating_point() {
        let labeled = vec![
            (0.95, true),
            (0.9, true),
            (0.85, true),
            (0.3, false),
            (0.2, false),
            (0.25, false),
        ];
        let t = calibrate_threshold(&labeled);
        assert!(t > 0.3 && t <= 0.85, "t = {t}");
        assert_eq!(calibrate_threshold(&[]), 0.8);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(SudowoodoSim::default().name(), "sudowoodo");
    }
}
