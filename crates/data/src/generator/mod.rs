//! Synthetic multi-source dataset generators.
//!
//! Stand-ins for the paper's three benchmarks, whose records are not shipped
//! with this repository: each generator mirrors the published *shape* of
//! its dataset — source count, ER problem count, pair volume, match rate,
//! intra-source duplicates — while per-source [`SourceProfile`]s create the
//! heterogeneous similarity distributions (paper Fig. 2) that MoRER's
//! distribution analysis exploits.

mod camera;
mod computer;
mod music;

pub use camera::camera;
pub use computer::computer;
pub use music::music;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::blocking::{token_blocking_profiled, token_blocking_within_profiled, TokenBlockingConfig};
use crate::corruption::{corrupt_value, AttributeKind, SourceProfile};
use crate::problem::{profile_dataset, Benchmark, ErProblem};
use crate::record::{DataSource, MultiSourceDataset, Record, Schema};
use morer_sim::ComparisonScheme;

/// Size preset for generated benchmarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DatasetScale {
    /// Minimal data for unit tests (seconds to build and solve).
    Tiny,
    /// Default scale: ~10% of the paper's pair volume, minutes end-to-end.
    Default,
    /// The paper's published volume (Table 2).
    Paper,
    /// Explicit multiplier relative to `Paper`.
    Custom(f64),
}

impl DatasetScale {
    /// Multiplier applied to the paper-scale entity counts.
    pub fn factor(self) -> f64 {
        match self {
            Self::Tiny => 0.02,
            Self::Default => 0.1,
            Self::Paper => 1.0,
            Self::Custom(f) => f.max(0.001),
        }
    }
}

/// Canonical (uncorrupted) entity values.
pub(crate) struct Entity {
    pub values: Vec<String>,
}

/// Specification shared by the domain generators.
pub(crate) struct DomainSpec {
    pub name: &'static str,
    pub schema: Schema,
    /// Corruption family per attribute.
    pub kinds: Vec<AttributeKind>,
    /// Extra tokens the corruptor may append to text attributes.
    pub extra_tokens: &'static [&'static str],
}

/// How the benchmark's ER problems are split into `P_I` / `P_U`.
pub(crate) enum SplitMode {
    /// Dexter style: split the *problems* (50% initial by default).
    Problems { ratio_init: f64 },
    /// WDC/Music style: split each problem's *pairs* into a train problem
    /// (initial) and a test problem (unsolved).
    Pairs { train_fraction: f64 },
}

/// Per-source generation parameters.
pub(crate) struct SourcePlan {
    pub profile: SourceProfile,
    /// Probability an entity is mentioned in this source.
    pub coverage: f64,
    /// Probability a mentioned entity gets a second corrupted mention
    /// (intra-source duplicates, Dexter-style).
    pub intra_dup_rate: f64,
}

/// Materialize data sources from entities: each source mentions a covered
/// subset of the entities with profile-specific corruption.
pub(crate) fn materialize_sources(
    entities: &[Entity],
    plans: &[SourcePlan],
    spec: &DomainSpec,
    rng: &mut SmallRng,
) -> Vec<DataSource> {
    plans
        .iter()
        .enumerate()
        .map(|(sid, plan)| {
            let mut records = Vec::new();
            for (eid, entity) in entities.iter().enumerate() {
                if !rng.gen_bool(plan.coverage.clamp(0.0, 1.0)) {
                    continue;
                }
                records.push(mention(eid as u64, entity, plan, spec, rng));
                if rng.gen_bool(plan.intra_dup_rate.clamp(0.0, 1.0)) {
                    records.push(mention(eid as u64, entity, plan, spec, rng));
                }
            }
            DataSource { id: sid, name: format!("{}-{}", spec.name, sid), records }
        })
        .collect()
}

fn mention(
    entity: u64,
    canonical: &Entity,
    plan: &SourcePlan,
    spec: &DomainSpec,
    rng: &mut SmallRng,
) -> Record {
    let values = canonical
        .values
        .iter()
        .zip(&spec.kinds)
        .map(|(v, &kind)| corrupt_value(v, kind, &plan.profile, spec.extra_tokens, rng))
        .collect();
    Record { uid: 0, source: 0, entity, values }
}

/// Build the benchmark: blocking per source pair, non-match subsampling to
/// the target ratio, problem construction, and the `P_I`/`P_U` split.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_benchmark(
    name: &str,
    dataset: MultiSourceDataset,
    scheme: ComparisonScheme,
    blocking: &TokenBlockingConfig,
    nonmatch_ratio: f64,
    include_self_problems: bool,
    split: SplitMode,
    seed: u64,
) -> Benchmark {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB10C);
    let mut problems: Vec<ErProblem> = Vec::new();
    let n = dataset.num_sources();

    // One profiling pass over every record serves blocking (interned token
    // ids on the blocking attribute) and featurization (everything the
    // scheme compares) for all O(n²) source-pair problems — the same shared
    // `ProfileSet` discipline as `Benchmark::from_dataset`, instead of
    // every `ErProblem::build` re-profiling its own records.
    let spec = scheme.profile_spec().require_tokens(blocking.attribute);
    let profiles = profile_dataset(&dataset, spec);

    let mut raw = Vec::new();
    for k in 0..n {
        if include_self_problems {
            let pairs =
                token_blocking_within_profiled(&dataset.sources[k].records, &profiles, blocking);
            raw.push(((k, k), pairs));
        }
        for l in (k + 1)..n {
            let pairs = token_blocking_profiled(
                &dataset.sources[k].records,
                &dataset.sources[l].records,
                &profiles,
                blocking,
            );
            raw.push(((k, l), pairs));
        }
    }

    for (sources, pairs) in raw {
        let sampled = subsample_nonmatches(&dataset, pairs, nonmatch_ratio, &mut rng);
        if sampled.is_empty() {
            continue;
        }
        let id = problems.len();
        problems.push(ErProblem::build_with_profiles(
            id, &dataset, &scheme, sources, sampled, &profiles,
        ));
    }

    let (problems, initial, unsolved) = match split {
        SplitMode::Problems { ratio_init } => {
            let mut ids: Vec<usize> = (0..problems.len()).collect();
            ids.shuffle(&mut rng);
            let cut = ((ids.len() as f64) * ratio_init).round() as usize;
            let mut initial = ids[..cut].to_vec();
            let mut unsolved = ids[cut..].to_vec();
            initial.sort_unstable();
            unsolved.sort_unstable();
            (problems, initial, unsolved)
        }
        SplitMode::Pairs { train_fraction } => {
            let mut out = Vec::with_capacity(problems.len() * 2);
            let mut initial = Vec::new();
            let mut unsolved = Vec::new();
            for p in problems {
                let (mut train, mut test) = p.split(train_fraction, seed ^ p.id as u64);
                if train.num_pairs() == 0 || test.num_pairs() == 0 {
                    continue;
                }
                train.id = out.len();
                initial.push(train.id);
                out.push(train);
                test.id = out.len();
                unsolved.push(test.id);
                out.push(test);
            }
            (out, initial, unsolved)
        }
    };

    Benchmark { name: name.to_owned(), dataset, scheme, problems, initial, unsolved }
}

/// Keep all true matches; sample non-matches down to `ratio` per match
/// (keeps the published match-rate shape without discarding positives).
fn subsample_nonmatches(
    dataset: &MultiSourceDataset,
    pairs: Vec<(u32, u32)>,
    ratio: f64,
    rng: &mut SmallRng,
) -> Vec<(u32, u32)> {
    let (matches, mut nonmatches): (Vec<_>, Vec<_>) =
        pairs.into_iter().partition(|&(a, b)| dataset.is_match(a, b));
    let keep = ((matches.len() as f64) * ratio).round() as usize;
    nonmatches.shuffle(rng);
    nonmatches.truncate(keep.max(matches.len().min(8)));
    let mut out = matches;
    out.extend(nonmatches);
    out.sort_unstable();
    out
}

/// Round-robin the standard profiles across `n` sources with per-source
/// coverage drawn from `[coverage_lo, coverage_hi]`.
pub(crate) fn standard_plans(
    n: usize,
    coverage_lo: f64,
    coverage_hi: f64,
    intra_dup_rate: f64,
    rng: &mut SmallRng,
) -> Vec<SourcePlan> {
    let profiles = SourceProfile::standard_profiles();
    (0..n)
        .map(|i| SourcePlan {
            profile: profiles[i % profiles.len()].clone(),
            coverage: rng.gen_range(coverage_lo..=coverage_hi),
            intra_dup_rate,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors_ordered() {
        assert!(DatasetScale::Tiny.factor() < DatasetScale::Default.factor());
        assert!(DatasetScale::Default.factor() < DatasetScale::Paper.factor());
        assert_eq!(DatasetScale::Custom(0.5).factor(), 0.5);
        assert!(DatasetScale::Custom(-1.0).factor() > 0.0);
    }

    #[test]
    fn materialize_respects_coverage_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let spec = DomainSpec {
            name: "t",
            schema: Schema::new(vec!["a"]),
            kinds: vec![AttributeKind::Text],
            extra_tokens: &[],
        };
        let entities: Vec<Entity> =
            (0..10).map(|i| Entity { values: vec![format!("value {i}")] }).collect();
        let full = SourcePlan { profile: SourceProfile::clean(), coverage: 1.0, intra_dup_rate: 0.0 };
        let none = SourcePlan { profile: SourceProfile::clean(), coverage: 0.0, intra_dup_rate: 0.0 };
        let sources = materialize_sources(&entities, &[full, none], &spec, &mut rng);
        assert_eq!(sources[0].len(), 10);
        assert_eq!(sources[1].len(), 0);
    }

    #[test]
    fn intra_dup_rate_one_duplicates_every_mention() {
        let mut rng = SmallRng::seed_from_u64(2);
        let spec = DomainSpec {
            name: "t",
            schema: Schema::new(vec!["a"]),
            kinds: vec![AttributeKind::Text],
            extra_tokens: &[],
        };
        let entities: Vec<Entity> =
            (0..5).map(|i| Entity { values: vec![format!("value {i}")] }).collect();
        let plan = SourcePlan { profile: SourceProfile::clean(), coverage: 1.0, intra_dup_rate: 1.0 };
        let sources = materialize_sources(&entities, &[plan], &spec, &mut rng);
        assert_eq!(sources[0].len(), 10);
        assert!(sources[0].has_intra_duplicates());
    }

    #[test]
    fn standard_plans_cycle_profiles() {
        let mut rng = SmallRng::seed_from_u64(3);
        let plans = standard_plans(6, 0.5, 0.7, 0.0, &mut rng);
        assert_eq!(plans.len(), 6);
        assert_eq!(plans[0].profile.name, plans[4].profile.name);
        assert_ne!(plans[0].profile.name, plans[1].profile.name);
        for p in &plans {
            assert!((0.5..=0.7).contains(&p.coverage));
        }
    }
}
