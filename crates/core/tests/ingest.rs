//! Randomized correctness properties of the incremental ingest subsystem
//! (ISSUE 4 satellite): batch-equivalence of `add_problems` under
//! `ReclusterPolicy::Always`, chunking/insertion invariance of the problem
//! graph, attach-policy behavior, and snapshot epoch consistency under
//! concurrent reads.
//!
//! Deterministic seeded RNG loops rather than the proptest DSL (the house
//! style of `sketch_properties.rs`): inputs are structured and every case
//! must reproduce exactly from the fixed seeds.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use morer_core::clustering::ReclusterPolicy;
use morer_core::config::{MorerConfig, TrainingMode};
use morer_core::pipeline::Morer;
use morer_core::testutil::family_problem;
use morer_data::ErProblem;
use morer_ml::dataset::FeatureMatrix;
use morer_ml::model::ModelConfig;

/// A random ER problem drawn from one of a handful of distribution
/// families, so the resulting problem graph has real cluster structure.
fn random_problem(id: usize, n: usize, t: usize, rng: &mut SmallRng) -> ErProblem {
    let family = rng.gen_range(0..3u8);
    let match_mu = 0.5 + 0.15 * family as f64;
    let nonmatch_mu = 0.08 + 0.08 * family as f64;
    let spread: f64 = rng.gen_range(0.03..0.1);
    let mut features = FeatureMatrix::new(t);
    let mut labels = Vec::new();
    let mut pairs = Vec::new();
    for i in 0..n {
        let is_match = i % 3 == 0;
        let mu = if is_match { match_mu } else { nonmatch_mu };
        let row: Vec<f64> = (0..t)
            .map(|f| (mu + 0.02 * f as f64 + rng.gen_range(-spread..spread)).clamp(0.0, 1.0))
            .collect();
        features.push_row(&row);
        labels.push(is_match);
        pairs.push((i as u32, (i + n) as u32));
    }
    ErProblem {
        id,
        sources: (id, id + 1),
        pairs,
        features,
        labels,
        feature_names: (0..t).map(|f| format!("f{f}")).collect(),
    }
}

fn config(seed: u64) -> MorerConfig {
    MorerConfig { budget: 200, budget_min: 20, seed, ..MorerConfig::default() }
}

/// Solve outcomes of both pipelines over probe queries must agree
/// bit-for-bit.
fn assert_solve_identical(a: &Morer, b: &Morer, queries: &[ErProblem]) {
    for q in queries {
        let oa = a.searcher().solve(q);
        let ob = b.searcher().solve(q);
        assert_eq!(oa.entry, ob.entry);
        assert_eq!(oa.similarity, ob.similarity);
        assert_eq!(oa.predictions, ob.predictions);
        assert_eq!(oa.probabilities, ob.probabilities);
    }
}

/// Property: streaming problems through `add_problems` under the default
/// `ReclusterPolicy::Always` — in randomized batch splits — ends bit-identical
/// to one batch `Morer::build` over the same problem list: same repository
/// entries, same clustering, same solve outcomes.
#[test]
fn always_ingest_is_bit_identical_to_batch_build_under_random_chunking() {
    let mut rng = SmallRng::seed_from_u64(0x12_61_57);
    for case in 0..6u64 {
        let n = rng.gen_range(6..12);
        let rows = rng.gen_range(40..120);
        let problems: Vec<ErProblem> =
            (0..n).map(|i| random_problem(i, rows, 3, &mut rng)).collect();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let cfg = config(case * 31 + 7);
        let (batch, batch_report) = Morer::build(refs.clone(), &cfg);

        // random chunk boundaries, always starting from a non-empty build
        let first = rng.gen_range(1..n);
        let (mut inc, _) = Morer::build(refs[..first].to_vec(), &cfg);
        let mut lo = first;
        while lo < n {
            let hi = rng.gen_range(lo + 1..=n);
            let report = inc.add_problems(&refs[lo..hi]).unwrap();
            assert!(report.reclustered, "case {case}: Always must fully recluster");
            assert_eq!(report.problems_added, hi - lo, "case {case}");
            lo = hi;
        }

        assert_eq!(inc.num_problems(), batch.num_problems(), "case {case}");
        assert_eq!(inc.num_models(), batch_report.num_clusters, "case {case}");
        assert_eq!(inc.repository(), batch.repository(), "case {case}");
        let queries: Vec<ErProblem> =
            (0..3).map(|i| random_problem(100 + i, 60, 3, &mut rng)).collect();
        assert_solve_identical(&inc, &batch, &queries);
    }
}

/// Property: the capped-subsampling regime (sample_cap below the row count,
/// the one sanctioned divergence between sketched and direct scoring) is
/// *also* batch-equivalent — per-problem sketch seeds depend only on the
/// problem's global index, which chunking does not change.
#[test]
fn capped_always_ingest_stays_batch_equivalent() {
    let mut rng = SmallRng::seed_from_u64(0xCA9);
    let problems: Vec<ErProblem> =
        (0..8).map(|i| random_problem(i, 100, 3, &mut rng)).collect();
    let refs: Vec<&ErProblem> = problems.iter().collect();
    let cfg = MorerConfig { analysis_sample_cap: 32, ..config(11) };
    let (batch, _) = Morer::build(refs.clone(), &cfg);
    let (mut inc, _) = Morer::build(refs[..3].to_vec(), &cfg);
    for p in &refs[3..] {
        inc.add_problem(p).unwrap();
    }
    assert_eq!(inc.repository(), batch.repository());
}

/// Property: the ingested problem graph is insertion invariant — chunking
/// the same arrival sequence differently yields bit-identical graphs, and
/// (uncapped, univariate) permuting the arrival order preserves every
/// pairwise edge weight up to the index relabeling.
#[test]
fn problem_graph_is_insertion_order_invariant() {
    let mut rng = SmallRng::seed_from_u64(0x0D3);
    for case in 0..4u64 {
        let n = 9;
        let problems: Vec<ErProblem> =
            (0..n).map(|i| random_problem(i, rng.gen_range(30..90), 3, &mut rng)).collect();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        // uncapped KS: sketches are independent of the problem index
        let cfg = MorerConfig {
            analysis_sample_cap: usize::MAX,
            min_edge_similarity: 0.0,
            training: TrainingMode::Supervised { fraction: 0.5 },
            model: ModelConfig::GaussianNb,
            ..config(case)
        };

        let (mut one_by_one, _) = Morer::build(refs[..1].to_vec(), &cfg);
        for p in &refs[1..] {
            one_by_one.add_problem(p).unwrap();
        }
        let (batch, _) = Morer::build(refs.clone(), &cfg);
        assert_eq!(
            one_by_one.repository(),
            batch.repository(),
            "case {case}: chunking changed the repository"
        );
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(
                    one_by_one.problem_graph_edge(i, j),
                    batch.problem_graph_edge(i, j),
                    "case {case}: chunking changed edge ({i},{j})"
                );
            }
        }

        // permutation invariance of edge weights (problems identified by id)
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let permuted_refs: Vec<&ErProblem> = order.iter().map(|&i| refs[i]).collect();
        let (permuted, _) = Morer::build(permuted_refs, &cfg);
        // position of original problem i in the permuted pipeline
        let mut pos = vec![0usize; n];
        for (k, &i) in order.iter().enumerate() {
            pos[i] = k;
        }
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(
                    batch.problem_graph_edge(i, j),
                    permuted.problem_graph_edge(pos[i], pos[j]),
                    "case {case}: edge ({i},{j}) changed under permutation"
                );
            }
        }
    }
}

/// The `Never` policy only ever attaches or spawns singletons, keeps
/// serving, and `EveryN` converges back to the batch state when its full
/// recluster fires.
#[test]
fn every_n_policy_converges_to_batch_state_on_recluster() {
    let mut rng = SmallRng::seed_from_u64(0xEE7);
    let problems: Vec<ErProblem> =
        (0..10).map(|i| random_problem(i, 80, 3, &mut rng)).collect();
    let refs: Vec<&ErProblem> = problems.iter().collect();
    // supervised + fixed-seed models: generation is deterministic in the
    // clustering, so the EveryN pipeline must equal the batch build right
    // after its full recluster fires
    let cfg = MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        recluster: ReclusterPolicy::EveryN(4),
        ..config(3)
    };
    let (mut inc, _) = Morer::build(refs[..6].to_vec(), &cfg);
    let r7 = inc.add_problem(refs[6]).unwrap();
    let r8 = inc.add_problem(refs[7]).unwrap();
    let r9 = inc.add_problem(refs[8]).unwrap();
    assert!(!r7.reclustered && !r8.reclustered && !r9.reclustered);
    let r10 = inc.add_problem(refs[9]).unwrap();
    assert!(r10.reclustered, "4th insert since the last recluster must trigger");
    let (batch, _) = Morer::build(refs.clone(), &cfg);
    assert_eq!(inc.repository(), batch.repository());
}

/// Concurrency: a snapshot taken before an ingest keeps serving the old
/// epoch, bit-identically, while the writer commits new batches — readers
/// never observe a half-updated repository.
#[test]
fn snapshot_serves_its_epoch_during_concurrent_ingest() {
    let mut rng = SmallRng::seed_from_u64(0x57A9);
    let problems: Vec<ErProblem> =
        (0..12).map(|i| random_problem(i, 80, 3, &mut rng)).collect();
    let refs: Vec<&ErProblem> = problems.iter().collect();
    let queries: Vec<ErProblem> =
        (0..4).map(|i| random_problem(50 + i, 60, 3, &mut rng)).collect();
    let query_refs: Vec<&ErProblem> = queries.iter().collect();

    let (mut morer, _) = Morer::build(refs[..6].to_vec(), &config(5));
    let old_epoch = morer.epoch();
    let snap: Arc<_> = morer.snapshot();
    snap.warm();
    let reference = snap.solve_batch(&query_refs);

    // readers hammer the old snapshot while the writer ingests new batches
    let results: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let snap = Arc::clone(&snap);
                let query_refs = &query_refs;
                scope.spawn(move || {
                    let mut all = Vec::new();
                    for _ in 0..5 {
                        all.push(snap.solve_batch(query_refs));
                    }
                    all
                })
            })
            .collect();
        // concurrent writes: two committed ingest batches
        morer.add_problems(&refs[6..9]).unwrap();
        morer.add_problems(&refs[9..]).unwrap();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    for outcomes in &results {
        for (o, r) in outcomes.iter().zip(&reference) {
            assert_eq!(o.entry, r.entry);
            assert_eq!(o.similarity, r.similarity);
            assert_eq!(o.predictions, r.predictions);
        }
    }
    assert!(morer.epoch() > old_epoch);
    // the post-ingest snapshot is a different handle over the new state
    let fresh = morer.snapshot();
    assert!(!Arc::ptr_eq(&snap, &fresh));
    assert_eq!(fresh.num_models(), morer.num_models());
    assert_eq!(snap.num_models(), snap.repository().num_models());
}

/// ROADMAP open item, closed in PR 5: snapshot publication is O(dirty).
/// The entry store is `Arc`-shared, so entries untouched by a commit keep
/// their exact allocation across epochs — pointer-equal between
/// consecutive snapshots — while touched entries get fresh allocations
/// (and the old snapshot keeps serving the old payload). Covers both the
/// full-recluster path (dirty-tracked regeneration) and the
/// incremental-attach path (`Arc::make_mut` copy-on-write).
#[test]
fn snapshot_publication_shares_untouched_entries_across_epochs() {
    for policy in [ReclusterPolicy::Always, ReclusterPolicy::Never] {
        // supervised + fixed model: budgets are zero, so under Always the
        // untouched cluster keeps a matching generation fingerprint
        let cfg = MorerConfig {
            training: TrainingMode::Supervised { fraction: 0.5 },
            model: ModelConfig::GaussianNb,
            recluster: policy,
            ..config(17)
        };
        let problems: Vec<ErProblem> =
            (0..6).map(|i| family_problem(i, (i >= 3) as u8, 150)).collect();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let (mut morer, _) = Morer::build(refs, &cfg);
        assert_eq!(morer.num_models(), 2, "{policy:?}: expected one model per family");

        let snap1 = morer.snapshot();
        // a family-0 arrival touches exactly family-0's cluster
        let arrival = family_problem(6, 0, 150);
        let report = morer.add_problem(&arrival).unwrap();
        assert_eq!(
            report.models_retrained + report.new_models,
            1,
            "{policy:?}: arrival should touch exactly one model: {report:?}"
        );
        let snap2 = morer.snapshot();
        assert!(!Arc::ptr_eq(&snap1, &snap2));

        let arrival_idx = morer.num_problems() - 1;
        let mut shared = 0;
        let mut replaced = 0;
        for (e1, e2) in snap1.entries().iter().zip(snap2.entries()) {
            assert_eq!(e1.id, e2.id);
            if e2.problem_ids.contains(&arrival_idx) {
                // the touched cluster was retrained into a fresh allocation;
                // the old snapshot keeps the pre-commit payload
                assert!(!Arc::ptr_eq(e1, e2), "{policy:?}: touched entry {} shared", e2.id);
                assert_ne!(e1.problem_ids, e2.problem_ids);
                replaced += 1;
            } else {
                // O(dirty) contract: untouched entries are pointer-equal
                assert!(Arc::ptr_eq(e1, e2), "{policy:?}: untouched entry {} cloned", e2.id);
                shared += 1;
            }
        }
        assert_eq!((shared, replaced), (1, 1), "{policy:?}");

        // the published snapshot shares every entry with the live searcher —
        // publication itself deep-copies nothing
        for (s, w) in snap2.entries().iter().zip(morer.searcher().entries()) {
            assert!(Arc::ptr_eq(s, w), "{policy:?}: publication cloned entry {}", s.id);
        }
    }
}

/// IngestReport accounting is consistent with the observable state changes.
#[test]
fn ingest_reports_account_for_state_changes() {
    let mut rng = SmallRng::seed_from_u64(0xACC);
    let problems: Vec<ErProblem> =
        (0..9).map(|i| random_problem(i, 70, 3, &mut rng)).collect();
    let refs: Vec<&ErProblem> = problems.iter().collect();
    for policy in [
        ReclusterPolicy::Always,
        ReclusterPolicy::Never,
        ReclusterPolicy::EveryN(2),
        ReclusterPolicy::Drift { ratio: 0.25 },
    ] {
        let cfg = MorerConfig { recluster: policy, ..config(9) };
        let (mut morer, _) = Morer::build(refs[..5].to_vec(), &cfg);
        let mut labels_before = morer.labels_used();
        let mut epoch = morer.epoch();
        for p in &refs[5..] {
            let report = morer.add_problem(p).unwrap();
            assert_eq!(report.problems_added, 1, "{policy:?}");
            assert_eq!(
                report.labels_spent,
                morer.labels_used() - labels_before,
                "{policy:?}"
            );
            assert!(report.epoch > epoch, "{policy:?}: ingest must advance the epoch");
            assert_eq!(report.epoch, morer.epoch(), "{policy:?}");
            assert!(
                report.clusters_touched >= report.new_models,
                "{policy:?}: {report:?}"
            );
            labels_before = morer.labels_used();
            epoch = report.epoch;
        }
        assert_eq!(morer.num_problems(), refs.len(), "{policy:?}");
        // every ingested problem is solvable against the grown repository
        let outcome = morer.searcher().solve(refs[8]);
        assert!(outcome.entry.is_some(), "{policy:?}");
    }
}
