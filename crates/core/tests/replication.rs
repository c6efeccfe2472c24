//! Log-shipping follower invariants (ISSUE 7), exercised transport-free
//! against a real leader's log bytes:
//!
//! * **Property (satellite): arbitrary cut points and bit flips.** A
//!   shipped frame stream cut at any byte applies exactly the whole-frame
//!   prefix and resumes seamlessly after a re-fetch; a stream with any bit
//!   flipped applies exactly the frames before the flip and *never* a
//!   corrupted record — then catches up fully once clean bytes arrive.
//! * **Group commit** produces a log that recovers bit-identically to the
//!   per-commit-fsync log of the same ingest script.
//! * **In-place repair** ([`Morer::repair_wal`]) recovers a pipeline whose
//!   log was poisoned by a transient disk failure, without ever having
//!   acknowledged an unpersisted commit.

use std::sync::OnceLock;

use proptest::prelude::*;

use morer_core::config::{MorerConfig, TrainingMode};
use morer_core::pipeline::Morer;
use morer_core::replication::{FollowerState, SegmentStatus};
use morer_core::repository::ModelRepository;
use morer_core::testutil::{family_problem, ScratchDir};
use morer_core::wal::{Durability, WalOptions, HEADER_LEN, LOG_FILE};
use morer_core::wal::{content_hash, CommitRecord, Wal, BASE_FILE};
use morer_data::ErProblem;
use morer_ml::model::ModelConfig;

fn config() -> MorerConfig {
    MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        seed: 42,
        ..MorerConfig::default()
    }
}

fn options() -> WalOptions {
    WalOptions { durability: Durability::Fsync, compact_every: 0 }
}

fn scratch_dir(name: &str) -> ScratchDir {
    let dir = std::env::temp_dir().join(format!("morer_repl_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    ScratchDir(dir)
}

fn canonical_bytes(repo: &ModelRepository) -> Vec<u8> {
    let mut buf = Vec::new();
    repo.save_json(&mut buf).unwrap();
    buf
}

fn batch(c: usize) -> Vec<ErProblem> {
    (0..2).map(|i| family_problem(100 * c + i, (c % 2) as u8, 80)).collect()
}

/// A real leader's shipped stream, built once: the log's frame bytes
/// (header stripped), the frame boundaries within them, and the canonical
/// end state a fully caught-up follower must reproduce bit-identically.
struct Fixture {
    /// Log bytes after the 12-byte file header — what `GET /wal` ships.
    frames: Vec<u8>,
    /// Frame boundaries relative to `frames` (starts plus the final end).
    boundaries: Vec<usize>,
    final_epoch: u64,
    final_bytes: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch_dir("ship_leader");
        let mut leader = Morer::open_with(&dir, &config(), options()).unwrap();
        for c in 0..4 {
            let problems = batch(c);
            let refs: Vec<&ErProblem> = problems.iter().collect();
            leader.add_problems(&refs).unwrap();
        }
        let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
        let frames = log[HEADER_LEN as usize..].to_vec();
        let mut boundaries = vec![0usize];
        let mut pos = 0usize;
        while pos < frames.len() {
            let len =
                u32::from_le_bytes(frames[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 12 + len;
            boundaries.push(pos);
        }
        assert_eq!(*boundaries.last().unwrap(), frames.len(), "frame walk must cover the log");
        assert_eq!(boundaries.len(), 5, "four commits, four frames");
        Fixture {
            frames,
            boundaries,
            final_epoch: leader.epoch(),
            final_bytes: canonical_bytes(&leader.searcher().repository()),
        }
    })
}

/// How many whole frames fit entirely before byte `pos` of the stream.
fn whole_frames_before(boundaries: &[usize], pos: usize) -> u64 {
    boundaries.iter().skip(1).filter(|&&end| end <= pos).count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: a stream cut at an arbitrary byte applies exactly the
    /// whole-frame prefix (torn tail buffered, never applied), and the
    /// follower resumes from its offset to full, bit-identical catch-up.
    #[test]
    fn any_cut_point_applies_exactly_the_valid_prefix_and_resumes(cut_frac in 0.0f64..=1.0) {
        let fx = fixture();
        let cut = ((cut_frac * fx.frames.len() as f64) as usize).min(fx.frames.len());
        let mut state = FollowerState::empty();
        let report = state.ingest_segment(HEADER_LEN, &fx.frames[..cut]);
        let whole = whole_frames_before(&fx.boundaries, cut);
        prop_assert_eq!(report.applied, whole);
        prop_assert_eq!(state.epoch(), whole, "epochs are 1..=4, one per frame");
        prop_assert_eq!(
            state.offset(),
            HEADER_LEN + fx.boundaries[whole as usize] as u64,
            "the offset must sit on the last applied frame boundary"
        );
        prop_assert!(matches!(report.status, SegmentStatus::Clean | SegmentStatus::TornTail));
        // re-fetch from the follower's own offset: seamless resume
        let resume = (state.offset() - HEADER_LEN) as usize;
        let report = state.ingest_segment(state.offset(), &fx.frames[resume..]);
        prop_assert_eq!(report.applied, fx.final_epoch - whole);
        prop_assert_eq!(state.epoch(), fx.final_epoch);
        prop_assert_eq!(canonical_bytes(&state.repository()), fx.final_bytes.clone());
    }

    /// Satellite: flip any bit anywhere in the stream — the follower
    /// applies exactly the frames before the corruption, never a damaged
    /// record, and catches up bit-identically once it re-fetches clean
    /// bytes from its offset.
    #[test]
    fn any_bit_flip_is_rejected_and_refetch_recovers(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let fx = fixture();
        let pos = ((pos_frac * fx.frames.len() as f64) as usize).min(fx.frames.len() - 1);
        let mut corrupted = fx.frames.clone();
        corrupted[pos] ^= 1 << bit;
        let mut state = FollowerState::empty();
        let report = state.ingest_segment(HEADER_LEN, &corrupted);
        let whole = whole_frames_before(&fx.boundaries, pos);
        prop_assert_eq!(
            report.applied, whole,
            "exactly the frames before the flipped byte apply"
        );
        prop_assert_eq!(state.epoch(), whole);
        // the damaged frame is either detected outright (hash/length) or
        // left as an un-appliable tail (a flipped length that runs past the
        // end) — never Clean, never applied
        prop_assert!(matches!(
            report.status,
            SegmentStatus::Corrupt | SegmentStatus::TornTail
        ));
        // re-fetch clean bytes from the follower's offset: full catch-up
        let resume = (state.offset() - HEADER_LEN) as usize;
        state.ingest_segment(state.offset(), &fx.frames[resume..]);
        prop_assert_eq!(state.epoch(), fx.final_epoch);
        prop_assert_eq!(canonical_bytes(&state.repository()), fx.final_bytes.clone());
    }

    /// Robustness: a valid log cut anywhere and followed by arbitrary
    /// bytes never panics recovery, and recovery lands exactly where a
    /// follower bootstrapped from the same base lands over the same bytes
    /// — recovery replays through the follower for *any* input.
    #[test]
    fn recovery_over_arbitrary_tail_bytes_equals_the_follower(
        cut_frac in 0.0f64..=1.0,
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let fx = fixture();
        let cut = ((cut_frac * fx.frames.len() as f64) as usize).min(fx.frames.len());
        let dir = scratch_dir("arbitrary_tail");
        drop(Wal::create(&dir, options(), &ModelRepository::default(), 0).unwrap());
        let mut log = std::fs::read(dir.join(LOG_FILE)).unwrap();
        log.extend_from_slice(&fx.frames[..cut]);
        log.extend_from_slice(&tail);
        std::fs::write(dir.join(LOG_FILE), &log).unwrap();
        let base = std::fs::read_to_string(dir.join(BASE_FILE)).unwrap();

        let mut follower = FollowerState::from_base(&base).unwrap();
        follower.ingest_segment(HEADER_LEN, &log[HEADER_LEN as usize..]);
        let recovered = Wal::open(&dir, options()).unwrap();
        prop_assert_eq!(recovered.epoch, follower.epoch());
        prop_assert!(recovered.epoch >= whole_frames_before(&fx.boundaries, cut));
        prop_assert_eq!(
            canonical_bytes(&recovered.repository),
            canonical_bytes(&follower.repository())
        );
        prop_assert_eq!(recovered.wal.state().log_bytes, follower.offset());
        prop_assert_eq!(recovered.truncated_bytes, log.len() as u64 - follower.offset());
    }

    /// Robustness: mutate payload bytes of one frame and recompute its
    /// hash, so the frame verifies and the JSON decoder sees the mutated
    /// text. Nothing panics, an undecodable frame applies nothing, the
    /// offset only ever advances by whole frames, and recovery over the
    /// same log agrees with the follower.
    #[test]
    fn rehashed_payload_mutations_never_apply_an_undecodable_frame(
        frame in 0usize..4,
        edits in proptest::collection::vec((0.0f64..1.0, 0usize..JSON_BYTES.len()), 1..4),
    ) {
        let fx = fixture();
        let (lo, hi) = (fx.boundaries[frame], fx.boundaries[frame + 1]);
        let mut payload = fx.frames[lo + 12..hi].to_vec();
        for &(pos_frac, sym) in &edits {
            let pos = ((pos_frac * payload.len() as f64) as usize).min(payload.len() - 1);
            payload[pos] = JSON_BYTES[sym];
        }
        let mut mutated = fx.frames.clone();
        mutated[lo + 4..lo + 12].copy_from_slice(&content_hash(&payload).to_le_bytes());
        mutated[lo + 12..hi].copy_from_slice(&payload);

        let mut state = FollowerState::empty();
        let report = state.ingest_segment(HEADER_LEN, &mutated);
        let consumed = (state.offset() - HEADER_LEN) as usize;
        prop_assert!(fx.boundaries.contains(&consumed), "offset {} is mid-frame", consumed);
        prop_assert_eq!(
            report.applied + report.skipped,
            whole_frames_before(&fx.boundaries, consumed)
        );
        prop_assert!(report.applied >= frame as u64, "frames before the mutation apply");
        let decodes = std::str::from_utf8(&payload)
            .ok()
            .and_then(|text| serde_json::from_str::<CommitRecord>(text).ok())
            .is_some();
        if !decodes {
            prop_assert_eq!(report.applied, frame as u64);
            prop_assert_eq!(state.epoch(), frame as u64);
            prop_assert_eq!(consumed, lo);
            prop_assert_eq!(report.status, SegmentStatus::Corrupt);
        }

        let dir = scratch_dir("rehashed_mutation");
        drop(Wal::create(&dir, options(), &ModelRepository::default(), 0).unwrap());
        let mut log = std::fs::read(dir.join(LOG_FILE)).unwrap();
        log.extend_from_slice(&mutated);
        std::fs::write(dir.join(LOG_FILE), &log).unwrap();
        let recovered = Wal::open(&dir, options()).unwrap();
        prop_assert_eq!(recovered.epoch, state.epoch());
        prop_assert_eq!(
            canonical_bytes(&recovered.repository),
            canonical_bytes(&state.repository())
        );
    }
}

/// Replacement bytes for payload mutations: JSON punctuation, digits and
/// literal letters, so mutated payloads often still parse as JSON and
/// reach the `CommitRecord` decoder.
const JSON_BYTES: &[u8] = b"0123456789-+.eE\"{}[]:,ntrufals \\";

/// Satellite: group commit (deferred appends + one shared sync) produces a
/// log whose recovery is bit-identical to the per-commit-fsync log of the
/// same ingest script — the sync batching changes durability timing, never
/// content.
#[test]
fn group_commit_log_recovers_bit_identically_to_per_commit_fsync() {
    let grouped_dir = scratch_dir("group_on");
    let plain_dir = scratch_dir("group_off");
    let mut grouped = Morer::open_with(&grouped_dir, &config(), options()).unwrap();
    grouped.set_group_commit(true);
    let mut plain = Morer::open_with(&plain_dir, &config(), options()).unwrap();
    for c in 0..3 {
        let problems = batch(c);
        let refs: Vec<&ErProblem> = problems.iter().collect();
        grouped.add_problems(&refs).unwrap();
        plain.add_problems(&refs).unwrap();
    }
    // the group's acknowledgement point: one fdatasync for all three
    grouped.flush_wal().unwrap();
    assert_eq!(grouped.epoch(), plain.epoch());
    let expected = canonical_bytes(&plain.searcher().repository());
    assert_eq!(canonical_bytes(&grouped.searcher().repository()), expected);
    drop(grouped);
    drop(plain);
    for dir in [&grouped_dir, &plain_dir] {
        let recovered = Morer::open_with(dir, &config(), options()).unwrap();
        assert_eq!(recovered.epoch(), 3, "{}", dir.display());
        assert_eq!(
            canonical_bytes(&recovered.searcher().repository()),
            expected,
            "{}",
            dir.display()
        );
    }
}

/// Satellite: a transient disk failure poisons the pipeline (commits are
/// refused, nothing unpersisted is acknowledged) and [`Morer::repair_wal`]
/// recovers it in place once the disk is back — after which commits flow
/// and recovery sees everything.
#[test]
fn a_poisoned_log_is_repairable_in_place_without_losing_acknowledged_state() {
    let dir = scratch_dir("repair");
    // compact on every commit, so losing the directory fails the very next
    // commit's base rewrite (appends alone would ride the open fd)
    let opts = WalOptions { durability: Durability::Fsync, compact_every: 1 };
    let mut morer = Morer::open_with(&dir, &config(), opts).unwrap();
    let problems = batch(0);
    let refs: Vec<&ErProblem> = problems.iter().collect();
    morer.add_problems(&refs).unwrap();
    assert_eq!(morer.epoch(), 1);

    // the "disk" goes away
    std::fs::remove_dir_all(&dir).unwrap();
    let problems = batch(1);
    let refs: Vec<&ErProblem> = problems.iter().collect();
    assert!(morer.add_problems(&refs).is_err(), "commit must fail, not be silently dropped");
    assert!(morer.wal_poisoned().is_some());
    // while poisoned, further commits are refused outright
    let problems = batch(2);
    let refs2: Vec<&ErProblem> = problems.iter().collect();
    assert!(morer.add_problems(&refs2).is_err());
    // and repeated repair attempts are allowed to fail while the disk is
    // still gone -- remove_dir_all'd path is recreatable, so this repair
    // succeeds immediately (Wal::open create_dir_all's the directory)
    assert!(morer.repair_wal().unwrap());
    assert!(morer.wal_poisoned().is_none());

    // commits flow again; the repaired base carries the in-memory state
    morer.add_problems(&refs2).unwrap();
    let final_epoch = morer.epoch();
    let expected = canonical_bytes(&morer.searcher().repository());
    drop(morer);
    let recovered = Morer::open_with(&dir, &config(), opts).unwrap();
    assert_eq!(recovered.epoch(), final_epoch);
    assert_eq!(canonical_bytes(&recovered.searcher().repository()), expected);
}

/// A follower bootstrapped from the leader's *base snapshot* (post-
/// compaction) and tailing the remaining log reaches the same state as one
/// that replayed everything — the resync path and the streaming path
/// converge bit-identically.
#[test]
fn base_bootstrap_plus_tail_matches_full_replay() {
    let dir = scratch_dir("base_tail");
    let mut leader = Morer::open_with(&dir, &config(), options()).unwrap();
    for c in 0..2 {
        let problems = batch(c);
        let refs: Vec<&ErProblem> = problems.iter().collect();
        leader.add_problems(&refs).unwrap();
    }
    // leader folds the log: followers below generation 1 must resync
    leader.compact().unwrap();
    for c in 2..4 {
        let problems = batch(c);
        let refs: Vec<&ErProblem> = problems.iter().collect();
        leader.add_problems(&refs).unwrap();
    }
    let expected = canonical_bytes(&leader.searcher().repository());
    let final_epoch = leader.epoch();

    // bootstrap from base (epoch 2, generation 1), tail the rest
    let base = std::fs::read_to_string(dir.join(morer_core::wal::BASE_FILE)).unwrap();
    let mut follower = FollowerState::from_base(&base).unwrap();
    assert_eq!(follower.epoch(), 2);
    assert_eq!(follower.generation(), 1);
    let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
    let report = follower.ingest_segment(HEADER_LEN, &log[HEADER_LEN as usize..]);
    assert!(matches!(report.status, SegmentStatus::Clean));
    assert_eq!(follower.epoch(), final_epoch);
    assert_eq!(canonical_bytes(&follower.repository()), expected);
}
