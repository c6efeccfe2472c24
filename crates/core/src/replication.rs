//! Log shipping: the follower side of WAL replication, and the one replay
//! state machine.
//!
//! The write-ahead log's frames (see [`crate::wal`]) are self-delimiting
//! and content-hashed, so a replica can stream them **verbatim** from a
//! leader and re-verify every byte itself. This module holds both ends of
//! that stream, as pure bytes-in, state-out code that the fault-injection
//! property tests drive directly:
//!
//! * [`read_log_segment`] — the leader side: it cuts the verified
//!   whole-frame prefix off `wal.log` without decoding any record.
//! * [`FollowerState`] — the replay state machine: repository, applied
//!   epoch, dirty positions, and the offset/generation of the shipping
//!   protocol. [`FollowerState::ingest_segment`] walks a byte slice in
//!   place, frame by frame. Crash recovery ([`crate::wal::Wal::open`])
//!   is this same machine run over the log on disk, so a follower that
//!   has applied epoch E is bit-identical to a leader recovered at E by
//!   construction.
//!
//! Both sides read frames only through the `wal` frame codec. The HTTP
//! transport (polling `GET /wal` on a `morer-serve` leader, backoff,
//! resync fetches) lives in `morer-serve`. The wire/offset protocol is
//! specified in the [`crate::wal`] module docs ("Log-shipping wire/offset
//! protocol"), and the replay rules in "Replay rules" there. What they
//! mean for a follower:
//!
//! * **No partial application, ever.** A torn tail or a corrupt frame
//!   stops the segment at the last whole frame; the follower re-fetches
//!   from there.
//! * **Idempotent re-delivery.** Frames with `epoch <= applied` are
//!   verified, counted as skipped, and not re-applied.
//! * **Gaps force a resync.** An epoch jump means bytes are missing (the
//!   leader compacted mid-tail, or restarted into a shorter log): the
//!   follower discards nothing it already applied, but must rebuild from
//!   the leader's base snapshot before applying anything further.

use std::collections::BTreeSet;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::error::MorerError;
use crate::repository::{ClusterEntry, ModelRepository};
use crate::wal::{self, CommitRecord, Frame, FRAME_HEADER_LEN, HEADER_LEN, LOG_FILE};

/// A verified chunk of the leader's log, as served to a follower: whole
/// frames only, starting at exactly the requested offset.
#[derive(Debug)]
pub struct LogSegment {
    /// The byte offset (into `wal.log`, header included) the segment
    /// starts at — the follower's requested offset.
    pub start: u64,
    /// Raw frame bytes, leader-verified: every frame in here is whole and
    /// hash-consistent. May be empty (follower caught up, or the requested
    /// offset does not fall on a frame boundary of the current log).
    pub bytes: Vec<u8>,
    /// The current log length (= the leader's append offset). A follower
    /// whose offset equals this is caught up; one whose offset *exceeds*
    /// it needs a resync (the leader compacted or lost a suffix).
    pub log_len: u64,
}

/// Leader side of the shipping protocol: read up to `max_bytes` of
/// **verified whole frames** from `dir`'s log starting at byte `from`.
///
/// The read races the writer by design — appends may land mid-read and a
/// compaction may truncate the file under us. Both are safe: only frames
/// whose length prefix and content hash verify are returned, a torn tail
/// is simply cut off, and an offset that no longer falls on a frame
/// boundary yields zero verified frames (the follower's generation check
/// and epoch continuity handle the rest).
///
/// # Errors
/// [`MorerError::LogCorrupt`] when the file exists but is not a MoRER log;
/// [`MorerError::UnsupportedVersion`] on a future format;
/// [`MorerError::Io`] on read failures. A missing log file reads as empty
/// (length [`HEADER_LEN`], no frames).
pub fn read_log_segment(
    dir: &Path,
    from: u64,
    max_bytes: usize,
) -> Result<LogSegment, MorerError> {
    let path = dir.join(LOG_FILE);
    let mut file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(LogSegment { start: from, bytes: Vec::new(), log_len: HEADER_LEN })
        }
        Err(e) => return Err(e.into()),
    };
    let log_len = file.metadata()?.len();
    if log_len >= HEADER_LEN {
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        wal::check_header(&header, &path)?;
    }
    if from < HEADER_LEN || from >= log_len {
        return Ok(LogSegment { start: from, bytes: Vec::new(), log_len });
    }
    let want = usize::try_from(log_len - from)
        .unwrap_or(usize::MAX)
        .min(max_bytes.max(FRAME_HEADER_LEN + 1));
    file.seek(SeekFrom::Start(from))?;
    let mut raw = vec![0u8; want];
    let mut filled = 0;
    while filled < raw.len() {
        match file.read(&mut raw[filled..]) {
            Ok(0) => break, // the file shrank under us (compaction): serve what we have
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    raw.truncate(filled);

    // keep only the verified whole-frame prefix
    let mut end = 0usize;
    loop {
        match wal::read_frame(&raw[end..]) {
            Frame::Whole(payload) => end += FRAME_HEADER_LEN + payload.len(),
            // progress guarantee: a single frame larger than `max_bytes`
            // must still ship — extend the read to cover exactly it
            Frame::Short(Some(whole)) if end == 0 && from + whole as u64 <= log_len => {
                let mut rest = vec![0u8; whole - raw.len()];
                if file.read_exact(&mut rest).is_err() {
                    break;
                }
                raw.extend_from_slice(&rest);
            }
            Frame::Short(_) | Frame::Corrupt => break,
        }
    }
    raw.truncate(end);
    Ok(LogSegment { start: from, bytes: raw, log_len })
}

/// Terminal status of one ingested segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentStatus {
    /// Every byte of the segment was verified and applied/skipped.
    Clean,
    /// The segment ended mid-frame (torn/short tail): re-fetch from
    /// [`FollowerState::offset`].
    TornTail,
    /// A frame failed verification: the suffix was discarded — re-fetch
    /// from [`FollowerState::offset`].
    Corrupt,
    /// An epoch gap or invalid record: the follower must resync from the
    /// leader's base snapshot before applying anything further.
    NeedResync,
}

/// Per-segment application report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentReport {
    /// Records applied (epoch advanced).
    pub applied: u64,
    /// Records verified but skipped as already applied.
    pub skipped: u64,
    /// How the segment ended.
    pub status: SegmentStatus,
}

/// The replay state machine: the repository replayed so far plus the
/// shipping protocol's offset and generation. One instance per upstream
/// leader, replaced wholesale on resync ([`FollowerState::from_base`]);
/// crash recovery runs one over the log on disk.
#[derive(Debug)]
pub struct FollowerState {
    entries: Vec<ClusterEntry>,
    /// The last applied epoch.
    epoch: u64,
    /// Store positions mutated by records applied since the last
    /// [`FollowerState::take_dirty`] — what an O(dirty) snapshot
    /// republication must deep-copy (every other position is unchanged
    /// and can be reused by reference).
    dirty: BTreeSet<usize>,
    /// Log offset of the first byte *not yet applied* — where the next
    /// segment must start.
    offset: u64,
    /// The leader compaction generation the offset is valid under.
    generation: u64,
}

impl FollowerState {
    /// A follower that has never synced: empty repository, epoch 0,
    /// tailing generation 0 from the first frame.
    pub fn empty() -> Self {
        Self::new(ModelRepository::default(), 0, 0)
    }

    /// A state that has applied `repository` at `epoch` and tails
    /// `generation` from the first frame.
    pub(crate) fn new(repository: ModelRepository, epoch: u64, generation: u64) -> Self {
        Self {
            entries: repository.entries,
            epoch,
            dirty: BTreeSet::new(),
            offset: HEADER_LEN,
            generation,
        }
    }

    /// Bootstrap (or resync) from a leader base snapshot (`base.json`
    /// bytes): the state is replaced wholesale — after a leader restart
    /// that lost a suffix this intentionally rolls the follower back to
    /// the leader's truth.
    ///
    /// # Errors
    /// [`MorerError::LogCorrupt`] / [`MorerError::UnsupportedVersion`]
    /// exactly as recovery-on-open would report them.
    pub fn from_base(text: &str) -> Result<Self, MorerError> {
        let (repository, epoch, generation) = wal::decode_base(text)?;
        Ok(Self::new(repository, epoch, generation))
    }

    /// The offset the next segment must start at.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The generation the offset is valid under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The last applied epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The applied entry store.
    pub fn entries(&self) -> &[ClusterEntry] {
        &self.entries
    }

    /// A clone of the applied state (for snapshot publication).
    pub fn repository(&self) -> ModelRepository {
        ModelRepository { entries: self.entries.clone() }
    }

    /// The applied state, by value.
    pub(crate) fn into_repository(self) -> ModelRepository {
        ModelRepository { entries: self.entries }
    }

    /// Drain the store positions mutated since the last call — the
    /// O(dirty) set a snapshot republication must deep-copy. Positions may
    /// exceed the current store length when a record truncated the store
    /// after touching it.
    pub fn take_dirty(&mut self) -> BTreeSet<usize> {
        std::mem::take(&mut self.dirty)
    }

    /// Ingest one segment of log bytes that starts at exactly
    /// [`FollowerState::offset`] (segments starting anywhere else are
    /// refused with `Corrupt` and nothing is applied). Walks the frames in
    /// place under the replay rules of [`crate::wal`], advances the offset
    /// frame by frame, and reports how the segment ended — partial records
    /// are never applied.
    pub fn ingest_segment(&mut self, start: u64, bytes: &[u8]) -> SegmentReport {
        let mut report = SegmentReport { applied: 0, skipped: 0, status: SegmentStatus::Clean };
        if start != self.offset {
            report.status = SegmentStatus::Corrupt;
            return report;
        }
        let mut rest = bytes;
        while !rest.is_empty() {
            let payload = match wal::read_frame(rest) {
                Frame::Whole(payload) => payload,
                Frame::Short(_) => {
                    report.status = SegmentStatus::TornTail;
                    break;
                }
                Frame::Corrupt => {
                    report.status = SegmentStatus::Corrupt;
                    break;
                }
            };
            let Some(record) = wal::decode_record(payload) else {
                report.status = SegmentStatus::Corrupt;
                break;
            };
            if record.epoch <= self.epoch {
                report.skipped += 1;
            } else if record.epoch == self.epoch + 1 && self.apply(record) {
                report.applied += 1;
            } else {
                report.status = SegmentStatus::NeedResync;
                break;
            }
            let frame_len = FRAME_HEADER_LEN + payload.len();
            self.offset += frame_len as u64;
            rest = &rest[frame_len..];
        }
        report
    }

    /// Apply the record of epoch `self.epoch + 1`; `false` (and nothing
    /// mutated) when its entry ids are inconsistent with the store.
    fn apply(&mut self, record: CommitRecord) -> bool {
        // collect the touched positions before the record is consumed;
        // only marked dirty if the apply mutates the store
        let touched: Vec<usize> = record.entries.iter().map(|e| e.id).collect();
        if wal::apply_record(&mut self.entries, record).is_err() {
            return false;
        }
        self.epoch += 1;
        self.dirty.extend(touched);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{Wal, WalOptions, MAX_RECORD_BYTES};
    use morer_ml::dataset::TrainingSet;
    use morer_ml::model::{ModelConfig, TrainedModel};
    use std::path::PathBuf;

    fn sample_entry(id: usize) -> ClusterEntry {
        let training = TrainingSet::from_rows(
            &[vec![0.9, 0.8], vec![0.1, 0.2], vec![0.85, 0.9], vec![0.15, 0.1]],
            &[true, false, true, false],
        );
        let model = TrainedModel::train(&ModelConfig::GaussianNb, &training);
        ClusterEntry::new(id, vec![id * 2, id * 2 + 1], model, training, 4)
    }

    fn record(epoch: u64, ids: &[usize], num_entries: usize) -> CommitRecord {
        CommitRecord {
            epoch,
            num_entries,
            entries: ids.iter().map(|&i| sample_entry(i)).collect(),
            report: None,
        }
    }

    fn frame(record: &CommitRecord) -> Vec<u8> {
        wal::encode_frame(serde_json::to_string(record).unwrap().as_bytes())
    }

    /// Ingest `record` as a one-frame segment at the follower's offset.
    fn feed(state: &mut FollowerState, record: CommitRecord) -> SegmentReport {
        state.ingest_segment(state.offset(), &frame(&record))
    }

    const APPLIED: SegmentReport =
        SegmentReport { applied: 1, skipped: 0, status: SegmentStatus::Clean };
    const SKIPPED: SegmentReport =
        SegmentReport { applied: 0, skipped: 1, status: SegmentStatus::Clean };
    const RESYNC: SegmentReport =
        SegmentReport { applied: 0, skipped: 0, status: SegmentStatus::NeedResync };

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("morer_repl_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn every_prefix_of_a_frame_stream_reads_short_or_whole() {
        let frames: Vec<u8> = (1..=3).flat_map(|e| frame(&record(e, &[0], 1))).collect();
        // cut the stream at every byte: each read is either "need more" or
        // a verified frame, never corrupt
        for cut in 0..=frames.len() {
            let mut rest = &frames[..cut];
            let mut got = Vec::new();
            loop {
                match wal::read_frame(rest) {
                    Frame::Whole(payload) => {
                        got.push(wal::decode_record(payload).unwrap().epoch);
                        rest = &rest[FRAME_HEADER_LEN + payload.len()..];
                    }
                    Frame::Short(whole) => {
                        if let Some(whole) = whole {
                            assert!(whole > rest.len(), "cut {cut}: short frames do not fit");
                        }
                        break;
                    }
                    Frame::Corrupt => panic!("cut {cut}: a clean prefix read as corrupt"),
                }
            }
            // three equal-length frames (one-digit epochs)
            let frame_len = frames.len() / 3;
            assert_eq!(got, (1..=(cut / frame_len) as u64).collect::<Vec<_>>(), "cut {cut}");
            assert_eq!(cut - rest.len(), got.len() * frame_len, "cut {cut}");
        }
    }

    #[test]
    fn read_frame_rejects_bit_flips_and_bad_lengths() {
        let mut bytes = frame(&record(1, &[0], 1));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(wal::read_frame(&bytes), Frame::Corrupt, "flipped payload must not verify");

        let mut bytes = (MAX_RECORD_BYTES + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            wal::read_frame(&bytes),
            Frame::Corrupt,
            "oversized length prefix must not verify"
        );
    }

    #[test]
    fn follower_applies_skips_and_gaps_like_recovery() {
        let mut state = FollowerState::empty();
        assert_eq!(feed(&mut state, record(1, &[0], 1)), APPLIED);
        assert_eq!(feed(&mut state, record(1, &[0], 1)), SKIPPED);
        assert_eq!(feed(&mut state, record(3, &[1], 2)), RESYNC, "epoch gap");
        assert_eq!(state.epoch(), 1);
        // an entry id past the store length must not apply, even partially
        assert_eq!(feed(&mut state, record(2, &[5], 6)), RESYNC, "invalid entry ids");
        assert_eq!(state.entries().len(), 1);
        assert_eq!(feed(&mut state, record(2, &[1], 2)), APPLIED);
        assert_eq!(state.epoch(), 2);
    }

    #[test]
    fn follower_tracks_dirty_positions_per_drain() {
        let mut state = FollowerState::empty();
        assert_eq!(feed(&mut state, record(1, &[0, 1], 2)), APPLIED);
        assert_eq!(feed(&mut state, record(2, &[1, 2], 3)), APPLIED);
        let dirty: Vec<usize> = state.take_dirty().into_iter().collect();
        assert_eq!(dirty, vec![0, 1, 2]);
        // skipped / gapped / invalid records contribute nothing
        assert_eq!(feed(&mut state, record(2, &[0], 3)), SKIPPED);
        assert_eq!(feed(&mut state, record(9, &[0], 3)), RESYNC);
        assert_eq!(feed(&mut state, record(3, &[7], 8)), RESYNC);
        assert!(state.take_dirty().is_empty());
        // the drain resets: only post-drain mutations accumulate
        assert_eq!(feed(&mut state, record(3, &[0], 3)), APPLIED);
        assert_eq!(state.take_dirty().into_iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn follower_state_tracks_offsets_and_requests_resync_on_gap() {
        let mut state = FollowerState::empty();
        let f1 = frame(&record(1, &[0], 1));
        let f2 = frame(&record(2, &[1], 2));
        let r = state.ingest_segment(HEADER_LEN, &[f1.clone(), f2.clone()].concat());
        assert_eq!(r.applied, 2);
        assert_eq!(r.status, SegmentStatus::Clean);
        assert_eq!(state.offset(), HEADER_LEN + (f1.len() + f2.len()) as u64);
        assert_eq!(state.epoch(), 2);
        // a gapped record (leader compacted mid-tail) demands a resync
        let r = state.ingest_segment(state.offset(), &frame(&record(9, &[0], 2)));
        assert_eq!(r.status, SegmentStatus::NeedResync);
        assert_eq!(state.epoch(), 2, "nothing may apply across a gap");
        // a segment starting at the wrong offset is refused outright
        let r = state.ingest_segment(HEADER_LEN, &f1);
        assert_eq!(r.status, SegmentStatus::Corrupt);
    }

    #[test]
    fn leader_segments_ship_only_verified_whole_frames() {
        let dir = tmp("segment");
        let mut wal =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap();
        wal.append(&record(1, &[0], 1)).unwrap();
        wal.append(&record(2, &[1], 2)).unwrap();
        let log_len = wal.state().log_bytes;
        // simulate a torn in-flight append: raw garbage past the last frame
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(LOG_FILE))
                .unwrap();
            f.write_all(&[7u8; 5]).unwrap();
        }
        let seg = read_log_segment(&dir, HEADER_LEN, usize::MAX).unwrap();
        assert_eq!(seg.start, HEADER_LEN);
        assert_eq!(seg.bytes.len() as u64, log_len - HEADER_LEN, "torn tail must be cut");
        let mut state = FollowerState::empty();
        let r = state.ingest_segment(HEADER_LEN, &seg.bytes);
        assert_eq!(r.applied, 2);
        assert_eq!(r.status, SegmentStatus::Clean);

        // caught-up and beyond-log offsets ship zero bytes but report log_len
        let seg = read_log_segment(&dir, log_len, usize::MAX).unwrap();
        assert!(seg.bytes.is_empty());
        let seg = read_log_segment(&dir, log_len + 999, usize::MAX).unwrap();
        assert!(seg.bytes.is_empty());
        assert!(seg.log_len < log_len + 999);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn base_snapshot_round_trips_through_from_base() {
        let dir = tmp("base_wire");
        let repo = ModelRepository { entries: vec![sample_entry(0), sample_entry(1)] };
        let mut wal = Wal::create(&dir, WalOptions::default(), &repo, 3).unwrap();
        wal.append(&record(4, &[0], 2)).unwrap();
        wal.compact(&repo, 4).unwrap();
        let text = std::fs::read_to_string(dir.join("base.json")).unwrap();
        let state = FollowerState::from_base(&text).unwrap();
        assert_eq!(state.epoch(), 4);
        assert_eq!(state.generation(), 1);
        assert_eq!(state.offset(), HEADER_LEN);
        assert_eq!(state.repository(), repo);
        std::fs::remove_dir_all(&dir).ok();
    }
}
