//! Blocking: cheap candidate-pair generation between (or within) sources.
//!
//! The pipeline's default is *token blocking* on a text attribute: records
//! sharing at least one word token become candidates. Oversized blocks
//! (stop-word-like tokens) are skipped, which is the standard guard against
//! quadratic blow-up \[31\].
//!
//! Two implementations share the same semantics:
//!
//! * the `*_profiled` variants reuse interned token ids from a
//!   [`ProfileSet`] (one tokenization pass per record, shared with
//!   featurization — see [`crate::profile_dataset`]);
//! * the string-based variants tokenize locally and exist for callers that
//!   have no profiles at hand.
//!
//! Candidate de-duplication is a flat `Vec` sort + dedup rather than a
//! `HashSet<(u32, u32)>`: the output must be sorted anyway, and the flat
//! vector is both faster (no per-pair hashing/allocation) and cache-friendly.

use std::collections::HashMap;

use crate::record::Record;
use morer_sim::profile::ProfileSet;
use morer_sim::tokenize::words;
use morer_sim::TokenInterner;

/// Configuration for token blocking.
#[derive(Debug, Clone)]
pub struct TokenBlockingConfig {
    /// Attribute index whose word tokens form the blocking keys.
    pub attribute: usize,
    /// Blocks larger than this on either side are skipped entirely.
    pub max_block_size: usize,
}

impl Default for TokenBlockingConfig {
    fn default() -> Self {
        Self { attribute: 0, max_block_size: 64 }
    }
}

/// Sort + dedup a candidate list in place and return it — the flat-vector
/// replacement for hash-set de-duplication.
fn dedup_pairs(mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Cross-source candidate generation from two token-id indices.
fn cross_pairs(
    index_a: &HashMap<u32, Vec<u32>>,
    index_b: &HashMap<u32, Vec<u32>>,
    max_block_size: usize,
) -> Vec<(u32, u32)> {
    // iterate the smaller index for fewer hash probes
    let (small, large, swapped) = if index_a.len() <= index_b.len() {
        (index_a, index_b, false)
    } else {
        (index_b, index_a, true)
    };
    let mut pairs = Vec::new();
    for (token, uids_s) in small {
        let Some(uids_l) = large.get(token) else {
            continue;
        };
        if uids_s.len() > max_block_size || uids_l.len() > max_block_size {
            continue;
        }
        let (uids_a, uids_b): (&[u32], &[u32]) =
            if swapped { (uids_l, uids_s) } else { (uids_s, uids_l) };
        for &ua in uids_a {
            for &ub in uids_b {
                pairs.push((ua, ub));
            }
        }
    }
    dedup_pairs(pairs)
}

/// Within-source candidate generation (`uid_a < uid_b`) from one index.
fn within_pairs(index: &HashMap<u32, Vec<u32>>, max_block_size: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for uids in index.values() {
        if uids.len() > max_block_size {
            continue;
        }
        for i in 0..uids.len() {
            for j in (i + 1)..uids.len() {
                let (x, y) = (uids[i].min(uids[j]), uids[i].max(uids[j]));
                if x != y {
                    pairs.push((x, y));
                }
            }
        }
    }
    dedup_pairs(pairs)
}

/// Token-id index over records using cached profile token ids (`profiles`
/// indexed by uid).
fn token_index_profiled(
    records: &[Record],
    profiles: &ProfileSet,
    attribute: usize,
) -> HashMap<u32, Vec<u32>> {
    let mut index: HashMap<u32, Vec<u32>> = HashMap::new();
    for r in records {
        if let Some(attr) = profiles.record(r.uid as usize).attr(attribute) {
            // token_ids are already deduplicated per record
            for &tok in attr.token_ids() {
                index.entry(tok).or_default().push(r.uid);
            }
        }
    }
    index
}

/// Token-id index tokenizing on the fly with a local interner.
fn token_index(
    records: &[Record],
    attribute: usize,
    interner: &mut TokenInterner,
) -> HashMap<u32, Vec<u32>> {
    let mut index: HashMap<u32, Vec<u32>> = HashMap::new();
    for r in records {
        if let Some(v) = r.value(attribute) {
            let mut ids: Vec<u32> = words(v).iter().map(|t| interner.intern(t)).collect();
            ids.sort_unstable();
            ids.dedup();
            for tok in ids {
                index.entry(tok).or_default().push(r.uid);
            }
        }
    }
    index
}

/// Token blocking between two sources: candidate pairs `(uid_a, uid_b)` of
/// records sharing at least one non-oversized token.
pub fn token_blocking(
    a: &[Record],
    b: &[Record],
    config: &TokenBlockingConfig,
) -> Vec<(u32, u32)> {
    let mut interner = TokenInterner::new();
    let index_a = token_index(a, config.attribute, &mut interner);
    let index_b = token_index(b, config.attribute, &mut interner);
    cross_pairs(&index_a, &index_b, config.max_block_size)
}

/// [`token_blocking`] reusing the interned token ids cached on record
/// profiles (no re-tokenization; `profiles` indexed by uid, built with the
/// blocking attribute's tokens in the spec — see
/// [`morer_sim::ProfileSpec::require_tokens`]).
pub fn token_blocking_profiled(
    a: &[Record],
    b: &[Record],
    profiles: &ProfileSet,
    config: &TokenBlockingConfig,
) -> Vec<(u32, u32)> {
    let index_a = token_index_profiled(a, profiles, config.attribute);
    let index_b = token_index_profiled(b, profiles, config.attribute);
    cross_pairs(&index_a, &index_b, config.max_block_size)
}

/// Token blocking within one source (deduplication): pairs with
/// `uid_a < uid_b`.
pub fn token_blocking_within(a: &[Record], config: &TokenBlockingConfig) -> Vec<(u32, u32)> {
    let mut interner = TokenInterner::new();
    let index = token_index(a, config.attribute, &mut interner);
    within_pairs(&index, config.max_block_size)
}

/// [`token_blocking_within`] reusing cached profile token ids.
pub fn token_blocking_within_profiled(
    a: &[Record],
    profiles: &ProfileSet,
    config: &TokenBlockingConfig,
) -> Vec<(u32, u32)> {
    let index = token_index_profiled(a, profiles, config.attribute);
    within_pairs(&index, config.max_block_size)
}

/// Blocking by an exact key function (e.g. normalized brand): records with
/// equal non-empty keys across the two sources become candidates.
pub fn key_blocking(
    a: &[Record],
    b: &[Record],
    key: impl Fn(&Record) -> Option<String>,
) -> Vec<(u32, u32)> {
    let mut index: HashMap<String, Vec<u32>> = HashMap::new();
    for r in a {
        if let Some(k) = key(r) {
            index.entry(k).or_default().push(r.uid);
        }
    }
    let mut pairs = Vec::new();
    for r in b {
        if let Some(k) = key(r) {
            if let Some(uids) = index.get(&k) {
                for &ua in uids {
                    pairs.push((ua, r.uid));
                }
            }
        }
    }
    dedup_pairs(pairs)
}

/// Sorted-neighbourhood blocking: both sources are merged, sorted by a key,
/// and a window of size `window` slides over the sorted list; records within
/// the same window whose sources differ become candidates \[31\].
pub fn sorted_neighborhood(
    a: &[Record],
    b: &[Record],
    key: impl Fn(&Record) -> Option<String>,
    window: usize,
) -> Vec<(u32, u32)> {
    let mut keyed: Vec<(String, u32, bool)> = a
        .iter()
        .filter_map(|r| key(r).map(|k| (k, r.uid, false)))
        .chain(b.iter().filter_map(|r| key(r).map(|k| (k, r.uid, true))))
        .collect();
    keyed.sort();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let w = window.max(2);
    for i in 0..keyed.len() {
        for j in (i + 1)..keyed.len().min(i + w) {
            let (ref _ka, ua, sa) = keyed[i];
            let (ref _kb, ub, sb) = keyed[j];
            if sa != sb {
                // orient as (a-side, b-side)
                let pair = if sa { (ub, ua) } else { (ua, ub) };
                pairs.push(pair);
            }
        }
    }
    dedup_pairs(pairs)
}

/// Pair-completeness of a candidate set: fraction of true matches retained.
pub fn pair_completeness(
    candidates: &[(u32, u32)],
    is_match: impl Fn(u32, u32) -> bool,
    total_true_matches: usize,
) -> f64 {
    if total_true_matches == 0 {
        return 1.0;
    }
    let found = candidates.iter().filter(|&&(a, b)| is_match(a, b)).count();
    found as f64 / total_true_matches as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DataSource, MultiSourceDataset, Schema};

    fn rec(uid: u32, title: &str) -> Record {
        Record { uid, source: 0, entity: u64::from(uid), values: vec![Some(title.to_owned())] }
    }

    #[test]
    fn shared_token_creates_candidate() {
        let a = vec![rec(0, "canon eos camera"), rec(1, "sony alpha")];
        let b = vec![rec(10, "canon powershot"), rec(11, "nikon coolpix")];
        let pairs = token_blocking(&a, &b, &TokenBlockingConfig::default());
        assert_eq!(pairs, vec![(0, 10)]);
    }

    #[test]
    fn no_duplicate_pairs_for_multiple_shared_tokens() {
        let a = vec![rec(0, "canon eos camera")];
        let b = vec![rec(10, "canon eos kit")];
        let pairs = token_blocking(&a, &b, &TokenBlockingConfig::default());
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn oversized_blocks_are_skipped() {
        let a: Vec<Record> = (0..10).map(|i| rec(i, "camera common")).collect();
        let b: Vec<Record> = (10..20).map(|i| rec(i, "camera common")).collect();
        let cfg = TokenBlockingConfig { attribute: 0, max_block_size: 5 };
        assert!(token_blocking(&a, &b, &cfg).is_empty());
        let cfg = TokenBlockingConfig { attribute: 0, max_block_size: 10 };
        assert_eq!(token_blocking(&a, &b, &cfg).len(), 100);
    }

    #[test]
    fn within_source_pairs_are_ordered_and_unique() {
        let a = vec![rec(3, "canon x"), rec(1, "canon y"), rec(2, "canon z")];
        let pairs = token_blocking_within(&a, &TokenBlockingConfig::default());
        assert_eq!(pairs, vec![(1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn missing_values_produce_no_blocks() {
        let a = vec![Record { uid: 0, source: 0, entity: 0, values: vec![None] }];
        let b = vec![rec(1, "anything")];
        assert!(token_blocking(&a, &b, &TokenBlockingConfig::default()).is_empty());
    }

    #[test]
    fn profiled_blocking_matches_string_blocking() {
        // assemble a dataset so uids are dense and profiles line up
        let schema = Schema::new(vec!["title"]);
        let mk = |title: &str| Record {
            uid: 0,
            source: 0,
            entity: 0,
            values: vec![Some(title.to_owned())],
        };
        let s0 = DataSource {
            id: 0,
            name: "a".into(),
            records: vec![
                mk("canon eos camera"),
                mk("sony alpha"),
                mk("canon eos kit"),
            ],
        };
        let s1 = DataSource {
            id: 1,
            name: "b".into(),
            records: vec![mk("canon powershot"), mk("nikon coolpix"), mk("eos camera")],
        };
        let ds = MultiSourceDataset::assemble("t", schema, vec![s0, s1]);
        let spec = morer_sim::ProfileSpec::default().require_tokens(0);
        let profiles = crate::profile_dataset(&ds, spec);
        let cfg = TokenBlockingConfig::default();
        let a = &ds.sources[0].records;
        let b = &ds.sources[1].records;
        assert_eq!(
            token_blocking_profiled(a, b, &profiles, &cfg),
            token_blocking(a, b, &cfg)
        );
        assert_eq!(
            token_blocking_within_profiled(a, &profiles, &cfg),
            token_blocking_within(a, &cfg)
        );
    }

    #[test]
    fn key_blocking_exact_keys() {
        let a = vec![rec(0, "canon"), rec(1, "sony")];
        let b = vec![rec(10, "canon"), rec(11, "fuji")];
        let pairs = key_blocking(&a, &b, |r| r.value(0).map(str::to_lowercase));
        assert_eq!(pairs, vec![(0, 10)]);
    }

    #[test]
    fn sorted_neighborhood_window_pairs() {
        let a = vec![rec(0, "aaa"), rec(1, "mmm")];
        let b = vec![rec(10, "aab"), rec(11, "zzz")];
        let key = |r: &Record| r.value(0).map(str::to_owned);
        // window 2: only adjacent records pair up; "aaa"/"aab" are adjacent
        let pairs = sorted_neighborhood(&a, &b, key, 2);
        assert!(pairs.contains(&(0, 10)), "pairs: {pairs:?}");
        // a-side uid always first
        assert!(pairs.iter().all(|&(x, y)| x < 10 && y >= 10));
        // larger window adds more candidates
        let wide = sorted_neighborhood(&a, &b, key, 4);
        assert!(wide.len() >= pairs.len());
    }

    #[test]
    fn sorted_neighborhood_skips_missing_keys() {
        let a = vec![Record { uid: 0, source: 0, entity: 0, values: vec![None] }];
        let b = vec![rec(10, "x")];
        let key = |r: &Record| r.value(0).map(str::to_owned);
        assert!(sorted_neighborhood(&a, &b, key, 3).is_empty());
    }

    #[test]
    fn pair_completeness_computation() {
        let candidates = vec![(0u32, 10u32), (1, 11)];
        let pc = pair_completeness(&candidates, |a, b| a + 10 == b, 4);
        assert!((pc - 0.5).abs() < 1e-12);
        assert_eq!(pair_completeness(&[], |_, _| true, 0), 1.0);
    }
}
