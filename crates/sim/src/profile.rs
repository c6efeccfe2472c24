//! Per-record comparison profiles: the featurization fast path.
//!
//! # Why
//!
//! Feature-vector generation (`w ∈ [0,1]^t` per candidate pair, paper §2) is
//! the innermost loop of the entire MoRER pipeline. The string-based
//! similarity functions re-normalize, re-tokenize and re-allocate token sets
//! for *both* records on *every* pair — but blocking guarantees each record
//! participates in many candidate pairs, so all of that per-record work can
//! be hoisted out of the pair loop: **O(records) preprocessing instead of
//! O(pairs)**.
//!
//! # What a profile caches
//!
//! For each attribute a [`ComparisonScheme`] (or blocking) actually touches,
//! a [`ProfileSet`] stores, computed exactly once per record:
//!
//! * the normalized string (every similarity function's starting point),
//! * the normalized char buffer (Jaro/Jaro-Winkler/LCS/Smith-Waterman),
//! * the sorted, deduplicated **interned token-id set** (`u32` ids from a
//!   shared [`TokenInterner`]) — token coefficients become sorted-`u32`
//!   intersections with no string comparisons at all,
//! * padded q-gram id sets per configured `q`,
//! * per-token char vectors (Monge-Elkan),
//! * parsed numeric / date values and cached char counts.
//!
//! [`ProfileSpec::from_scheme`] records which of these each attribute needs,
//! so profiling does no unnecessary work.
//!
//! # Storage layout
//!
//! Candidate pairs visit records in effectively random order, so the
//! featurization loop is bound by memory latency, not arithmetic. The cache
//! therefore lives in **flat arenas** — one contiguous buffer each for
//! normalized bytes, chars, token ids and q-gram ids — with a compact
//! fixed-size range table per *(record, attribute)* slot. A pair comparison
//! touches a handful of dense arrays instead of chasing per-record heap
//! allocations, which roughly halves the cache misses per pair.
//! [`RecordRef`]/[`AttrRef`] are copyable views into the arenas.
//!
//! # Equivalence guarantee
//!
//! The profiled path calls the *same* similarity cores
//! (`string_sim::*_chars`, `*_counts`, `levenshtein_*_norm`) the public
//! string functions delegate to, on identical normalized inputs, so results
//! are **bit-identical** to [`SimilarityFunction::apply`] — enforced by
//! property tests in `crates/sim/tests/properties.rs`.
//!
//! # Typical use
//!
//! ```
//! use morer_sim::{AttributeComparator, ComparisonScheme, SimilarityFunction};
//! use morer_sim::profile::ProfileSet;
//!
//! let scheme = ComparisonScheme::new()
//!     .with(AttributeComparator::new(0, "title", SimilarityFunction::JaccardTokens));
//! let mut profiles = ProfileSet::for_scheme(&scheme);
//! let a = profiles.add(&[Some("Ultra HD Smart TV".to_owned())]);
//! let b = profiles.add(&[Some("ultra hd smart tv 55".to_owned())]);
//! let w = scheme.compare_profiled(profiles.record(a), profiles.record(b));
//! assert_eq!(w, scheme.compare(&[Some("Ultra HD Smart TV".to_owned())],
//!                              &[Some("ultra hd smart tv 55".to_owned())]));
//! ```

use std::collections::HashMap;

use crate::comparator::{ComparisonScheme, SimilarityFunction};
use crate::numeric::{parse_date_days, parse_numeric};
use crate::string_sim::token_char_vecs;
use crate::tokenize::{normalize, norm_words, qgrams_norm};

/// Interns token strings to dense `u32` ids shared across records.
///
/// Ids are assigned in first-seen order; set operations only require id
/// *equality*, so the arbitrary order is harmless and keeps interning O(1)
/// amortized per token.
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    map: HashMap<String, u32>,
}

impl TokenInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Id of `token`, allocating the next dense id on first sight.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.map.get(token) {
            return id;
        }
        let id = u32::try_from(self.map.len()).expect("token interner overflow");
        self.map.insert(token.to_owned(), id);
        id
    }

    /// Id of `token` if it has been interned.
    pub fn lookup(&self, token: &str) -> Option<u32> {
        self.map.get(token).copied()
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Which cached artifacts one attribute needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttrNeeds {
    /// Attribute is referenced at all (unreferenced attributes are skipped).
    pub used: bool,
    /// Sorted interned word-token id set (token coefficients, blocking).
    pub tokens: bool,
    /// Per-token char vectors in token order (Monge-Elkan).
    pub token_chars: bool,
    /// Normalized char buffer (Jaro, Jaro-Winkler, LCS, Smith-Waterman).
    pub chars: bool,
    /// Char count cache (Levenshtein).
    pub lev: bool,
    /// Padded q-gram id sets for these `q` values.
    pub qgram_sizes: Vec<usize>,
    /// Parsed numeric value (NumericDiff, Year).
    pub numeric: bool,
    /// Parsed date value (Date).
    pub date: bool,
}

/// Per-attribute cache requirements derived from a comparison scheme.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSpec {
    attrs: Vec<AttrNeeds>,
}

impl ProfileSpec {
    /// Requirements of `scheme`: one [`AttrNeeds`] per referenced attribute.
    pub fn from_scheme(scheme: &ComparisonScheme) -> Self {
        let mut spec = Self::default();
        for c in scheme.comparators() {
            let needs = spec.entry(c.attribute);
            match c.function {
                SimilarityFunction::JaccardTokens
                | SimilarityFunction::DiceTokens
                | SimilarityFunction::OverlapTokens
                | SimilarityFunction::CosineTokens => needs.tokens = true,
                SimilarityFunction::JaccardQgrams(q) => {
                    if !needs.qgram_sizes.contains(&q) {
                        needs.qgram_sizes.push(q);
                    }
                }
                SimilarityFunction::JaroWinkler
                | SimilarityFunction::LcsSubstring
                | SimilarityFunction::SmithWaterman => needs.chars = true,
                SimilarityFunction::MongeElkan => needs.token_chars = true,
                SimilarityFunction::Levenshtein => needs.lev = true,
                // Exact runs on the normalized string, which every used
                // attribute caches anyway.
                SimilarityFunction::Exact => {}
                SimilarityFunction::NumericDiff | SimilarityFunction::Year => {
                    needs.numeric = true;
                }
                SimilarityFunction::Date { .. } => needs.date = true,
            }
        }
        spec
    }

    /// Additionally cache word-token ids for `attribute` (used to share
    /// profiles with token blocking).
    pub fn require_tokens(mut self, attribute: usize) -> Self {
        self.entry(attribute).tokens = true;
        self
    }

    fn entry(&mut self, attribute: usize) -> &mut AttrNeeds {
        if self.attrs.len() <= attribute {
            self.attrs.resize(attribute + 1, AttrNeeds::default());
        }
        let needs = &mut self.attrs[attribute];
        needs.used = true;
        needs
    }

    /// Needs of `attribute` (unreferenced attributes report `used: false`).
    pub fn needs(&self, attribute: usize) -> Option<&AttrNeeds> {
        self.attrs.get(attribute).filter(|n| n.used)
    }

    /// Number of attribute slots (highest referenced attribute + 1).
    pub fn num_attrs(&self) -> usize {
        self.attrs.len()
    }
}

/// Sentinel arena range meaning "attribute missing on this record".
const MISSING: (u32, u32) = (u32::MAX, u32::MAX);

/// Per-attribute spec bits (one byte per attribute, checked by the
/// [`AttrRef`] accessors so a profile/scheme mismatch panics instead of
/// silently returning wrong similarities).
const NEED_TOKENS: u8 = 1;
const NEED_TOKEN_CHARS: u8 = 2;
const NEED_CHARS: u8 = 4;
const NEED_LEV: u8 = 8;
const NEED_NUMERIC: u8 = 16;
const NEED_DATE: u8 = 32;

/// Per-slot flag bits.
const FLAG_PRESENT: u8 = 1;
const FLAG_SMALL_ASCII: u8 = 2;
const FLAG_NUMERIC: u8 = 4;
const FLAG_DATE: u8 = 8;

/// Arena-flattened per-record comparison caches (see the module docs for the
/// layout rationale). Build with [`ProfileSet::add`], read through
/// [`ProfileSet::record`].
#[derive(Debug, Clone, Default)]
pub struct ProfileSet {
    spec: ProfileSpec,
    n_attrs: usize,
    q_stride: usize,
    /// One `NEED_*` bit set per attribute, for cheap accessor checks.
    needs_bits: Vec<u8>,
    records: usize,
    tokens: TokenInterner,
    qgrams: TokenInterner,
    // arenas
    norm_bytes: Vec<u8>,
    chars_data: Vec<char>,
    token_id_data: Vec<u32>,
    qgram_id_data: Vec<u32>,
    // per (record, attribute) slot, record-major
    norm_range: Vec<(u32, u32)>,
    chars_range: Vec<(u32, u32)>,
    token_range: Vec<(u32, u32)>,
    /// `q_stride` entries per slot, one per configured q of the attribute.
    qgram_range: Vec<(u32, u32)>,
    flags: Vec<u8>,
    char_count: Vec<u32>,
    numeric: Vec<f64>,
    date_days: Vec<i64>,
    /// Per-slot token char vectors (Monge-Elkan attributes only).
    token_chars: Vec<Vec<Vec<char>>>,
}

impl ProfileSet {
    /// Empty set for an explicit spec.
    pub fn new(spec: ProfileSpec) -> Self {
        let n_attrs = spec.num_attrs();
        let q_stride = spec
            .attrs
            .iter()
            .map(|n| n.qgram_sizes.len())
            .max()
            .unwrap_or(0);
        let needs_bits = spec
            .attrs
            .iter()
            .map(|n| {
                (u8::from(n.tokens) * NEED_TOKENS)
                    | (u8::from(n.token_chars) * NEED_TOKEN_CHARS)
                    | (u8::from(n.chars) * NEED_CHARS)
                    | (u8::from(n.lev) * NEED_LEV)
                    | (u8::from(n.numeric) * NEED_NUMERIC)
                    | (u8::from(n.date) * NEED_DATE)
            })
            .collect();
        Self { spec, n_attrs, q_stride, needs_bits, ..Self::default() }
    }

    /// Empty set covering exactly what `scheme` compares.
    pub fn for_scheme(scheme: &ComparisonScheme) -> Self {
        Self::new(ProfileSpec::from_scheme(scheme))
    }

    /// The spec this set caches for.
    pub fn spec(&self) -> &ProfileSpec {
        &self.spec
    }

    /// Number of profiled records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True when no records have been profiled.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The shared word-token interner (exposed for blocking).
    pub fn token_interner(&self) -> &TokenInterner {
        &self.tokens
    }

    /// Profile one record from its attribute value slice; returns its index.
    pub fn add(&mut self, values: &[Option<String>]) -> usize {
        // take the spec out so arena mutation doesn't fight the borrow
        let spec = std::mem::take(&mut self.spec);
        for attribute in 0..self.n_attrs {
            match (spec.needs(attribute), values.get(attribute).and_then(Option::as_ref)) {
                (Some(needs), Some(raw)) => self.add_attr(raw, needs),
                _ => self.add_missing_attr(),
            }
        }
        self.spec = spec;
        self.records += 1;
        self.records - 1
    }

    fn add_missing_attr(&mut self) {
        self.norm_range.push(MISSING);
        self.chars_range.push(MISSING);
        self.token_range.push(MISSING);
        for _ in 0..self.q_stride {
            self.qgram_range.push(MISSING);
        }
        self.flags.push(0);
        self.char_count.push(0);
        self.numeric.push(0.0);
        self.date_days.push(0);
        self.token_chars.push(Vec::new());
    }

    fn add_attr(&mut self, raw: &str, needs: &AttrNeeds) {
        let norm = normalize(raw);
        let mut flags = FLAG_PRESENT;

        let norm_start = self.norm_bytes.len() as u32;
        self.norm_bytes.extend_from_slice(norm.as_bytes());
        self.norm_range.push((norm_start, norm.len() as u32));

        if needs.chars {
            let start = self.chars_data.len() as u32;
            self.chars_data.extend(norm.chars());
            self.chars_range.push((start, self.chars_data.len() as u32 - start));
        } else {
            self.chars_range.push(MISSING);
        }

        if needs.tokens {
            let mut ids: Vec<u32> = norm_words(&norm).map(|t| self.tokens.intern(t)).collect();
            ids.sort_unstable();
            ids.dedup();
            let start = self.token_id_data.len() as u32;
            self.token_id_data.extend_from_slice(&ids);
            self.token_range.push((start, ids.len() as u32));
        } else {
            self.token_range.push(MISSING);
        }

        for qi in 0..self.q_stride {
            match needs.qgram_sizes.get(qi) {
                Some(&q) => {
                    let mut ids: Vec<u32> = qgrams_norm(&norm, q, true)
                        .iter()
                        .map(|g| self.qgrams.intern(g))
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    let start = self.qgram_id_data.len() as u32;
                    self.qgram_id_data.extend_from_slice(&ids);
                    self.qgram_range.push((start, ids.len() as u32));
                }
                None => self.qgram_range.push(MISSING),
            }
        }

        if needs.lev {
            self.char_count.push(norm.chars().count() as u32);
            if norm.is_ascii() && norm.len() <= crate::string_sim::MYERS_MAX_LEN {
                flags |= FLAG_SMALL_ASCII;
            }
        } else {
            self.char_count.push(0);
        }

        if needs.numeric {
            match parse_numeric(raw) {
                Some(x) => {
                    flags |= FLAG_NUMERIC;
                    self.numeric.push(x);
                }
                None => self.numeric.push(0.0),
            }
        } else {
            self.numeric.push(0.0);
        }

        if needs.date {
            match parse_date_days(raw) {
                Some(d) => {
                    flags |= FLAG_DATE;
                    self.date_days.push(d);
                }
                None => self.date_days.push(0),
            }
        } else {
            self.date_days.push(0);
        }

        if needs.token_chars {
            self.token_chars.push(token_char_vecs(&norm));
        } else {
            self.token_chars.push(Vec::new());
        }

        self.flags.push(flags);
    }

    /// View of record `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn record(&self, index: usize) -> RecordRef<'_> {
        assert!(index < self.records, "record index out of bounds");
        RecordRef { set: self, record: index }
    }
}

/// Copyable view of one profiled record.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    set: &'a ProfileSet,
    record: usize,
}

impl<'a> RecordRef<'a> {
    /// View of `attribute`, `None` when the value is missing on the record
    /// (or the attribute is outside the profile spec).
    #[inline]
    pub fn attr(&self, attribute: usize) -> Option<AttrRef<'a>> {
        if attribute >= self.set.n_attrs {
            return None;
        }
        let slot = self.record * self.set.n_attrs + attribute;
        if self.set.flags[slot] & FLAG_PRESENT == 0 {
            return None;
        }
        Some(AttrRef { set: self.set, slot, attribute })
    }
}

/// Copyable view of one profiled attribute value.
#[derive(Debug, Clone, Copy)]
pub struct AttrRef<'a> {
    set: &'a ProfileSet,
    slot: usize,
    attribute: usize,
}

impl<'a> AttrRef<'a> {
    /// Panic unless the profile spec requested the artifact being read —
    /// reading unrequested artifacts would silently return wrong
    /// similarities (empty sets, zero counts).
    #[inline]
    fn require(&self, bit: u8, what: &str) {
        assert!(
            self.set.needs_bits[self.attribute] & bit != 0,
            "{what} not in the profile spec for attribute {}; \
             profile the records with the scheme that compares them",
            self.attribute
        );
    }

    /// The normalized string.
    #[inline]
    pub fn norm(&self) -> &'a str {
        let (start, len) = self.set.norm_range[self.slot];
        // arena bytes are concatenated normalized strings — valid UTF-8
        unsafe {
            std::str::from_utf8_unchecked(
                &self.set.norm_bytes[start as usize..(start + len) as usize],
            )
        }
    }

    /// Chars of the normalized string (requires `chars` in the spec).
    #[inline]
    pub fn chars(&self) -> &'a [char] {
        self.require(NEED_CHARS, "chars");
        let (start, len) = self.set.chars_range[self.slot];
        &self.set.chars_data[start as usize..(start + len) as usize]
    }

    /// Sorted deduplicated interned token ids (requires `tokens`).
    #[inline]
    pub fn token_ids(&self) -> &'a [u32] {
        self.require(NEED_TOKENS, "tokens");
        let (start, len) = self.set.token_range[self.slot];
        &self.set.token_id_data[start as usize..(start + len) as usize]
    }

    /// Sorted deduplicated q-gram ids for `q`.
    ///
    /// # Panics
    /// Panics if `q` was not in the profile spec for this attribute.
    #[inline]
    pub fn qgram_set(&self, q: usize) -> &'a [u32] {
        let qi = self
            .set
            .spec
            .needs(self.attribute)
            .and_then(|n| n.qgram_sizes.iter().position(|&s| s == q))
            .expect("q-gram size missing from profile spec");
        let (start, len) = self.set.qgram_range[self.slot * self.set.q_stride + qi];
        &self.set.qgram_id_data[start as usize..(start + len) as usize]
    }

    /// Per-token char vectors in token order (requires `token_chars`).
    #[inline]
    pub fn token_chars(&self) -> &'a [Vec<char>] {
        self.require(NEED_TOKEN_CHARS, "token_chars");
        &self.set.token_chars[self.slot]
    }

    /// Cached `norm().chars().count()` (requires `lev`).
    #[inline]
    pub fn char_count(&self) -> usize {
        self.require(NEED_LEV, "Levenshtein artifacts");
        self.set.char_count[self.slot] as usize
    }

    /// Whether the normalized form is ASCII and short enough for the Myers
    /// Levenshtein kernel (requires `lev`).
    #[inline]
    pub fn small_ascii(&self) -> bool {
        self.require(NEED_LEV, "Levenshtein artifacts");
        self.set.flags[self.slot] & FLAG_SMALL_ASCII != 0
    }

    /// Cached parsed numeric value (requires `numeric`).
    #[inline]
    pub fn numeric(&self) -> Option<f64> {
        self.require(NEED_NUMERIC, "numeric parse");
        (self.set.flags[self.slot] & FLAG_NUMERIC != 0).then(|| self.set.numeric[self.slot])
    }

    /// Cached parsed date (requires `date`).
    #[inline]
    pub fn date_days(&self) -> Option<i64> {
        self.require(NEED_DATE, "date parse");
        (self.set.flags[self.slot] & FLAG_DATE != 0).then(|| self.set.date_days[self.slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::AttributeComparator;

    fn rec(values: &[Option<&str>]) -> Vec<Option<String>> {
        values.iter().map(|v| v.map(str::to_owned)).collect()
    }

    fn full_scheme() -> ComparisonScheme {
        ComparisonScheme::new()
            .with(AttributeComparator::new(0, "title", SimilarityFunction::JaccardTokens))
            .with(AttributeComparator::new(0, "title", SimilarityFunction::MongeElkan))
            .with(AttributeComparator::new(0, "title", SimilarityFunction::JaccardQgrams(2)))
            .with(AttributeComparator::new(1, "brand", SimilarityFunction::JaroWinkler))
            .with(AttributeComparator::new(2, "price", SimilarityFunction::NumericDiff))
            .with(AttributeComparator::new(3, "date", SimilarityFunction::Date { tolerance_days: 30 }))
    }

    #[test]
    fn spec_collects_needs_per_attribute() {
        let spec = ProfileSpec::from_scheme(&full_scheme());
        let title = spec.needs(0).unwrap();
        assert!(title.tokens && title.token_chars);
        assert_eq!(title.qgram_sizes, vec![2]);
        let brand = spec.needs(1).unwrap();
        assert!(brand.chars && !brand.tokens);
        assert!(spec.needs(2).unwrap().numeric);
        assert!(spec.needs(3).unwrap().date);
        assert!(spec.needs(4).is_none());
    }

    #[test]
    fn interner_assigns_dense_stable_ids() {
        let mut interner = TokenInterner::new();
        let a = interner.intern("canon");
        let b = interner.intern("eos");
        assert_ne!(a, b);
        assert_eq!(interner.intern("canon"), a);
        assert_eq!(interner.lookup("eos"), Some(b));
        assert_eq!(interner.lookup("nope"), None);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn profiles_cache_token_ids_sorted_and_deduped() {
        let scheme = full_scheme();
        let mut set = ProfileSet::for_scheme(&scheme);
        let idx = set.add(&rec(&[
            Some("Canon EOS canon KIT"),
            Some("Canon"),
            Some("$499"),
            Some("2021-05-01"),
        ]));
        let record = set.record(idx);
        let title = record.attr(0).unwrap();
        assert_eq!(title.norm(), "canon eos canon kit");
        // 3 distinct tokens out of 4
        assert_eq!(title.token_ids().len(), 3);
        assert!(title.token_ids().windows(2).all(|w| w[0] < w[1]));
        // token order is preserved for monge-elkan (not deduped)
        assert_eq!(title.token_chars().len(), 4);
        assert!(!title.qgram_set(2).is_empty());
        assert_eq!(record.attr(1).unwrap().chars(), &['c', 'a', 'n', 'o', 'n']);
        assert_eq!(record.attr(2).unwrap().numeric(), Some(499.0));
        assert!(record.attr(3).unwrap().date_days().is_some());
    }

    #[test]
    fn missing_and_unreferenced_attributes_are_none() {
        let scheme = full_scheme();
        let mut set = ProfileSet::for_scheme(&scheme);
        let idx = set.add(&rec(&[None, Some("Sony")]));
        let record = set.record(idx);
        assert!(record.attr(0).is_none());
        assert!(record.attr(1).is_some());
        assert!(record.attr(2).is_none());
        assert!(record.attr(9).is_none());
    }

    #[test]
    fn shared_interner_gives_equal_ids_across_records() {
        let scheme = ComparisonScheme::new()
            .with(AttributeComparator::new(0, "t", SimilarityFunction::JaccardTokens));
        let mut set = ProfileSet::for_scheme(&scheme);
        let a = set.add(&rec(&[Some("alpha beta")]));
        let b = set.add(&rec(&[Some("beta gamma")]));
        let ids_a = set.record(a).attr(0).unwrap().token_ids();
        let ids_b = set.record(b).attr(0).unwrap().token_ids();
        let shared: Vec<u32> =
            ids_a.iter().filter(|id| ids_b.contains(id)).copied().collect();
        assert_eq!(shared.len(), 1, "beta must intern to the same id");
    }

    #[test]
    #[should_panic(expected = "not in the profile spec")]
    fn mismatched_spec_panics_instead_of_lying() {
        // profiled for blocking only (tokens), then read as if Levenshtein
        // had been profiled — must panic, not return a fake similarity
        let narrow = ProfileSpec::default().require_tokens(0);
        let mut set = ProfileSet::new(narrow);
        let idx = set.add(&rec(&[Some("canon eos")]));
        let _ = set.record(idx).attr(0).unwrap().char_count();
    }

    #[test]
    fn unicode_norms_survive_the_byte_arena() {
        let scheme = ComparisonScheme::new()
            .with(AttributeComparator::new(0, "t", SimilarityFunction::Exact));
        let mut set = ProfileSet::for_scheme(&scheme);
        let a = set.add(&rec(&[Some("Ünïcode — 日本語!")]));
        let b = set.add(&rec(&[Some("plain ascii")]));
        assert_eq!(set.record(a).attr(0).unwrap().norm(), "ünïcode 日本語");
        assert_eq!(set.record(b).attr(0).unwrap().norm(), "plain ascii");
    }
}
