//! Attribute comparison configuration: which similarity function to apply to
//! which attribute, and how to handle missing values.
//!
//! A [`ComparisonScheme`] is an ordered list of [`AttributeComparator`]s; it
//! maps a pair of records (seen here as slices of optional attribute values)
//! to a similarity feature vector `w ∈ [0,1]^t` — the unit of data the whole
//! MoRER pipeline operates on.

use crate::numeric::{date_sim, normalized_diff_sim, parse_numeric, tolerance_sim, year_sim};
use crate::profile::{AttrRef, ProfileSpec, RecordRef};
use crate::string_sim::{
    cosine_counts, cosine_tokens, dice_counts, dice_tokens, exact, jaccard_counts,
    jaccard_qgrams, jaccard_tokens, jaro_winkler, jaro_winkler_chars, lcs_substring_chars,
    lcs_substring_sim, levenshtein_sim, levenshtein_sim_with, monge_elkan, monge_elkan_tokens,
    overlap_counts, overlap_tokens, smith_waterman, smith_waterman_chars,
};
use crate::tokenize::sorted_intersection_len;

/// The similarity functions available to attribute comparators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimilarityFunction {
    /// Word-token Jaccard coefficient.
    JaccardTokens,
    /// Character q-gram Jaccard with the given `q`.
    JaccardQgrams(usize),
    /// Word-token Sørensen–Dice coefficient.
    DiceTokens,
    /// Word-token overlap coefficient.
    OverlapTokens,
    /// Word-token cosine similarity.
    CosineTokens,
    /// Normalized Levenshtein similarity.
    Levenshtein,
    /// Jaro-Winkler similarity.
    JaroWinkler,
    /// Longest-common-substring similarity.
    LcsSubstring,
    /// Monge-Elkan hybrid similarity (Jaro-Winkler inner).
    MongeElkan,
    /// Exact match on normalized strings.
    Exact,
    /// Numeric similarity with difference normalized by magnitude; values are
    /// parsed out of the strings (currency symbols etc. stripped).
    NumericDiff,
    /// Step-wise year similarity (exact 1.0, ±1 → 0.5, ±2 → 0.25).
    Year,
    /// Smith-Waterman local-alignment similarity.
    SmithWaterman,
    /// Date similarity with a tolerance window in days.
    Date {
        /// Absolute day difference at which similarity reaches 0.
        tolerance_days: u32,
    },
}

impl SimilarityFunction {
    /// Apply the function to two attribute value strings.
    pub fn apply(self, a: &str, b: &str) -> f64 {
        match self {
            Self::JaccardTokens => jaccard_tokens(a, b),
            Self::JaccardQgrams(q) => jaccard_qgrams(a, b, q),
            Self::DiceTokens => dice_tokens(a, b),
            Self::OverlapTokens => overlap_tokens(a, b),
            Self::CosineTokens => cosine_tokens(a, b),
            Self::Levenshtein => levenshtein_sim(a, b),
            Self::JaroWinkler => jaro_winkler(a, b),
            Self::LcsSubstring => lcs_substring_sim(a, b),
            Self::MongeElkan => monge_elkan(a, b),
            Self::Exact => exact(a, b),
            Self::NumericDiff => match (parse_numeric(a), parse_numeric(b)) {
                (Some(x), Some(y)) => normalized_diff_sim(x, y),
                _ => 0.0,
            },
            Self::Year => match (parse_numeric(a), parse_numeric(b)) {
                (Some(x), Some(y)) => year_sim(x as i32, y as i32),
                _ => 0.0,
            },
            Self::SmithWaterman => smith_waterman(a, b),
            Self::Date { tolerance_days } => date_sim(a, b, f64::from(tolerance_days)),
        }
    }

    /// Apply the function to two cached attribute profiles — the fast path.
    ///
    /// Produces bit-identical results to [`Self::apply`] on the profiled
    /// strings: both paths share the same similarity cores, this one merely
    /// skips the per-pair normalization/tokenization/parsing.
    ///
    /// # Panics
    /// Panics when the profiles were built under a [`ProfileSpec`] that does
    /// not cover this function (e.g. a missing q-gram size).
    pub fn apply_profiled(self, a: AttrRef<'_>, b: AttrRef<'_>) -> f64 {
        match self {
            Self::JaccardTokens => {
                let (sa, sb) = (a.token_ids(), b.token_ids());
                jaccard_counts(sorted_intersection_len(sa, sb), sa.len(), sb.len())
            }
            Self::JaccardQgrams(q) => {
                let (sa, sb) = (a.qgram_set(q), b.qgram_set(q));
                jaccard_counts(sorted_intersection_len(sa, sb), sa.len(), sb.len())
            }
            Self::DiceTokens => {
                let (sa, sb) = (a.token_ids(), b.token_ids());
                dice_counts(sorted_intersection_len(sa, sb), sa.len(), sb.len())
            }
            Self::OverlapTokens => {
                let (sa, sb) = (a.token_ids(), b.token_ids());
                overlap_counts(sorted_intersection_len(sa, sb), sa.len(), sb.len())
            }
            Self::CosineTokens => {
                let (sa, sb) = (a.token_ids(), b.token_ids());
                cosine_counts(sorted_intersection_len(sa, sb), sa.len(), sb.len())
            }
            Self::Levenshtein => levenshtein_sim_with(
                a.norm(),
                b.norm(),
                a.char_count().max(b.char_count()),
                a.small_ascii() && b.small_ascii(),
            ),
            Self::JaroWinkler => jaro_winkler_chars(a.chars(), b.chars()),
            Self::LcsSubstring => lcs_substring_chars(a.chars(), b.chars()),
            Self::MongeElkan => monge_elkan_tokens(a.token_chars(), b.token_chars()),
            Self::Exact => {
                if a.norm() == b.norm() {
                    1.0
                } else {
                    0.0
                }
            }
            Self::NumericDiff => match (a.numeric(), b.numeric()) {
                (Some(x), Some(y)) => normalized_diff_sim(x, y),
                _ => 0.0,
            },
            Self::Year => match (a.numeric(), b.numeric()) {
                (Some(x), Some(y)) => year_sim(x as i32, y as i32),
                _ => 0.0,
            },
            Self::SmithWaterman => smith_waterman_chars(a.chars(), b.chars()),
            Self::Date { tolerance_days } => match (a.date_days(), b.date_days()) {
                (Some(x), Some(y)) => {
                    tolerance_sim(x as f64, y as f64, f64::from(tolerance_days))
                }
                _ => 0.0,
            },
        }
    }

    /// Short identifier used in feature names (`jaccard(title)` etc.).
    pub fn name(self) -> &'static str {
        match self {
            Self::JaccardTokens => "jaccard",
            Self::JaccardQgrams(_) => "jaccard_qgram",
            Self::DiceTokens => "dice",
            Self::OverlapTokens => "overlap",
            Self::CosineTokens => "cosine",
            Self::Levenshtein => "levenshtein",
            Self::JaroWinkler => "jaro_winkler",
            Self::LcsSubstring => "lcs",
            Self::MongeElkan => "monge_elkan",
            Self::Exact => "exact",
            Self::NumericDiff => "numeric",
            Self::Year => "year",
            Self::SmithWaterman => "smith_waterman",
            Self::Date { .. } => "date",
        }
    }
}

/// Policy for feature values when one or both attribute values are missing.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(Default)]
pub enum MissingValuePolicy {
    /// Emit 0.0 (treat as maximally dissimilar) — the conservative default.
    #[default]
    Zero,
    /// Emit the given constant (e.g. 0.5 for "unknown").
    Constant(f64),
}


/// One feature definition: an attribute index plus the similarity function to
/// apply to it.
#[derive(Debug, Clone)]
pub struct AttributeComparator {
    /// Index of the attribute within the record's value slice.
    pub attribute: usize,
    /// Human-readable attribute name (for feature labels).
    pub attribute_name: String,
    /// Similarity function applied to the attribute values.
    pub function: SimilarityFunction,
    /// How a missing value on either side is scored.
    pub missing: MissingValuePolicy,
}

impl AttributeComparator {
    /// Create a comparator with the default missing-value policy.
    pub fn new(attribute: usize, attribute_name: impl Into<String>, function: SimilarityFunction) -> Self {
        Self {
            attribute,
            attribute_name: attribute_name.into(),
            function,
            missing: MissingValuePolicy::default(),
        }
    }

    /// Feature label in the paper's `function(attribute)` notation.
    pub fn feature_name(&self) -> String {
        format!("{}({})", self.function.name(), self.attribute_name)
    }

    /// Compare two optional attribute values.
    pub fn compare(&self, a: Option<&str>, b: Option<&str>) -> f64 {
        match (a, b) {
            (Some(x), Some(y)) => self.function.apply(x, y),
            _ => self.missing_value(),
        }
    }

    /// Compare two records through their cached profiles — the fast path.
    pub fn compare_profiled(&self, a: RecordRef<'_>, b: RecordRef<'_>) -> f64 {
        match (a.attr(self.attribute), b.attr(self.attribute)) {
            (Some(pa), Some(pb)) => self.function.apply_profiled(pa, pb),
            _ => self.missing_value(),
        }
    }

    fn missing_value(&self) -> f64 {
        match self.missing {
            MissingValuePolicy::Zero => 0.0,
            MissingValuePolicy::Constant(c) => c.clamp(0.0, 1.0),
        }
    }
}

/// An ordered set of attribute comparators defining the similarity feature
/// space of an ER problem family.
#[derive(Debug, Clone, Default)]
pub struct ComparisonScheme {
    comparators: Vec<AttributeComparator>,
}

impl ComparisonScheme {
    /// Create an empty scheme.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a comparator; builder-style.
    pub fn with(mut self, comparator: AttributeComparator) -> Self {
        self.comparators.push(comparator);
        self
    }

    /// Append a comparator in place.
    pub fn push(&mut self, comparator: AttributeComparator) {
        self.comparators.push(comparator);
    }

    /// Number of features `t` this scheme produces.
    pub fn num_features(&self) -> usize {
        self.comparators.len()
    }

    /// The configured comparators, in feature order.
    pub fn comparators(&self) -> &[AttributeComparator] {
        &self.comparators
    }

    /// Feature labels, in order.
    pub fn feature_names(&self) -> Vec<String> {
        self.comparators.iter().map(AttributeComparator::feature_name).collect()
    }

    /// Compute the similarity feature vector for a pair of records given as
    /// attribute value slices (indexed by each comparator's `attribute`).
    ///
    /// # Panics
    /// Panics if a comparator's attribute index is out of bounds for either
    /// record — schemes must be constructed against the dataset schema.
    pub fn compare(&self, a: &[Option<String>], b: &[Option<String>]) -> Vec<f64> {
        self.comparators
            .iter()
            .map(|c| c.compare(a[c.attribute].as_deref(), b[c.attribute].as_deref()))
            .collect()
    }

    /// The per-attribute cache requirements of this scheme (what a
    /// [`crate::profile::ProfileSet`] must fill for [`Self::compare_profiled`]).
    pub fn profile_spec(&self) -> ProfileSpec {
        ProfileSpec::from_scheme(self)
    }

    /// Compute the similarity feature vector for a pair of *profiled*
    /// records — the O(records)-preprocessed fast path. Bit-identical to
    /// [`Self::compare`] on the profiled values.
    pub fn compare_profiled(&self, a: RecordRef<'_>, b: RecordRef<'_>) -> Vec<f64> {
        self.comparators.iter().map(|c| c.compare_profiled(a, b)).collect()
    }

    /// [`Self::compare_profiled`] writing into a caller-provided row buffer
    /// (used by the parallel featurizer to avoid per-pair allocation).
    ///
    /// # Panics
    /// Panics if `out.len() != self.num_features()`.
    pub fn compare_profiled_into(&self, a: RecordRef<'_>, b: RecordRef<'_>, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_features(), "feature row length mismatch");
        for (cell, c) in out.iter_mut().zip(&self.comparators) {
            *cell = c.compare_profiled(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(values: &[Option<&str>]) -> Vec<Option<String>> {
        values.iter().map(|v| v.map(str::to_owned)).collect()
    }

    #[test]
    fn scheme_produces_feature_vector_in_order() {
        let scheme = ComparisonScheme::new()
            .with(AttributeComparator::new(0, "title", SimilarityFunction::JaccardTokens))
            .with(AttributeComparator::new(1, "brand", SimilarityFunction::JaroWinkler))
            .with(AttributeComparator::new(2, "price", SimilarityFunction::NumericDiff));
        let a = rec(&[Some("Ultra HD Smart TV"), Some("Samsung"), Some("699.99")]);
        let b = rec(&[Some("Ultra HD Smart TV 55"), Some("Samsung"), Some("699.99")]);
        let w = scheme.compare(&a, &b);
        assert_eq!(w.len(), 3);
        assert!(w[0] > 0.7 && w[0] < 1.0);
        assert_eq!(w[1], 1.0);
        assert_eq!(w[2], 1.0);
        assert!(w.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn missing_value_policies() {
        let zero = AttributeComparator::new(0, "x", SimilarityFunction::Exact);
        assert_eq!(zero.compare(None, Some("a")), 0.0);
        assert_eq!(zero.compare(None, None), 0.0);
        let mut half = AttributeComparator::new(0, "x", SimilarityFunction::Exact);
        half.missing = MissingValuePolicy::Constant(0.5);
        assert_eq!(half.compare(Some("a"), None), 0.5);
        let mut clamped = AttributeComparator::new(0, "x", SimilarityFunction::Exact);
        clamped.missing = MissingValuePolicy::Constant(7.0);
        assert_eq!(clamped.compare(None, None), 1.0);
    }

    #[test]
    fn feature_names_follow_paper_notation() {
        let scheme = ComparisonScheme::new()
            .with(AttributeComparator::new(0, "title", SimilarityFunction::JaccardTokens));
        assert_eq!(scheme.feature_names(), vec!["jaccard(title)".to_owned()]);
    }

    #[test]
    fn every_function_is_exercised_through_apply() {
        let fns = [
            SimilarityFunction::JaccardTokens,
            SimilarityFunction::JaccardQgrams(2),
            SimilarityFunction::DiceTokens,
            SimilarityFunction::OverlapTokens,
            SimilarityFunction::CosineTokens,
            SimilarityFunction::Levenshtein,
            SimilarityFunction::JaroWinkler,
            SimilarityFunction::LcsSubstring,
            SimilarityFunction::MongeElkan,
            SimilarityFunction::Exact,
            SimilarityFunction::NumericDiff,
            SimilarityFunction::Year,
            SimilarityFunction::SmithWaterman,
        ];
        for f in fns {
            let same = f.apply("2020", "2020");
            assert!((same - 1.0).abs() < 1e-12, "{:?} self-sim = {same}", f);
            let v = f.apply("abc 1999", "xyz 2042");
            assert!((0.0..=1.0).contains(&v), "{:?} out of range: {v}", f);
        }
    }

    #[test]
    fn numeric_diff_handles_unparseable() {
        let f = SimilarityFunction::NumericDiff;
        assert_eq!(f.apply("n/a", "100"), 0.0);
        assert!(f.apply("$100", "100.00") > 0.999);
    }
}
