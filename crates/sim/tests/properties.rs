//! Property-based tests of the similarity substrate.

use proptest::prelude::*;

use morer_sim::numeric::{normalized_diff_sim, parse_numeric, tolerance_sim};
use morer_sim::string_sim::{
    cosine_tokens, dice_tokens, exact, jaccard_qgrams, jaccard_tokens, jaro, jaro_winkler,
    lcs_substring_sim, levenshtein_distance, levenshtein_sim, monge_elkan, overlap_tokens,
};
use morer_sim::tokenize::{normalize, qgrams, words};
use morer_sim::{AttributeComparator, ComparisonScheme, MissingValuePolicy, ProfileSet, SimilarityFunction};

fn text() -> impl Strategy<Value = String> {
    "[ a-zA-Z0-9-]{0,30}"
}

/// Every similarity function, including parameterized variants.
fn all_similarity_functions() -> Vec<SimilarityFunction> {
    vec![
        SimilarityFunction::JaccardTokens,
        SimilarityFunction::JaccardQgrams(2),
        SimilarityFunction::JaccardQgrams(3),
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
        SimilarityFunction::Date { tolerance_days: 30 },
    ]
}

/// Attribute values that stress every code path: missing, empty,
/// punctuation-heavy ASCII, unicode (incl. multi-char lowercase expansions),
/// long strings past the Myers 64-char limit, numerics and dates.
fn attribute_value() -> impl Strategy<Value = Option<String>> {
    (0usize..8, "[ a-zA-Z0-9-]{0,30}", 0u32..3000, 1u32..13, 1u32..29).prop_map(
        |(kind, s, n, m, d)| match kind {
            0 => None,
            1 => Some(String::new()),
            2 => Some(s),
            3 => Some(format!("Ünïcode-İstanbul é 日本 {s}")),
            4 => Some(format!("{s} {s} {s}")), // long: can exceed 64 chars
            5 => Some(format!("${n}.99")),
            6 => Some(format!("{}-{m:02}-{d:02}", 1900 + n % 200)),
            _ => Some(format!("  {s}!!  ")),
        },
    )
}

/// The equivalence scheme: every similarity function over one attribute.
fn full_scheme() -> ComparisonScheme {
    let mut scheme = ComparisonScheme::new();
    for (i, f) in all_similarity_functions().into_iter().enumerate() {
        let mut comparator = AttributeComparator::new(0, format!("a{i}"), f);
        if i % 3 == 1 {
            comparator.missing = MissingValuePolicy::Constant(0.5);
        }
        scheme.push(comparator);
    }
    scheme
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_string_function_bounded_symmetric_reflexive(a in text(), b in text()) {
        let fns: [fn(&str, &str) -> f64; 10] = [
            jaccard_tokens, dice_tokens, overlap_tokens, cosine_tokens, levenshtein_sim,
            jaro, jaro_winkler, lcs_substring_sim, monge_elkan, exact,
        ];
        for f in fns {
            let ab = f(&a, &b);
            prop_assert!((0.0..=1.0).contains(&ab));
            prop_assert!((ab - f(&b, &a)).abs() < 1e-12);
            prop_assert!((f(&a, &a) - 1.0).abs() < 1e-12);
        }
        let q = jaccard_qgrams(&a, &b, 2);
        prop_assert!((0.0..=1.0).contains(&q));
    }

    #[test]
    fn levenshtein_is_a_metric(a in text(), b in text(), c in text()) {
        let dab = levenshtein_distance(&a, &b);
        let dba = levenshtein_distance(&b, &a);
        prop_assert_eq!(dab, dba);
        // identity of indiscernibles on normalized forms
        if normalize(&a) == normalize(&b) {
            prop_assert_eq!(dab, 0);
        }
        // triangle inequality
        let dac = levenshtein_distance(&a, &c);
        let dcb = levenshtein_distance(&c, &b);
        prop_assert!(dab <= dac + dcb);
    }

    #[test]
    fn normalize_is_idempotent(a in text()) {
        let once = normalize(&a);
        prop_assert_eq!(normalize(&once), once.clone());
        // normalized output contains only lowercase alphanumerics and single spaces
        prop_assert!(!once.contains("  "));
        prop_assert!(once.chars().all(|c| c.is_alphanumeric() && !c.is_uppercase() || c == ' '));
    }

    #[test]
    fn qgram_count_matches_length(a in "[a-z]{1,20}", q in 1usize..5) {
        let grams = qgrams(&a, q, false);
        let n = a.chars().count();
        if n >= q {
            prop_assert_eq!(grams.len(), n - q + 1);
        } else {
            prop_assert_eq!(grams.len(), 1);
        }
        let padded = qgrams(&a, q, true);
        prop_assert_eq!(padded.len(), n + q - 1);
    }

    #[test]
    fn words_roundtrip_through_normalize(a in text()) {
        let toks = words(&a);
        prop_assert_eq!(toks.join(" "), normalize(&a));
    }

    #[test]
    fn numeric_sims_bounded_and_reflexive(x in -1e6f64..1e6, y in -1e6f64..1e6) {
        let s = normalized_diff_sim(x, y);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((normalized_diff_sim(x, x) - 1.0).abs() < 1e-12);
        prop_assert!((s - normalized_diff_sim(y, x)).abs() < 1e-12);
        let t = tolerance_sim(x, y, 10.0);
        prop_assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn parse_numeric_handles_formatted_values(v in 0u32..1_000_000) {
        // plain
        prop_assert_eq!(parse_numeric(&v.to_string()), Some(f64::from(v)));
        // currency prefix
        prop_assert_eq!(parse_numeric(&format!("${v}")), Some(f64::from(v)));
        // unit suffix
        prop_assert_eq!(parse_numeric(&format!("{v} units")), Some(f64::from(v)));
    }

    #[test]
    fn jaro_winkler_dominates_jaro(a in text(), b in text()) {
        prop_assert!(jaro_winkler(&a, &b) + 1e-12 >= jaro(&a, &b));
    }

    #[test]
    fn dice_dominates_jaccard(a in text(), b in text()) {
        prop_assert!(dice_tokens(&a, &b) + 1e-12 >= jaccard_tokens(&a, &b));
    }

    #[test]
    fn myers_levenshtein_matches_reference_dp(a in "[ a-zA-Z0-9-]{0,70}", b in "[ a-zA-Z0-9-]{0,70}") {
        // levenshtein_distance dispatches to the Myers bit-parallel kernel
        // for short ASCII; a brute-force DP over normalized chars is the oracle
        let (na, nb) = (normalize(&a), normalize(&b));
        let ca: Vec<char> = na.chars().collect();
        let cb: Vec<char> = nb.chars().collect();
        let mut dp = vec![vec![0usize; cb.len() + 1]; ca.len() + 1];
        for (i, row) in dp.iter_mut().enumerate() { row[0] = i; }
        for j in 0..=cb.len() { dp[0][j] = j; }
        for i in 1..=ca.len() {
            for j in 1..=cb.len() {
                let cost = usize::from(ca[i - 1] != cb[j - 1]);
                dp[i][j] = (dp[i - 1][j - 1] + cost)
                    .min(dp[i - 1][j] + 1)
                    .min(dp[i][j - 1] + 1);
            }
        }
        prop_assert_eq!(levenshtein_distance(&a, &b), dp[ca.len()][cb.len()]);
    }
}

// ---------------------------------------------------------------------------
// Profiled fast path ≡ string path (bit-identical)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The acceptance property of the profiling fast path: for every
    /// similarity function and any pair of records — including missing,
    /// empty and unicode values — the profiled comparison returns the same
    /// `f64`s, bit for bit, as the per-pair string comparison.
    #[test]
    fn profiled_path_is_bit_identical_to_string_path(
        va in attribute_value(),
        vb in attribute_value(),
    ) {
        let scheme = full_scheme();
        let ra = vec![va];
        let rb = vec![vb];
        let reference = scheme.compare(&ra, &rb);
        let mut profiles = ProfileSet::for_scheme(&scheme);
        let ia = profiles.add(&ra);
        let ib = profiles.add(&rb);
        let (pa, pb) = (profiles.record(ia), profiles.record(ib));
        let fast = scheme.compare_profiled(pa, pb);
        prop_assert_eq!(fast.len(), reference.len());
        for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
            prop_assert_eq!(
                f.to_bits(), r.to_bits(),
                "feature {} ({}) diverged: fast={} reference={} on {:?} vs {:?}",
                i, scheme.feature_names()[i], f, r, ra, rb
            );
        }
        // row-buffer variant agrees too
        let mut row = vec![0.0; scheme.num_features()];
        scheme.compare_profiled_into(pa, pb, &mut row);
        for (f, r) in row.iter().zip(&reference) {
            prop_assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    /// Profiles survive interner sharing: profiling many records through one
    /// profiler must not change any comparison result.
    #[test]
    fn shared_profiler_state_does_not_leak_between_records(
        values in proptest::collection::vec(attribute_value(), 2..8),
    ) {
        let scheme = full_scheme();
        let records: Vec<Vec<Option<String>>> =
            values.into_iter().map(|v| vec![v]).collect();
        let mut profiles = ProfileSet::for_scheme(&scheme);
        let indices: Vec<usize> = records.iter().map(|r| profiles.add(r)).collect();
        for i in 0..records.len() {
            for j in 0..records.len() {
                let reference = scheme.compare(&records[i], &records[j]);
                let fast =
                    scheme.compare_profiled(profiles.record(indices[i]), profiles.record(indices[j]));
                for (f, r) in fast.iter().zip(&reference) {
                    prop_assert_eq!(f.to_bits(), r.to_bits(), "records {} vs {}", i, j);
                }
            }
        }
    }

    /// The parallel map is the sequential map: same values, same order, for
    /// any size and any chunking threshold (0 and sizes below one chunk
    /// included).
    #[test]
    fn map_indexed_equals_sequential_map(
        n in 0usize..5000,
        min_chunk in 0usize..600,
        salt in any::<u64>(),
    ) {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        let parallel = morer_sim::par::map_indexed(n, min_chunk, f);
        let sequential: Vec<u64> = (0..n).map(f).collect();
        prop_assert_eq!(parallel, sequential);
    }
}
