//! Property tests of the streaming JSON codec on the documents the system
//! exchanges: `/solve` and `/ingest` bodies (one [`ErProblem`] or an
//! array of them), replies ([`SolveOutcome`], [`IngestReport`], the
//! [`MorerError`] body) and write-ahead-log payloads ([`CommitRecord`]).
//!
//! The `Value`-tree path is the oracle: streaming encode must emit the
//! bytes `write_value(&x.to_value())` emits, and streaming decode must
//! agree with `from_str_value` + `from_value` on every input — equal
//! values, or both errors — including arbitrary, truncated and mutated
//! bytes, and number tokens rewritten into edge forms, none of which may
//! panic.

use std::fmt::Debug;
use std::ops::Range;

use morer_core::error::MorerError;
use morer_core::pipeline::IngestReport;
use morer_core::repository::ClusterEntry;
use morer_core::searcher::SolveOutcome;
use morer_core::wal::{CommitRecord, CommitRecordRef};
use morer_data::ErProblem;
use morer_ml::dataset::FeatureMatrix;
use morer_ml::model::{ModelConfig, TrainedModel};
use morer_ml::{LogisticRegressionConfig, RandomForestConfig, TrainingSet};
use proptest::prelude::*;
use proptest::TestRng;
use serde::json::{write_value, RECURSION_LIMIT};
use serde::{Deserialize, Serialize};

/// Any `f64` now and then (NaN and the infinities encode as `null`),
/// round and boundary values, and mostly similarity-like values in [0, 1).
fn float(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 8] = [0.0, -0.0, 1.0, 0.1, 1e-5, 1e16, f64::MIN_POSITIVE, 5e-324];
    match rng.next_u64() % 8 {
        0 => f64::from_bits(rng.next_u64()),
        1 => EDGES[rng.usize_inclusive(0, EDGES.len() - 1)],
        _ => rng.next_f64(),
    }
}

/// A string with the characters JSON must escape, non-ASCII text and
/// plain letters.
fn text(rng: &mut TestRng) -> String {
    const PIECES: [&str; 10] =
        ["f", "jaro(title)", "\"", "\\", "\n", "\t", "\u{1}", "é", "日本", "😀"];
    (0..rng.usize_inclusive(0, 6)).map(|_| PIECES[rng.usize_inclusive(0, 9)]).collect()
}

fn problem(rng: &mut TestRng, finite: bool) -> ErProblem {
    let rows = rng.usize_inclusive(0, 12);
    let cols = rng.usize_inclusive(1, 4);
    let mut features = FeatureMatrix::new(cols);
    for _ in 0..rows {
        let row: Vec<f64> =
            (0..cols).map(|_| if finite { rng.next_f64() } else { float(rng) }).collect();
        features.push_row(&row);
    }
    ErProblem {
        id: rng.usize_inclusive(0, 1 << 40),
        sources: (rng.usize_inclusive(0, 9), rng.usize_inclusive(0, 9)),
        pairs: (0..rows).map(|_| (rng.next_u64() as u32, rng.next_u64() as u32)).collect(),
        features,
        labels: (0..rows).map(|_| rng.next_u64() & 1 == 1).collect(),
        feature_names: (0..cols).map(|_| text(rng)).collect(),
    }
}

fn report(rng: &mut TestRng) -> IngestReport {
    let mut small = || rng.usize_inclusive(0, 1000);
    IngestReport {
        problems_added: small(),
        edges_added: small(),
        reclustered: small() % 2 == 0,
        clusters_touched: small(),
        models_retrained: small(),
        new_models: small(),
        labels_spent: small(),
        epoch: rng.next_u64(),
    }
}

fn outcome(rng: &mut TestRng) -> SolveOutcome {
    let n = rng.usize_inclusive(0, 20);
    SolveOutcome {
        predictions: (0..n).map(|_| rng.next_u64() & 1 == 1).collect(),
        probabilities: (0..n).map(|_| float(rng)).collect(),
        entry: (rng.next_u64() & 1 == 1).then(|| rng.usize_inclusive(0, 500)),
        similarity: float(rng),
        retrained: rng.next_u64() & 1 == 1,
        new_model: rng.next_u64() & 1 == 1,
        labels_spent: rng.usize_inclusive(0, 100),
    }
}

/// An entry with a model of every stored kind, trained on a small random
/// labelled set that always holds both classes.
fn entry(rng: &mut TestRng, id: usize) -> ClusterEntry {
    let cols = rng.usize_inclusive(1, 3);
    let mut training = TrainingSet::new(cols);
    for i in 0..rng.usize_inclusive(4, 24) {
        let row: Vec<f64> = (0..cols).map(|_| rng.next_f64()).collect();
        training.push(&row, i % 2 == 0);
    }
    let config = match rng.next_u64() % 4 {
        0 => ModelConfig::GaussianNb,
        1 => ModelConfig::Threshold,
        2 => ModelConfig::LogisticRegression(LogisticRegressionConfig {
            epochs: 5,
            ..Default::default()
        }),
        _ => ModelConfig::RandomForest(RandomForestConfig {
            n_trees: 3,
            max_depth: 4,
            ..Default::default()
        }),
    };
    let model = TrainedModel::train(&config, &training);
    let members = (0..rng.usize_inclusive(1, 4)).map(|_| rng.usize_inclusive(0, 99)).collect();
    ClusterEntry::new(id, members, model, training, rng.usize_inclusive(0, 1000))
}

fn record(rng: &mut TestRng) -> CommitRecord {
    let entries = (0..rng.usize_inclusive(0, 3)).map(|id| entry(rng, id)).collect();
    CommitRecord {
        epoch: rng.next_u64(),
        num_entries: rng.usize_inclusive(0, 10),
        entries,
        report: (rng.next_u64() & 1 == 1).then(|| report(rng)),
    }
}

/// Streaming encode equals the tree writer's bytes.
fn encodes_like_the_tree<T: Serialize>(x: &T) -> Result<String, String> {
    let mut tree = String::new();
    write_value(&x.to_value(), &mut tree);
    let stream = serde_json::to_string(x).map_err(|e| e.to_string())?;
    prop_assert_eq!(&stream, &tree);
    Ok(stream)
}

/// Streaming decode agrees with the tree decode: equal values, or both
/// errors. Returns whether the input decoded.
fn decodes_like_the_tree<T: Deserialize + PartialEq + Debug>(json: &str) -> Result<bool, String> {
    let stream = serde_json::from_str::<T>(json);
    let tree = serde_json::from_str_value(json)
        .map_err(|e| e.to_string())
        .and_then(|v| T::from_value(&v).map_err(|e| e.to_string()));
    match (stream, tree) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a, b, "{}", json);
            Ok(true)
        }
        (Err(_), Err(_)) => Ok(false),
        (a, b) => Err(format!("streaming {a:?} vs tree {b:?} on {json}")),
    }
}

/// Bytes that matter to a JSON reader, for mutations and noise.
const PALETTE: &[u8] = b"{}[],:\"\\ 0123456789-+.eEnulltruefalse\x00\x7fa";

/// Every input derived from a valid document `json` decodes alike on both
/// paths: the document itself, strict prefixes (which must fail), single
/// byte replacements, insertions and deletions.
fn hostile_variants_decode_alike<T: Deserialize + PartialEq + Debug>(
    json: &str,
    rng: &mut TestRng,
) -> Result<(), String> {
    prop_assert!(decodes_like_the_tree::<T>(json)?, "valid document failed: {}", json);
    let bytes = json.as_bytes();
    for _ in 0..8 {
        let cut = rng.usize_inclusive(0, bytes.len() - 1);
        let prefix = String::from_utf8_lossy(&bytes[..cut]);
        if prefix.len() < json.len() {
            prop_assert!(!decodes_like_the_tree::<T>(&prefix)?, "prefix decoded: {}", prefix);
        }
        let at = rng.usize_inclusive(0, bytes.len() - 1);
        let b = PALETTE[rng.usize_inclusive(0, PALETTE.len() - 1)];
        let mut replaced = bytes.to_vec();
        replaced[at] = b;
        decodes_like_the_tree::<T>(&String::from_utf8_lossy(&replaced))?;
        let mut inserted = bytes.to_vec();
        inserted.insert(at, b);
        decodes_like_the_tree::<T>(&String::from_utf8_lossy(&inserted))?;
        let mut deleted = bytes.to_vec();
        deleted.remove(at);
        decodes_like_the_tree::<T>(&String::from_utf8_lossy(&deleted))?;
    }
    Ok(())
}

/// Number tokens both paths must read alike: signed and leading zeros,
/// forms `str::parse` rejects or accepts beyond JSON, the `i64`, `u64`
/// and `u32` limits and their neighbours, subnormals, the ends of the
/// `f64` range, exponents past it and digit strings past 19 digits.
const NUMBER_EDGES: &[&str] = &[
    "-0", "-0.0", "0.0", "007", "-007", "00.5", "1.", "1.e5", "-.5", "1e", "1.2.3", "--1", "-",
    "1e5e5", "1E5",
    "1e+5", "1e400", "-1e400", "1e-400", "4.9e-324", "2.5e-324", "2.2250738585072014e-308",
    "1.7976931348623157e308", "1.7976931348623159e308", "9223372036854775806",
    "9223372036854775807", "9223372036854775808", "-9223372036854775807",
    "-9223372036854775808", "-9223372036854775809", "18446744073709551614",
    "18446744073709551615", "18446744073709551616", "4294967295", "4294967296", "-1", "0.5",
    "12345678901234567890123", "0.12345678901234567890123", "1e4294967296",
];

/// The byte ranges of the number tokens of `json`, outside strings: a `-`
/// or digit and the run of `0-9 . e E + -` after it, as the parser scans.
fn number_tokens(json: &str) -> Vec<Range<usize>> {
    let bytes = json.as_bytes();
    let mut tokens = Vec::new();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        i += 1;
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i - 1;
            while bytes.get(i).is_some_and(|c| c.is_ascii_digit() || b".eE+-".contains(c)) {
                i += 1;
            }
            tokens.push(start..i);
        }
    }
    tokens
}

/// A valid document with one to three of its number tokens rewritten into
/// [`NUMBER_EDGES`] forms decodes alike on both paths, eight times over;
/// one with a token rewritten into a form RFC 8259 forbids fails on both.
fn number_edges_decode_alike<T: Deserialize + PartialEq + Debug>(
    json: &str,
    rng: &mut TestRng,
) -> Result<(), String> {
    let tokens = number_tokens(json);
    prop_assert!(!tokens.is_empty(), "no number in {}", json);
    for _ in 0..8 {
        let mut picks: Vec<Range<usize>> = (0..rng.usize_inclusive(1, 3))
            .map(|_| tokens[rng.usize_inclusive(0, tokens.len() - 1)].clone())
            .collect();
        // rewrite from the back, so the earlier ranges stay put
        picks.sort_by_key(|r| std::cmp::Reverse(r.start));
        picks.dedup();
        let mut mutated = json.to_owned();
        for r in picks {
            mutated.replace_range(r, NUMBER_EDGES[rng.usize_inclusive(0, NUMBER_EDGES.len() - 1)]);
        }
        decodes_like_the_tree::<T>(&mutated)?;
    }
    // number forms RFC 8259 forbids fail on both paths
    for bad in ["007", "1.", "-.5", "1.e5"] {
        let mut mutated = json.to_owned();
        mutated.replace_range(tokens[rng.usize_inclusive(0, tokens.len() - 1)].clone(), bad);
        prop_assert!(!decodes_like_the_tree::<T>(&mutated)?, "decoded: {}", mutated);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replies_and_bodies_encode_like_the_tree(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        encodes_like_the_tree(&problem(&mut rng, false))?;
        encodes_like_the_tree(&outcome(&mut rng))?;
        encodes_like_the_tree(&report(&mut rng))?;
        let errors = [
            MorerError::EmptyRepository,
            MorerError::Parse(text(&mut rng)),
            MorerError::InvalidProblem(text(&mut rng)),
            MorerError::UnsupportedVersion { found: rng.next_u64() },
            MorerError::LogCorrupt { offset: rng.next_u64(), reason: text(&mut rng) },
        ];
        for e in &errors {
            encodes_like_the_tree(e)?;
        }
    }

    #[test]
    fn commit_records_encode_like_the_tree(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let record = record(&mut rng);
        let owned = encodes_like_the_tree(&record)?;
        for e in &record.entries {
            encodes_like_the_tree(e)?;
        }
        // the writer's borrowed record frames the same payload bytes
        let borrowed = encodes_like_the_tree(&CommitRecordRef::from(&record))?;
        prop_assert_eq!(borrowed, owned);
    }

    #[test]
    fn solve_bodies_decode_like_the_tree(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let p = problem(&mut rng, true);
        let json = serde_json::to_string(&p).unwrap();
        prop_assert_eq!(serde_json::from_str::<ErProblem>(&json).unwrap(), p);
        hostile_variants_decode_alike::<ErProblem>(&json, &mut rng)?;
        number_edges_decode_alike::<ErProblem>(&json, &mut rng)?;
    }

    #[test]
    fn ingest_bodies_decode_like_the_tree(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let batch: Vec<ErProblem> =
            (0..rng.usize_inclusive(1, 3)).map(|_| problem(&mut rng, true)).collect();
        let json = serde_json::to_string(&batch).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Vec<ErProblem>>(&json).unwrap(), &batch);
        hostile_variants_decode_alike::<Vec<ErProblem>>(&json, &mut rng)?;
        number_edges_decode_alike::<Vec<ErProblem>>(&json, &mut rng)?;
        // an object body is one problem, and whitespace anywhere is fine
        let one = serde_json::to_string(&batch[0]).unwrap();
        let spaced = format!(" \n{}\t", one.replace(',', " ,\r\n "));
        prop_assert!(decodes_like_the_tree::<ErProblem>(&spaced)?);
    }

    #[test]
    fn wal_payloads_decode_like_the_tree(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let record = record(&mut rng);
        let json = serde_json::to_string(&record).unwrap();
        prop_assert_eq!(serde_json::from_str::<CommitRecord>(&json).unwrap(), record);
        hostile_variants_decode_alike::<CommitRecord>(&json, &mut rng)?;
        number_edges_decode_alike::<CommitRecord>(&json, &mut rng)?;
    }

    #[test]
    fn arbitrary_bytes_decode_like_the_tree(
        noise in proptest::collection::vec(0usize..PALETTE.len(), 0..64),
    ) {
        let text: String = noise.iter().map(|&i| PALETTE[i] as char).collect();
        decodes_like_the_tree::<ErProblem>(&text)?;
        decodes_like_the_tree::<Vec<ErProblem>>(&text)?;
        decodes_like_the_tree::<CommitRecord>(&text)?;
        decodes_like_the_tree::<SolveOutcome>(&text)?;
    }
}

/// `[[[…]]]` nested `depth` deep.
fn nested(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

/// Nesting inside fields the decoder discards — an entry's `sketch`, an
/// unknown key of a problem — still counts against [`RECURSION_LIMIT`]:
/// the skip path accepts and rejects exactly what the tree path does.
#[test]
fn skipped_fields_keep_the_recursion_limit() {
    let mut rng = TestRng::new(7);
    let record =
        CommitRecord { epoch: 1, num_entries: 1, entries: vec![entry(&mut rng, 0)], report: None };
    let json = serde_json::to_string(&record).unwrap();
    assert_eq!(json.matches("\"sketch\":null").count(), 1);
    // the sketch sits three levels deep: record, entries, entry
    let with_sketch = |s: &str| json.replace("\"sketch\":null", &format!("\"sketch\":{s}"));
    let fits = with_sketch(&nested(RECURSION_LIMIT - 3));
    assert_eq!(serde_json::from_str::<CommitRecord>(&fits).unwrap(), record);
    assert!(decodes_like_the_tree::<CommitRecord>(&fits).unwrap());
    let too_deep = with_sketch(&nested(RECURSION_LIMIT - 2));
    let err = serde_json::from_str::<CommitRecord>(&too_deep).unwrap_err().to_string();
    assert!(err.contains("recursion limit exceeded"), "{err}");
    assert!(!decodes_like_the_tree::<CommitRecord>(&too_deep).unwrap());

    let body = serde_json::to_string(&problem(&mut rng, true)).unwrap();
    let extra = |s: &str| format!("{{\"extra\":{s},{}", &body[1..]);
    assert!(decodes_like_the_tree::<ErProblem>(&extra(&nested(RECURSION_LIMIT - 1))).unwrap());
    let err = serde_json::from_str::<ErProblem>(&extra(&nested(RECURSION_LIMIT)))
        .unwrap_err()
        .to_string();
    assert!(err.contains("recursion limit exceeded"), "{err}");

    // a hostile unterminated prefix on a small (2 MiB) stack fails cleanly
    let hostile = with_sketch(&"[".repeat(200_000));
    let err = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || serde_json::from_str::<CommitRecord>(&hostile).unwrap_err().to_string())
        .unwrap()
        .join()
        .unwrap();
    assert!(err.contains("recursion limit exceeded"), "{err}");
}
