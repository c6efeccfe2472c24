//! Tokenization utilities shared by token-based similarity functions and the
//! embedding substrate.
//!
//! The tokenizers are intentionally simple and deterministic: Unicode
//! alphanumeric runs for words, sliding windows for q-grams. They mirror the
//! preprocessing typically applied before Jaccard/Dice comparison in classic
//! record-linkage toolkits.

use std::borrow::Cow;

/// Normalize a raw attribute value: lowercase and collapse every
/// non-alphanumeric run into a single space.
///
/// This is the canonical preprocessing applied before word tokenization so
/// that `"Ultra-HD  Smart TV!"` and `"ultra hd smart tv"` compare equal.
///
/// Inputs that are already in normalized form (ASCII lowercase alphanumerics
/// separated by single spaces) are borrowed rather than copied — the common
/// case on pre-cleaned data and on re-normalization of cached
/// [`crate::profile::ProfileSet`] strings.
pub fn normalize(s: &str) -> Cow<'_, str> {
    if is_normalized_ascii(s) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            if ch.is_ascii() {
                out.push(ch.to_ascii_lowercase());
            } else {
                for lc in ch.to_lowercase() {
                    out.push(lc);
                }
            }
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    Cow::Owned(out)
}

/// True when `normalize` would return the input unchanged: non-empty-safe
/// check for ASCII lowercase alphanumerics with single interior spaces and
/// no leading/trailing space.
fn is_normalized_ascii(s: &str) -> bool {
    let bytes = s.as_bytes();
    if bytes.is_empty() {
        return true;
    }
    if bytes[0] == b' ' || bytes[bytes.len() - 1] == b' ' {
        return false;
    }
    let mut prev_space = false;
    for &b in bytes {
        match b {
            b'a'..=b'z' | b'0'..=b'9' => prev_space = false,
            b' ' => {
                if prev_space {
                    return false;
                }
                prev_space = true;
            }
            _ => return false,
        }
    }
    true
}

/// Split a string into lowercase word tokens (alphanumeric runs).
pub fn words(s: &str) -> Vec<String> {
    norm_words(&normalize(s)).map(str::to_owned).collect()
}

/// Iterate the word tokens of an *already normalized* string without
/// allocating.
pub fn norm_words(norm: &str) -> impl Iterator<Item = &str> {
    norm.split(' ').filter(|t| !t.is_empty())
}

/// Sorted, deduplicated word-token set of an *already normalized* string,
/// borrowing the tokens. One pass: tokenize, sort, dedup.
pub fn sorted_token_refs(norm: &str) -> Vec<&str> {
    let mut set: Vec<&str> = norm_words(norm).collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Produce the multiset of character q-grams of `s` (as byte-window strings
/// over the normalized form).
///
/// When `padded` is true the string is framed with `q - 1` leading `#` and
/// trailing `$` sentinel characters, which gives extra weight to matching
/// prefixes/suffixes — the classic Febrl behaviour.
pub fn qgrams(s: &str, q: usize, padded: bool) -> Vec<String> {
    qgrams_norm(&normalize(s), q, padded)
}

/// q-grams of an *already normalized* string (the cache-friendly entry point
/// used by record profiling).
pub fn qgrams_norm(norm: &str, q: usize, padded: bool) -> Vec<String> {
    assert!(q >= 1, "q-gram size must be at least 1");
    let mut chars: Vec<char> = Vec::with_capacity(norm.len() + 2 * (q - 1));
    if padded {
        chars.extend(std::iter::repeat_n('#', q - 1));
    }
    chars.extend(norm.chars());
    if padded {
        chars.extend(std::iter::repeat_n('$', q - 1));
    }
    if chars.len() < q {
        if chars.is_empty() {
            return Vec::new();
        }
        return vec![chars.iter().collect()];
    }
    chars.windows(q).map(|w| w.iter().collect()).collect()
}

/// Sorted, deduplicated token set — the representation used by the set-based
/// similarity coefficients.
pub fn token_set(tokens: &[String]) -> Vec<&str> {
    let mut set: Vec<&str> = tokens.iter().map(String::as_str).collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Size of the intersection of two *sorted deduplicated* slices.
pub(crate) fn sorted_intersection_len<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses_punctuation_and_case() {
        assert_eq!(normalize("Ultra-HD  Smart TV!"), "ultra hd smart tv");
        assert_eq!(normalize("  "), "");
        assert_eq!(normalize("a"), "a");
        assert_eq!(normalize("A--B"), "a b");
    }

    #[test]
    fn normalize_borrows_already_normalized_input() {
        for s in ["ultra hd smart tv", "", "a", "canon eos 750d"] {
            assert!(matches!(normalize(s), Cow::Borrowed(_)), "{s:?}");
        }
        for s in ["Ultra HD", "a  b", " a", "a ", "a-b", "é"] {
            assert!(matches!(normalize(s), Cow::Owned(_)), "{s:?}");
        }
    }

    #[test]
    fn words_splits_on_non_alphanumeric() {
        assert_eq!(words("Bose QC35 II"), vec!["bose", "qc35", "ii"]);
        assert!(words("!!!").is_empty());
    }

    #[test]
    fn sorted_token_refs_matches_token_set() {
        let norm = normalize("beta alpha beta gamma");
        assert_eq!(sorted_token_refs(&norm), vec!["alpha", "beta", "gamma"]);
        assert!(sorted_token_refs("").is_empty());
    }

    #[test]
    fn qgrams_unpadded_basic() {
        assert_eq!(qgrams("abcd", 2, false), vec!["ab", "bc", "cd"]);
    }

    #[test]
    fn qgrams_padded_adds_sentinels() {
        let grams = qgrams("ab", 2, true);
        assert_eq!(grams, vec!["#a", "ab", "b$"]);
    }

    #[test]
    fn qgrams_short_string_returns_whole() {
        assert_eq!(qgrams("a", 3, false), vec!["a"]);
        assert!(qgrams("", 3, false).is_empty());
    }

    #[test]
    fn qgrams_normalizes_input() {
        assert_eq!(qgrams("A B", 2, false), qgrams("a b", 2, false));
    }

    #[test]
    fn token_set_sorts_and_dedups() {
        let toks = vec!["b".to_owned(), "a".to_owned(), "b".to_owned()];
        assert_eq!(token_set(&toks), vec!["a", "b"]);
    }

    #[test]
    fn intersection_len_counts_common() {
        let a = vec!["a", "b", "c"];
        let b = vec!["b", "c", "d"];
        assert_eq!(sorted_intersection_len(&a, &b), 2);
        assert_eq!(sorted_intersection_len(&a, &[]), 0);
        assert_eq!(sorted_intersection_len(&[1u32, 5, 9], &[5, 9, 11]), 2);
    }
}
