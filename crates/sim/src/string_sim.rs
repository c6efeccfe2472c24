//! String similarity functions.
//!
//! Every function returns a similarity in `[0, 1]`. Token-based coefficients
//! (Jaccard, Dice, overlap, cosine) operate on word token sets; q-gram
//! variants operate on character q-gram sets. Edit-based functions
//! (Levenshtein, Jaro, Jaro-Winkler) operate on the normalized character
//! sequence. Hybrid Monge-Elkan combines the two levels.
//!
//! Each public `&str` function normalizes its inputs **once** and delegates
//! to a core that operates on the normalized form (`*_chars` for
//! character-level functions, `*_counts` for set coefficients). The record
//! profiling fast path ([`crate::profile`]) calls the *same* cores on cached
//! normalized data, which is what guarantees bit-identical results between
//! the cold string path and the profiled path.

use crate::clamp_unit;
use crate::tokenize::{normalize, norm_words, qgrams, sorted_intersection_len, sorted_token_refs, token_set};

// ---------------------------------------------------------------------------
// Set-coefficient cores
// ---------------------------------------------------------------------------

/// Jaccard coefficient from set cardinalities: `inter / (la + lb − inter)`.
#[inline]
pub(crate) fn jaccard_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    let union = la + lb - inter;
    clamp_unit(inter as f64 / union as f64)
}

/// Sørensen–Dice coefficient from set cardinalities.
#[inline]
pub(crate) fn dice_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    clamp_unit(2.0 * inter as f64 / (la + lb) as f64)
}

/// Overlap coefficient from set cardinalities.
#[inline]
pub(crate) fn overlap_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    clamp_unit(inter as f64 / la.min(lb) as f64)
}

/// Cosine similarity (binary vectors) from set cardinalities.
#[inline]
pub(crate) fn cosine_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    clamp_unit(inter as f64 / ((la as f64) * (lb as f64)).sqrt())
}

/// Normalize both inputs once and build their sorted word-token sets.
macro_rules! token_coefficient {
    ($a:expr, $b:expr, $counts:ident) => {{
        let (na, nb) = (normalize($a), normalize($b));
        let (sa, sb) = (sorted_token_refs(&na), sorted_token_refs(&nb));
        $counts(sorted_intersection_len(&sa, &sb), sa.len(), sb.len())
    }};
}

/// Jaccard coefficient over word token sets: `|A ∩ B| / |A ∪ B|`.
///
/// This is the function the paper illustrates in Fig. 2 (`jaccard(title)`).
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    token_coefficient!(a, b, jaccard_counts)
}

/// Jaccard coefficient over character q-gram sets.
pub fn jaccard_qgrams(a: &str, b: &str, q: usize) -> f64 {
    let (ga, gb) = (qgrams(a, q, true), qgrams(b, q, true));
    let (sa, sb) = (token_set(&ga), token_set(&gb));
    jaccard_counts(sorted_intersection_len(&sa, &sb), sa.len(), sb.len())
}

/// Sørensen–Dice coefficient over word token sets: `2|A ∩ B| / (|A| + |B|)`.
pub fn dice_tokens(a: &str, b: &str) -> f64 {
    token_coefficient!(a, b, dice_counts)
}

/// Overlap coefficient over word token sets: `|A ∩ B| / min(|A|, |B|)`.
pub fn overlap_tokens(a: &str, b: &str) -> f64 {
    token_coefficient!(a, b, overlap_counts)
}

/// Cosine similarity over binary word token vectors:
/// `|A ∩ B| / sqrt(|A| · |B|)`.
pub fn cosine_tokens(a: &str, b: &str) -> f64 {
    token_coefficient!(a, b, cosine_counts)
}

// ---------------------------------------------------------------------------
// Levenshtein
// ---------------------------------------------------------------------------

/// Longest normalized string (in bytes) still eligible for the Myers
/// bit-parallel Levenshtein kernel: the pattern bitmask must fit one `u64`.
pub(crate) const MYERS_MAX_LEN: usize = 64;

/// Compact Myers alphabet: normalized strings only contain `[a-z0-9 ]`, so
/// the per-pattern match-mask table needs 37 classes plus a catch-all. Bytes
/// mapping to the catch-all class (37) force the general 128-entry table —
/// two distinct catch-all bytes must not share an `eq` mask.
const MYERS_CATCH_ALL: u8 = 37;
static MYERS_CLASS: [u8; 128] = build_myers_classes();

const fn build_myers_classes() -> [u8; 128] {
    let mut table = [MYERS_CATCH_ALL; 128];
    let mut c = 0usize;
    while c < 26 {
        table[b'a' as usize + c] = c as u8;
        c += 1;
    }
    let mut d = 0usize;
    while d < 10 {
        table[b'0' as usize + d] = 26 + d as u8;
        d += 1;
    }
    table[b' ' as usize] = 36;
    table
}

macro_rules! myers_loop {
    ($peq:expr, $class:expr, $a_len:expr, $b:expr) => {{
        let mut pv = !0u64;
        let mut mv = 0u64;
        let mut score = $a_len;
        let high = 1u64 << ($a_len - 1);
        for &c in $b {
            let eq = $peq[$class(c)];
            let xv = eq | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let mut ph = mv | !(xh | pv);
            let mut mh = pv & xh;
            if ph & high != 0 {
                score += 1;
            }
            if mh & high != 0 {
                score -= 1;
            }
            ph = (ph << 1) | 1;
            mh <<= 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        score
    }};
}

/// Myers (1999) bit-parallel Levenshtein distance for ASCII byte strings.
///
/// `a` is the pattern (`1 ≤ |a| ≤ 64`); `b` may be any non-empty length.
/// Runs in O(|b|) words instead of the O(|a|·|b|) cell updates of the
/// dynamic program, an ~20× kernel speedup on typical attribute values.
/// Patterns over the normalized alphabet `[a-z0-9 ]` use a compact 38-entry
/// mask table (cheap to zero per call); anything else falls back to the full
/// 128-entry table.
pub(crate) fn levenshtein_myers_ascii(a: &[u8], b: &[u8]) -> usize {
    debug_assert!(!a.is_empty() && a.len() <= MYERS_MAX_LEN);
    debug_assert!(!b.is_empty());
    let mut peq = [0u64; 38];
    let mut compact = true;
    for (i, &c) in a.iter().enumerate() {
        let class = MYERS_CLASS[(c & 0x7f) as usize];
        if class == MYERS_CATCH_ALL {
            compact = false;
            break;
        }
        peq[class as usize] |= 1 << i;
    }
    if compact {
        // text bytes outside the compact alphabet read the catch-all class,
        // whose mask is 0 (the pattern has no such byte) — a correct mismatch
        myers_loop!(peq, |c: u8| MYERS_CLASS[(c & 0x7f) as usize] as usize, a.len(), b)
    } else {
        let mut peq = [0u64; 128];
        for (i, &c) in a.iter().enumerate() {
            peq[(c & 0x7f) as usize] |= 1 << i;
        }
        myers_loop!(peq, |c: u8| (c & 0x7f) as usize, a.len(), b)
    }
}

/// Two-row dynamic-program Levenshtein over char slices (the general-case
/// fallback for non-ASCII or > 64-char inputs).
pub(crate) fn levenshtein_dp(a: &[char], b: &[char]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Levenshtein distance between two *already normalized* strings, choosing
/// the Myers bit-parallel kernel when both sides are short ASCII.
pub(crate) fn levenshtein_distance_norm(na: &str, nb: &str) -> usize {
    if na.is_ascii() && nb.is_ascii() && na.len() <= MYERS_MAX_LEN && nb.len() <= MYERS_MAX_LEN {
        if na.is_empty() {
            return nb.len();
        }
        if nb.is_empty() {
            return na.len();
        }
        return levenshtein_myers_ascii(na.as_bytes(), nb.as_bytes());
    }
    let a: Vec<char> = na.chars().collect();
    let b: Vec<char> = nb.chars().collect();
    levenshtein_dp(&a, &b)
}

/// Raw Levenshtein edit distance between the normalized forms of `a` and `b`.
pub fn levenshtein_distance(a: &str, b: &str) -> usize {
    levenshtein_distance_norm(&normalize(a), &normalize(b))
}

/// Shared Levenshtein-similarity core over *already normalized* strings,
/// with the char counts and Myers eligibility supplied by the caller (the
/// string path computes them on the fly, the profile path reads its cache).
/// Keeping one core is what makes the two paths bit-identical by
/// construction.
pub(crate) fn levenshtein_sim_with(na: &str, nb: &str, max_len: usize, small_ascii: bool) -> f64 {
    if max_len == 0 {
        return 1.0;
    }
    let dist = if small_ascii {
        if na.is_empty() {
            nb.len()
        } else if nb.is_empty() {
            na.len()
        } else {
            levenshtein_myers_ascii(na.as_bytes(), nb.as_bytes())
        }
    } else {
        levenshtein_distance_norm(na, nb)
    };
    clamp_unit(1.0 - dist as f64 / max_len as f64)
}

/// Normalized Levenshtein similarity of two *already normalized* strings:
/// `1 − dist / max(|a|, |b|)`.
pub(crate) fn levenshtein_sim_norm(na: &str, nb: &str) -> f64 {
    let max_len = na.chars().count().max(nb.chars().count());
    let small_ascii = na.is_ascii()
        && nb.is_ascii()
        && na.len() <= MYERS_MAX_LEN
        && nb.len() <= MYERS_MAX_LEN;
    levenshtein_sim_with(na, nb, max_len, small_ascii)
}

/// Normalized Levenshtein similarity: `1 − dist / max(|a|, |b|)`.
///
/// The inputs are normalized exactly once (the seed implementation
/// re-normalized inside `levenshtein_distance` after normalizing here).
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    levenshtein_sim_norm(&normalize(a), &normalize(b))
}

// ---------------------------------------------------------------------------
// Jaro / Jaro-Winkler
// ---------------------------------------------------------------------------

/// Jaro similarity over pre-normalized char slices.
///
/// For `|b| ≤ 64` (virtually all attribute values) the used-marks live in a
/// `u64` bitmask and the match buffer on the stack — no heap allocation in
/// the per-pair hot path. Both branches compute the identical match count
/// and transposition count, so results are bit-identical.
pub(crate) fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let (m, transpositions) = if b.len() <= 64 {
        let mut used: u64 = 0;
        let mut matches_a = ['\0'; 64];
        let mut m = 0usize;
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for (j, cb) in b.iter().enumerate().take(hi).skip(lo) {
                if used & (1 << j) == 0 && cb == ca {
                    used |= 1 << j;
                    matches_a[m] = *ca;
                    m += 1;
                    break;
                }
            }
        }
        let mut mismatches = 0usize;
        let mut k = 0usize;
        for (j, cb) in b.iter().enumerate() {
            if used & (1 << j) != 0 {
                if matches_a[k] != *cb {
                    mismatches += 1;
                }
                k += 1;
            }
        }
        (m, mismatches / 2)
    } else {
        let mut b_used = vec![false; b.len()];
        let mut matches_a: Vec<char> = Vec::new();
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == *ca {
                    b_used[j] = true;
                    matches_a.push(*ca);
                    break;
                }
            }
        }
        let mismatches = b
            .iter()
            .zip(b_used.iter())
            .filter_map(|(c, used)| used.then_some(*c))
            .zip(matches_a.iter())
            .filter(|(x, y)| x != *y)
            .count();
        (matches_a.len(), mismatches / 2)
    };
    if m == 0 {
        return 0.0;
    }
    let m = m as f64;
    let t = transpositions as f64;
    clamp_unit((m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0)
}

/// Jaro similarity between the normalized forms of `a` and `b`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    jaro_chars(&a, &b)
}

/// Jaro-Winkler over pre-normalized char slices: standard prefix scale 0.1,
/// maximum common-prefix credit of 4 characters.
pub(crate) fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    let base = jaro_chars(a, b);
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    clamp_unit(base + prefix * 0.1 * (1.0 - base))
}

/// Jaro-Winkler similarity with the standard prefix scale of 0.1 and a
/// maximum common-prefix credit of 4 characters.
///
/// Normalizes each input exactly once (the seed implementation normalized a
/// second time to compute the common prefix).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    jaro_winkler_chars(&a, &b)
}

// ---------------------------------------------------------------------------
// Substring / alignment
// ---------------------------------------------------------------------------

/// Longest common substring similarity over pre-normalized char slices.
pub(crate) fn lcs_substring_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut best = 0usize;
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for ca in a {
        for (j, cb) in b.iter().enumerate() {
            cur[j + 1] = if ca == cb { prev[j] + 1 } else { 0 };
            best = best.max(cur[j + 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    clamp_unit(best as f64 / a.len().min(b.len()) as f64)
}

/// Longest common substring similarity: `|lcs| / min(|a|, |b|)` on the
/// normalized forms.
pub fn lcs_substring_sim(a: &str, b: &str) -> f64 {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    lcs_substring_chars(&a, &b)
}

/// Smith-Waterman local alignment over pre-normalized char slices.
pub(crate) fn smith_waterman_chars(a: &[char], b: &[char]) -> f64 {
    const MATCH: i32 = 2;
    const MISMATCH: i32 = -1;
    const GAP: i32 = -1;
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut prev = vec![0i32; b.len() + 1];
    let mut cur = vec![0i32; b.len() + 1];
    let mut best = 0i32;
    for ca in a {
        for (j, cb) in b.iter().enumerate() {
            let diag = prev[j] + if ca == cb { MATCH } else { MISMATCH };
            let up = prev[j + 1] + GAP;
            let left = cur[j] + GAP;
            cur[j + 1] = diag.max(up).max(left).max(0);
            best = best.max(cur[j + 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
        cur[0] = 0;
    }
    let denom = (MATCH as f64) * a.len().min(b.len()) as f64;
    clamp_unit(best as f64 / denom)
}

/// Smith-Waterman local-alignment similarity with the classic record-linkage
/// scoring (match +2, mismatch −1, gap −1), normalized by the best possible
/// score of the shorter string: `best_local_score / (2 · min(|a|, |b|))`.
///
/// Rewards long shared substrings even when embedded in unrelated context —
/// useful for titles that wrap a common product name in vendor boilerplate.
pub fn smith_waterman(a: &str, b: &str) -> f64 {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    smith_waterman_chars(&a, &b)
}

// ---------------------------------------------------------------------------
// Monge-Elkan / exact
// ---------------------------------------------------------------------------

/// Monge-Elkan over pre-tokenized, pre-normalized token char slices.
pub(crate) fn monge_elkan_tokens(ta: &[Vec<char>], tb: &[Vec<char>]) -> f64 {
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let dir = |xs: &[Vec<char>], ys: &[Vec<char>]| -> f64 {
        xs.iter()
            .map(|x| {
                ys.iter()
                    .map(|y| jaro_winkler_chars(x, y))
                    .fold(0.0f64, f64::max)
            })
            .sum::<f64>()
            / xs.len() as f64
    };
    clamp_unit((dir(ta, tb) + dir(tb, ta)) / 2.0)
}

/// Token char vectors of an *already normalized* string, in token order.
pub(crate) fn token_char_vecs(norm: &str) -> Vec<Vec<char>> {
    norm_words(norm).map(|t| t.chars().collect()).collect()
}

/// Monge-Elkan similarity: for each token of `a`, the best Jaro-Winkler match
/// among the tokens of `b`, averaged; symmetrized by taking the mean of both
/// directions.
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    let ta = token_char_vecs(&normalize(a));
    let tb = token_char_vecs(&normalize(b));
    monge_elkan_tokens(&ta, &tb)
}

/// Exact-match similarity on normalized forms: `1.0` if equal, else `0.0`.
pub fn exact(a: &str, b: &str) -> f64 {
    if normalize(a) == normalize(b) {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_identical_and_disjoint() {
        assert_eq!(jaccard_tokens("smart tv", "Smart TV"), 1.0);
        assert_eq!(jaccard_tokens("alpha beta", "gamma delta"), 0.0);
        assert_eq!(jaccard_tokens("", ""), 1.0);
        assert_eq!(jaccard_tokens("a", ""), 0.0);
    }

    #[test]
    fn jaccard_partial_overlap() {
        // {ultra, hd, tv} vs {ultra, hd, smart, tv}: 3/4
        let s = jaccard_tokens("ultra hd tv", "ultra hd smart tv");
        assert!((s - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dice_and_overlap_and_cosine_relationships() {
        let a = "ultra hd tv";
        let b = "ultra hd smart tv";
        let j = jaccard_tokens(a, b);
        let d = dice_tokens(a, b);
        let o = overlap_tokens(a, b);
        let c = cosine_tokens(a, b);
        // dice >= jaccard, overlap >= dice, cosine between
        assert!(d >= j);
        assert!(o >= d);
        assert!(c >= j && c <= o);
        assert_eq!(overlap_tokens("tv", "ultra hd smart tv"), 1.0);
    }

    #[test]
    fn levenshtein_known_distances() {
        assert_eq!(levenshtein_distance("kitten", "sitting"), 3);
        assert_eq!(levenshtein_distance("", "abc"), 3);
        assert_eq!(levenshtein_distance("abc", "abc"), 0);
        assert_eq!(levenshtein_distance("flaw", "lawn"), 2);
    }

    #[test]
    fn myers_matches_dp_on_known_and_long_inputs() {
        let cases = [
            ("kitten", "sitting"),
            ("abc", "abc"),
            ("flaw", "lawn"),
            ("a", "abcdefghijklmnopqrstuvwxyz"),
            ("the quick brown fox jumps over the lazy dog every day", "the quick brown cat leaps over the lazy dog each day"),
        ];
        for (a, b) in cases {
            let dp = levenshtein_dp(
                &a.chars().collect::<Vec<_>>(),
                &b.chars().collect::<Vec<_>>(),
            );
            assert_eq!(levenshtein_myers_ascii(a.as_bytes(), b.as_bytes()), dp, "{a} vs {b}");
        }
        // 64-char pattern boundary
        let long_a = "a".repeat(64);
        let long_b = format!("{}b", "a".repeat(63));
        assert_eq!(
            levenshtein_myers_ascii(long_a.as_bytes(), long_b.as_bytes()),
            1
        );
        // bytes outside the compact [a-z0-9 ] alphabet take the 128-entry
        // fallback; distinct unusual bytes must not alias to "equal"
        assert_eq!(levenshtein_myers_ascii(b"A", b"B"), 1);
        assert_eq!(levenshtein_myers_ascii(b"a_b-c", b"a_b-c"), 0);
        assert_eq!(levenshtein_myers_ascii(b"x!", b"x?"), 1);
        // compact pattern vs text containing unusual bytes: plain mismatches
        assert_eq!(levenshtein_myers_ascii(b"abc", b"a_c"), 1);
    }

    #[test]
    fn non_ascii_and_oversized_inputs_use_dp_fallback() {
        // unicode: café vs cafe is one substitution
        assert_eq!(levenshtein_distance("café", "cafe"), 1);
        // > 64 chars forces the DP path
        let a = "x".repeat(80);
        let b = format!("{}y", "x".repeat(79));
        assert_eq!(levenshtein_distance(&a, &b), 1);
        // mixed: one side ascii, one side not
        assert_eq!(levenshtein_distance("über", "uber"), 1);
    }

    #[test]
    fn levenshtein_sim_bounds() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("abc", "abc"), 1.0);
        assert_eq!(levenshtein_sim("abc", "xyz"), 0.0);
        let s = levenshtein_sim("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn jaro_known_values() {
        // Classic example: MARTHA vs MARHTA = 0.944...
        let s = jaro("MARTHA", "MARHTA");
        assert!((s - 0.944444).abs() < 1e-4, "got {s}");
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("abc", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        // MARTHA vs MARHTA with 3-char prefix: 0.9611...
        let s = jaro_winkler("MARTHA", "MARHTA");
        assert!((s - 0.961111).abs() < 1e-4, "got {s}");
        // prefix boost never decreases the score
        assert!(jaro_winkler("samsung", "samsnug") >= jaro("samsung", "samsnug"));
    }

    #[test]
    fn lcs_substring_examples() {
        assert_eq!(lcs_substring_sim("abcdef", "abcdef"), 1.0);
        // "abc" in both; min length 3 -> 1.0
        assert_eq!(lcs_substring_sim("abc", "xxabcxx"), 1.0);
        assert_eq!(lcs_substring_sim("aaa", "bbb"), 0.0);
    }

    #[test]
    fn monge_elkan_token_reordering() {
        // Token reordering should barely matter.
        let s = monge_elkan("noise cancelling wireless", "wireless noise cancelling");
        assert!(s > 0.99, "got {s}");
        assert_eq!(monge_elkan("", ""), 1.0);
        assert_eq!(monge_elkan("a", ""), 0.0);
    }

    #[test]
    fn exact_match_normalizes() {
        assert_eq!(exact("Bose QC35", "bose qc35"), 1.0);
        assert_eq!(exact("Bose QC35", "Bose QC35 II"), 0.0);
    }

    #[test]
    fn smith_waterman_rewards_embedded_substrings() {
        // the full shorter string aligns inside the longer one
        assert_eq!(smith_waterman("eos 750d", "canon eos 750d camera kit"), 1.0);
        assert_eq!(smith_waterman("abc", "abc"), 1.0);
        assert_eq!(smith_waterman("", ""), 1.0);
        assert_eq!(smith_waterman("abc", ""), 0.0);
        // disjoint alphabets share nothing
        assert_eq!(smith_waterman("aaa", "zzz"), 0.0);
        // partial overlap lands strictly between
        let s = smith_waterman("playstation five", "playstation 5 console");
        assert!(s > 0.3 && s < 1.0, "got {s}");
    }

    #[test]
    fn smith_waterman_symmetric() {
        let pairs = [("canon eos", "eos canon x"), ("", "a"), ("ab", "ba")];
        for (a, b) in pairs {
            assert!((smith_waterman(a, b) - smith_waterman(b, a)).abs() < 1e-12);
        }
    }

    #[test]
    fn qgram_jaccard_similar_strings() {
        let s = jaccard_qgrams("samsung", "samsnug", 2);
        assert!(s > 0.3 && s < 1.0);
        assert_eq!(jaccard_qgrams("samsung", "samsung", 2), 1.0);
    }

    #[test]
    fn all_functions_symmetric() {
        let pairs = [
            ("ultra hd smart tv 55", "ultra hd 55 inch smart tv"),
            ("bose qc35", "qc35 ii"),
            ("", "jbl"),
        ];
        for (a, b) in pairs {
            for f in [
                jaccard_tokens,
                dice_tokens,
                overlap_tokens,
                cosine_tokens,
                levenshtein_sim,
                jaro,
                jaro_winkler,
                lcs_substring_sim,
                monge_elkan,
                exact,
            ] {
                assert!(
                    (f(a, b) - f(b, a)).abs() < 1e-12,
                    "asymmetric on ({a:?},{b:?})"
                );
            }
        }
    }
}
