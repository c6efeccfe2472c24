//! Value-corruption framework for generating heterogeneous data sources.
//!
//! The paper's MusicBrainz benchmark was produced by corrupting clean records
//! along axes such as "the number of missing values, the length of values,
//! and the ratio of errors" (§5.1, citing the DAPO corruptor \[15\]). This
//! module reimplements those corruption operators; a [`SourceProfile`]
//! bundles per-source rates so that different sources exhibit genuinely
//! different similarity distributions — the property MoRER's distribution
//! analysis exploits.

use rand::rngs::SmallRng;
use rand::Rng;

/// Per-source corruption profile: probabilities of each operator being
/// applied to an attribute value.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceProfile {
    /// Human-readable profile name.
    pub name: &'static str,
    /// Probability of a character-level typo per value.
    pub typo_rate: f64,
    /// Probability the value is dropped entirely (missing).
    pub missing_rate: f64,
    /// Probability word tokens are abbreviated (first letter + '.').
    pub abbreviation_rate: f64,
    /// Probability two adjacent tokens are swapped.
    pub token_swap_rate: f64,
    /// Probability a token is dropped from multi-token values.
    pub token_drop_rate: f64,
    /// Probability the case style is mangled (UPPER or lower).
    pub case_noise_rate: f64,
    /// Relative magnitude of numeric perturbation (0.05 = ±5%).
    pub numeric_noise: f64,
    /// Probability an extra descriptive token is appended.
    pub token_add_rate: f64,
}

impl SourceProfile {
    /// Near-perfect source.
    pub fn clean() -> Self {
        Self {
            name: "clean",
            typo_rate: 0.02,
            missing_rate: 0.02,
            abbreviation_rate: 0.0,
            token_swap_rate: 0.03,
            token_drop_rate: 0.02,
            case_noise_rate: 0.05,
            numeric_noise: 0.0,
            token_add_rate: 0.05,
        }
    }

    /// Heavy character-level noise (OCR-ish feeds).
    pub fn noisy() -> Self {
        Self {
            name: "noisy",
            typo_rate: 0.35,
            missing_rate: 0.08,
            abbreviation_rate: 0.05,
            token_swap_rate: 0.15,
            token_drop_rate: 0.10,
            case_noise_rate: 0.25,
            numeric_noise: 0.08,
            token_add_rate: 0.15,
        }
    }

    /// Aggressive abbreviations and truncation (catalog exports).
    pub fn abbreviated() -> Self {
        Self {
            name: "abbreviated",
            typo_rate: 0.05,
            missing_rate: 0.05,
            abbreviation_rate: 0.45,
            token_swap_rate: 0.05,
            token_drop_rate: 0.30,
            case_noise_rate: 0.10,
            numeric_noise: 0.02,
            token_add_rate: 0.02,
        }
    }

    /// Many missing values (sparse web extractions).
    pub fn sparse() -> Self {
        Self {
            name: "sparse",
            typo_rate: 0.10,
            missing_rate: 0.35,
            abbreviation_rate: 0.10,
            token_swap_rate: 0.08,
            token_drop_rate: 0.25,
            case_noise_rate: 0.10,
            numeric_noise: 0.05,
            token_add_rate: 0.05,
        }
    }

    /// The standard four-profile cycle assigned to sources round-robin.
    pub fn standard_profiles() -> Vec<Self> {
        vec![Self::clean(), Self::noisy(), Self::abbreviated(), Self::sparse()]
    }
}

/// Apply one random character-level typo (insert / delete / substitute /
/// transpose) to an ASCII-ish string.
pub fn char_typo(s: &str, rng: &mut SmallRng) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return s.to_owned();
    }
    let pos = rng.gen_range(0..chars.len());
    let mut out = chars.clone();
    match rng.gen_range(0..4u8) {
        0 => {
            // substitute with a nearby lowercase letter
            out[pos] = (b'a' + rng.gen_range(0..26u8)) as char;
        }
        1 => {
            // delete
            out.remove(pos);
        }
        2 => {
            // insert
            out.insert(pos, (b'a' + rng.gen_range(0..26u8)) as char);
        }
        _ => {
            // transpose with the next character
            if pos + 1 < out.len() {
                out.swap(pos, pos + 1);
            } else if out.len() >= 2 {
                let l = out.len();
                out.swap(l - 2, l - 1);
            }
        }
    }
    out.into_iter().collect()
}

/// Abbreviate word tokens longer than 3 characters to `X.` with the given
/// probability per token.
pub fn abbreviate(s: &str, per_token_prob: f64, rng: &mut SmallRng) -> String {
    s.split_whitespace()
        .map(|tok| {
            if tok.chars().count() > 3 && rng.gen_bool(per_token_prob.clamp(0.0, 1.0)) {
                let first = tok.chars().next().expect("non-empty token");
                format!("{first}.")
            } else {
                tok.to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Swap two adjacent tokens (no-op for single-token values).
pub fn swap_tokens(s: &str, rng: &mut SmallRng) -> String {
    let mut toks: Vec<&str> = s.split_whitespace().collect();
    if toks.len() >= 2 {
        let i = rng.gen_range(0..toks.len() - 1);
        toks.swap(i, i + 1);
    }
    toks.join(" ")
}

/// Drop one token (no-op for single-token values).
pub fn drop_token(s: &str, rng: &mut SmallRng) -> String {
    let mut toks: Vec<&str> = s.split_whitespace().collect();
    if toks.len() >= 2 {
        let i = rng.gen_range(0..toks.len());
        toks.remove(i);
    }
    toks.join(" ")
}

/// Uppercase or lowercase the whole value.
pub fn mangle_case(s: &str, rng: &mut SmallRng) -> String {
    if rng.gen_bool(0.5) {
        s.to_uppercase()
    } else {
        s.to_lowercase()
    }
}

/// Perturb a numeric string by a relative amount, keeping two decimals.
pub fn perturb_numeric(s: &str, relative: f64, rng: &mut SmallRng) -> String {
    match morer_sim::numeric::parse_numeric(s) {
        Some(v) if relative > 0.0 => {
            let factor = 1.0 + rng.gen_range(-relative..=relative);
            format!("{:.2}", v * factor)
        }
        _ => s.to_owned(),
    }
}

/// Kind of attribute, controlling which corruption operators apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttributeKind {
    /// Free text (title, artist, album …): all text operators apply.
    Text,
    /// Code-like identifiers (model numbers): typos only, no token ops.
    Code,
    /// Numeric values (price, year, length): numeric noise only.
    Numeric,
}

/// Corrupt one attribute value according to a source profile. Returns `None`
/// when the value is dropped as missing.
pub fn corrupt_value(
    value: &str,
    kind: AttributeKind,
    profile: &SourceProfile,
    extra_tokens: &[&str],
    rng: &mut SmallRng,
) -> Option<String> {
    if rng.gen_bool(profile.missing_rate.clamp(0.0, 1.0)) {
        return None;
    }
    let mut v = value.to_owned();
    match kind {
        AttributeKind::Text => {
            if rng.gen_bool(profile.token_add_rate.clamp(0.0, 1.0)) && !extra_tokens.is_empty() {
                let extra = extra_tokens[rng.gen_range(0..extra_tokens.len())];
                v = format!("{v} {extra}");
            }
            if rng.gen_bool(profile.abbreviation_rate.clamp(0.0, 1.0)) {
                v = abbreviate(&v, 0.5, rng);
            }
            if rng.gen_bool(profile.token_swap_rate.clamp(0.0, 1.0)) {
                v = swap_tokens(&v, rng);
            }
            if rng.gen_bool(profile.token_drop_rate.clamp(0.0, 1.0)) {
                v = drop_token(&v, rng);
            }
            if rng.gen_bool(profile.typo_rate.clamp(0.0, 1.0)) {
                v = char_typo(&v, rng);
            }
            if rng.gen_bool(profile.case_noise_rate.clamp(0.0, 1.0)) {
                v = mangle_case(&v, rng);
            }
        }
        AttributeKind::Code => {
            if rng.gen_bool(profile.typo_rate.clamp(0.0, 1.0)) {
                v = char_typo(&v, rng);
            }
            if rng.gen_bool(profile.case_noise_rate.clamp(0.0, 1.0)) {
                v = mangle_case(&v, rng);
            }
        }
        AttributeKind::Numeric => {
            v = perturb_numeric(&v, profile.numeric_noise, rng);
        }
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn char_typo_changes_string() {
        let mut r = rng();
        let mut changed = 0;
        for _ in 0..50 {
            if char_typo("samsung", &mut r) != "samsung" {
                changed += 1;
            }
        }
        // transpose at the same position can be a no-op occasionally, but
        // most applications must alter the value
        assert!(changed > 40);
        assert_eq!(char_typo("", &mut r), "");
    }

    #[test]
    fn abbreviate_shortens_long_tokens() {
        let mut r = rng();
        let out = abbreviate("professional wireless speaker", 1.0, &mut r);
        assert_eq!(out, "p. w. s.");
        // tokens of three or fewer characters are kept
        assert_eq!(abbreviate("a bc def gulp", 1.0, &mut r), "a bc def g.");
    }

    #[test]
    fn swap_and_drop_tokens() {
        let mut r = rng();
        let swapped = swap_tokens("alpha beta", &mut r);
        assert_eq!(swapped, "beta alpha");
        assert_eq!(swap_tokens("single", &mut r), "single");
        let dropped = drop_token("alpha beta", &mut r);
        assert!(dropped == "alpha" || dropped == "beta");
        assert_eq!(drop_token("single", &mut r), "single");
    }

    #[test]
    fn numeric_perturbation_stays_close() {
        let mut r = rng();
        let out = perturb_numeric("100.00", 0.05, &mut r);
        let v: f64 = out.parse().unwrap();
        assert!((95.0..=105.0).contains(&v), "{v}");
        assert_eq!(perturb_numeric("n/a", 0.05, &mut r), "n/a");
        assert_eq!(perturb_numeric("100", 0.0, &mut r), "100");
    }

    #[test]
    fn corrupt_value_respects_missing_rate() {
        let mut r = rng();
        let mut profile = SourceProfile::clean();
        profile.missing_rate = 1.0;
        assert_eq!(corrupt_value("x", AttributeKind::Text, &profile, &[], &mut r), None);
        profile.missing_rate = 0.0;
        assert!(corrupt_value("x", AttributeKind::Text, &profile, &[], &mut r).is_some());
    }

    #[test]
    fn clean_profile_rarely_corrupts() {
        let mut r = rng();
        let profile = SourceProfile::clean();
        let unchanged = (0..200)
            .filter(|_| {
                corrupt_value("ultra hd smart tv", AttributeKind::Text, &profile, &["black"], &mut r)
                    .as_deref()
                    == Some("ultra hd smart tv")
            })
            .count();
        assert!(unchanged > 140, "unchanged = {unchanged}/200");
    }

    #[test]
    fn noisy_profile_corrupts_most_values() {
        let mut r = rng();
        let profile = SourceProfile::noisy();
        let unchanged = (0..200)
            .filter(|_| {
                corrupt_value("ultra hd smart tv", AttributeKind::Text, &profile, &["black"], &mut r)
                    .as_deref()
                    == Some("ultra hd smart tv")
            })
            .count();
        assert!(unchanged < 100, "unchanged = {unchanged}/200");
    }

    #[test]
    fn code_kind_avoids_token_operations() {
        let mut r = rng();
        let mut profile = SourceProfile::clean();
        profile.token_drop_rate = 1.0;
        profile.token_swap_rate = 1.0;
        profile.typo_rate = 0.0;
        profile.case_noise_rate = 0.0;
        profile.missing_rate = 0.0;
        let out = corrupt_value("EOS 750D", AttributeKind::Code, &profile, &[], &mut r);
        assert_eq!(out.as_deref(), Some("EOS 750D"));
    }

    #[test]
    fn profiles_have_distinct_names() {
        let names: std::collections::HashSet<&str> =
            SourceProfile::standard_profiles().iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 4);
    }
}
