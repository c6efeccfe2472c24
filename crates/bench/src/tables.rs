//! Printers for the paper's tables.

use morer_core::prelude::*;
use morer_ml::metrics::PairCounts;

use crate::runs::{dataset_key, find, load_benchmark, BudgetSpec, RunResult};
use crate::Options;

/// Why Tables 4 and 5 have no language-model columns.
const LM_FOOTNOTE: &str = "Sudowoodo, AnyMatch, Ditto and Unicorn are not reproduced: \
    they need pretrained language-model weights.";

fn prf(counts: &PairCounts) -> String {
    format!("{:.2}/{:.2}/{:.2}", counts.precision(), counts.recall(), counts.f1())
}

/// Table 2: statistics of the generated datasets (paper values for
/// reference).
pub fn table2(opts: &Options) {
    println!("\n=== Table 2: dataset statistics ===");
    println!(
        "{:<14} {:>12} {:>14} {:>12} {:>10}",
        "Name", "# ER problems", "# Record pairs", "# Matches", "match %"
    );
    let paper = [
        ("dexter", 276, 1_100_000, 368_000),
        ("wdc", 12, 74_500, 4_800),
        ("music", 20, 385_900, 16_200),
    ];
    for name in &opts.datasets {
        let bench = load_benchmark(name, opts.scale, opts.seed);
        let s = bench.stats();
        println!(
            "{:<14} {:>12} {:>14} {:>12} {:>9.1}%",
            bench.name,
            s.num_problems,
            s.num_pairs,
            s.num_matches,
            100.0 * s.num_matches as f64 / s.num_pairs.max(1) as f64
        );
        if let Some((_, p_prob, p_pairs, p_matches)) =
            paper.iter().find(|(n, _, _, _)| n == name)
        {
            println!(
                "{:<14} {:>12} {:>14} {:>12} {:>9.1}%  (paper, full scale)",
                "", p_prob, p_pairs, p_matches,
                100.0 * *p_matches as f64 / *p_pairs as f64
            );
        }
    }
}

/// Table 3: the parameter overview of the default configuration.
pub fn table3() {
    println!("\n=== Table 3: MoRER parameter setting (defaults in use) ===");
    for (key, value) in MorerConfig::default().parameter_table() {
        println!("{key:<22} {value}");
    }
    println!("{:<22} KS, WD, PSI, C2ST", "distribution tests");
    println!("{:<22} AL (bootstrap, almser), supervised (50%, all)", "model generation");
    println!("{:<22} sel_base, sel_cov(0.1 | 0.25 | 0.5)", "selection methods");
    println!("{:<22} 1000, 1500, 2000", "budgets");
}

/// Table 4: linkage quality (P/R/F1) of every method.
pub fn table4(matrix: &[RunResult]) {
    println!("\n=== Table 4: linkage quality (Precision/Recall/F1) ===");
    let budget_methods = ["morer+almser", "morer+bs", "almser"];
    let supervised_methods = ["morer", "transer"];

    let datasets: Vec<String> = {
        let mut seen = Vec::new();
        for r in matrix {
            if !seen.contains(&r.dataset) {
                seen.push(r.dataset.clone());
            }
        }
        seen
    };
    let budgets: Vec<usize> = {
        let mut seen = Vec::new();
        for r in matrix {
            if let BudgetSpec::Labels(b) = r.budget {
                if !seen.contains(&b) {
                    seen.push(b);
                }
            }
        }
        seen.sort_unstable();
        seen
    };

    // budget-limited block
    print!("{:<2} {:>5}", "D", "B");
    for m in budget_methods {
        print!(" {:>16}", m);
    }
    println!();
    for dataset in &datasets {
        for &b in &budgets {
            print!("{:<2} {:>5}", dataset_key(dataset), b);
            for m in budget_methods {
                match find(matrix, dataset, m, BudgetSpec::Labels(b)) {
                    Some(r) => print!(" {:>16}", prf(&r.counts)),
                    None => print!(" {:>16}", "-"),
                }
            }
            println!();
        }
    }

    // supervised block
    print!("\n{:<2} {:>5}", "D", "B");
    for m in supervised_methods {
        print!(" {:>16}", m);
    }
    println!();
    for dataset in &datasets {
        for fraction in [0.5, 1.0] {
            let spec = BudgetSpec::Fraction(fraction);
            print!("{:<2} {:>5}", dataset_key(dataset), format!("{spec}"));
            for m in supervised_methods {
                match find(matrix, dataset, m, spec) {
                    Some(r) => print!(" {:>16}", prf(&r.counts)),
                    None => print!(" {:>16}", "-"),
                }
            }
            println!();
        }
    }
    println!("{LM_FOOTNOTE}");
}

/// Table 5: speedup factors of the MoRER variants over every other method.
pub fn table5(matrix: &[RunResult]) {
    println!("\n=== Table 5: speedup factors of MoRER vs compared methods ===");
    let datasets: Vec<String> = {
        let mut seen = Vec::new();
        for r in matrix {
            if !seen.contains(&r.dataset) {
                seen.push(r.dataset.clone());
            }
        }
        seen
    };
    let budgets: Vec<usize> = {
        let mut seen = Vec::new();
        for r in matrix {
            if let BudgetSpec::Labels(b) = r.budget {
                if !seen.contains(&b) {
                    seen.push(b);
                }
            }
        }
        seen.sort_unstable();
        seen
    };
    // (label, method, budget); a `Labels` budget is substituted per row
    let columns = [
        ("Alm", "almser", BudgetSpec::Labels(0)),
        ("TER50", "transer", BudgetSpec::Fraction(0.5)),
        ("TERall", "transer", BudgetSpec::Fraction(1.0)),
    ];

    for variant in ["morer+almser", "morer+bs"] {
        println!("\n--- {variant} ---");
        print!("{:<4} {:>5}", "DS", "B");
        for (label, _, _) in &columns {
            print!(" {:>7}", label);
        }
        println!();
        for dataset in &datasets {
            for &b in &budgets {
                let Some(me) = find(matrix, dataset, variant, BudgetSpec::Labels(b)) else {
                    continue;
                };
                print!("{:<4} {:>5}", dataset_key(dataset), b);
                for (_, method, spec) in &columns {
                    let other_spec = match spec {
                        BudgetSpec::Labels(_) => BudgetSpec::Labels(b),
                        frac => *frac,
                    };
                    match find(matrix, dataset, method, other_spec) {
                        Some(other) => {
                            let speedup =
                                other.runtime.as_secs_f64() / me.runtime.as_secs_f64().max(1e-9);
                            print!(" {:>7.1}", speedup);
                        }
                        None => print!(" {:>7}", "-"),
                    }
                }
                println!();
            }
        }
    }
    println!("{LM_FOOTNOTE}");
}
