//! `repro` — regenerate every table and figure of the MoRER paper.
//!
//! ```text
//! cargo run -p morer-bench --release -- <command> [options]
//!
//! commands:
//!   table2              dataset statistics
//!   table3              parameter overview
//!   table4              linkage quality comparison (P/R/F1)
//!   table5              speedup factors
//!   fig2                per-problem similarity histograms (WDC, jaccard(title))
//!   fig5                runtime comparison with analysis/selection breakdown
//!   fig6                distribution tests x AL methods x budgets
//!   fig7                selection strategies sel_base vs sel_cov
//!   ablate-clustering   Leiden vs Louvain vs label propagation vs Girvan-Newman
//!   ablate-weighting    stddev feature weighting on/off
//!   ablate-uniqueness   Bootstrap uniqueness score on/off
//!   ablate-budget       budget sweep for MoRER+Bootstrap
//!   ablate-stability    cluster stability vs model performance (§7 future work)
//!   ablate-ratio-init   50% vs 30% initial problem split
//!   all                 everything above
//!
//! options:
//!   --scale tiny|default|paper   dataset scale (default: default)
//!   --datasets a,b,c             subset of dexter,wdc,music
//!   --budgets n,n,n              label budgets (default: 1000,1500,2000)
//!   --seed n                     master seed (default: 42)
//! ```

mod ablations;
mod figures;
mod quick_bench;
mod runs;
mod tables;

use morer_data::DatasetScale;

/// Parsed command-line options.
pub struct Options {
    pub scale: DatasetScale,
    pub datasets: Vec<String>,
    pub budgets: Vec<usize>,
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: DatasetScale::Default,
            datasets: vec!["dexter".into(), "wdc".into(), "music".into()],
            budgets: vec![1000, 1500, 2000],
            seed: 42,
        }
    }
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = match args.get(i).map(String::as_str) {
                    Some("tiny") => DatasetScale::Tiny,
                    Some("default") => DatasetScale::Default,
                    Some("paper") => DatasetScale::Paper,
                    Some(other) => {
                        if let Ok(f) = other.parse::<f64>() {
                            DatasetScale::Custom(f)
                        } else {
                            eprintln!("unknown scale {other:?}; using default");
                            DatasetScale::Default
                        }
                    }
                    None => DatasetScale::Default,
                };
            }
            "--datasets" => {
                i += 1;
                if let Some(v) = args.get(i) {
                    opts.datasets = v.split(',').map(str::to_owned).collect();
                }
            }
            "--budgets" => {
                i += 1;
                if let Some(v) = args.get(i) {
                    opts.budgets = v.split(',').filter_map(|s| s.parse().ok()).collect();
                }
            }
            "--seed" => {
                i += 1;
                if let Some(v) = args.get(i) {
                    opts.seed = v.parse().unwrap_or(42);
                }
            }
            other => eprintln!("ignoring unknown option {other:?}"),
        }
        i += 1;
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let opts = parse_options(&args[1.min(args.len())..]);

    match command {
        "table2" => tables::table2(&opts),
        "table3" => tables::table3(),
        "table4" => {
            let matrix = runs::run_matrix(&opts);
            tables::table4(&matrix);
        }
        "table5" => {
            let matrix = runs::run_matrix(&opts);
            tables::table5(&matrix);
        }
        "fig2" => figures::fig2(&opts),
        "fig5" => {
            let matrix = runs::run_matrix(&opts);
            figures::fig5(&matrix);
        }
        "fig6" => figures::fig6(&opts),
        "fig7" => figures::fig7(&opts),
        "ablate-clustering" => ablations::clustering(&opts),
        "ablate-weighting" => ablations::weighting(&opts),
        "ablate-uniqueness" => ablations::uniqueness(&opts),
        "ablate-budget" => ablations::budget_sweep(&opts),
        "ablate-stability" => ablations::stability(&opts),
        "ablate-ratio-init" => ablations::ratio_init(&opts),
        "quick-bench" => quick_bench::run(opts.seed),
        "all" => {
            tables::table2(&opts);
            tables::table3();
            figures::fig2(&opts);
            let matrix = runs::run_matrix(&opts);
            tables::table4(&matrix);
            tables::table5(&matrix);
            figures::fig5(&matrix);
            figures::fig6(&opts);
            figures::fig7(&opts);
            ablations::clustering(&opts);
            ablations::weighting(&opts);
            ablations::uniqueness(&opts);
            ablations::budget_sweep(&opts);
            ablations::stability(&opts);
            ablations::ratio_init(&opts);
        }
        _ => {
            println!(
                "usage: repro <table2|table3|table4|table5|fig2|fig5|fig6|fig7|\
                 ablate-clustering|ablate-weighting|ablate-uniqueness|ablate-budget|all> \
                 [--scale tiny|default|paper] [--datasets dexter,wdc,music] \
                 [--budgets 1000,1500,2000] [--seed 42]; \
                 also: ablate-stability, ablate-ratio-init, quick-bench"
            );
        }
    }
}
