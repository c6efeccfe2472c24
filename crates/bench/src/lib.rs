//! Shared benchmark support for the `repro` binary (`repro quick-bench`)
//! and perfbench: reproducible workload generators.

pub mod workload;
