//! Shared benchmark support for the `morer-bench` binary and the criterion
//! benches: reproducible workload generators.

pub mod workload;
