//! # morer-data — multi-source ER data substrate
//!
//! Everything between raw data sources and the similarity feature vectors the
//! MoRER pipeline consumes:
//!
//! * [`record`]: records, schemas, data sources, multi-source datasets with
//!   ground-truth entity ids;
//! * [`corruption`]: the typo/abbreviation/missing-value corruption framework
//!   used to generate heterogeneous sources (in the spirit of the DAPO
//!   corruptor used for the paper's MusicBrainz dataset);
//! * [`vocab`]: deterministic vocabularies for product and music domains;
//! * [`generator`]: synthetic stand-ins for the paper's three benchmark
//!   datasets — camera/Dexter-like, computer/WDC-like, music/MusicBrainz-like
//!   (the real records are not shipped with this repository);
//! * [`blocking`]: token and key blocking to produce candidate record pairs;
//! * [`problem`]: the [`ErProblem`] type — similarity
//!   feature vectors `w` with labels for one data-source pair — plus the
//!   benchmark bundles with initial/unsolved splits;
//! * [`csvio`]: CSV export/import of ER problems.
//!
//! All generation is seeded and deterministic.

pub mod blocking;
pub mod corruption;
pub mod csvio;
pub mod generator;
pub mod problem;
pub mod record;
pub mod vocab;

pub use generator::{camera, computer, music, DatasetScale};
pub use problem::{profile_dataset, Benchmark, ErProblem, ProblemId};
pub use record::{DataSource, MultiSourceDataset, Record, Schema};
