//! Benchmark/evaluation crate: the `ndc-eval` binary regenerates every
//! table and figure of the paper (see `ndc-eval help`), and the
//! in-tree benches (`cargo bench`) measure the machinery behind each
//! experiment with the zero-dependency [`harness`]. Table/figure
//! *content* comes from `ndc::experiments`.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod harness;

pub use harness::Harness;
pub use ndc::experiments;
