//! Benchmark/evaluation crate: the `ndc-eval` binary regenerates every
//! table and figure of the paper (see `ndc-eval help`) and writes the
//! committed `results/<table>.json` files, and [`baseline`] is the
//! exact gate that compares a regenerated file against its committed
//! copy. Each table comes from `ndc::experiments` as an `ndc::table::Table`.

#![forbid(unsafe_code)]

pub mod baseline;

pub use ndc::experiments;
