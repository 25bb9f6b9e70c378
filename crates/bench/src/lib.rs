//! Benchmark/evaluation crate: the `ndc-eval` binary regenerates every
//! table and figure of the paper (see `ndc-eval help`) and writes the
//! committed `BENCH_*.json` counter files, and [`baseline`] is the
//! exact gate that compares a regenerated file against its committed
//! copy. Table/figure *content* comes from `ndc::experiments`.

#![forbid(unsafe_code)]

pub mod baseline;

pub use ndc::experiments;
