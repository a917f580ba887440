//! The repository's end-to-end benchmark: three workloads driven at the
//! serving stack as shipped, every answer checked against an oracle, and
//! a traced run that replays each workload through every layer from the
//! trie to the socket. See `README.md` beside this crate.

pub mod drive;
pub mod ledger;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;

/// One measured metric, as the result line prints it.
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}
