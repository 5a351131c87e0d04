//! mx-load: a deterministic multi-user load harness.
//!
//! The paper's kernel argument is structural, but its credibility is
//! empirical: the restructured system must carry a realistic multi-user
//! load — login storms, dynamic linking, name-space traffic, file
//! growth into quota and pack limits, page-fault-heavy sharing — and
//! produce the same user-visible outcomes as the 1974 supervisor while
//! the meters account for every cycle. This crate scripts that load as
//! a pure function of a seed ([`script`]), drives the identical logical
//! stream through both designs ([`run`]), and reports throughput and
//! latency percentiles from a deterministic histogram ([`hist`]).
//!
//! Everything here is seed-pure: same spec, same bytes, every run.

mod design;
pub mod epoch;
pub mod fleet;
pub mod hist;
mod label;
mod name;
pub mod run;
pub mod script;
pub mod shard;

pub use epoch::{
    run_kernel_c1, run_kernel_s1, run_legacy_c1, run_legacy_s1, C1Policy, C1Run, C1Spec,
    EpochReport, S1EpochReport, S1Run, S1Spec,
};
pub use fleet::{run_kernel_fleet, run_legacy_fleet, FleetRun, FleetSpec};
pub use hist::{Histogram, HistogramError};
pub use run::{run_both, run_kernel_load, run_legacy_load, LoadRun, LoadSpec};
pub use script::{session_script, SessionOp, SessionScript, LIB_SYMBOLS, SHARED_PAGES};
pub use shard::{run_sharded, shard_of, DesignMerge, ShardRun, ShardSpec, ShardedRun};
