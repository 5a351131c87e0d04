//! Workloads and experiment drivers for every table and figure.
//!
//! Each experiment in DESIGN.md's index has a driver here that builds
//! both systems (the looped 1974 supervisor from `mx-legacy` and the
//! loop-free Kernel/Multics from `mx-kernel` + `mx-user`), runs the same
//! synthetic workload on each, and reports deterministic simulated-cycle
//! results. The `repro` binary prints them all; the benches under
//! `benches/` re-measure the same drivers in wall-clock time through the
//! local [`harness`].

pub mod chaos;
pub mod experiments;
pub mod f1;
pub mod g1;
pub mod harness;
pub mod l1;
pub mod m1;
pub mod r1;
pub mod trace;
pub mod workload;
pub mod x1;

pub use chaos::{c1_chaos_composition, s1_online_salvage};
pub use experiments::{
    a1_namespace_cache, a2_purifier_idle, a3_associative_memory, p1_linker, p2_namespace,
    p3_answering, p4_memory, p5_scheduler, p7_quota, p8_fault_path, s1_mythical_identifiers,
    s2_confinement, s3_relocation, Comparison, MemoryRow, QuotaRow, SchedulerRow,
};
pub use f1::f1_fleet_scaling;
pub use g1::g1_lattice_gate;
pub use l1::l1_load_scaling;
pub use m1::m1_parallel_load;
pub use r1::r1_crash_recovery;
pub use workload::{RefString, TreeSpec};
pub use x1::x1_schedule_exploration;
