//! `mx-explore` — deterministic schedule exploration for the two-level
//! scheduler and the eventcount substrate.
//!
//! The simulator's concurrency is deterministic but *chosen*: the VP
//! dispatcher picks among runnable virtual processors, and an eventcount
//! `advance` drains eligible waiters in some order. Historically both
//! orders were hard-coded FIFO. This crate explores the alternatives:
//!
//! * [`policies`] — the pluggable [`mx_sync::SchedulePolicy`]
//!   implementations: seeded-random, PCT-style priority fuzzing, and
//!   replay of a recorded schedule (FIFO itself lives in `mx-sync` as
//!   the default). A [`policies::Recorder`] captures every decision, so
//!   the printed *schedule string* reproduces any run exactly.
//! * [`scenario`] — paper-relevant concurrency scenarios (eventcount
//!   handoff, S3 upward signals under competition, quota growth races,
//!   page faults vs. the purifier, TLB invalidation vs. translation),
//!   each a pure function of its seed and runnable on **both** designs.
//! * [`oracle`] — the machine-checkable invariants evaluated after
//!   every schedule: meter conservation, per-pack record conservation,
//!   wakeup exactness, dispatch uniqueness, ticket total-order, TLB
//!   tally closure — plus old/new parity on user-visible results.
//! * [`dfs`] — bounded-preemption depth-first enumeration that visits
//!   every schedule of a small scenario exactly once.
//! * [`rig`] — [`Rig`], the one interface the single-process drivers
//!   (the scenarios here, and `mx-bench`'s P4/P7/A2/A3, G1 and R1) run
//!   both designs through.
//!
//! A violation is fully described by `(scenario, seed, schedule)`;
//! [`replay`] turns that triple back into the failing run.

pub mod dfs;
pub mod oracle;
pub mod policies;
pub mod rig;
pub mod scenario;

pub use dfs::{explore_dfs, Exploration};
pub use policies::{
    parse_schedule, parse_trace, schedule_string, Choice, PctPolicy, Recorder, ReplayPolicy,
    SeededRandomPolicy, TraceHandle,
};
pub use rig::Rig;
pub use scenario::{run_kernel, run_legacy, RunReport, ScenarioKind};

use std::collections::HashSet;

/// Mixes a sweep seed into per-run policy seeds (SplitMix64 increment).
fn policy_seed(base: u64, i: u64) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i)
}

/// Sweeps `runs` seeded-random schedules of `kind` at scenario `seed`.
pub fn explore_random(kind: ScenarioKind, seed: u64, runs: usize) -> Exploration {
    let mut exp = Exploration::new(kind, "random");
    let mut outcomes = HashSet::new();
    for i in 0..runs {
        let p = SeededRandomPolicy::new(policy_seed(seed, i as u64));
        exp.absorb(run_kernel(kind, seed, Box::new(p)), &mut outcomes);
    }
    exp
}

/// Sweeps `runs` PCT-style priority-fuzzed schedules of `kind` at
/// scenario `seed`.
pub fn explore_pct(kind: ScenarioKind, seed: u64, runs: usize) -> Exploration {
    let mut exp = Exploration::new(kind, "pct");
    let mut outcomes = HashSet::new();
    for i in 0..runs {
        let p = PctPolicy::new(policy_seed(seed, i as u64));
        exp.absorb(run_kernel(kind, seed, Box::new(p)), &mut outcomes);
    }
    exp
}

/// Replays one schedule from its string form — the whole reproduction
/// recipe for any reported violation.
///
/// # Panics
///
/// Panics if `schedule` is not a well-formed schedule string.
pub fn replay(kind: ScenarioKind, seed: u64, schedule: &str) -> RunReport {
    let forced = parse_schedule(schedule).expect("well-formed schedule string");
    run_kernel(kind, seed, Box::new(ReplayPolicy::new(forced)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_sweep_is_deterministic_end_to_end() {
        let a = explore_random(ScenarioKind::Handoff, 3, 8);
        let b = explore_random(ScenarioKind::Handoff, 3, 8);
        assert_eq!(a.schedules, 8);
        assert_eq!(a.distinct_outcomes, b.distinct_outcomes);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn replay_reproduces_a_random_run_exactly() {
        let p = SeededRandomPolicy::new(12345);
        let original = run_kernel(ScenarioKind::Handoff, 9, Box::new(p));
        let replayed = replay(ScenarioKind::Handoff, 9, &original.schedule);
        assert_eq!(replayed.schedule, original.schedule);
        assert_eq!(replayed.fingerprint, original.fingerprint);
        assert_eq!(replayed.outcome, original.outcome);
    }

    #[test]
    fn injected_lost_wakeup_is_caught_and_replayable() {
        // The deliberately broken wakeup must be caught under FIFO and
        // reproduce from nothing but its printed seed/schedule string.
        let bad = run_kernel(ScenarioKind::HandoffLossy, 0, Box::new(mx_sync::FifoPolicy));
        assert!(!bad.violations.is_empty(), "the oracles missed the bug");
        let again = replay(ScenarioKind::HandoffLossy, bad.seed, &bad.schedule);
        assert_eq!(again.violations, bad.violations, "replay reproduces it");
    }
}
