//! The schedule explorer as a regression suite.
//!
//! `tests/races.rs` drives the missing-page race window through exactly
//! one interleaving per design. These tests re-run the explorer's
//! concurrency scenarios — the same protocol surfaces — under many
//! seeded-random schedules, pin the DFS enumerator's exact schedule
//! count on the small handoff scenario, and prove the injected-violation
//! path end to end. The pinned adversarial schedules double as the
//! satellite-6 record: the bounded-preemption DFS over the current
//! `EventTable`/`VirtualProcessorManager` finds **no** lost-wakeup or
//! wakeup-order bug (the one it did flush out — a VP parked on several
//! eventcounts being enqueued once per registration — is fixed in
//! `vproc::make_runnable` and pinned by `double_registration_is_enqueued_
//! exactly_once` in `mx-kernel`).

use multics::explore::{
    explore_dfs, explore_pct, explore_random, replay, run_kernel, run_legacy, PctPolicy,
    ReplayPolicy, ScenarioKind, SeededRandomPolicy,
};
use multics::sync::FifoPolicy;

/// K seeds per scenario for the random sweeps (kept modest: the full
/// 500+-schedule sweep is X1's job; this is the regression gate).
const K: usize = 12;

#[test]
fn race_scenarios_hold_under_seeded_random_schedules() {
    for kind in [
        ScenarioKind::Signals,
        ScenarioKind::Quota,
        ScenarioKind::Purifier,
        ScenarioKind::Tlb,
    ] {
        for seed in [1u64, 7, 23] {
            let exp = explore_random(kind, seed, K);
            assert_eq!(exp.schedules, K);
            assert!(
                exp.violations.is_empty(),
                "{kind:?} seed {seed}: {:?}",
                exp.violations.first().map(|r| (&r.schedule, &r.violations))
            );
            assert!(
                exp.distinct_parities.len() <= 1,
                "{kind:?} seed {seed}: user-visible results moved with the schedule"
            );
        }
    }
}

#[test]
fn race_scenarios_hold_under_pct_priority_fuzzing() {
    for kind in [ScenarioKind::Signals, ScenarioKind::Quota] {
        let exp = explore_pct(kind, 5, K);
        assert!(exp.violations.is_empty(), "{:?}", exp.violations);
        assert!(exp.distinct_parities.len() <= 1);
    }
}

#[test]
fn dfs_schedule_count_is_pinned_on_the_handoff_scenario() {
    // The enumerator itself is regression-tested by its exact tree:
    // the handoff scenario (2 advances; waiters at thresholds 1, 1, 2)
    // has precisely these many interleavings at each preemption bound.
    let cases = [
        (0usize, 1usize), // FIFO only
        (1, 5),           // one deviation anywhere
        (2, 13),
        (3, 21),
        (usize::MAX, 24), // the full tree
    ];
    for (bound, expect) in cases {
        let exp = explore_dfs(ScenarioKind::Handoff, 0, bound, 10_000);
        assert!(!exp.truncated);
        assert_eq!(
            exp.schedules, expect,
            "bound {bound}: the enumeration tree changed shape"
        );
        assert!(exp.violations.is_empty(), "{:?}", exp.violations);
    }
    // And the outcome space is pinned too: 12 distinct interleaving
    // results, every one passing every oracle — the adversarial
    // schedules found no lost-wakeup or wakeup-order bug.
    let full = explore_dfs(ScenarioKind::Handoff, 0, usize::MAX, 10_000);
    assert_eq!(full.distinct_outcomes, 12);
}

#[test]
fn exhaustive_dfs_catches_the_injected_lost_wakeup_everywhere() {
    // Under the deliberately broken advance, *every* schedule strands a
    // waiter — the oracle battery must flag all of them, not just FIFO.
    let exp = explore_dfs(ScenarioKind::HandoffLossy, 0, usize::MAX, 10_000);
    assert!(!exp.truncated);
    assert_eq!(
        exp.violations.len(),
        exp.schedules,
        "some broken schedule slipped past the oracles"
    );
}

#[test]
fn a_violation_replays_from_its_seed_and_schedule_string_alone() {
    let bad = run_kernel(
        ScenarioKind::HandoffLossy,
        3,
        Box::new(SeededRandomPolicy::new(17)),
    );
    assert!(!bad.violations.is_empty());
    // Reproduce from nothing but the printed triple.
    let (kind_str, seed, schedule) = (bad.kind.name(), bad.seed, bad.schedule.clone());
    let again = replay(ScenarioKind::parse(kind_str).unwrap(), seed, &schedule);
    assert_eq!(again.schedule, bad.schedule);
    assert_eq!(again.outcome, bad.outcome);
    assert_eq!(again.violations, bad.violations);
}

#[test]
fn replay_policy_reproduces_any_random_kernel_schedule() {
    for seed in 0..4u64 {
        let original = run_kernel(
            ScenarioKind::Signals,
            seed,
            Box::new(SeededRandomPolicy::new(seed.wrapping_mul(77) + 5)),
        );
        let replayed = run_kernel(
            ScenarioKind::Signals,
            seed,
            Box::new(ReplayPolicy::new(
                multics::explore::parse_schedule(&original.schedule).unwrap(),
            )),
        );
        assert_eq!(replayed.schedule, original.schedule);
        assert_eq!(replayed.fingerprint, original.fingerprint);
    }
}

#[test]
fn both_designs_agree_on_user_visible_results_for_every_policy() {
    for kind in [ScenarioKind::Signals, ScenarioKind::Quota] {
        let seed = 11;
        let baseline = run_legacy(kind, seed);
        assert!(baseline.violations.is_empty(), "{:?}", baseline.violations);
        let policies: Vec<Box<dyn multics::sync::SchedulePolicy>> = vec![
            Box::new(FifoPolicy),
            Box::new(SeededRandomPolicy::new(41)),
            Box::new(PctPolicy::new(42)),
        ];
        for policy in policies {
            let run = run_kernel(kind, seed, policy);
            assert!(run.violations.is_empty(), "{:?}", run.violations);
            assert_eq!(
                run.parity, baseline.parity,
                "{kind:?}: designs diverged on user-visible results"
            );
        }
    }
}

/// X1 composed with L1: the smallest load-harness population driven
/// under the explorer's adversarial schedule policies. The scenario
/// suites above exercise hand-built protocol surfaces; this one runs
/// the full session stack — answering service, linker, name space,
/// file growth, logout — under 64 seeded-random and 64 PCT schedules,
/// asserting the whole oracle battery and that every schedule produces
/// the same user-visible outcomes the 1974 supervisor does.
#[test]
fn load_harness_holds_under_adversarial_schedules() {
    use multics::load::{run_legacy_load, LoadRun, LoadSpec};

    const SCHEDULES: u64 = 64;
    // The explorer's seed-derivation convention (lib.rs policy_seed).
    fn policy_seed(base: u64, i: u64) -> u64 {
        base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i)
    }

    let spec = LoadSpec::new(4, 17); // the smallest L1 point
    let baseline = run_legacy_load(&spec);
    assert!(baseline.violations.is_empty(), "{:?}", baseline.violations);

    for i in 0..SCHEDULES {
        for pct in [false, true] {
            let policy: Box<dyn multics::sync::SchedulePolicy> = if pct {
                Box::new(PctPolicy::new(policy_seed(29, i)))
            } else {
                Box::new(SeededRandomPolicy::new(policy_seed(13, i)))
            };
            let run = multics::load::run_kernel_load(&spec, Some(policy));
            assert!(
                run.violations.is_empty(),
                "schedule {i} (pct={pct}): {:?}",
                run.violations
            );
            let problems = LoadRun::check_pair(&run, &baseline);
            assert!(
                problems.is_empty(),
                "schedule {i} (pct={pct}): {problems:?}"
            );
            assert_eq!(run.sessions, 4);
        }
    }
}

/// X1 composed with F1: the inter-machine wire as a schedule surface.
///
/// Delivery order across the fleet's directed links is a
/// `ChoicePoint::Wire` on the fleet policy, so the explorer's
/// adversaries apply to it directly. Under seeded-random and PCT
/// delivery schedules at M=2, every run must pass the whole fleet
/// battery (per-machine oracles, fleet-wide record conservation, FIFO
/// admission, single-machine label parity) AND produce the *same*
/// label stream the FIFO wire does: delivery order is the wire's
/// business, never the user's.
#[test]
fn fleet_wire_holds_under_adversarial_delivery_schedules() {
    use multics::load::{run_kernel_fleet, run_kernel_load, FleetSpec};

    const SCHEDULES: u64 = 24;
    fn policy_seed(base: u64, i: u64) -> u64 {
        base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i)
    }

    let spec = FleetSpec::new(2, 8, 17);
    let single = run_kernel_load(&spec.base(), None);
    let fifo = run_kernel_fleet(&spec, None);
    assert_eq!(fifo.check_against(&single), Vec::<String>::new());
    assert!(fifo.frames_delivered > 0, "the wire must carry traffic");

    for i in 0..SCHEDULES {
        for pct in [false, true] {
            let policy: Box<dyn multics::sync::SchedulePolicy> = if pct {
                Box::new(PctPolicy::new(policy_seed(31, i)))
            } else {
                Box::new(SeededRandomPolicy::new(policy_seed(19, i)))
            };
            let run = run_kernel_fleet(&spec, Some(policy));
            assert_eq!(
                run.check_against(&single),
                Vec::<String>::new(),
                "wire schedule {i} (pct={pct})"
            );
            assert_eq!(
                run.parity, fifo.parity,
                "wire schedule {i} (pct={pct}): delivery order leaked into the user stream"
            );
        }
    }
}

/// FNV-1a, 64-bit: in-tree and stable across processes and builds.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One FNV-1a-64 digest of each op scenario's full `Debug` report —
/// schedule string, every label, the parity labels, the fingerprint, the
/// violations and the edge ledger — on the kernel under FIFO and on the
/// old supervisor, at scenario seeds 1 and 2. X1's report prints only
/// counts, so these are what pin the scenarios' absolute output. The
/// constants were generated once and are never edited to follow the
/// code: a mismatch means a scenario changed behaviour.
const SCENARIO_GOLDEN: &[(&str, u64)] = &[
    ("signals 1 kernel fifo", 0xEC6C_1057_32AA_3C5D),
    ("signals 1 legacy", 0xF450_BA28_F63F_676D),
    ("signals 2 kernel fifo", 0x8B80_3E92_E859_AE2A),
    ("signals 2 legacy", 0x27AF_26FB_9A70_E3E8),
    ("quota 1 kernel fifo", 0x148D_6E50_9F79_A3D9),
    ("quota 1 legacy", 0x87DD_FA87_9922_1EDB),
    ("quota 2 kernel fifo", 0xB7D5_CFA3_6F68_CDB2),
    ("quota 2 legacy", 0xAEF3_CFF5_D107_2283),
    ("purifier 1 kernel fifo", 0x9079_03AB_EDEC_D0C1),
    ("purifier 1 legacy", 0xDAFF_98B7_49F6_7C7F),
    ("purifier 2 kernel fifo", 0xAE2E_997B_FAC4_641D),
    ("purifier 2 legacy", 0x6142_FAB2_2F90_268A),
    ("tlb 1 kernel fifo", 0x72FC_A2F6_20D7_2E1F),
    ("tlb 1 legacy", 0x924D_6C30_5822_A6FC),
    ("tlb 2 kernel fifo", 0x797F_DA53_67EF_D1BB),
    ("tlb 2 legacy", 0xB722_C7D6_705E_7C7C),
];

#[test]
fn scenario_reports_match_the_golden_digests() {
    let mut moved = Vec::new();
    let mut seen = 0;
    for kind in [
        ScenarioKind::Signals,
        ScenarioKind::Quota,
        ScenarioKind::Purifier,
        ScenarioKind::Tlb,
    ] {
        for seed in [1u64, 2] {
            let kernel = run_kernel(kind, seed, Box::new(FifoPolicy));
            let legacy = run_legacy(kind, seed);
            for (design, report) in [("kernel fifo", kernel), ("legacy", legacy)] {
                let name = format!("{} {seed} {design}", kind.name());
                let (_, want) = SCENARIO_GOLDEN
                    .iter()
                    .find(|(g, _)| *g == name)
                    .unwrap_or_else(|| panic!("run '{name}' has no golden entry"));
                let got = fnv1a64(&format!("{report:?}"));
                if got != *want {
                    moved.push(format!("{name}: digest {got:#018x}, pinned {want:#018x}"));
                }
                seen += 1;
            }
        }
    }
    assert_eq!(
        seen,
        SCENARIO_GOLDEN.len(),
        "every golden entry is exercised"
    );
    assert!(
        moved.is_empty(),
        "scenario output moved for {} run(s):\n{}",
        moved.len(),
        moved.join("\n")
    );
}
