//! Online salvage (S1) at the integration level: after every mid-sync
//! power failure the population is re-admitted immediately and the
//! stream runs WHILE the salvager claims the hierarchy one directory at
//! a time. References into not-yet-salvaged directories surface typed
//! `SalvageBusy` and are retried on a bounded budget — never a hang,
//! never a panic — and the per-directory-release oracle battery (meter
//! and record conservation on the serving half, per-directory repair
//! idempotence) runs at every release.
//!
//! The strongest oracle here is outcome equivalence: the user-visible
//! label stream must be identical to C1's stop-the-world recovery,
//! label for label, on both designs — concurrency with the repair must
//! buy availability without changing a single outcome.

use mx_load::shard::{run_sharded, ShardSpec};
use mx_load::{
    run_kernel_c1, run_kernel_s1, run_legacy_c1, run_legacy_s1, C1Policy, C1Spec, S1Spec,
};

const SEED: u64 = 0x0C1_1977;
const PLAN: u64 = 0xFA17_0C1A;

fn spec(sessions: usize, policy: C1Policy) -> S1Spec {
    S1Spec::new(sessions, SEED, PLAN, 3, policy)
}

fn c1_spec(sessions: usize, policy: C1Policy) -> C1Spec {
    C1Spec::new(sessions, SEED, PLAN, 3, policy)
}

#[test]
fn both_designs_serve_the_population_during_salvage() {
    let k = run_kernel_s1(&spec(24, C1Policy::Fifo));
    let l = run_legacy_s1(&spec(24, C1Policy::Fifo));
    assert_eq!(k.violations, Vec::<String>::new());
    assert_eq!(l.violations, Vec::<String>::new());
    assert_eq!(k.epochs.iter().filter(|e| e.crashed).count(), 3);
    assert_eq!(l.epochs.iter().filter(|e| e.crashed).count(), 3);
    assert_eq!(k.parity, l.parity, "label-by-label under online salvage");
    assert_eq!(k.epoch_bounds, l.epoch_bounds);
    // The tentpole fact: ops completed while the salvager still held
    // part of the hierarchy, on both designs, after every crash.
    for run in [&k, &l] {
        let crashed: Vec<_> = run.epochs.iter().filter(|e| e.crashed).collect();
        assert!(
            crashed.iter().all(|e| e.dirs_released > 0),
            "{}: every recovery must release directories incrementally: {:?}",
            run.design,
            crashed.iter().map(|e| e.dirs_released).collect::<Vec<_>>()
        );
        assert!(
            crashed.iter().any(|e| e.overlap_ops > 0),
            "{}: no op ever overlapped a live salvage — the window never opened",
            run.design
        );
    }
}

#[test]
fn online_outcome_equals_stop_the_world_outcome() {
    // Same seeds, same crash plan: C1 repairs everything before
    // re-admitting anyone; S1 re-admits first and repairs underneath.
    // The user-visible stream must not be able to tell the difference.
    let kc = run_kernel_c1(&c1_spec(24, C1Policy::Fifo));
    let ks = run_kernel_s1(&spec(24, C1Policy::Fifo));
    assert_eq!(
        ks.parity, kc.parity,
        "kernel: online salvage changed an outcome"
    );
    assert_eq!(ks.admitted_order, kc.admitted_order);
    let lc = run_legacy_c1(&c1_spec(24, C1Policy::Fifo));
    let ls = run_legacy_s1(&spec(24, C1Policy::Fifo));
    assert_eq!(
        ls.parity, lc.parity,
        "legacy: online salvage changed an outcome"
    );
    assert_eq!(ls.admitted_order, lc.admitted_order);
}

#[test]
fn queued_logins_survive_and_readmit_fifo_under_online_salvage() {
    let k = run_kernel_s1(&spec(24, C1Policy::Fifo));
    let l = run_legacy_s1(&spec(24, C1Policy::Fifo));
    assert!(
        k.epochs
            .iter()
            .filter(|e| e.crashed)
            .all(|e| e.queued_at_crash > 0),
        "every crash must land on a non-empty admission queue: {:?}",
        k.epochs
            .iter()
            .map(|e| e.queued_at_crash)
            .collect::<Vec<_>>()
    );
    assert_eq!(k.admitted_order, l.admitted_order);
    assert!(
        k.admitted_order.windows(2).all(|w| w[0] < w[1]),
        "admissions out of arrival order: {:?}",
        k.admitted_order
    );
}

#[test]
fn blocked_references_retry_bounded_and_never_leak_busy_labels() {
    // A session blocked at a quarantined directory retries on the
    // bounded budget; the budget is generous enough that an honest
    // salvager always finishes first, so the sentinel label a true
    // exhaustion would emit must never reach the stream.
    for policy in [C1Policy::Fifo, C1Policy::Random(0x51AB)] {
        let k = run_kernel_s1(&spec(16, policy));
        assert_eq!(k.violations, Vec::<String>::new(), "{policy:?}");
        assert!(
            k.parity.iter().all(|lbl| lbl != "busy"),
            "{policy:?}: a retry budget was exhausted mid-stream"
        );
    }
    let l = run_legacy_s1(&spec(16, C1Policy::Fifo));
    assert!(l.parity.iter().all(|lbl| lbl != "busy"));
}

#[test]
fn adversarial_schedules_race_salvager_claims_without_divergence() {
    // Seeded-random and PCT schedules reorder the kernel's internal
    // choice points, racing session faults and quota walks against the
    // salvager's claim/release sequence. No interleaving may change a
    // label, lose a login, or slip past the per-release battery.
    let base = run_kernel_s1(&spec(16, C1Policy::Fifo));
    assert_eq!(base.violations, Vec::<String>::new());
    for policy in [C1Policy::Random(0x5C4E_D011), C1Policy::Pct(0x5C4E_D011)] {
        let k = run_kernel_s1(&spec(16, policy));
        assert_eq!(k.violations, Vec::<String>::new(), "{policy:?}");
        assert_eq!(k.parity, base.parity, "{policy:?} changed the stream");
        assert_eq!(k.admitted_order, base.admitted_order, "{policy:?} fairness");
    }
}

#[test]
fn reruns_are_byte_identical_and_the_planted_cheat_is_caught() {
    let honest = spec(16, C1Policy::Fifo);
    let a = run_kernel_s1(&honest);
    let b = run_kernel_s1(&honest);
    assert_eq!(a.transcript(), b.transcript());

    // A salvager that releases a directory before repairing its torn
    // quota cell must be caught AT THE RELEASE by the per-release
    // battery — on both designs — and the printed repro string must
    // replay to the identical violations.
    let mut cheat = honest;
    cheat.self_check = true;
    for (design, broken, replay) in [
        ("kernel", run_kernel_s1(&cheat), run_kernel_s1(&cheat)),
        ("legacy", run_legacy_s1(&cheat), run_legacy_s1(&cheat)),
    ] {
        assert!(
            !broken.violations.is_empty(),
            "{design}: the early release went unnoticed"
        );
        assert!(
            broken
                .violations
                .iter()
                .any(|v| v.contains("recheck") || v.contains("release")),
            "{design}: violations must point at the release-time check: {:?}",
            broken.violations
        );
        for v in &broken.violations {
            assert!(
                v.contains("seed=") && v.contains("plan=") && v.contains("schedule="),
                "{design}: violation lacks a replayable repro string: {v}"
            );
        }
        assert_eq!(
            broken.violations, replay.violations,
            "{design}: the repro triple must replay identically"
        );
    }
}

#[test]
fn threaded_stress_online_salvage_races_the_sharded_engine() {
    // Real OS concurrency: four threads replay the same online-salvage
    // composition while the sharded load engine hammers its own machine
    // pairs. Every S1 replica must produce the byte-identical
    // transcript, and the sharded run's full oracle battery must hold —
    // nothing in the salvage machinery may depend on ambient state.
    let s1 = spec(12, C1Policy::Fifo);
    std::thread::scope(|scope| {
        let replicas: Vec<_> = (0..4)
            .map(|i| {
                scope.spawn(move || {
                    if i % 2 == 0 {
                        run_kernel_s1(&s1).transcript()
                    } else {
                        run_legacy_s1(&s1).transcript()
                    }
                })
            })
            .collect();
        let sharded = scope.spawn(|| {
            run_sharded(
                &ShardSpec {
                    sessions: 192,
                    seed: 1977,
                    shard_users: 48,
                },
                4,
            )
        });
        let transcripts: Vec<String> = replicas.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(transcripts[0], transcripts[2], "kernel replicas diverged");
        assert_eq!(transcripts[1], transcripts[3], "legacy replicas diverged");
        let run = sharded.join().unwrap();
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.n_shards, 4);
    });
}
