//! Chaos composition (C1) at the integration level: the long load
//! stream cut by mid-sync power failures must come back — on both
//! designs, label for label — after every crash/salvage/re-admit
//! boundary. These run the same harness `repro --only c1` uses, at a
//! population small enough for the test suite but large enough to keep
//! the admission queue deep across every crash.
//!
//! The N=64 repro run surfaced a real recovery bug these sizes also
//! cover: deleting a file that survived a crash (and so has no AST
//! entry on the old supervisor) uncharged the quota cell *above* its
//! governing quota directory, leaving the directory's own cell reading
//! high until growth under it spuriously faulted on quota. The
//! cross-design parity assertions here pin the fix.
//!
//! Roadmap item 6's sweep runs both recovery modes over 40 script seeds:
//! online salvage (S1) must leave the same labels and admission order as
//! stop-the-world recovery (C1) on both designs, and repair every
//! problem it finds.

use mx_load::{run_kernel_c1, run_kernel_s1, run_legacy_c1, run_legacy_s1, C1Policy, C1Spec};

const SEED: u64 = 0x0C1_1977;
const PLAN: u64 = 0xFA17_0C1A;

fn spec(sessions: usize, policy: C1Policy) -> C1Spec {
    C1Spec::new(sessions, SEED, PLAN, 3, policy)
}

#[test]
fn both_designs_survive_three_crashes_with_full_parity() {
    let k = run_kernel_c1(&spec(24, C1Policy::Fifo));
    let l = run_legacy_c1(&spec(24, C1Policy::Fifo));
    assert_eq!(k.violations, Vec::<String>::new());
    assert_eq!(l.violations, Vec::<String>::new());
    assert_eq!(k.epochs.iter().filter(|e| e.crashed).count(), 3);
    assert_eq!(l.epochs.iter().filter(|e| e.crashed).count(), 3);
    assert_eq!(k.parity, l.parity, "label-by-label across all crashes");
    assert_eq!(k.epoch_bounds, l.epoch_bounds);
}

#[test]
fn admission_order_is_fifo_across_every_crash_boundary() {
    // Every crash hits with a deep queue; recovery must re-admit the
    // parked population in the exact order it arrived. The admitted
    // order is complete (everyone beyond the initial slots queued) and
    // strictly increasing (the scripts storm in index order).
    let k = run_kernel_c1(&spec(24, C1Policy::Fifo));
    let l = run_legacy_c1(&spec(24, C1Policy::Fifo));
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
fn adversarial_schedules_change_nothing_user_visible() {
    let base = run_kernel_c1(&spec(16, C1Policy::Fifo));
    for policy in [C1Policy::Random(0x5C4E_D011), C1Policy::Pct(0x5C4E_D011)] {
        let k = run_kernel_c1(&spec(16, policy));
        assert_eq!(k.violations, Vec::<String>::new(), "{policy:?}");
        assert_eq!(k.parity, base.parity, "{policy:?} changed the stream");
        assert_eq!(k.admitted_order, base.admitted_order, "{policy:?} fairness");
    }
}

#[test]
fn reruns_are_byte_identical_and_cheats_are_caught() {
    let honest = spec(16, C1Policy::Fifo);
    let a = run_kernel_c1(&honest);
    let b = run_kernel_c1(&honest);
    assert_eq!(a.transcript(), b.transcript());

    let mut cheat = honest;
    cheat.self_check = true;
    let broken = run_kernel_c1(&cheat);
    assert!(
        !broken.violations.is_empty(),
        "the dropped login went unnoticed"
    );
    for v in &broken.violations {
        assert!(
            v.contains("seed=") && v.contains("plan=") && v.contains("schedule="),
            "violation lacks a replayable repro string: {v}"
        );
    }
    assert_eq!(
        broken.violations,
        run_kernel_c1(&cheat).violations,
        "the repro triple must replay to the identical violations"
    );
}

/// Roadmap item 6's run: 64 users, three crashes, FIFO, script `seed`.
fn item_6(seed: u64) -> C1Spec {
    C1Spec::new(64, seed, PLAN, 3, C1Policy::Fifo)
}

#[test]
fn an_orphaned_shard_cell_is_audited_at_seed_0x1001() {
    // Both salvagers reclaim the orphaned files of a shard's quota
    // directory. Each must then audit the shard's cell, which governs
    // no surviving object: a cell left charged makes a survivor's
    // replayed write fail `QuotaExceeded` where the other design writes.
    let k = run_kernel_c1(&item_6(0x1001));
    let l = run_legacy_c1(&item_6(0x1001));
    assert_eq!(k.violations, Vec::<String>::new());
    assert_eq!(l.violations, Vec::<String>::new());
    assert_eq!(k.parity, l.parity, "label-by-label across all crashes");
}

#[test]
fn forty_script_seeds_recover_with_cross_design_parity() {
    for seed in 0x1000..0x1028 {
        let spec = item_6(seed);
        let k = run_kernel_c1(&spec);
        let l = run_legacy_c1(&spec);
        assert_eq!(k.violations, Vec::<String>::new(), "seed {seed:#x}");
        assert_eq!(l.violations, Vec::<String>::new(), "seed {seed:#x}");
        assert_eq!(k.parity, l.parity, "seed {seed:#x}");
        for (c1, s1) in [(&k, run_kernel_s1(&spec)), (&l, run_legacy_s1(&spec))] {
            let design = s1.design;
            assert_eq!(
                s1.violations,
                Vec::<String>::new(),
                "{design} seed {seed:#x}"
            );
            assert_eq!(
                s1.parity, c1.parity,
                "{design} S1 left C1 at seed {seed:#x}"
            );
            assert_eq!(
                s1.admitted_order, c1.admitted_order,
                "{design} S1 admission order at seed {seed:#x}"
            );
        }
    }
}

#[test]
fn online_salvage_repairs_every_problem_it_finds_at_forty_seeds() {
    // A recovery bootload issues uids past every TOC entry, so the
    // stream never creates a namesake of an orphan before the online
    // salvager's final sweep, which then reclaims every orphan.
    for seed in 0x1000..0x1028 {
        for run in [run_kernel_s1(&item_6(seed)), run_legacy_s1(&item_6(seed))] {
            for (e, epoch) in run.epochs.iter().enumerate() {
                assert_eq!(
                    epoch.salvage_problems, epoch.salvage_repairs,
                    "{} seed {seed:#x} epoch {e}: a problem left unrepaired",
                    run.design
                );
            }
        }
    }
}

/// A survivor reaped before online salvage releases its shard keeps its
/// file, as it does after a stop-the-world recovery: its pages still
/// count against the shard's quota, so the grow at `label` meets it.
fn reaped_survivor_keeps_its_file(seed: u64, label: usize) {
    let spec = item_6(seed);
    for (c1, s1) in [
        (run_kernel_c1(&spec), run_kernel_s1(&spec)),
        (run_legacy_c1(&spec), run_legacy_s1(&spec)),
    ] {
        let design = s1.design;
        assert_eq!(c1.parity[label], "w:quota", "{design} C1 at {seed:#x}");
        assert_eq!(
            s1.parity[label], "w:quota",
            "{design} S1 at {seed:#x}: the reaped survivor's file was not replayed"
        );
        assert_eq!(s1.parity, c1.parity, "{design} at {seed:#x}");
        assert_eq!(
            s1.admitted_order, c1.admitted_order,
            "{design} at {seed:#x}"
        );
    }
}

#[test]
fn a_reaped_survivor_keeps_its_file_under_online_salvage_at_seed_0x1004() {
    reaped_survivor_keeps_its_file(0x1004, 262);
}

#[test]
fn a_reaped_survivor_keeps_its_file_under_online_salvage_at_seed_0x1005() {
    // u16 is reaped at label 128, before shard 0 is released; label 138
    // is u18's third grow in that shard.
    assert_eq!(run_kernel_c1(&item_6(0x1005)).parity[128], "reap");
    reaped_survivor_keeps_its_file(0x1005, 138);
}

#[test]
fn a_reaped_survivor_keeps_its_file_under_online_salvage_at_seed_0x100a() {
    // Only the kernel's S1 left C1 here before the fix.
    reaped_survivor_keeps_its_file(0x100a, 276);
}
