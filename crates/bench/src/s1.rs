//! S1 — online salvage: repair the hierarchy while serving re-admitted
//! traffic.
//!
//! C1 proved the composition recovers; its recovery is stop-the-world —
//! nobody logs in until the salvager has walked the whole hierarchy
//! twice and the reconcile has replayed every survivor. S1 runs the
//! identical crash plan with the salvager *incremental and concurrent
//! with service*: after `boot_from_image` only the root and a repair
//! frontier are quarantined, the answering service re-admits the queued
//! population immediately, and sessions run against already-salvaged
//! subtrees while the salvager claims one directory at a time,
//! releasing each as it is proven clean. A reference into a directory
//! still in quarantine surfaces as a typed `SalvageBusy` and is retried
//! on a bounded budget — graceful degradation, never a hang.
//!
//! Oracles: the per-directory-release battery (meter conservation and
//! per-pack record conservation on the serving half, per-directory
//! repair idempotence via the release-time recheck) at every release;
//! label-by-label kernel/legacy parity; FIFO re-admission across every
//! crash; byte-identical reruns; and the strongest one — the
//! user-visible stream must be IDENTICAL to C1's stop-the-world
//! recovery, so the overlap buys availability without changing a single
//! outcome. The kernel additionally runs under seeded-random and PCT
//! schedules racing the salvager's claim sequence. A built-in
//! self-check plants a salvager that releases a directory before
//! repairing its torn quota cell and proves the release-time battery
//! catches it, deterministically.

use mx_hw::meter::CounterSet;
use mx_hw::Clock;
use mx_load::{
    run_kernel_c1, run_kernel_s1, run_legacy_c1, run_legacy_s1, C1Policy, C1Run, C1Spec, S1Run,
    S1SelfCheck, S1Spec,
};

// C1's stream, crash plan and schedules: the stop-the-world baseline S1
// is held to is C1's own run.
use crate::c1::{CRASHES, PLAN_SEED, SCHED_SEED, SEED};

/// Cross-run checks: parity against the legacy baseline, identical
/// bounds and admission order, byte-identical reruns, and the crashes
/// actually exercising recovery under traffic.
fn cross_checks(k: &S1Run, k2: &S1Run, l: &S1Run, spec: &S1Spec) -> Vec<String> {
    let repro = spec.repro(k.design);
    let mut out = Vec::new();
    if k.transcript() != k2.transcript() {
        out.push(format!(
            "rerun of the same triple diverged — the run is not a pure function of \
             (seed, plan, schedule) [{repro}]"
        ));
    }
    if k.epoch_bounds != l.epoch_bounds {
        out.push(format!(
            "epoch bounds differ: kernel {:?}, legacy {:?} [{repro}]",
            k.epoch_bounds, l.epoch_bounds
        ));
    }
    if k.parity != l.parity {
        let i = k
            .parity
            .iter()
            .zip(&l.parity)
            .position(|(a, b)| a != b)
            .unwrap_or(k.parity.len().min(l.parity.len()));
        out.push(format!(
            "parity: label {i} differs — kernel {:?}, legacy {:?} [{repro}]",
            k.parity.get(i),
            l.parity.get(i)
        ));
    }
    if k.admitted_order != l.admitted_order {
        out.push(format!(
            "admission fairness: kernel admitted {:?}, legacy {:?} [{repro}]",
            k.admitted_order, l.admitted_order
        ));
    }
    if !k.admitted_order.windows(2).all(|w| w[0] < w[1]) {
        out.push(format!(
            "admission fairness: kernel admissions out of FIFO order: {:?} [{repro}]",
            k.admitted_order
        ));
    }
    let crashed = k.epochs.iter().filter(|e| e.crashed).count();
    if crashed != spec.crashes as usize {
        out.push(format!(
            "only {crashed} of {} crash epochs completed — the stream drained early [{repro}]",
            spec.crashes
        ));
    }
    for r in [k, l] {
        if !r
            .epochs
            .iter()
            .filter(|e| e.crashed)
            .all(|e| e.dirs_released > 0)
        {
            out.push(format!(
                "{}: a recovery released no directories — salvage was not incremental [{repro}]",
                r.design
            ));
        }
        if !r.epochs.iter().any(|e| e.overlap_ops > 0) {
            out.push(format!(
                "{}: no op ever overlapped a live salvage — service never shared the \
                 machine with repair [{repro}]",
                r.design
            ));
        }
        if r.parity.iter().any(|lbl| lbl == "busy") {
            out.push(format!(
                "{}: a salvage retry budget was exhausted mid-stream [{repro}]",
                r.design
            ));
        }
    }
    out
}

/// The outcome-equivalence oracle: online salvage must produce the
/// byte-identical user-visible stream the stop-the-world recovery does.
fn outcome_checks(design: &str, online: &S1Run, offline: &C1Run, spec: &S1Spec) -> Vec<String> {
    let repro = spec.repro(design);
    let mut out = Vec::new();
    if online.parity != offline.parity {
        let i = online
            .parity
            .iter()
            .zip(&offline.parity)
            .position(|(a, b)| a != b)
            .unwrap_or(online.parity.len().min(offline.parity.len()));
        out.push(format!(
            "{design}: online salvage changed outcome at label {i} — online {:?}, \
             stop-the-world {:?} [{repro}]",
            online.parity.get(i),
            offline.parity.get(i)
        ));
    }
    if online.admitted_order != offline.admitted_order {
        out.push(format!(
            "{design}: online salvage changed the admission order [{repro}]"
        ));
    }
    out
}

/// The deliberately broken salvager: releases each directory before
/// repairing its quota cell. The release-time battery must catch it and
/// the printed triple must replay to identical violations.
fn self_check() -> String {
    let mut spec = S1Spec::new(8, SEED, PLAN_SEED, 2, C1Policy::Fifo);
    spec.self_check = S1SelfCheck::ReleaseBeforeCellRepair;
    let broken = run_kernel_s1(&spec);
    assert!(
        !broken.violations.is_empty(),
        "S1 self-check: a salvager that releases before repairing went uncaught"
    );
    assert!(
        broken
            .violations
            .iter()
            .any(|v| v.contains("seed=") && v.contains("plan=") && v.contains("schedule=")),
        "S1 self-check: violations lack the replayable repro string: {:?}",
        broken.violations
    );
    let replay = run_kernel_s1(&spec);
    assert_eq!(
        broken.violations, replay.violations,
        "S1 self-check: the repro triple did not replay to identical violations"
    );
    format!(
        "self-check: release-before-repair caught at the release ({} violations, e.g. \
         \"{}\"), and the repro triple replays identically",
        broken.violations.len(),
        broken.violations[0]
    )
}

fn row(out: &mut String, r: &S1Run) {
    let crashed = r.epochs.iter().filter(|e| e.crashed).count();
    let released: u32 = r.epochs.iter().map(|e| e.dirs_released).sum();
    let overlap: u64 = r.epochs.iter().map(|e| e.overlap_ops).sum();
    let blocked: u64 = r.epochs.iter().map(|e| e.blocked_ops).sum();
    let blocked_cy: u64 = r.epochs.iter().map(|e| e.blocked_cycles).sum();
    out.push_str(&format!(
        "  {:<7} {:<12} {:>6} {:>7} {:>9.3} {:>9.3} {:>8} {:>8} {:>8} {:>9.1} {:>5} {:>5}\n",
        r.design,
        r.schedule,
        r.ops,
        crashed,
        r.load_cycles as f64 / 1e6,
        r.recovery_cycles as f64 / 1e6,
        released,
        overlap,
        blocked,
        if blocked == 0 {
            0.0
        } else {
            blocked_cy as f64 / blocked as f64 / 1e3
        },
        r.hist.percentile(50).expect("S1 rows always retire ops"),
        r.hist.percentile(99).expect("S1 rows always retire ops"),
    ));
}

/// Runs online salvage under live traffic at `sessions` users and
/// renders the report, including the stop-the-world (C1) baseline
/// comparison. `sessions` is floored at 8 so every recovery has an
/// admission storm to re-admit.
///
/// # Panics
///
/// Panics on any oracle violation, printing the replayable
/// `seed=… plan=… schedule=…` string, and if the self-check's planted
/// cheat goes uncaught.
pub fn s1_online_salvage(sessions: usize) -> String {
    let sessions = sessions.max(8);
    let base = S1Spec::new(sessions, SEED, PLAN_SEED, CRASHES, C1Policy::Fifo);
    let c1_base = C1Spec::new(sessions, SEED, PLAN_SEED, CRASHES, C1Policy::Fifo);

    let legacy = run_legacy_s1(&base);
    let legacy2 = run_legacy_s1(&base);
    let mut violations: Vec<String> = legacy.violations.clone();
    if legacy.transcript() != legacy2.transcript() {
        violations.push(format!(
            "legacy rerun diverged — not a pure function of the triple [{}]",
            base.repro("legacy")
        ));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "  {:<7} {:<12} {:>6} {:>7} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>5} {:>5}\n",
        "design",
        "schedule",
        "ops",
        "crashes",
        "loadMcy",
        "resumMcy",
        "released",
        "overlap",
        "blocked",
        "blkKcy/op",
        "p50",
        "p99",
    ));
    row(&mut out, &legacy);

    let policies = [
        C1Policy::Fifo,
        C1Policy::Random(SCHED_SEED),
        C1Policy::Pct(SCHED_SEED),
    ];
    let mut fifo_run: Option<S1Run> = None;
    for policy in policies {
        let spec = S1Spec { policy, ..base };
        let k = run_kernel_s1(&spec);
        let k2 = run_kernel_s1(&spec);
        violations.extend(k.violations.iter().cloned());
        violations.extend(cross_checks(&k, &k2, &legacy, &spec));
        row(&mut out, &k);
        if policy == C1Policy::Fifo {
            fifo_run = Some(k);
        }
    }
    let fifo = fifo_run.expect("fifo policy is in the sweep");

    // The stop-the-world baseline: same stream, same crash plan,
    // C1-style offline recovery. Outcomes must be identical; the
    // figures quantify what the overlap bought.
    let kernel_c1 = run_kernel_c1(&c1_base);
    let legacy_c1 = run_legacy_c1(&c1_base);
    violations.extend(kernel_c1.violations.iter().cloned());
    violations.extend(legacy_c1.violations.iter().cloned());
    violations.extend(outcome_checks("kernel", &fifo, &kernel_c1, &base));
    violations.extend(outcome_checks("legacy", &legacy, &legacy_c1, &base));

    if let Some(bad) = violations.first() {
        panic!(
            "S1 violation ({} total): {bad}\n\
             (replay: rebuild the S1Spec from the bracketed seed/plan/schedule string)",
            violations.len()
        );
    }

    out.push_str(
        "  (resumMcy = bootload-to-stream-resume cycles summed over crashes; released =\n  \
         directories claimed/repaired/released one at a time; overlap = ops completed\n  \
         while the salvager still held part of the hierarchy; blocked = ops that hit a\n  \
         SalvageBusy barrier at least once, blkKcy/op = mean kcycles such an op spent\n  \
         blocked; service-time percentiles include any barrier stalls)\n",
    );

    out.push_str("\n  availability vs the stop-the-world baseline (same stream, same crashes):\n");
    for (design, online, offline) in [
        ("kernel", &fifo, &kernel_c1),
        ("legacy", &legacy, &legacy_c1),
    ] {
        let window: u64 = online.epochs.iter().map(|e| e.salvage_window).sum();
        let first_op: u64 = online.epochs.iter().map(|e| e.first_op_cycles).sum();
        let n = CRASHES as f64;
        out.push_str(&format!(
            "  {:<7} downtime/crash {:>9.3} -> {:>7.3} Mcy  salvage window {:>7.3} Mcy  \
             first op at {:>7.3} Mcy\n",
            design,
            offline.recovery_cycles as f64 / n / 1e6,
            online.recovery_cycles as f64 / n / 1e6,
            window as f64 / n / 1e6,
            first_op as f64 / n / 1e6,
        ));
    }
    out.push_str(
        "  (downtime = cycles from recovery bootload until the population's stream\n  \
         resumes: stop-the-world pays two full salvage passes before anyone logs in;\n  \
         online quarantines, re-admits, and repairs under traffic — identical labels,\n  \
         identical admission order, on both designs)\n",
    );

    out.push_str("\n  per-epoch detail (kernel under fifo vs legacy inherent):\n");
    out.push_str(&format!(
        "  {:<7} {:>5} {:>6} {:>9} {:>5} {:>6} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9}\n",
        "design",
        "epoch",
        "ops",
        "Mcycles",
        "live",
        "queued",
        "crashed",
        "released",
        "overlap",
        "blocked",
        "retries",
        "resumMcy",
    ));
    for r in [&fifo, &legacy] {
        for (i, e) in r.epochs.iter().enumerate() {
            out.push_str(&format!(
                "  {:<7} {:>5} {:>6} {:>9.3} {:>5} {:>6} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9.3}\n",
                r.design,
                i,
                e.ops,
                e.cycles as f64 / 1e6,
                e.live_at_crash,
                e.queued_at_crash,
                e.crashed,
                e.dirs_released,
                e.overlap_ops,
                e.blocked_ops,
                e.retries,
                e.recovery_cycles as f64 / 1e6,
            ));
        }
    }

    out.push_str(&format!("\n  {}\n", self_check()));
    out.push_str(&format!(
        "\n  sessions scripted              : {sessions}\n"
    ));
    out.push_str(&format!(
        "  crash/online-salvage epochs    : {CRASHES} (per design and schedule)\n"
    ));
    out.push_str(&format!(
        "  schedules swept                : {} (kernel) + inherent (legacy)\n",
        policies.len()
    ));
    out.push_str(&format!(
        "  parity labels compared         : {} (per schedule, and against the\n  \
                                   stop-the-world C1 baseline, label-by-label)\n",
        legacy.parity.len()
    ));
    out.push_str("  reruns byte-identical          : yes (every design and schedule)\n");
    out.push_str("  oracle violations              : 0\n");

    let mut counters = CounterSet::new();
    counters.set("sessions", sessions as u64);
    counters.set("crashes", u64::from(CRASHES));
    counters.set("kernel_ops", fifo.ops);
    counters.set("kernel_resume_cycles", fifo.recovery_cycles);
    counters.set("kernel_stw_recovery_cycles", kernel_c1.recovery_cycles);
    counters.set("legacy_ops", legacy.ops);
    counters.set("legacy_resume_cycles", legacy.recovery_cycles);
    counters.set("legacy_stw_recovery_cycles", legacy_c1.recovery_cycles);
    counters.set(
        "dirs_released",
        fifo.epochs.iter().map(|e| u64::from(e.dirs_released)).sum(),
    );
    counters.set(
        "overlap_ops",
        fifo.epochs.iter().map(|e| e.overlap_ops).sum(),
    );
    counters.set(
        "blocked_ops",
        fifo.epochs.iter().map(|e| e.blocked_ops).sum(),
    );
    crate::trace::publish("s1.online_salvage", &Clock::new(), counters);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s1_runs_clean_at_smoke_scale() {
        let report = s1_online_salvage(12);
        assert!(report.contains("oracle violations              : 0"));
        assert!(report.contains("self-check: release-before-repair caught"));
        // One legacy row plus three kernel schedule rows, and the
        // stop-the-world comparison for both designs.
        assert!(report.contains(" inherent "));
        assert!(report.contains(" fifo "));
        assert!(report.contains(" random:"));
        assert!(report.contains(" pct:"));
        assert!(report.contains("availability vs the stop-the-world baseline"));
    }
}
