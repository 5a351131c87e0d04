//! C1 — the chaos composition: load × crashes × adversarial schedules.
//!
//! The earlier experiments each hold two of the three hard variables
//! still: L1 runs the multi-user load with no faults, R1 crashes a
//! small fixed workload with no concurrency, X1 perturbs schedules on
//! microscenarios with no storage pressure. C1 composes all three. A
//! long-horizon `crates/load` population runs on tight storage; at
//! every epoch boundary a seeded fault plan tears or drops the final
//! in-flight transfer and power fails mid-`sync_to_disk`; a fresh
//! system boots from the surviving image, salvages twice (repair, then
//! a must-be-clean check), re-admits the queued population through the
//! answering service in the original FIFO order, re-opens surviving
//! sessions at their script positions, and the identical logical
//! stream continues. The kernel runs the whole composition under FIFO,
//! seeded-random, and PCT schedules; the 1974 supervisor's inherent
//! schedule is the parity baseline.
//!
//! Oracles at every epoch boundary: meter conservation, per-pack
//! record conservation, wakeup exactness, salvage idempotence,
//! conservation of sessions (no stranded or lost logins), FIFO
//! admission fairness across the crash, label-by-label old/new parity
//! per epoch, and byte-identical reruns from the same (seed, plan,
//! schedule) triple. Any violation aborts the experiment printing the
//! replayable repro string. A built-in self-check runs a deliberately
//! broken recovery (a queued login dropped) and proves the oracles
//! catch it — and that the printed triple replays to the identical
//! violations.

use mx_hw::meter::CounterSet;
use mx_hw::Clock;
use mx_load::{run_kernel_c1, run_legacy_c1, C1Policy, C1Run, C1SelfCheck, C1Spec};

/// Stream seed for the scripted population.
pub(crate) const SEED: u64 = 0x0C1_1977;
/// Seed of the crash-mode stream.
pub(crate) const PLAN_SEED: u64 = 0xFA17_0C1A;
/// Schedule seed for the random and PCT policies.
pub(crate) const SCHED_SEED: u64 = 0x5C4E_D011;
/// Crash/salvage/re-admit boundaries cut into the stream.
pub(crate) const CRASHES: u32 = 3;

/// Cross-run checks the single-design harness cannot do alone: parity
/// against the legacy baseline per epoch, identical epoch bounds and
/// admission order, and byte-identical reruns.
fn cross_checks(k: &C1Run, k2: &C1Run, l: &C1Run, spec: &C1Spec) -> Vec<String> {
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
    if k.parity.len() != l.parity.len() {
        out.push(format!(
            "parity: kernel emitted {} labels, legacy {} [{repro}]",
            k.parity.len(),
            l.parity.len()
        ));
    }
    // Label-by-label, reported against the epoch the divergence is in.
    let mut bounds = k.epoch_bounds.clone();
    bounds.push(k.parity.len().min(l.parity.len()));
    let mut start = 0usize;
    for (e, &end) in bounds.iter().enumerate() {
        for i in start..end {
            if k.parity.get(i) != l.parity.get(i) {
                out.push(format!(
                    "parity: epoch {e} label {i} differs — kernel {:?}, legacy {:?} [{repro}]",
                    k.parity.get(i),
                    l.parity.get(i)
                ));
                break;
            }
        }
        start = end;
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
    if let Some(first) = k.epochs.first() {
        if first.queued_at_crash == 0 {
            out.push(format!(
                "first crash hit an empty admission queue — re-admission across the \
                 boundary was not exercised [{repro}]"
            ));
        }
        if first.live_at_crash == 0 {
            out.push(format!(
                "first crash hit no live sessions — recovery under traffic was not \
                 exercised [{repro}]"
            ));
        }
    }
    out
}

/// The deliberately broken run: recovery drops a queued login. The
/// oracles must catch it, the violation must carry the repro triple,
/// and replaying the triple must reproduce the identical violations.
fn self_check() -> String {
    let mut spec = C1Spec::new(8, SEED, PLAN_SEED, 2, C1Policy::Fifo);
    spec.self_check = C1SelfCheck::DropQueuedLogin;
    let broken = run_kernel_c1(&spec);
    assert!(
        !broken.violations.is_empty(),
        "C1 self-check: a recovery that drops a queued login went uncaught"
    );
    assert!(
        broken
            .violations
            .iter()
            .any(|v| v.contains("seed=") && v.contains("plan=") && v.contains("schedule=")),
        "C1 self-check: violations lack the replayable repro string: {:?}",
        broken.violations
    );
    let replay = run_kernel_c1(&spec);
    assert_eq!(
        broken.violations, replay.violations,
        "C1 self-check: the repro triple did not replay to identical violations"
    );
    format!(
        "self-check: dropped queued login caught ({} violations, e.g. \"{}\"), \
         and the repro triple replays identically",
        broken.violations.len(),
        broken.violations[0]
    )
}

fn row(out: &mut String, r: &C1Run) {
    let crashed = r.epochs.iter().filter(|e| e.crashed).count();
    let problems: usize = r.epochs.iter().map(|e| e.salvage_problems).sum();
    let repairs: usize = r.epochs.iter().map(|e| e.salvage_repairs).sum();
    out.push_str(&format!(
        "  {:<7} {:<12} {:>6} {:>7} {:>9.3} {:>9.3} {:>5} {:>5} {:>6} {:>6} {:>7}\n",
        r.design,
        r.schedule,
        r.ops,
        crashed,
        r.load_cycles as f64 / 1e6,
        r.recovery_cycles as f64 / 1e6,
        r.hist.percentile(50).expect("C1 rows always retire ops"),
        r.hist.percentile(99).expect("C1 rows always retire ops"),
        r.queued_peak,
        problems,
        repairs,
    ));
}

/// Runs the chaos composition at `sessions` users and renders the
/// report. `sessions` is floored at 8 so the composition always has an
/// admission storm to recover.
///
/// # Panics
///
/// Panics on any oracle violation, printing the replayable
/// `seed=… plan=… schedule=…` string, and if the self-check's broken
/// recovery goes uncaught.
pub fn c1_chaos_composition(sessions: usize) -> String {
    let sessions = sessions.max(8);
    let base = C1Spec::new(sessions, SEED, PLAN_SEED, CRASHES, C1Policy::Fifo);

    let legacy = run_legacy_c1(&base);
    let legacy2 = run_legacy_c1(&base);
    let mut violations: Vec<String> = legacy.violations.clone();
    if legacy.transcript() != legacy2.transcript() {
        violations.push(format!(
            "legacy rerun diverged — not a pure function of the triple [{}]",
            base.repro("legacy")
        ));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "  {:<7} {:<12} {:>6} {:>7} {:>9} {:>9} {:>5} {:>5} {:>6} {:>6} {:>7}\n",
        "design",
        "schedule",
        "ops",
        "crashes",
        "loadMcy",
        "recovMcy",
        "p50",
        "p99",
        "queued",
        "salv-p",
        "salv-r",
    ));
    row(&mut out, &legacy);

    let policies = [
        C1Policy::Fifo,
        C1Policy::Random(SCHED_SEED),
        C1Policy::Pct(SCHED_SEED),
    ];
    let mut fifo_run: Option<C1Run> = None;
    for policy in policies {
        let spec = C1Spec { policy, ..base };
        let k = run_kernel_c1(&spec);
        let k2 = run_kernel_c1(&spec);
        violations.extend(k.violations.iter().cloned());
        violations.extend(cross_checks(&k, &k2, &legacy, &spec));
        row(&mut out, &k);
        if policy == C1Policy::Fifo {
            fifo_run = Some(k);
        }
    }

    if let Some(bad) = violations.first() {
        panic!(
            "C1 violation ({} total): {bad}\n\
             (replay: rebuild the C1Spec from the bracketed seed/plan/schedule string)",
            violations.len()
        );
    }

    out.push_str(
        "  (loadMcy = engine cycles summed over epochs; recovMcy = bootload+salvage+\n  \
         reconcile cycles summed over crashes; salv-p/salv-r = problems found and\n  \
         repairs made by the repairing salvage pass across all crash images)\n",
    );

    let fifo = fifo_run.expect("fifo policy is in the sweep");
    out.push_str("\n  per-epoch detail (kernel under fifo vs legacy inherent):\n");
    out.push_str(&format!(
        "  {:<7} {:>5} {:>6} {:>9} {:>5} {:>6} {:>8} {:>6} {:>6} {:>9}\n",
        "design",
        "epoch",
        "ops",
        "Mcycles",
        "live",
        "queued",
        "crashed",
        "salv-p",
        "salv-r",
        "recovMcy",
    ));
    for r in [&fifo, &legacy] {
        for (i, e) in r.epochs.iter().enumerate() {
            out.push_str(&format!(
                "  {:<7} {:>5} {:>6} {:>9.3} {:>5} {:>6} {:>8} {:>6} {:>6} {:>9.3}\n",
                r.design,
                i,
                e.ops,
                e.cycles as f64 / 1e6,
                e.live_at_crash,
                e.queued_at_crash,
                e.crashed,
                e.salvage_problems,
                e.salvage_repairs,
                e.recovery_cycles as f64 / 1e6,
            ));
        }
    }

    out.push_str(&format!("\n  {}\n", self_check()));
    out.push_str(&format!(
        "\n  sessions scripted              : {sessions}\n"
    ));
    out.push_str(&format!(
        "  crash/salvage/re-admit epochs  : {CRASHES} (per design and schedule)\n"
    ));
    out.push_str(&format!(
        "  schedules swept                : {} (kernel) + inherent (legacy)\n",
        policies.len()
    ));
    out.push_str(&format!(
        "  parity labels compared         : {} (per schedule, label-by-label)\n",
        legacy.parity.len()
    ));
    out.push_str("  reruns byte-identical          : yes (every design and schedule)\n");
    out.push_str("  oracle violations              : 0\n");

    let mut counters = CounterSet::new();
    counters.set("sessions", sessions as u64);
    counters.set("crashes", u64::from(CRASHES));
    counters.set("kernel_ops", fifo.ops);
    counters.set("kernel_load_cycles", fifo.load_cycles);
    counters.set("kernel_recovery_cycles", fifo.recovery_cycles);
    counters.set("legacy_ops", legacy.ops);
    counters.set("legacy_load_cycles", legacy.load_cycles);
    counters.set("legacy_recovery_cycles", legacy.recovery_cycles);
    counters.set("queued_peak", fifo.queued_peak as u64);
    counters.set(
        "salvage_repairs",
        fifo.epochs.iter().map(|e| e.salvage_repairs as u64).sum(),
    );
    crate::trace::publish("c1.chaos", &Clock::new(), counters);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c1_runs_clean_at_smoke_scale() {
        let report = c1_chaos_composition(12);
        assert!(report.contains("oracle violations              : 0"));
        assert!(report.contains("self-check: dropped queued login caught"));
        // One legacy row plus three kernel schedule rows.
        assert!(report.contains(" inherent "));
        assert!(report.contains(" fifo "));
        assert!(report.contains(" random:"));
        assert!(report.contains(" pct:"));
    }

    #[test]
    fn c1_report_is_deterministic() {
        assert_eq!(c1_chaos_composition(8), c1_chaos_composition(8));
    }
}
