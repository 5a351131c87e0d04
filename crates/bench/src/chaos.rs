//! C1 and S1 — the chaos composition, recovered two ways.
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
//! stream continues.
//!
//! S1 runs the identical crash plan with the salvager *incremental and
//! concurrent with service*: after `boot_from_image` only the root and a
//! repair frontier are quarantined, the answering service re-admits the
//! queued population immediately, and sessions run against
//! already-salvaged subtrees while the salvager claims one directory at
//! a time, releasing each as it is proven clean. A reference into a
//! directory still in quarantine surfaces as a typed `SalvageBusy` and
//! is retried on a bounded budget — graceful degradation, never a hang.
//!
//! Both modes run one sweep: the 1974 supervisor's inherent schedule is
//! the parity baseline, and the kernel runs under FIFO, seeded-random
//! and PCT schedules. Oracles: meter conservation, per-pack record
//! conservation, wakeup exactness and salvage idempotence at every epoch
//! boundary (S1 also at every directory release), conservation of
//! sessions, FIFO admission across every crash, label-by-label old/new
//! parity per epoch, and byte-identical reruns from the same (seed,
//! plan, schedule) triple. S1 must also release directories one at a
//! time, overlap live traffic, never exhaust a retry budget, and produce
//! the user-visible stream of C1's stop-the-world recovery label for
//! label. Any violation aborts the experiment printing the replayable
//! repro string. Each mode's self-check plants its cheat (C1 drops a
//! queued login, S1 releases a directory before repairing its torn
//! quota cell) and proves the oracles catch it and that the printed
//! triple replays to the identical violations.

use mx_hw::meter::CounterSet;
use mx_hw::Clock;
use mx_load::{
    run_kernel_c1, run_kernel_s1, run_legacy_c1, run_legacy_s1, C1Policy, C1Run, C1Spec, S1Run,
};
use std::fmt::Debug;

/// Stream seed for the scripted population.
const SEED: u64 = 0x0C1_1977;
/// Seed of the crash-mode stream.
const PLAN_SEED: u64 = 0xFA17_0C1A;
/// Crash/salvage/re-admit boundaries cut into the stream.
const CRASHES: u32 = 3;
/// The kernel schedules swept against the legacy baseline.
const POLICIES: [C1Policy; 3] = [
    C1Policy::Fifo,
    C1Policy::Random(0x5C4E_D011),
    C1Policy::Pct(0x5C4E_D011),
];

/// What the shared checks read of a run.
struct View<'a> {
    design: &'static str,
    parity: &'a [String],
    bounds: &'a [usize],
    admitted: &'a [usize],
    violations: &'a [String],
    crashed: usize,
    /// Live sessions and queued logins at the first crash.
    first: Option<(usize, usize)>,
}

/// [`C1Run`] and [`S1Run`] name the fields a [`View`] reads alike.
macro_rules! view {
    ($r:expr) => {
        View {
            design: $r.design,
            parity: &$r.parity,
            bounds: &$r.epoch_bounds,
            admitted: &$r.admitted_order,
            violations: &$r.violations,
            crashed: $r.epochs.iter().filter(|e| e.crashed).count(),
            first: $r
                .epochs
                .first()
                .map(|e| (e.live_at_crash, e.queued_at_crash)),
        }
    };
}

/// One recovery mode of the composition: its run functions and what it
/// alone prints or owes. The `Debug` text is the run's transcript.
trait Mode: Debug + Sized {
    /// `C1` or `S1`.
    const ID: &'static str;
    /// Appended to a spec's repro string.
    const REPRO: &'static str;
    /// How the self-check line names the caught cheat.
    const CAUGHT: &'static str;
    /// The footer's epoch line.
    const EPOCHS: &'static str;
    /// What the footer says the parity labels were compared with.
    const COMPARED: &'static str;
    /// The summary table's header.
    const HEADER: &'static str;
    const KERNEL: fn(&C1Spec) -> Self;
    const LEGACY: fn(&C1Spec) -> Self;
    fn view(&self) -> View<'_>;
    /// One summary table row.
    fn row(&self) -> String;
    /// What this mode alone owes a run, as violations without the repro.
    fn owed(&self) -> Vec<&'static str> {
        Vec::new()
    }
}

impl Mode for C1Run {
    const ID: &'static str = "C1";
    const REPRO: &'static str = "";
    const CAUGHT: &'static str = "dropped queued login caught";
    const EPOCHS: &'static str = "crash/salvage/re-admit epochs";
    const COMPARED: &'static str = "label-by-label";
    const HEADER: &'static str = concat!(
        "  design  schedule        ops crashes   loadMcy  recovMcy   p50   p99 ",
        "queued salv-p  salv-r\n"
    );
    const KERNEL: fn(&C1Spec) -> Self = run_kernel_c1;
    const LEGACY: fn(&C1Spec) -> Self = run_legacy_c1;

    fn view(&self) -> View<'_> {
        view!(self)
    }

    fn row(&self) -> String {
        format!(
            "  {:<7} {:<12} {:>6} {:>7} {:>9.3} {:>9.3} {:>5} {:>5} {:>6} {:>6} {:>7}\n",
            self.design,
            self.schedule,
            self.ops,
            self.view().crashed,
            self.load_cycles as f64 / 1e6,
            self.recovery_cycles as f64 / 1e6,
            self.hist.percentile(50).expect("C1 rows always retire ops"),
            self.hist.percentile(99).expect("C1 rows always retire ops"),
            self.queued_peak,
            self.epochs
                .iter()
                .map(|e| e.salvage_problems)
                .sum::<usize>(),
            self.epochs.iter().map(|e| e.salvage_repairs).sum::<usize>(),
        )
    }
}

impl Mode for S1Run {
    const ID: &'static str = "S1";
    const REPRO: &'static str = " mode=online";
    const CAUGHT: &'static str = "release-before-repair caught at the release";
    const EPOCHS: &'static str = "crash/online-salvage epochs";
    const COMPARED: &'static str = "and against the\n  stop-the-world C1 baseline, label-by-label";
    const HEADER: &'static str = concat!(
        "  design  schedule        ops crashes   loadMcy  resumMcy released  overlap  ",
        "blocked blkKcy/op   p50   p99\n"
    );
    const KERNEL: fn(&C1Spec) -> Self = run_kernel_s1;
    const LEGACY: fn(&C1Spec) -> Self = run_legacy_s1;

    fn view(&self) -> View<'_> {
        view!(self)
    }

    fn row(&self) -> String {
        let blocked: u64 = self.epochs.iter().map(|e| e.blocked_ops).sum();
        let blocked_cy: u64 = self.epochs.iter().map(|e| e.blocked_cycles).sum();
        format!(
            "  {:<7} {:<12} {:>6} {:>7} {:>9.3} {:>9.3} {:>8} {:>8} {:>8} {:>9.1} {:>5} {:>5}\n",
            self.design,
            self.schedule,
            self.ops,
            self.view().crashed,
            self.load_cycles as f64 / 1e6,
            self.recovery_cycles as f64 / 1e6,
            self.epochs.iter().map(|e| e.dirs_released).sum::<u32>(),
            self.epochs.iter().map(|e| e.overlap_ops).sum::<u64>(),
            blocked,
            if blocked == 0 {
                0.0
            } else {
                blocked_cy as f64 / blocked as f64 / 1e3
            },
            self.hist.percentile(50).expect("S1 rows always retire ops"),
            self.hist.percentile(99).expect("S1 rows always retire ops"),
        )
    }

    fn owed(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut crashed = self.epochs.iter().filter(|e| e.crashed);
        if !crashed.all(|e| e.dirs_released > 0) {
            out.push("a recovery released no directories — salvage was not incremental");
        }
        if !self.epochs.iter().any(|e| e.overlap_ops > 0) {
            out.push(
                "no op ever overlapped a live salvage — service never shared the machine \
                 with repair",
            );
        }
        out
    }
}

/// A spec's replayable identity on `design` in mode `R`.
fn repro<R: Mode>(spec: &C1Spec, design: &str) -> String {
    format!("{}{}", spec.repro(design), R::REPRO)
}

/// The first label at which two streams differ, if they do.
fn first_difference(a: &[String], b: &[String]) -> Option<usize> {
    (a != b).then(|| {
        a.iter()
            .zip(b)
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()))
    })
}

/// Cross-run checks the single-design harness cannot do alone: a
/// byte-identical rerun, identical epoch bounds and admission order
/// against the legacy baseline, label parity per epoch, FIFO admission,
/// every crash exercising recovery under traffic, and what the mode
/// owes on both designs.
fn cross_checks<R: Mode>(k: &R, k2: &R, l: &R, spec: &C1Spec) -> Vec<String> {
    let (kv, lv) = (k.view(), l.view());
    let repro = repro::<R>(spec, kv.design);
    let mut out = Vec::new();
    if format!("{k:?}") != format!("{k2:?}") {
        out.push(format!(
            "rerun of the same triple diverged — the run is not a pure function of \
             (seed, plan, schedule) [{repro}]"
        ));
    }
    if kv.bounds != lv.bounds {
        out.push(format!(
            "epoch bounds differ: kernel {:?}, legacy {:?} [{repro}]",
            kv.bounds, lv.bounds
        ));
    }
    if kv.parity.len() != lv.parity.len() {
        out.push(format!(
            "parity: kernel emitted {} labels, legacy {} [{repro}]",
            kv.parity.len(),
            lv.parity.len()
        ));
    }
    // Label-by-label, reported against the epoch the divergence is in.
    let ends = kv.bounds.iter().copied();
    let mut start = 0usize;
    for (e, end) in ends
        .chain([kv.parity.len().min(lv.parity.len())])
        .enumerate()
    {
        if let Some(i) = (start..end).find(|&i| kv.parity.get(i) != lv.parity.get(i)) {
            out.push(format!(
                "parity: epoch {e} label {i} differs — kernel {:?}, legacy {:?} [{repro}]",
                kv.parity.get(i),
                lv.parity.get(i)
            ));
        }
        start = end;
    }
    if kv.admitted != lv.admitted {
        out.push(format!(
            "admission fairness: kernel admitted {:?}, legacy {:?} [{repro}]",
            kv.admitted, lv.admitted
        ));
    }
    if !kv.admitted.windows(2).all(|w| w[0] < w[1]) {
        out.push(format!(
            "admission fairness: kernel admissions out of FIFO order: {:?} [{repro}]",
            kv.admitted
        ));
    }
    if kv.crashed != spec.crashes as usize {
        out.push(format!(
            "only {} of {} crash epochs completed — the stream drained early [{repro}]",
            kv.crashed, spec.crashes
        ));
    }
    if let Some((live, queued)) = kv.first {
        if queued == 0 {
            out.push(format!(
                "first crash hit an empty admission queue — re-admission across the \
                 boundary was not exercised [{repro}]"
            ));
        }
        if live == 0 {
            out.push(format!(
                "first crash hit no live sessions — recovery under traffic was not \
                 exercised [{repro}]"
            ));
        }
    }
    for (r, v) in [(k, &kv), (l, &lv)] {
        for owed in r.owed() {
            out.push(format!("{}: {owed} [{repro}]", v.design));
        }
        if v.parity.iter().any(|lbl| lbl == "busy") {
            out.push(format!(
                "{}: a salvage retry budget was exhausted mid-stream [{repro}]",
                v.design
            ));
        }
    }
    out
}

/// One mode's sweep: the legacy baseline and the kernel under every
/// schedule, each run twice.
struct Sweep<R> {
    legacy: R,
    /// The kernel's FIFO run, which the per-epoch detail shows.
    fifo: R,
    /// The summary table, one row per run.
    table: String,
    violations: Vec<String>,
}

fn sweep<R: Mode>(base: &C1Spec) -> Sweep<R> {
    let legacy = (R::LEGACY)(base);
    let mut violations = legacy.view().violations.to_vec();
    if format!("{legacy:?}") != format!("{:?}", (R::LEGACY)(base)) {
        violations.push(format!(
            "legacy rerun diverged — not a pure function of the triple [{}]",
            repro::<R>(base, "legacy")
        ));
    }
    let mut table = format!("{}{}", R::HEADER, legacy.row());
    let mut fifo = None;
    for policy in POLICIES {
        let spec = C1Spec { policy, ..*base };
        let k = (R::KERNEL)(&spec);
        let k2 = (R::KERNEL)(&spec);
        violations.extend(k.view().violations.iter().cloned());
        violations.extend(cross_checks(&k, &k2, &legacy, &spec));
        table.push_str(&k.row());
        if policy == C1Policy::Fifo {
            fifo = Some(k);
        }
    }
    Sweep {
        legacy,
        fifo: fifo.expect("fifo policy is in the sweep"),
        table,
        violations,
    }
}

impl<R: Mode> Sweep<R> {
    /// Panics with the first violation, if any.
    fn settle(&self) {
        if let Some(bad) = self.violations.first() {
            panic!(
                "{} violation ({} total): {bad}\n\
                 (replay: rebuild the C1Spec from the bracketed seed/plan/schedule string; \
                 `mode=online` marks an S1 run)",
                R::ID,
                self.violations.len()
            );
        }
    }

    /// The self-check line and the footer both modes print.
    fn footer(&self, out: &mut String, sessions: usize) {
        out.push_str(&format!("\n  {}\n\n", self_check::<R>()));
        let labels = self.legacy.view().parity.len();
        let lines = [
            ("sessions scripted", sessions.to_string()),
            (R::EPOCHS, format!("{CRASHES} (per design and schedule)")),
            (
                "schedules swept",
                format!("{} (kernel) + inherent (legacy)", POLICIES.len()),
            ),
            (
                "parity labels compared",
                format!("{labels} (per schedule, {})", R::COMPARED),
            ),
            (
                "reruns byte-identical",
                "yes (every design and schedule)".into(),
            ),
            ("oracle violations", "0".into()),
        ];
        for (label, value) in lines {
            out.push_str(&format!("  {label:<31}: {value}\n"));
        }
    }
}

/// The deliberately broken run: the mode's planted cheat. The oracles
/// must catch it, the violations must carry the repro triple, and
/// replaying the triple must reproduce the identical violations.
fn self_check<R: Mode>() -> String {
    let mut spec = C1Spec::new(8, SEED, PLAN_SEED, 2, C1Policy::Fifo);
    spec.self_check = true;
    let broken = (R::KERNEL)(&spec);
    let found = broken.view().violations;
    let id = R::ID;
    assert!(
        !found.is_empty(),
        "{id} self-check: the planted cheat went uncaught"
    );
    assert!(
        found
            .iter()
            .any(|v| v.contains("seed=") && v.contains("plan=") && v.contains("schedule=")),
        "{id} self-check: violations lack the replayable repro string: {found:?}"
    );
    assert_eq!(
        found,
        (R::KERNEL)(&spec).view().violations,
        "{id} self-check: the repro triple did not replay to identical violations"
    );
    format!(
        "self-check: {} ({} violations, e.g. \"{}\"), and the repro triple replays identically",
        R::CAUGHT,
        found.len(),
        found[0]
    )
}

/// Runs the chaos composition with stop-the-world recovery at
/// `sessions` users and renders the report. `sessions` is floored at 8
/// so the composition always has an admission storm to recover.
///
/// # Panics
///
/// Panics on any oracle violation, printing the replayable
/// `seed=… plan=… schedule=…` string, and if the self-check's broken
/// recovery goes uncaught.
pub fn c1_chaos_composition(sessions: usize) -> String {
    let sessions = sessions.max(8);
    let base = C1Spec::new(sessions, SEED, PLAN_SEED, CRASHES, C1Policy::Fifo);
    let s = sweep::<C1Run>(&base);
    s.settle();
    let (fifo, legacy) = (&s.fifo, &s.legacy);
    let mut out = s.table.clone();
    out.push_str(
        "  (loadMcy = engine cycles summed over epochs; recovMcy = bootload+salvage+\n  \
         reconcile cycles summed over crashes; salv-p/salv-r = problems found and\n  \
         repairs made by the repairing salvage pass across all crash images)\n",
    );

    out.push_str("\n  per-epoch detail (kernel under fifo vs legacy inherent):\n");
    out.push_str(
        "  design  epoch    ops   Mcycles  live queued  crashed salv-p salv-r  recovMcy\n",
    );
    for r in [fifo, legacy] {
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
    s.footer(&mut out, sessions);

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
    let base = C1Spec::new(sessions, SEED, PLAN_SEED, CRASHES, C1Policy::Fifo);
    let mut s = sweep::<S1Run>(&base);
    // The stop-the-world baseline: same stream, same crash plan, C1's
    // recovery. Outcomes must be identical; the figures quantify what
    // the overlap bought.
    let kernel_c1 = run_kernel_c1(&base);
    let legacy_c1 = run_legacy_c1(&base);
    for (online, offline) in [(&s.fifo, &kernel_c1), (&s.legacy, &legacy_c1)] {
        let (design, repro) = (online.design, repro::<S1Run>(&base, online.design));
        s.violations.extend(offline.violations.iter().cloned());
        if let Some(i) = first_difference(&online.parity, &offline.parity) {
            s.violations.push(format!(
                "{design}: online salvage changed outcome at label {i} — online {:?}, \
                 stop-the-world {:?} [{repro}]",
                online.parity.get(i),
                offline.parity.get(i)
            ));
        }
        if online.admitted_order != offline.admitted_order {
            s.violations.push(format!(
                "{design}: online salvage changed the admission order [{repro}]"
            ));
        }
    }
    s.settle();
    let (fifo, legacy) = (&s.fifo, &s.legacy);
    let mut out = s.table.clone();
    out.push_str(
        "  (resumMcy = bootload-to-stream-resume cycles summed over crashes; released =\n  \
         directories claimed/repaired/released one at a time; overlap = ops completed\n  \
         while the salvager still held part of the hierarchy; blocked = ops that hit a\n  \
         SalvageBusy barrier at least once, blkKcy/op = mean kcycles such an op spent\n  \
         blocked; service-time percentiles include any barrier stalls)\n",
    );

    out.push_str("\n  availability vs the stop-the-world baseline (same stream, same crashes):\n");
    for (online, offline) in [(fifo, &kernel_c1), (legacy, &legacy_c1)] {
        let window: u64 = online.epochs.iter().map(|e| e.salvage_window).sum();
        let first_op: u64 = online.epochs.iter().map(|e| e.first_op_cycles).sum();
        let n = CRASHES as f64;
        out.push_str(&format!(
            "  {:<7} downtime/crash {:>9.3} -> {:>7.3} Mcy  salvage window {:>7.3} Mcy  \
             first op at {:>7.3} Mcy\n",
            online.design,
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
    out.push_str(
        "  design  epoch    ops   Mcycles  live queued  crashed released  overlap  blocked \
         retries  resumMcy\n",
    );
    for r in [fifo, legacy] {
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
    s.footer(&mut out, sessions);

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
