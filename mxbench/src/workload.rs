//! The four workloads: what one unit runs, how it is checked, and what
//! the benchmark records about it.
//!
//! A unit is one seed pushed through both designs. Units run as a closed
//! loop on one thread: the next unit starts when the previous one ends.
//! Every layer is timed from outside, around the benchmark's own calls into
//! `mx_load`'s public functions; nothing inside the simulator is touched.

use crate::probe::{self, Log, Watch};
use mx_hw::meter::{EdgeSet, MeterSnapshot};
use mx_hw::SplitMix64;
use mx_load::{
    run_kernel_c1, run_kernel_fleet, run_kernel_load, run_kernel_s1, run_legacy_c1,
    run_legacy_fleet, run_legacy_load, run_legacy_s1, session_script, C1Policy, C1Run, C1Spec,
    FleetRun, FleetSpec, Histogram, LoadRun, LoadSpec, S1Run, S1Spec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Users per unit on `steady`: the per-reference hot path dominates and
/// co-population costs stay small.
pub const STEADY_SESSIONS: usize = 256;
/// Users per unit on `crowd`: the M1 shard size, where directory, AST and
/// KST scans and admission sweeps grow superlinearly.
pub const CROWD_SESSIONS: usize = 1024;
/// The C1/S1 shape used by `recovery`.
pub const RECOVERY_SESSIONS: usize = 64;
pub const RECOVERY_CRASHES: u32 = 3;
/// `recovery` varies the crash-plan seed and keeps the script seed fixed:
/// varying the script seed breaks C1's cross-design parity on some seeds
/// (kernel reconcile meets `QuotaExceeded`), a correctness defect that a
/// throughput benchmark must not sample at random.
pub const RECOVERY_SCRIPT_SEED: u64 = 0xC1_1977;
pub const FLEET_MACHINES: usize = 4;
pub const FLEET_SESSIONS: usize = 256;

/// Shard count `LoadSpec::new` uses. A script's `abandon` flag does not
/// depend on it; the script oracle only reads that flag.
const LOAD_SHARDS: usize = 8;
/// Shard count of the tight-storage shape C1/S1 run.
const RECOVERY_SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Crowd,
    Recovery,
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Crowd,
        Workload::Recovery,
        Workload::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Crowd => "crowd",
            Workload::Recovery => "recovery",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Units the untimed warm-up runs, which `setup_s` times. One where a
    /// unit lasts 0.2 s or more; more where units are shorter, because the
    /// first tenth of a second of a cold process varies a lot from process
    /// to process on a shared host (README: "Set-up").
    pub fn warm_units(self) -> u64 {
        match self {
            Workload::Steady | Workload::Crowd => 1,
            Workload::Recovery => 4,
            Workload::Fleet => 2,
        }
    }

    /// Units every run completes, however short its time budget. The
    /// simulated (`sim_*`) figures are taken over exactly these, so the
    /// same seed gives the same figures on any host. Each count fits
    /// inside a 20-second budget, and keeps the figures' seed-to-seed
    /// spread under 1%.
    pub fn sim_units(self) -> u64 {
        match self {
            Workload::Steady => 40,
            Workload::Crowd => 4,
            Workload::Recovery => 40,
            Workload::Fleet => 80,
        }
    }

    fn tag(self) -> u64 {
        match self {
            Workload::Steady => 0x57EA_D000,
            Workload::Crowd => 0xC40_D000,
            Workload::Recovery => 0x4EC0_0000,
            Workload::Fleet => 0xF1EE_7000,
        }
    }
}

/// The seed of unit `unit` of a run seeded with `seed`: a pure function,
/// so a unit replays alone from `(workload, seed, unit)`. On `recovery`
/// it is the crash-plan seed.
pub fn unit_seed(seed: u64, workload: Workload, unit: u64) -> u64 {
    let base = SplitMix64::new(seed ^ workload.tag()).next_u64();
    SplitMix64::new(base ^ unit.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    Kernel,
    Legacy,
}

impl Design {
    pub const ALL: [Design; 2] = [Design::Kernel, Design::Legacy];

    pub fn name(self) -> &'static str {
        match self {
            Design::Kernel => "kernel",
            Design::Legacy => "legacy",
        }
    }
}

/// Which public entry point a call went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Load,
    C1,
    S1,
    Fleet,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Load => "load",
            Phase::C1 => "c1",
            Phase::S1 => "s1",
            Phase::Fleet => "fleet",
        }
    }
}

/// One design call: its host time and what it simulated.
#[derive(Debug, Clone)]
pub struct Call {
    pub design: Design,
    pub phase: Phase,
    /// Seconds since the run began.
    pub start_s: f64,
    pub host_s: f64,
    /// Simulated user operations completed.
    pub ops: u64,
    /// Simulated cycles those operations took (recovery included).
    pub op_cycles: u64,
    /// Every simulated cycle the call ran, world build included.
    pub clock_cycles: u64,
    /// Per-subsystem attribution, where the entry point reports it.
    pub meter: Option<MeterSnapshot>,
    pub edges: EdgeSet,
    /// Kernel load only: queued-wait total and the dispatches it spans.
    pub queue_delay: (u64, u64),
    pub event_queue_hwm: u64,
    pub queued_peak: u64,
    pub crashes: u64,
    pub recovery_cycles: u64,
    pub salvage_repairs: u64,
    pub blocked_ops: u64,
    pub retries: u64,
    pub frames_sent: u64,
    pub wall_cycles: u64,
    /// Traced runs: host seconds from the call's start to its first
    /// watched choice, the gaps between watched choices, and their count.
    pub first_choice_s: Option<f64>,
    pub gaps_ns: Vec<u64>,
    pub choices: u64,
}

impl Call {
    fn new(design: Design, phase: Phase, start: Instant, epoch: Instant, ops: u64) -> Call {
        Call {
            design,
            phase,
            start_s: (start - epoch).as_secs_f64(),
            host_s: start.elapsed().as_secs_f64(),
            ops,
            op_cycles: 0,
            clock_cycles: 0,
            meter: None,
            edges: EdgeSet::new(),
            queue_delay: (0, 0),
            event_queue_hwm: 0,
            queued_peak: 0,
            crashes: 0,
            recovery_cycles: 0,
            salvage_repairs: 0,
            blocked_ops: 0,
            retries: 0,
            frames_sent: 0,
            wall_cycles: 0,
            first_choice_s: None,
            gaps_ns: Vec::new(),
            choices: 0,
        }
    }

    #[cfg(test)]
    pub fn stub(design: Design, phase: Phase, ops: u64, host_s: f64) -> Call {
        let now = Instant::now();
        Call {
            host_s,
            ..Call::new(design, phase, now, now, ops)
        }
    }

    fn with_log(mut self, start: Instant, log: Option<Log>) -> Call {
        if let Some(log) = log {
            let log = log.take();
            self.first_choice_s = log.first.map(|t| (t - start).as_secs_f64());
            self.gaps_ns = log.gaps_ns;
            self.choices = log.choices;
        }
        self
    }
}

/// The benchmark's own work inside a unit: building the script oracle,
/// running the oracles, reading histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Own {
    Script,
    Oracle,
    Hist,
}

impl Own {
    pub const ALL: [Own; 3] = [Own::Script, Own::Oracle, Own::Hist];

    pub fn name(self) -> &'static str {
        match self {
            Own::Script => "script",
            Own::Oracle => "oracle",
            Own::Hist => "hist",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Seg {
    pub own: Own,
    pub start_s: f64,
    pub dur_s: f64,
}

/// Everything recorded about one unit.
#[derive(Debug, Clone)]
pub struct Unit {
    pub index: u64,
    pub seed: u64,
    pub start_s: f64,
    pub wall_s: f64,
    /// Empty when the unit panicked.
    pub calls: Vec<Call>,
    pub segs: Vec<Seg>,
    /// Oracle violations, parity breaks, and panics. Empty = correct.
    pub failures: Vec<String>,
    /// Byte-exact digest of the simulated outputs, when asked for.
    pub fingerprint: Option<String>,
    /// How many times slower than the reference host the host ran around
    /// this unit (`speed::slowdown_of`); 1 until the run measures it.
    pub slowdown: f64,
}

impl Unit {
    /// Raw host seconds measured during this unit, in reference seconds.
    pub fn ref_s(&self, host_s: f64) -> f64 {
        host_s / self.slowdown
    }

    pub fn own_s(&self, own: Own) -> f64 {
        self.segs
            .iter()
            .filter(|s| s.own == own)
            .map(|s| s.dur_s)
            .sum()
    }

    fn timed<T>(&mut self, own: Own, epoch: Instant, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.segs.push(Seg {
            own,
            start_s: (t - epoch).as_secs_f64(),
            dur_s: t.elapsed().as_secs_f64(),
        });
        out
    }
}

/// Runs unit `index` of `workload`. A panic anywhere inside is caught and
/// recorded as the unit's failure.
pub fn run_unit(
    workload: Workload,
    seed: u64,
    index: u64,
    traced: bool,
    fingerprint: bool,
    epoch: Instant,
) -> Unit {
    let useed = unit_seed(seed, workload, index);
    let start = Instant::now();
    let mut unit = Unit {
        index,
        seed: useed,
        start_s: (start - epoch).as_secs_f64(),
        wall_s: 0.0,
        calls: Vec::new(),
        segs: Vec::new(),
        failures: Vec::new(),
        fingerprint: None,
        slowdown: 1.0,
    };
    let body = catch_unwind(AssertUnwindSafe(|| match workload {
        Workload::Steady => load_unit(&mut unit, STEADY_SESSIONS, traced, fingerprint, epoch),
        Workload::Crowd => load_unit(&mut unit, CROWD_SESSIONS, traced, fingerprint, epoch),
        Workload::Recovery => recovery_unit(&mut unit, fingerprint, epoch),
        Workload::Fleet => fleet_unit(&mut unit, traced, fingerprint, epoch),
    }));
    if let Err(panic) = body {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        unit.calls.clear();
        unit.failures.push(format!("panic: {msg}"));
    }
    unit.wall_s = start.elapsed().as_secs_f64();
    unit
}

/// The fields every entry point's result shares, which the oracles all
/// workloads run read.
struct Outcome<'a> {
    name: &'static str,
    parity: &'a [String],
    violations: &'a [String],
    abandoned: usize,
    hist: &'a Histogram,
    ops: u64,
}

/// An [`Outcome`] view of any result type with the shared fields.
macro_rules! outcome {
    ($name:expr, $run:expr) => {
        Outcome {
            name: $name,
            parity: &$run.parity,
            violations: &$run.violations,
            abandoned: $run.abandoned,
            hist: &$run.hist,
            ops: $run.ops,
        }
    };
}

/// The oracles every workload runs on each result: it abandoned exactly
/// the sessions its scripts abandon, ended every scripted session once,
/// and recorded one histogram sample per op.
fn common_oracles(
    unit: &mut Unit,
    epoch: Instant,
    outcomes: &[Outcome],
    script_seed: u64,
    sessions: usize,
    shards: usize,
) {
    let abandoned = unit.timed(Own::Script, epoch, || {
        (0..sessions)
            .filter(|&i| session_script(script_seed, i, shards).abandon)
            .count()
    });
    for o in outcomes {
        if o.abandoned != abandoned {
            unit.failures.push(format!(
                "{}: {} sessions abandoned, the scripts abandon {abandoned}",
                o.name, o.abandoned
            ));
        }
        let ended = terminal_labels(o.parity);
        if ended != sessions {
            unit.failures.push(format!(
                "{}: {ended} sessions ended, {sessions} were scripted",
                o.name
            ));
        }
    }
    let hist = unit.timed(Own::Hist, epoch, || {
        outcomes
            .iter()
            .filter(|o| o.hist.samples() != o.ops)
            .map(|o| {
                format!(
                    "{}: histogram holds {} samples for {} ops",
                    o.name,
                    o.hist.samples(),
                    o.ops
                )
            })
            .collect::<Vec<_>>()
    });
    unit.failures.extend(hist);
}

/// Terminal labels (`out…` or `reap…`): one per session that ended.
fn terminal_labels(parity: &[String]) -> usize {
    parity
        .iter()
        .filter(|l| l.starts_with("out") || l.starts_with("reap"))
        .count()
}

/// First position where two label streams differ, if any.
fn label_diff(a: &[String], b: &[String]) -> Option<String> {
    if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
        return Some(format!("label {i}: '{}' vs '{}'", a[i], b[i]));
    }
    (a.len() != b.len()).then(|| format!("{} labels vs {}", a.len(), b.len()))
}

fn load_call(run: &LoadRun, design: Design, start: Instant, epoch: Instant) -> Call {
    let mut c = Call::new(design, Phase::Load, start, epoch, run.ops);
    c.op_cycles = run.cycles;
    c.clock_cycles = run.cycles + run.setup_cycles;
    c.meter = Some(run.meter);
    c.edges = run.edges.clone();
    c.queue_delay = run.queue_delay;
    c.event_queue_hwm = run.event_queue_hwm as u64;
    c.queued_peak = run.queued_peak as u64;
    c
}

fn load_unit(unit: &mut Unit, sessions: usize, traced: bool, fingerprint: bool, epoch: Instant) {
    let spec = LoadSpec::new(sessions, unit.seed);
    let (policy, log) = probe::install(traced, Watch::Dispatch).unzip();
    let t = Instant::now();
    let k = run_kernel_load(&spec, policy);
    unit.calls
        .push(load_call(&k, Design::Kernel, t, epoch).with_log(t, log));
    let t = Instant::now();
    let l = run_legacy_load(&spec);
    unit.calls.push(load_call(&l, Design::Legacy, t, epoch));

    let found = unit.timed(Own::Oracle, epoch, || LoadRun::check_pair(&k, &l));
    unit.failures.extend(found);
    let runs = [outcome!("kernel", k), outcome!("legacy", l)];
    common_oracles(unit, epoch, &runs, spec.seed, sessions, LOAD_SHARDS);
    if fingerprint {
        let digest = |r: &LoadRun| {
            format!(
                "{:?} {} {} {} {:?} {:?} {:?} {:?} {} {}",
                r.parity,
                r.cycles,
                r.setup_cycles,
                r.meter.to_json(),
                r.user_samples,
                r.hist,
                r.edges,
                r.queue_delay,
                r.event_queue_hwm,
                r.queued_peak
            )
        };
        unit.fingerprint = Some(format!("{}\n{}", digest(&k), digest(&l)));
    }
}

fn epoch_call(
    phase: Phase,
    design: Design,
    ops: u64,
    load_cycles: u64,
    recovery_cycles: u64,
    start: Instant,
    epoch: Instant,
) -> Call {
    let mut c = Call::new(design, phase, start, epoch, ops);
    c.op_cycles = load_cycles + recovery_cycles;
    c.clock_cycles = c.op_cycles;
    c.recovery_cycles = recovery_cycles;
    c
}

fn c1_call(run: &C1Run, design: Design, start: Instant, epoch: Instant) -> Call {
    let mut c = epoch_call(
        Phase::C1,
        design,
        run.ops,
        run.load_cycles,
        run.recovery_cycles,
        start,
        epoch,
    );
    c.edges = run.edges.clone();
    c.queued_peak = run.queued_peak as u64;
    c.crashes = run.epochs.iter().filter(|e| e.crashed).count() as u64;
    c.salvage_repairs = run.epochs.iter().map(|e| e.salvage_repairs as u64).sum();
    c
}

fn s1_call(run: &S1Run, design: Design, start: Instant, epoch: Instant) -> Call {
    let mut c = epoch_call(
        Phase::S1,
        design,
        run.ops,
        run.load_cycles,
        run.recovery_cycles,
        start,
        epoch,
    );
    c.edges = run.edges.clone();
    c.queued_peak = run.queued_peak as u64;
    c.crashes = run.epochs.iter().filter(|e| e.crashed).count() as u64;
    c.salvage_repairs = run.epochs.iter().map(|e| e.salvage_repairs as u64).sum();
    c.blocked_ops = run.epochs.iter().map(|e| e.blocked_ops).sum();
    c.retries = run.epochs.iter().map(|e| e.retries).sum();
    c
}

fn recovery_unit(unit: &mut Unit, fingerprint: bool, epoch: Instant) {
    let plan = unit.seed;
    let (s, n, crashes) = (RECOVERY_SCRIPT_SEED, RECOVERY_SESSIONS, RECOVERY_CRASHES);
    let c1 = C1Spec::new(n, s, plan, crashes, C1Policy::Fifo);
    let s1 = S1Spec::new(n, s, plan, crashes, C1Policy::Fifo);
    let t = Instant::now();
    let kc1 = run_kernel_c1(&c1);
    unit.calls.push(c1_call(&kc1, Design::Kernel, t, epoch));
    let t = Instant::now();
    let lc1 = run_legacy_c1(&c1);
    unit.calls.push(c1_call(&lc1, Design::Legacy, t, epoch));
    let t = Instant::now();
    let ks1 = run_kernel_s1(&s1);
    unit.calls.push(s1_call(&ks1, Design::Kernel, t, epoch));
    let t = Instant::now();
    let ls1 = run_legacy_s1(&s1);
    unit.calls.push(s1_call(&ls1, Design::Legacy, t, epoch));

    let runs = [
        outcome!("kernel c1", kc1),
        outcome!("legacy c1", lc1),
        outcome!("kernel s1", ks1),
        outcome!("legacy s1", ls1),
    ];
    let orders = [
        &kc1.admitted_order,
        &lc1.admitted_order,
        &ks1.admitted_order,
        &ls1.admitted_order,
    ];
    let found = unit.timed(Own::Oracle, epoch, || {
        let mut out = Vec::new();
        // Kernel C1 is the reference every other run must match.
        for (o, order) in runs.iter().zip(orders) {
            out.extend(o.violations.iter().map(|v| format!("{}: {v}", o.name)));
            if let Some(d) = label_diff(runs[0].parity, o.parity) {
                out.push(format!("parity: kernel c1 vs {}: {d}", o.name));
            }
            if order != orders[0] {
                out.push(format!("admission order: kernel c1 vs {} differ", o.name));
            }
        }
        out
    });
    unit.failures.extend(found);
    common_oracles(unit, epoch, &runs, s, n, RECOVERY_SHARDS);
    if fingerprint {
        unit.fingerprint = Some(format!(
            "{}{:?}\n{}{:?}\n{}{:?}\n{}{:?}",
            kc1.transcript(),
            kc1.edges,
            lc1.transcript(),
            lc1.edges,
            ks1.transcript(),
            ks1.edges,
            ls1.transcript(),
            ls1.edges
        ));
    }
}

fn fleet_call(run: &FleetRun, design: Design, start: Instant, epoch: Instant) -> Call {
    let mut c = Call::new(design, Phase::Fleet, start, epoch, run.ops);
    c.op_cycles = run.cycles;
    c.clock_cycles = run.cycles + run.setup_cycles;
    c.edges = run.edges.clone();
    c.queued_peak = run.queued_peak as u64;
    c.frames_sent = run.frames_sent;
    c.wall_cycles = run.wall_cycles;
    c
}

fn fleet_unit(unit: &mut Unit, traced: bool, fingerprint: bool, epoch: Instant) {
    let spec = FleetSpec::new(FLEET_MACHINES, FLEET_SESSIONS, unit.seed);
    let (policy, log) = probe::install(traced, Watch::Wire).unzip();
    let t = Instant::now();
    let k = run_kernel_fleet(&spec, policy);
    unit.calls
        .push(fleet_call(&k, Design::Kernel, t, epoch).with_log(t, log));
    let (policy, log) = probe::install(traced, Watch::Wire).unzip();
    let t = Instant::now();
    let l = run_legacy_fleet(&spec, policy);
    unit.calls
        .push(fleet_call(&l, Design::Legacy, t, epoch).with_log(t, log));

    let found = unit.timed(Own::Oracle, epoch, || {
        let mut out = Vec::new();
        for r in [&k, &l] {
            out.extend(
                r.violations
                    .iter()
                    .map(|v| format!("{} fleet: {v}", r.design)),
            );
            if r.frames_sent != r.frames_delivered + r.frames_dropped || r.frames_dropped != 0 {
                out.push(format!(
                    "{} fleet: {} frames sent, {} delivered, {} dropped",
                    r.design, r.frames_sent, r.frames_delivered, r.frames_dropped
                ));
            }
        }
        if let Some(d) = label_diff(&k.parity, &l.parity) {
            out.push(format!("parity: kernel vs legacy fleet: {d}"));
        }
        if k.queued_peak != l.queued_peak || k.admitted_order != l.admitted_order {
            out.push("admission: kernel and legacy fleets admitted differently".to_string());
        }
        out
    });
    unit.failures.extend(found);
    let runs = [outcome!("kernel fleet", k), outcome!("legacy fleet", l)];
    common_oracles(unit, epoch, &runs, spec.seed, FLEET_SESSIONS, LOAD_SHARDS);
    if fingerprint {
        let digest = |r: &FleetRun| {
            format!(
                "{:?} {} {} {:?} {} {} {} {:?} {:?} {:?}",
                r.parity,
                r.cycles,
                r.wall_cycles,
                r.per_machine_cycles,
                r.store_meter.to_json(),
                r.frames_sent,
                r.remote_ops,
                r.hist,
                r.edges,
                r.admitted_order
            )
        };
        unit.fingerprint = Some(format!("{}\n{}", digest(&k), digest(&l)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_expansion_is_pure() {
        for w in Workload::ALL {
            for u in 0..64 {
                assert_eq!(unit_seed(1977, w, u), unit_seed(1977, w, u));
            }
        }
    }

    #[test]
    fn seed_expansion_separates_units_seeds_and_workloads() {
        let mut seen = std::collections::HashSet::new();
        for w in Workload::ALL {
            for seed in [0, 1, 1977] {
                for u in 0..256 {
                    assert!(seen.insert(unit_seed(seed, w, u)), "{w:?} {seed} {u}");
                }
            }
        }
    }

    #[test]
    fn workload_names_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn label_diff_reports_the_first_difference_or_a_length_change() {
        let a: Vec<String> = ["n:ok", "w:ok", "out"].map(String::from).to_vec();
        let mut b = a.clone();
        assert_eq!(label_diff(&a, &b), None);
        b[1] = "w:quota".to_string();
        assert_eq!(
            label_diff(&a, &b),
            Some("label 1: 'w:ok' vs 'w:quota'".to_string())
        );
        assert_eq!(label_diff(&a, &a[..2]), Some("3 labels vs 2".to_string()));
    }
}
