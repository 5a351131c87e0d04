//! Continuous operation: the load engine segmented by crashes.
//!
//! The chaos composition (C1) runs one long logical stream — the same
//! stream [`crate::run_kernel_load`] executes uninterrupted — but cuts
//! it into *epochs*: every `ops_per_epoch` completed operations, power
//! fails mid-`sync_to_disk` with the final transfer torn or dropped, a
//! fresh system boots from the surviving disk image, the salvager
//! repairs and re-checks the hierarchy, the answering service re-admits
//! its surviving population, and the engine resumes the stream exactly
//! where it stopped. Both designs run the identical crash schedule, so
//! label-by-label parity remains the cross-design oracle even though
//! each design's recovery path is entirely its own.
//!
//! What recovery owes the population, precisely:
//!
//! * **Queued logins survive.** Parked admissions are user-domain
//!   bookkeeping; the crash costs them nothing but time. They are
//!   re-admitted in the original FIFO order as slots free up.
//! * **Live sessions are re-opened at their script positions.** The
//!   engine's `EngineState` — cursor, per-session op index, the
//!   values each session's file successfully grew by — survives the
//!   crash (it models the users at their terminals, who remember what
//!   they were doing). Each survivor logs in again and the harness
//!   restores the session's own file to its pre-crash logical contents
//!   before the stream continues.
//! * **The shared world is reconciled, not rebuilt.** Directories and
//!   segments that survived on disk are kept; whatever the torn write
//!   mangled is recreated or rewritten through the ordinary gates. The
//!   library's definitions and the shared segment's pages are rewritten
//!   unconditionally — cheap, idempotent, and independent of which
//!   epoch the crash hit.
//!
//! Every epoch boundary runs the oracle battery (meter conservation,
//! per-pack record conservation, wakeup exactness, salvage idempotence)
//! and every violation carries a replayable `seed=… plan=… schedule=…`
//! string. [`C1Spec::self_check`] deliberately breaks the recovery
//! obligations so a harness test can prove the oracles catch a cheat.
//!
//! C1 and S1 are one composition over one [`C1Spec`]; only the run
//! function called chooses the recovery mode. [`run_kernel_c1`] and
//! [`run_legacy_c1`] salvage stop-the-world before anyone logs in again;
//! [`run_kernel_s1`] and [`run_legacy_s1`] re-admit the population at
//! once and salvage one directory at a time under the resumed stream.

use crate::design::kernel::KernelDesign;
use crate::design::legacy::LegacyDesign;
use crate::design::{gate_retry, salvage_pass, salvage_step_checked, Design, Session};
use crate::hist::Histogram;
use crate::label;
use crate::run::build_world;
use crate::run::{
    account_name, drive_until, restore_file, setup, storm, Deferred, Driver, EngineState, Entry,
    LoadSpec, SalvageProbe, Single, WorldCtx, WorldPlan,
};
use crate::script::SessionScript;
use mx_explore::{PctPolicy, Rig, SeededRandomPolicy};
use mx_hw::meter::EdgeSet;
use mx_hw::{CrashWrite, Word};
use mx_sync::SchedulePolicy;

const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which schedule drives the kernel between crashes. The old supervisor
/// has no policy hooks; its one inherent schedule is the parity
/// baseline every kernel policy is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C1Policy {
    /// The kernel's default dispatch order (the pinned-figure baseline).
    Fifo,
    /// Uniformly random choice points from the given seed.
    Random(u64),
    /// Probabilistic concurrency testing from the given seed.
    Pct(u64),
}

impl C1Policy {
    /// The `schedule=` component of a repro string.
    pub fn descriptor(&self) -> String {
        match *self {
            C1Policy::Fifo => "fifo".to_string(),
            C1Policy::Random(s) => format!("random:{s:#x}"),
            C1Policy::Pct(s) => format!("pct:{s:#x}"),
        }
    }

    /// A fresh policy instance for the given epoch. Each epoch gets its
    /// own deterministic stream so a replay of (seed, plan, schedule)
    /// reproduces every epoch's choices exactly, independent of how
    /// many choice points earlier epochs consumed.
    fn make(&self, epoch: u64) -> Option<Box<dyn SchedulePolicy>> {
        let mixed = |s: u64| s ^ (epoch + 1).wrapping_mul(MIX);
        match *self {
            C1Policy::Fifo => None,
            C1Policy::Random(s) => Some(Box::new(SeededRandomPolicy::new(mixed(s)))),
            C1Policy::Pct(s) => Some(Box::new(PctPolicy::new(mixed(s)))),
        }
    }
}

/// One chaos-composition run: the population, the stream seed, the
/// fault-plan seed, how many crashes cut the stream, and the schedule.
/// C1 and S1 run the same spec.
#[derive(Debug, Clone, Copy)]
pub struct C1Spec {
    /// Scripted sessions (the `crates/load` population).
    pub sessions: usize,
    /// Seed the session scripts expand from.
    pub seed: u64,
    /// Seed of the crash-mode stream (torn word counts, drop choices).
    pub plan_seed: u64,
    /// Crash/salvage/re-admit boundaries cut into the stream.
    pub crashes: u32,
    /// Kernel schedule between crashes.
    pub policy: C1Policy,
    /// Plant this mode's cheat, so the violation paths can be proven
    /// live: a broken run must be *caught*, and the printed repro string
    /// must reproduce it. C1 drops the youngest queued login at the first
    /// recovery, breaking conservation of sessions (and, cross-design,
    /// label parity). S1 tears the root quota cell at the first crash and
    /// runs a salvager that releases each directory *before* repairing
    /// its cell, so the per-release recheck fails at the root's release.
    pub self_check: bool,
}

/// The online-salvage composition runs C1's spec: the same stream and
/// crash plan, recovered under the resumed stream.
pub type S1Spec = C1Spec;

impl C1Spec {
    /// An honest run.
    pub fn new(sessions: usize, seed: u64, plan_seed: u64, crashes: u32, policy: C1Policy) -> Self {
        Self {
            sessions,
            seed,
            plan_seed,
            crashes,
            policy,
            self_check: false,
        }
    }

    /// Completed operations per epoch. Two rounds of the population
    /// keeps every crash inside the live phase: the stream averages
    /// about ten ops per session, so `crashes` boundaries at multiples
    /// of `2×sessions` land well before the stream drains.
    pub fn ops_per_epoch(&self) -> u64 {
        2 * self.sessions as u64
    }

    /// The replayable identity of a run on `design`.
    pub fn repro(&self, design: &str) -> String {
        format!(
            "seed={:#x} plan={:#x} schedule={} sessions={} crashes={} design={design}",
            self.seed,
            self.plan_seed,
            self.policy.descriptor(),
            self.sessions,
            self.crashes
        )
    }
}

/// One epoch's figures. For the final (uncrashed) segment the salvage
/// and recovery fields are zero and `crashed` is false.
#[derive(Debug, Clone, Copy)]
pub struct EpochReport {
    /// Cumulative engine ops at the end of the epoch.
    pub ops: u64,
    /// Simulated cycles the epoch's load phase took.
    pub cycles: u64,
    /// Kernel only: queued-wait total and dispatch samples this epoch
    /// (the probes reset at every boundary). `(0, 0)` for legacy.
    pub queue_delay: (u64, u64),
    /// Kernel only: peak event-queue depth this epoch.
    pub event_queue_hwm: usize,
    /// Sessions live at the boundary (the population the crash hits).
    pub live_at_crash: usize,
    /// Logins parked at the boundary (what recovery must not lose).
    pub queued_at_crash: usize,
    /// Problems the repairing salvage pass found in the crash image.
    pub salvage_problems: usize,
    /// Repairs it performed.
    pub salvage_repairs: usize,
    /// Cycles from recovery bootload through reconciliation.
    pub recovery_cycles: u64,
    /// Whether this epoch ended in a crash (false only for the tail).
    pub crashed: bool,
}

/// Everything one design's chaos run produced.
#[derive(Debug, Clone)]
pub struct C1Run {
    /// `"kernel"` or `"legacy"`.
    pub design: &'static str,
    /// Schedule descriptor (`fifo`, `random:…`, `pct:…`, or the
    /// legacy supervisor's `inherent`).
    pub schedule: String,
    /// Total engine ops completed.
    pub ops: u64,
    /// Sessions abandoned (reaped) rather than logged out.
    pub abandoned: usize,
    /// Deepest the admission queue got.
    pub queued_peak: usize,
    /// The full user-visible label stream, across every epoch.
    pub parity: Vec<String>,
    /// `parity` index at each crash boundary — ops-positioned, so the
    /// bounds are identical across designs and schedules.
    pub epoch_bounds: Vec<usize>,
    /// Per-epoch figures (crashed epochs first, then the tail).
    pub epochs: Vec<EpochReport>,
    /// Post-storm admission order (the FIFO fairness record).
    pub admitted_order: Vec<usize>,
    /// Per-operation service-time histogram across the whole run.
    pub hist: Histogram,
    /// Load-phase cycles summed over epochs.
    pub load_cycles: u64,
    /// Recovery cycles summed over crashes.
    pub recovery_cycles: u64,
    /// Everything the oracles caught. Empty = clean. Every line embeds
    /// the replayable `seed=… plan=… schedule=…` string.
    pub violations: Vec<String>,
    /// Observed inter-subsystem edges merged across every epoch's
    /// machine — load, crash, salvage, and reconcile traffic included.
    /// Each crash boundary replaces the machine (and its clock), so the
    /// ledger is folded in before every replacement.
    pub edges: EdgeSet,
}

impl C1Run {
    /// The run's complete deterministic transcript: its `Debug` text.
    /// Two runs of the same `(seed, plan, schedule)` triple must produce
    /// byte-identical transcripts; the report treats any difference as a
    /// violation.
    pub fn transcript(&self) -> String {
        format!("{self:?}")
    }
}

// ----------------------------------------------------- online salvage --

/// One online-salvage epoch's figures. The salvage fields describe the
/// crash at the *end* of this epoch; they accumulate while the next
/// segment's traffic runs concurrently with the repair and are patched
/// in once the salvage drains.
#[derive(Debug, Clone, Copy, Default)]
pub struct S1EpochReport {
    /// Cumulative engine ops at the end of the epoch.
    pub ops: u64,
    /// Simulated cycles the epoch's load phase took.
    pub cycles: u64,
    /// Sessions live at the boundary (the population the crash hits).
    pub live_at_crash: usize,
    /// Logins parked at the boundary (what recovery must not lose).
    pub queued_at_crash: usize,
    /// Whether this epoch ended in a crash (false only for the tail).
    pub crashed: bool,
    /// Problems the online salvager found in the crash image.
    pub salvage_problems: usize,
    /// Repairs it performed.
    pub salvage_repairs: usize,
    /// Directories claimed, repaired, and released one at a time.
    pub dirs_released: u32,
    /// Engine ops completed while the salvager was still running — the
    /// overlap a stop-the-world salvage forbids by construction.
    pub overlap_ops: u64,
    /// Cycles from `begin_online_salvage` to the salvager's `Done`.
    pub salvage_window: u64,
    /// Ops that hit a `SalvageBusy` barrier at least once.
    pub blocked_ops: u64,
    /// Total barrier retries (each retry steps the salvager once).
    pub retries: u64,
    /// Cycles spent blocked behind barriers, summed over blocked ops.
    pub blocked_cycles: u64,
    /// Cycles from salvage begin to the first op completed after the
    /// stream resumed.
    pub first_op_cycles: u64,
    /// Cycles from recovery bootload to the stream resuming — the
    /// number to compare against C1's stop-the-world `recovery_cycles`,
    /// which additionally contains two full salvage passes.
    pub recovery_cycles: u64,
}

/// Everything one design's online-salvage run produced.
#[derive(Debug, Clone)]
pub struct S1Run {
    /// `"kernel"` or `"legacy"`.
    pub design: &'static str,
    /// Schedule descriptor (`fifo`, `random:…`, `pct:…`, `inherent`).
    pub schedule: String,
    /// Total engine ops completed.
    pub ops: u64,
    /// Sessions abandoned (reaped) rather than logged out.
    pub abandoned: usize,
    /// Deepest the admission queue got.
    pub queued_peak: usize,
    /// The full user-visible label stream, across every epoch.
    pub parity: Vec<String>,
    /// `parity` index at each crash boundary.
    pub epoch_bounds: Vec<usize>,
    /// Per-epoch figures (crashed epochs first, then the tail).
    pub epochs: Vec<S1EpochReport>,
    /// Post-storm admission order (the FIFO fairness record).
    pub admitted_order: Vec<usize>,
    /// Per-operation service-time histogram across the whole run —
    /// barrier stalls are *inside* the blocked ops' samples.
    pub hist: Histogram,
    /// Load-phase cycles summed over epochs.
    pub load_cycles: u64,
    /// Bootload-to-stream-resume cycles summed over crashes.
    pub recovery_cycles: u64,
    /// Everything the oracles caught. Empty = clean.
    pub violations: Vec<String>,
    /// Observed inter-subsystem edges merged across every epoch's
    /// machine (see [`C1Run::edges`]).
    pub edges: EdgeSet,
}

impl S1Run {
    /// The run's complete deterministic transcript (see
    /// [`C1Run::transcript`]).
    pub fn transcript(&self) -> String {
        format!("{self:?}")
    }
}

/// Harvests a drained salvage's figures into the report of the epoch
/// whose crash spawned it, and re-tags the probe's accumulated oracle
/// violations with that epoch and the replayable repro string.
fn patch_salvage_figures(
    report: &mut S1EpochReport,
    probe: &mut SalvageProbe,
    violations: &mut Vec<String>,
    tag: &str,
    repro: &str,
) {
    let Some(begin) = probe.begin_at else { return };
    report.salvage_problems = probe.problems;
    report.salvage_repairs = probe.repairs;
    report.dirs_released = probe.dirs_released;
    report.overlap_ops = probe.ops_overlapped;
    report.blocked_ops = probe.blocked_ops;
    report.retries = probe.retries;
    report.blocked_cycles = probe.blocked_cycles;
    match probe.done_at {
        Some(done) => report.salvage_window = done.saturating_sub(begin),
        None => violations.push(format!("{tag}: online salvage never completed [{repro}]")),
    }
    if let Some(first) = probe.first_op_at {
        report.first_op_cycles = first.saturating_sub(begin);
    }
    for v in probe.violations.drain(..) {
        violations.push(format!("{tag}: {v} [{repro}]"));
    }
}

// ---------------------------------------------------------- one loop --

/// How recovery repairs the hierarchy — the only difference between C1
/// and S1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SalvageMode {
    /// Two full salvage passes, then the population is re-admitted: C1
    /// wipes every file, then logs in and replays one survivor at a time.
    StopTheWorld,
    /// The population is re-admitted at once and the salvager repairs
    /// and releases one directory at a time underneath the resumed
    /// stream: S1 logs in every survivor first, then wipes and replays
    /// each shard as the salvager releases it.
    Online,
}

/// One epoch's figures, the union of what C1 and S1 report.
struct Epoch {
    r: S1EpochReport,
    queue_delay: (u64, u64),
    event_queue_hwm: usize,
}

/// What one chaos run produced, before it is shaped into a report.
struct Outcome {
    design: &'static str,
    schedule: String,
    st: EngineState,
    epochs: Vec<Epoch>,
    epoch_bounds: Vec<usize>,
    load_cycles: u64,
    recovery_cycles: u64,
    violations: Vec<String>,
    edges: EdgeSet,
    stranded: usize,
}

impl Outcome {
    /// The whole-run checks: nobody stranded in the admission queue, and
    /// one terminal label per scripted session.
    fn finish(mut self, sessions: usize, repro: &str) -> Self {
        let design = self.design;
        if self.stranded > 0 {
            self.violations.push(format!(
                "{design} final: {} logins stranded in the admission queue [{repro}]",
                self.stranded
            ));
        }
        let ends = self.st.parity.iter().filter(|l| l.terminal()).count();
        if ends != sessions {
            self.violations.push(format!(
                "{design} final: {ends} sessions reached a terminal label but {sessions} were \
                 scripted — recovery lost sessions [{repro}]"
            ));
        }
        self
    }
}

/// Installs epoch `epoch`'s schedule policy, where the design has hooks.
fn install_policy<D: Design>(d: &mut D, policy: C1Policy, epoch: u64) {
    if D::SCHEDULE_HOOKS {
        if let Some(p) = policy.make(epoch) {
            d.set_schedule_policy(p);
        }
    }
}

/// Runs any salvage still in flight to completion and applies whatever
/// shard repair work its releases unlocked. Called at epoch boundaries
/// so the boundary oracle battery (and the next crash) never race an
/// unfinished repair. With no salvage in flight it does nothing.
fn drain_salvage<D: Design>(d: &mut Single<D>) {
    let mut guard = 0u32;
    while d.d.online_salvage_active() {
        salvage_step_checked(&mut d.d, &mut d.salvage);
        guard += 1;
        if guard > 10_000 {
            d.salvage
                .violations
                .push("online salvage failed to terminate within 10000 steps".to_string());
            break;
        }
    }
    d.attempt_deferred();
}

/// Closes the segment that just ran: drains the online salvage (whose
/// figures belong to the epoch whose crash spawned it), runs the
/// boundary battery, and measures the segment. After the final segment
/// the live set is empty.
fn close_epoch<D: Design>(
    d: &mut Single<D>,
    out: &mut Outcome,
    tag: &str,
    repro: &str,
    base: u64,
) -> Epoch {
    drain_salvage(d);
    let prev = out.epochs.len();
    if let Some(last) = out.epochs.last_mut() {
        let tag = format!("{} epoch {} online salvage", D::Rig::NAME, prev - 1);
        patch_salvage_figures(
            &mut last.r,
            &mut d.salvage,
            &mut out.violations,
            &tag,
            repro,
        );
    }
    for v in d.d.rig().oracles() {
        out.violations.push(format!("{tag}: {v} [{repro}]"));
    }
    let now = d.now();
    out.load_cycles += now - base;
    let (queue_delay, event_queue_hwm) = d.d.load_probes();
    Epoch {
        r: S1EpochReport {
            ops: out.st.ops,
            cycles: now - base,
            live_at_crash: out.st.live.len(),
            queued_at_crash: d.d.queued(),
            ..S1EpochReport::default()
        },
        queue_delay,
        event_queue_hwm,
    }
}

/// What recovery rebuilt: the session table, the driver context, and
/// (online) the per-shard repair work parked behind the quarantine.
type Rebuilt<D> = (Vec<Option<Session<D>>>, WorldCtx, Vec<Deferred>);

/// Rebuilds the user world after a recovery bootload: reconciles the
/// shared world against whatever survived on disk, then re-opens every
/// surviving session at its script position. Stop-the-world, the
/// population's own files are wiped and each survivor's file replayed
/// to its exact pre-crash contents under the session's new process;
/// finished sessions already deleted theirs, and abandoned leftovers are
/// reclaimed (recovery's one permitted tidy-up — both designs do it
/// identically, so parity is unaffected). Online, the shards may still
/// be quarantined, so each shard's wipe and replays are parked in a
/// [`Deferred`] and applied the moment the salvager releases (or is
/// proven to have dropped) that shard — the stream resumes before the
/// hierarchy is fully repaired. A survivor reaped before its shard is
/// released keeps its file, as it would stop-the-world: the driver
/// process replays it.
fn reconcile<D: Design>(
    d: &mut D,
    mode: SalvageMode,
    load: &LoadSpec,
    scripts: &[SessionScript],
    st: &EngineState,
    old: &[Option<Session<D>>],
    probe: &mut SalvageProbe,
) -> Result<Rebuilt<D>, String> {
    let ctx = build_world(d, &WorldPlan::single(load), probe, true)?;
    let drv = ctx.drv;
    // `own` distinguishes create-succeeded (the file exists logically,
    // even with zero pages grown) from never-created — a difference
    // invisible in the label stream but load-bearing for replay.
    let had_own = |idx: usize| old[idx].as_ref().is_some_and(|o| o.own.is_some());
    let online = mode == SalvageMode::Online;
    if !online {
        for (idx, script) in scripts.iter().enumerate() {
            let _ = d.delete_file(drv, Entry::Shard(script.shard), idx);
        }
    }
    let mut sessions: Vec<Option<Session<D>>> = (0..load.sessions).map(|_| None).collect();
    for lv in &st.live {
        let idx = lv.idx;
        let pid = gate_retry(d, probe, format_args!("survivor u{idx} re-login"), |d| {
            d.login(&account_name(idx))
        })?;
        let mut s = Session::open(d, pid);
        if !online && had_own(idx) {
            let dir = Entry::Shard(scripts[idx].shard);
            let at = d
                .open_dir(pid, dir)
                .map_err(|e| format!("survivor u{idx} shard resolve: {e:?}"))?;
            s.own = Some(restore_file(d, pid, at, idx, &lv.grown_vals)?);
        }
        sessions[idx] = Some(s);
    }
    let deferred = if online {
        (0..load.shard_count())
            .map(|j| Deferred {
                shard: j,
                drv,
                quota: load.shard_quota_pages(),
                wipe: (0..load.sessions)
                    .filter(|idx| scripts[*idx].shard == j)
                    .collect(),
                restore: st
                    .live
                    .iter()
                    .filter(|lv| scripts[lv.idx].shard == j && had_own(lv.idx))
                    .map(|lv| (lv.idx, lv.grown_vals.clone(), scripts[lv.idx].abandon))
                    .collect(),
            })
            .collect()
    } else {
        Vec::new()
    };
    Ok((sessions, ctx, deferred))
}

/// The chaos composition on one design: the load stream cut into epochs
/// by mid-sync power failures, each followed by a recovery bootload, a
/// salvage in `mode`, reconciliation, and re-admission. The spec's
/// `self_check` plants `mode`'s cheat at the first recovery.
fn run_chaos<D: Design>(spec: &C1Spec, mode: SalvageMode, repro: &str) -> Outcome {
    let name = D::Rig::NAME;
    let cheat = spec.self_check;
    let load = LoadSpec::continuous(spec.sessions, spec.seed);
    let scripts = load.scripts();
    let mut out = Outcome {
        design: name,
        schedule: if D::SCHEDULE_HOOKS {
            spec.policy.descriptor()
        } else {
            "inherent".to_string()
        },
        st: EngineState::new(&scripts),
        epochs: Vec::new(),
        epoch_bounds: Vec::new(),
        load_cycles: 0,
        recovery_cycles: 0,
        violations: Vec::new(),
        // The edge ledger outlives the machine: each crash boundary
        // replaces the clock, so the ledger is folded in before every
        // replacement.
        edges: EdgeSet::new(),
        stranded: 0,
    };

    let (mut d, mut ctx) = setup::<D>(&load);
    // The durability point: everything the world build created is on
    // disk before the first crash can happen.
    d.d.rig_mut().sync_to_disk().expect("setup sync");
    d.d.reset_load_probes();
    install_policy(&mut d.d, spec.policy, 0);
    storm(&mut d, &scripts, &mut out.st);

    let mut epoch_base = d.now();
    let mut drained = false;
    for e in 0..u64::from(spec.crashes) {
        let stop = (e + 1) * spec.ops_per_epoch();
        drained = drive_until(&mut d, &scripts, &mut out.st, Some(stop));
        let tag = format!("{name} epoch {e}");
        let mut epoch = close_epoch(&mut d, &mut out, &tag, repro, epoch_base);
        if drained {
            out.epochs.push(epoch);
            break;
        }
        out.epoch_bounds.push(out.st.parity.len());

        // ---- the crash: beacon, arm, power fails mid-sync ----
        let shared = ctx
            .shared_segno
            .expect("one machine holds the shared segment");
        let beacon = Word::new(0xBEAC_0000 + e);
        if let Err(err) = d.d.rig_mut().write(ctx.drv, shared, 1, beacon) {
            out.violations
                .push(format!("{name} epoch {e}: beacon write: {err:?} [{repro}]"));
        }
        let sys = d.d.rig_mut();
        sys.machine_mut().faults.crash_after_further_writes(
            1,
            CrashWrite::seeded(spec.plan_seed ^ (e + 1).wrapping_mul(MIX)),
        );
        let sync = sys.sync_to_disk();
        out.edges.merge(sys.machine().clock.edge_set());
        if sync.is_ok() || sys.machine().faults.halted().is_none() {
            out.violations.push(format!(
                "{name} epoch {e}: crash plan failed to fire during sync [{repro}]"
            ));
            out.epochs.push(epoch);
            return out;
        }
        let pending_before = d.d.pending_names();
        let Single {
            d: old,
            sessions: old_sessions,
            ..
        } = d;

        // ---- recovery: bootload, salvage, reconcile ----
        let mut nd = match old.reboot(load.sizes()) {
            Ok(nd) => nd,
            Err(err) => {
                out.violations.push(format!(
                    "{name} epoch {e}: recovery bootload failed: {err:?} [{repro}]"
                ));
                out.epochs.push(epoch);
                return out;
            }
        };
        let mut probe = SalvageProbe::default();
        match mode {
            SalvageMode::StopTheWorld => {
                let mut pass = |repair| salvage_pass(nd.rig_mut().salvage(repair));
                match (pass(true), pass(false)) {
                    (Ok(repaired), Ok(check)) => {
                        epoch.r.salvage_problems = repaired.problems;
                        epoch.r.salvage_repairs = repaired.repairs;
                        if let Some(problems) = check.unclean {
                            out.violations.push(format!(
                                "{name} epoch {e}: salvage not idempotent — second pass sees \
                                 {problems:?} [{repro}]"
                            ));
                        }
                    }
                    (r, c) => out.violations.push(format!(
                        "{name} epoch {e}: salvage errored: {r:?} / {c:?} [{repro}]"
                    )),
                }
                for v in nd.rig().oracles() {
                    out.violations
                        .push(format!("{name} epoch {e} post-salvage: {v} [{repro}]"));
                }
            }
            SalvageMode::Online => {
                if let Err(msg) = nd.begin_online_salvage(e == 0 && cheat) {
                    out.violations
                        .push(format!("{name} epoch {e}: {msg} [{repro}]"));
                }
                probe.begin_at = Some(nd.rig().machine().clock.now());
            }
        }
        match reconcile(
            &mut nd,
            mode,
            &load,
            &scripts,
            &out.st,
            &old_sessions,
            &mut probe,
        ) {
            Ok((sessions, nctx, deferred)) => {
                if let Some(before) = pending_before {
                    let after = nd.pending_names().unwrap_or_default();
                    if after != before {
                        out.violations.push(format!(
                            "{name} epoch {e}: admission queue changed across recovery — \
                             {before:?} became {after:?} [{repro}]"
                        ));
                    }
                }
                ctx = nctx;
                d = Single {
                    d: nd,
                    sessions,
                    salvage: probe,
                    deferred,
                };
                // Apply at once whatever the reconcile's own salvager
                // stepping already released — a fresh stream op must
                // never see a released-but-unwiped shard.
                d.attempt_deferred();
                if e == 0 && cheat && mode == SalvageMode::StopTheWorld {
                    d.d.drop_youngest_queued();
                }
            }
            Err(msg) => {
                out.violations
                    .push(format!("{name} epoch {e}: reconcile: {msg} [{repro}]"));
                for v in probe.violations.drain(..) {
                    out.violations
                        .push(format!("{name} epoch {e} online salvage: {v} [{repro}]"));
                }
                out.epochs.push(epoch);
                return out;
            }
        }
        epoch.r.recovery_cycles = d.now();
        out.recovery_cycles += epoch.r.recovery_cycles;
        epoch.r.crashed = true;
        out.epochs.push(epoch);

        install_policy(&mut d.d, spec.policy, e + 1);
        // Recovery and reconciliation traffic must not leak into the
        // next epoch's figures.
        d.d.reset_load_probes();
        epoch_base = d.now();
    }

    if !drained {
        drive_until(&mut d, &scripts, &mut out.st, None);
        let tag = format!("{name} final");
        let epoch = close_epoch(&mut d, &mut out, &tag, repro, epoch_base);
        out.epochs.push(epoch);
    }
    out.edges.merge(d.d.rig().machine().clock.edge_set());
    out.stranded = d.d.queued();
    out
}

fn c1<D: Design>(spec: &C1Spec) -> C1Run {
    let repro = spec.repro(D::Rig::NAME);
    let o = run_chaos::<D>(spec, SalvageMode::StopTheWorld, &repro).finish(spec.sessions, &repro);
    C1Run {
        design: o.design,
        schedule: o.schedule,
        ops: o.st.ops,
        abandoned: o.st.abandoned,
        queued_peak: o.st.queued_peak,
        parity: label::render(&o.st.parity),
        epoch_bounds: o.epoch_bounds,
        epochs: o
            .epochs
            .iter()
            .map(|e| EpochReport {
                ops: e.r.ops,
                cycles: e.r.cycles,
                queue_delay: e.queue_delay,
                event_queue_hwm: e.event_queue_hwm,
                live_at_crash: e.r.live_at_crash,
                queued_at_crash: e.r.queued_at_crash,
                salvage_problems: e.r.salvage_problems,
                salvage_repairs: e.r.salvage_repairs,
                recovery_cycles: e.r.recovery_cycles,
                crashed: e.r.crashed,
            })
            .collect(),
        admitted_order: o.st.admitted_order,
        hist: o.st.hist,
        load_cycles: o.load_cycles,
        recovery_cycles: o.recovery_cycles,
        violations: o.violations,
        edges: o.edges,
    }
}

fn s1<D: Design>(spec: &S1Spec) -> S1Run {
    let repro = format!("{} mode=online", spec.repro(D::Rig::NAME));
    let o = run_chaos::<D>(spec, SalvageMode::Online, &repro).finish(spec.sessions, &repro);
    S1Run {
        design: o.design,
        schedule: o.schedule,
        ops: o.st.ops,
        abandoned: o.st.abandoned,
        queued_peak: o.st.queued_peak,
        parity: label::render(&o.st.parity),
        epoch_bounds: o.epoch_bounds,
        epochs: o.epochs.iter().map(|e| e.r).collect(),
        admitted_order: o.st.admitted_order,
        hist: o.st.hist,
        load_cycles: o.load_cycles,
        recovery_cycles: o.recovery_cycles,
        violations: o.violations,
        edges: o.edges,
    }
}

/// Runs the chaos composition (stop-the-world recovery) on the new
/// kernel.
pub fn run_kernel_c1(spec: &C1Spec) -> C1Run {
    c1::<KernelDesign>(spec)
}

/// Runs the chaos composition on the 1974 supervisor. Its one inherent
/// schedule is the baseline every kernel policy run is compared to.
pub fn run_legacy_c1(spec: &C1Spec) -> C1Run {
    c1::<LegacyDesign>(spec)
}

/// Runs the online-salvage composition on the new kernel: C1's crash
/// schedule, but every recovery re-admits the population immediately
/// and repairs the hierarchy one directory at a time underneath the
/// resumed stream.
pub fn run_kernel_s1(spec: &S1Spec) -> S1Run {
    s1::<KernelDesign>(spec)
}

/// Runs the online-salvage composition on the 1974 supervisor.
pub fn run_legacy_s1(spec: &S1Spec) -> S1Run {
    s1::<LegacyDesign>(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: C1Policy) -> C1Spec {
        C1Spec::new(8, 0xC1, 0xFA11, 2, policy)
    }

    #[test]
    fn kernel_chaos_run_is_clean_and_deterministic() {
        let spec = small(C1Policy::Fifo);
        let a = run_kernel_c1(&spec);
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(
            a.epochs.iter().filter(|e| e.crashed).count(),
            2,
            "both crashes fired"
        );
        let b = run_kernel_c1(&spec);
        assert_eq!(a.transcript(), b.transcript(), "byte-identical rerun");
    }

    #[test]
    fn legacy_chaos_run_is_clean_and_deterministic() {
        let spec = small(C1Policy::Fifo);
        let a = run_legacy_c1(&spec);
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(a.epochs.iter().filter(|e| e.crashed).count(), 2);
        let b = run_legacy_c1(&spec);
        assert_eq!(a.transcript(), b.transcript());
    }

    #[test]
    fn designs_agree_label_by_label_across_crashes() {
        let spec = small(C1Policy::Fifo);
        let k = run_kernel_c1(&spec);
        let l = run_legacy_c1(&spec);
        assert_eq!(k.parity, l.parity, "cross-design parity across crashes");
        assert_eq!(k.epoch_bounds, l.epoch_bounds, "ops-positioned bounds");
        assert_eq!(k.admitted_order, l.admitted_order, "FIFO fairness");
    }

    #[test]
    fn adversarial_schedules_preserve_parity() {
        let spec = small(C1Policy::Fifo);
        let l = run_legacy_c1(&spec);
        for policy in [C1Policy::Random(7), C1Policy::Pct(7)] {
            let k = run_kernel_c1(&C1Spec { policy, ..spec });
            assert_eq!(k.violations, Vec::<String>::new(), "{policy:?}");
            assert_eq!(k.parity, l.parity, "{policy:?} diverged from baseline");
            assert_eq!(k.admitted_order, l.admitted_order, "{policy:?} fairness");
        }
    }

    #[test]
    fn kernel_online_salvage_serves_during_repair() {
        let spec = small(C1Policy::Fifo);
        let a = run_kernel_s1(&spec);
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(a.epochs.iter().filter(|e| e.crashed).count(), 2);
        let released: u32 = a.epochs.iter().map(|e| e.dirs_released).sum();
        assert!(
            released > 0,
            "the salvager released directories one at a time"
        );
        let b = run_kernel_s1(&spec);
        assert_eq!(a.transcript(), b.transcript(), "byte-identical rerun");
    }

    #[test]
    fn legacy_online_salvage_serves_during_repair() {
        let spec = small(C1Policy::Fifo);
        let a = run_legacy_s1(&spec);
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(a.epochs.iter().filter(|e| e.crashed).count(), 2);
        let b = run_legacy_s1(&spec);
        assert_eq!(a.transcript(), b.transcript());
    }

    #[test]
    fn online_salvage_designs_agree_label_by_label() {
        let spec = small(C1Policy::Fifo);
        let k = run_kernel_s1(&spec);
        let l = run_legacy_s1(&spec);
        assert_eq!(
            k.parity, l.parity,
            "cross-design parity under online salvage"
        );
        assert_eq!(k.epoch_bounds, l.epoch_bounds);
        assert_eq!(k.admitted_order, l.admitted_order, "FIFO fairness");
    }

    #[test]
    fn online_salvage_matches_stop_the_world_labels() {
        // The stream's user-visible outcome must not depend on whether
        // recovery repaired everything up front or underneath traffic.
        let c1 = run_kernel_c1(&small(C1Policy::Fifo));
        let s1 = run_kernel_s1(&small(C1Policy::Fifo));
        assert_eq!(s1.parity, c1.parity, "online salvage changed an outcome");
        assert_eq!(s1.admitted_order, c1.admitted_order);
    }

    #[test]
    fn release_before_cell_repair_cheat_is_caught() {
        let mut spec = small(C1Policy::Fifo);
        spec.self_check = true;
        let broken = run_kernel_s1(&spec);
        assert!(
            !broken.violations.is_empty(),
            "the per-release battery must catch the cheat"
        );
        assert!(
            broken
                .violations
                .iter()
                .any(|v| v.contains("seed=") && v.contains("plan=") && v.contains("schedule=")),
            "violations must carry the replayable repro string: {:?}",
            broken.violations
        );
        let replay = run_kernel_s1(&spec);
        assert_eq!(broken.violations, replay.violations);
    }

    #[test]
    fn dropped_queued_login_is_caught_with_replayable_repro() {
        let mut spec = small(C1Policy::Fifo);
        spec.self_check = true;
        let broken = run_kernel_c1(&spec);
        assert!(
            !broken.violations.is_empty(),
            "the cheat must be caught by the oracles"
        );
        assert!(
            broken
                .violations
                .iter()
                .any(|v| v.contains("seed=") && v.contains("plan=") && v.contains("schedule=")),
            "violations must carry the replayable repro string: {:?}",
            broken.violations
        );
        // The printed triple replays to the identical violations.
        let replay = run_kernel_c1(&spec);
        assert_eq!(broken.violations, replay.violations);
    }
}
