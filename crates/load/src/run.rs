//! The load engine: one session stream, two designs, one report shape.
//!
//! The engine owns every scheduling-free decision — which session acts
//! next (round robin over the live set), when the scripted scheduler
//! pass happens (every fourth operation), when a finished session's
//! slot is re-offered to the admission queue — and delegates the rest
//! to a `Driver`: one machine running one design (`Single`), or a fleet
//! of them. Every driver is written once against the `Design` interface
//! (`design.rs`), so both designs execute the byte-identical logical
//! stream, which is what makes the user-visible parity assertion
//! meaningful.

use crate::design::kernel::KernelDesign;
use crate::design::legacy::LegacyDesign;
use crate::design::{gate_retry, salvage_step_checked, Design, Handle, Session};
use crate::hist::Histogram;
use crate::label::{self, Label, Op, Status};
use crate::script::{session_script, SessionOp, SessionScript, LIB_SYMBOLS, SHARED_PAGES};
use mx_explore::Rig;
use mx_hw::meter::{EdgeSet, MeterSnapshot};
use mx_hw::{BootConfig, Name, ProcessId, Word, PAGE_WORDS};
use mx_sync::SchedulePolicy;

const PW: u32 = PAGE_WORDS as u32;

/// What to run: how many sessions, from which seed, on what storage.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Concurrent users scripted (admission caps how many are live).
    pub sessions: usize,
    /// Seed every script expands from.
    pub seed: u64,
    /// Small packs and tight quotas, so grows hit past-quota and
    /// full-pack outcomes; the default sizes storage to the population
    /// and measures scheduling and paging instead.
    pub tight_storage: bool,
    /// With `tight_storage`: keep the tight shard quotas and the small
    /// process table, but give the packs room. The chaos-composition
    /// harness (C1) uses this shape: quota outcomes and admission
    /// pressure stay adversarial, while `AllPacksFull` — whose exact
    /// onset depends on each design's internal record allocations, which
    /// recovery legitimately perturbs — stays out of the user-visible
    /// stream. `>processes` also accumulates one state segment per login
    /// across recovery epochs, which the roomier root quota absorbs.
    pub(crate) headroom: bool,
}

impl LoadSpec {
    /// An ample-storage spec (the L1 scaling sweep shape).
    pub fn new(sessions: usize, seed: u64) -> Self {
        Self {
            sessions,
            seed,
            tight_storage: false,
            headroom: false,
        }
    }

    /// A tight-storage spec (the differential-fuzz shape).
    pub fn tight(sessions: usize, seed: u64) -> Self {
        Self {
            sessions,
            seed,
            tight_storage: true,
            headroom: false,
        }
    }

    /// The continuous-operation spec (the C1 chaos-composition shape):
    /// tight quotas and a small process table under a long-horizon run
    /// segmented by crashes, with enough pack room that storage survives
    /// several epochs of recovery traffic.
    pub fn continuous(sessions: usize, seed: u64) -> Self {
        Self {
            sessions,
            seed,
            tight_storage: true,
            headroom: true,
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        if self.tight_storage {
            2
        } else {
            8
        }
    }

    pub(crate) fn shard_quota_pages(&self) -> u32 {
        if self.tight_storage {
            3
        } else {
            // Roomy enough that abandoned sessions' surviving files never
            // starve a shard across the whole population.
            (self.sessions as u32).max(10)
        }
    }

    /// The configuration both designs boot with (two packs each).
    pub(crate) fn sizes(&self) -> BootConfig {
        if self.tight_storage {
            let (records_per_pack, toc_slots_per_pack, root_quota) = if self.headroom {
                (64, 96, 512)
            } else {
                (12, 24, 96)
            };
            BootConfig {
                frames: 96,
                records_per_pack,
                toc_slots_per_pack,
                max_processes: 4,
                root_quota,
                ..BootConfig::default()
            }
        } else {
            let n = self.sessions as u32;
            BootConfig {
                frames: 256,
                records_per_pack: (3 * n).max(1024),
                toc_slots_per_pack: (2 * n).max(256),
                max_processes: 16,
                root_quota: (2 * n + 256).max(1500),
                ..BootConfig::default()
            }
        }
    }

    /// The overflow pack this spec attaches after boot, if any, as
    /// `(records, toc_slots)`. Recovery re-attaches the same shape.
    pub(crate) fn overflow_pack(&self) -> Option<(u32, u32)> {
        if !self.tight_storage {
            None
        } else if self.headroom {
            // Room for several epochs of relocation targets plus the
            // state segments each recovery's re-logins accrete.
            Some((128, 96))
        } else {
            // A modest overflow pack: relocation has a target, but a
            // heavy seed can still fill everything — the full-pack
            // outcome.
            Some((48, 24))
        }
    }

    pub(crate) fn scripts(&self) -> Vec<SessionScript> {
        (0..self.sessions)
            .map(|i| session_script(self.seed, i, self.shard_count()))
            .collect()
    }
}

/// Everything one design's run of a [`LoadSpec`] produced.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// `"kernel"` or `"legacy"`.
    pub design: &'static str,
    /// Simulated cycles spent in the load phase (setup excluded).
    pub cycles: u64,
    /// Cycles the shared setup (world build, registration) took.
    pub setup_cycles: u64,
    /// Operations completed (the histogram's sample population).
    pub ops: u64,
    /// Sessions driven to completion (always the full population —
    /// queued logins are admitted as slots free up, never dropped).
    pub sessions: usize,
    /// Sessions that were abandoned and reaped rather than logged out.
    pub abandoned: usize,
    /// Deepest the admission queue got during the login storm.
    pub queued_peak: usize,
    /// The user-visible outcome labels, in execution order. Identical
    /// across designs for the same spec, or the harness has found a bug.
    pub parity: Vec<String>,
    /// Per-operation service-time histogram (cycles).
    pub hist: Histogram,
    /// User operations retired per real processor during the load phase.
    pub per_cpu_ops: Vec<u64>,
    /// Kernel only: total VP-switch intervals spent runnable-but-queued,
    /// and the dispatches that averages over. `(0, 0)` for legacy.
    pub queue_delay: (u64, u64),
    /// Kernel only: peak depth of the real-memory event queue.
    pub event_queue_hwm: usize,
    /// Per-subsystem cycle attribution over the load phase.
    pub meter: MeterSnapshot,
    /// Observed inter-subsystem edges (invocations and shared-data
    /// writes) over the load phase, for the lattice gate.
    pub edges: EdgeSet,
    /// Oracle battery results (meter conservation, per-pack record
    /// conservation, wakeup exactness, TLB closure). Empty = clean.
    pub violations: Vec<String>,
    /// Per-session latency samples in execution order, indexed by the
    /// session index the run was given. The sharded engine uses these to
    /// prove worker-count invariance sample-for-sample, not just in the
    /// bucketed histogram.
    pub user_samples: Vec<Vec<u64>>,
}

impl LoadRun {
    /// Operations retired per million simulated cycles.
    pub fn ops_per_mcycle(&self) -> f64 {
        self.ops as f64 * 1e6 / self.cycles.max(1) as f64
    }

    /// Sessions completed per million simulated cycles.
    pub fn sessions_per_mcycle(&self) -> f64 {
        self.sessions as f64 * 1e6 / self.cycles.max(1) as f64
    }

    /// The cross-design check: both runs' oracle batteries plus
    /// position-by-position user-visible parity. Empty = the designs
    /// agree and both conserved everything.
    pub fn check_pair(kernel: &LoadRun, legacy: &LoadRun) -> Vec<String> {
        let mut out = Vec::new();
        out.extend(kernel.violations.iter().map(|v| format!("kernel: {v}")));
        out.extend(legacy.violations.iter().map(|v| format!("legacy: {v}")));
        if kernel.parity.len() != legacy.parity.len() {
            out.push(format!(
                "parity: kernel emitted {} labels, legacy {}",
                kernel.parity.len(),
                legacy.parity.len()
            ));
        }
        for (i, (k, l)) in kernel.parity.iter().zip(legacy.parity.iter()).enumerate() {
            if k != l {
                out.push(format!(
                    "parity: label {i} differs — kernel '{k}', legacy '{l}'"
                ));
                break;
            }
        }
        out
    }
}

// --------------------------------------------------------- the engine --

/// A script op made concrete by the engine (page picks reduced against
/// the session's actual growth; paths left symbolic for the driver).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Action {
    Link(usize),
    Resolve(Entry),
    Grow { page: u32, val: u64 },
    ReadOwn { page: u32 },
    ReadShared { page: u32 },
}

/// A root entry the harness names: what a session resolves, and the
/// directories session files live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Entry {
    Lib,
    Shared,
    /// Quota-capped shard directory `s{j}`.
    Shard(usize),
    /// The fleet store's migration landing zone.
    Mig,
}

impl Entry {
    pub(crate) fn name(self) -> Name {
        match self {
            Entry::Lib => Name::new("lib"),
            Entry::Shared => Name::new("shared"),
            Entry::Shard(j) => Name::new("s").num(j as u64),
            Entry::Mig => Name::new("mig"),
        }
    }

    /// Its tree name: `>lib`, `>s3`.
    pub(crate) fn path(self) -> Name {
        Name::new(">").push(&self.name())
    }

    /// A directory: a shard or the migration zone.
    pub(crate) fn is_dir(self) -> bool {
        matches!(self, Entry::Shard(_) | Entry::Mig)
    }
}

/// What the engine drives: one machine, or a fleet behind one front
/// answering service.
pub(crate) trait Driver {
    fn now(&self) -> u64;
    fn queued(&self) -> usize;
    /// Login attempt for session `idx`: true = admitted, false = parked
    /// in the admission queue (slot exhaustion is never an error).
    fn request(&mut self, idx: usize) -> bool;
    /// Admits parked logins while slots last; returns their indices.
    fn admit(&mut self) -> Vec<usize>;
    fn exec(&mut self, idx: usize, shard: usize, action: &Action) -> Label;
    /// Ends the session: deletes its file (unless abandoned) and logs
    /// out (reaps, for abandoned sessions). Returns the parity label.
    fn finish(&mut self, idx: usize, shard: usize, abandon: bool) -> Label;
    fn schedule(&mut self);
    /// The periodic housekeeping sweep (both designs: deactivate every
    /// active segment, flushing dirty pages and quota cells). Neither
    /// activation table reclaims on demand — the old AST surfaces
    /// `AstFull`, the new page-table pool `TableFull` — so a long-lived
    /// system runs this sweep the way real installations ran theirs.
    fn housekeep(&mut self);
    /// Post-op hook: with an online salvage in progress the driver
    /// advances the repair one step and runs the per-release oracle
    /// battery, so the claim frontier drains concurrently with service.
    /// In ordinary runs it is a no-op.
    fn salvage_tick(&mut self) {}
}

pub(crate) struct Live {
    pub(crate) idx: usize,
    pub(crate) op_ix: usize,
    /// The values the session's own file has successfully grown by, in
    /// page order. `len()` is the classic grown count; keeping the
    /// values lets a recovery harness replay the file's exact contents
    /// when a crash loses the in-flight copy.
    pub(crate) grown_vals: Vec<u64>,
}

impl Live {
    fn fresh(idx: usize) -> Self {
        Self {
            idx,
            op_ix: 0,
            grown_vals: Vec::new(),
        }
    }
}

/// The engine's whole position in the logical stream. Persisting this
/// across a crash/recover boundary — while the driver underneath is torn
/// down and rebuilt — is what lets a segmented run execute the same
/// logical stream as an uninterrupted one.
pub(crate) struct EngineState {
    pub(crate) live: Vec<Live>,
    pub(crate) cursor: usize,
    pub(crate) finished: usize,
    pub(crate) ops: u64,
    pub(crate) queued_peak: usize,
    pub(crate) abandoned: usize,
    /// The outcome labels, in execution order; the run's result renders
    /// them.
    pub(crate) parity: Vec<Label>,
    pub(crate) hist: Histogram,
    /// Session indices in the order the admission queue released them
    /// (post-storm admissions only) — the fairness record.
    pub(crate) admitted_order: Vec<usize>,
    /// Latency samples per session index, each sized once for its
    /// script: one per scripted operation and one for the logout.
    pub(crate) user_samples: Vec<Vec<u64>>,
}

impl EngineState {
    pub(crate) fn new(scripts: &[SessionScript]) -> Self {
        Self {
            live: Vec::new(),
            cursor: 0,
            finished: 0,
            ops: 0,
            queued_peak: 0,
            abandoned: 0,
            parity: Vec::new(),
            hist: Histogram::new(),
            admitted_order: Vec::new(),
            user_samples: scripts
                .iter()
                .map(|s| Vec::with_capacity(s.ops.len() + 1))
                .collect(),
        }
    }

    /// Records one latency sample for session `idx` (and the histogram).
    fn sample(&mut self, idx: usize, delta: u64) {
        self.hist.record(delta);
        self.user_samples[idx].push(delta);
    }
}

/// The login storm: every user arrives before anyone acts.
pub(crate) fn storm<D: Driver>(d: &mut D, scripts: &[SessionScript], st: &mut EngineState) {
    for idx in 0..scripts.len() {
        if d.request(idx) {
            st.live.push(Live::fresh(idx));
        }
        st.queued_peak = st.queued_peak.max(d.queued());
    }
}

/// Advances the round-robin engine until the live set drains (returns
/// `true`) or the global op counter reaches `stop_at` (returns `false`,
/// leaving the state resumable). The traversal is exactly the classic
/// one: a cursor sweeps the live vector, wrapping to the front when it
/// falls off the end, so a paused-and-resumed run visits sessions in the
/// same order an uninterrupted run does.
pub(crate) fn drive_until<D: Driver>(
    d: &mut D,
    scripts: &[SessionScript],
    st: &mut EngineState,
    stop_at: Option<u64>,
) -> bool {
    loop {
        if st.live.is_empty() {
            return true;
        }
        if let Some(stop) = stop_at {
            if st.ops >= stop {
                return false;
            }
        }
        if st.cursor >= st.live.len() {
            st.cursor = 0;
        }
        let i = st.cursor;
        let (idx, op_ix, grown) = {
            let s = &st.live[i];
            (s.idx, s.op_ix, s.grown_vals.len() as u32)
        };
        let script = &scripts[idx];
        if op_ix < script.ops.len() {
            let action = match script.ops[op_ix] {
                SessionOp::Link(s) => Some(Action::Link(s)),
                SessionOp::Resolve(t) => Some(Action::Resolve(match t {
                    0 => Entry::Lib,
                    1 => Entry::Shared,
                    _ => Entry::Shard(script.shard),
                })),
                SessionOp::Grow(val) => Some(Action::Grow { page: grown, val }),
                SessionOp::ReadBack(r) if grown > 0 => Some(Action::ReadOwn { page: r % grown }),
                SessionOp::ReadBack(_) => None, // nothing grown yet: skip
                SessionOp::ReadShared(p) => Some(Action::ReadShared { page: p }),
            };
            if let Some(action) = action {
                let before = d.now();
                let label = d.exec(idx, script.shard, &action);
                let delta = d.now() - before;
                st.sample(idx, delta);
                if let Action::Grow { val, .. } = action {
                    if label == Label::GROWN {
                        st.live[i].grown_vals.push(val);
                    }
                }
                st.parity.push(label);
                st.ops += 1;
                if st.ops.is_multiple_of(4) {
                    d.schedule();
                }
                d.salvage_tick();
            }
            st.live[i].op_ix += 1;
            st.cursor += 1;
        } else {
            let before = d.now();
            let label = d.finish(idx, script.shard, script.abandon);
            let delta = d.now() - before;
            st.sample(idx, delta);
            st.parity.push(label);
            st.ops += 1;
            if script.abandon {
                st.abandoned += 1;
            }
            st.live.remove(i);
            st.finished += 1;
            if st.finished.is_multiple_of(12) {
                d.housekeep();
            }
            d.salvage_tick();
            // The freed slot goes to the head of the admission queue.
            for idx in d.admit() {
                st.admitted_order.push(idx);
                st.live.push(Live::fresh(idx));
            }
        }
    }
}

fn drive<D: Driver>(d: &mut D, scripts: &[SessionScript]) -> EngineState {
    let mut st = EngineState::new(scripts);
    storm(d, scripts, &mut st);
    drive_until(d, scripts, &mut st, None);
    st
}

// ----------------------------------------------------- shared fixtures --

/// The indices the name helpers are checked at: each edge of a digit
/// count, and the largest index.
#[cfg(test)]
pub(crate) const NAME_INDICES: [usize; 8] = [0, 9, 10, 99, 100, 1023, 100_000, usize::MAX];

pub(crate) fn account_name(idx: usize) -> Name {
    Name::new("u").num(idx as u64)
}

pub(crate) fn account_index(name: &str) -> usize {
    name.strip_prefix('u')
        .and_then(|s| s.parse().ok())
        .expect("load account names are u<idx>")
}

pub(crate) fn symbol(i: usize) -> Name {
    // Two digits at least, as `{i:02}` prints.
    let sym = Name::new(if i < 10 { "sym0" } else { "sym" });
    sym.num(i as u64)
}

pub(crate) fn definitions() -> Vec<(Name, u32)> {
    (0..LIB_SYMBOLS)
        .map(|i| (symbol(i), 64 + 8 * i as u32))
        .collect()
}

pub(crate) fn shared_word(page: u32) -> u64 {
    0x5EED + u64::from(page)
}

pub(crate) fn file_name(idx: usize) -> Name {
    Name::new("f").num(idx as u64)
}

// --------------------------------------------- online-salvage plumbing --

/// Each retry against a `SalvageBusy` barrier gives the salvager one
/// step, so the budget bounds how much repair work a single blocked
/// operation can be asked to wait out. The claim frontier is one
/// directory per step and the finalize tail one sweep per pack; 256
/// steps covers any world this harness builds many times over, so
/// exhaustion means the salvager stopped making progress — reported as
/// a typed violation and a `busy` label, never a hang or a panic.
pub(crate) const SALVAGE_RETRY_BUDGET: u32 = 256;

/// What the engine observed while serving traffic concurrently with an
/// online salvage: the overlap window, the blocked-op figures, and
/// every per-release oracle violation.
#[derive(Debug, Clone, Default)]
pub struct SalvageProbe {
    /// Clock reading when the runner started the online salvage.
    pub begin_at: Option<u64>,
    /// Clock reading when the salvager reported `Done`.
    pub done_at: Option<u64>,
    /// Clock reading when the first post-recovery op completed.
    pub first_op_at: Option<u64>,
    /// Ops completed while the salvage was still in progress.
    pub ops_overlapped: u64,
    /// Ops that hit a `SalvageBusy` barrier at least once.
    pub blocked_ops: u64,
    /// Barrier retries summed over all blocked ops.
    pub retries: u64,
    /// Cycles blocked ops spent from first attempt to completion.
    pub blocked_cycles: u64,
    /// Directories released while the engine drove (includes releases
    /// forced by blocked-op retries during reconciliation).
    pub dirs_released: u32,
    /// Problems in the completed salvage's report.
    pub problems: usize,
    /// Repairs in the completed salvage's report.
    pub repairs: usize,
    /// Per-release battery failures and salvage-path errors.
    pub violations: Vec<String>,
}

/// The serving-half storage check run at every directory release: every
/// record a TOC file map references must be allocated, and no record
/// may be claimed by two file maps. Leaked records — allocated but
/// unreferenced — are legal mid-salvage (the leak sweep runs last), so
/// this is deliberately weaker than the post-salvage full conservation
/// check.
pub(crate) fn check_serving_records(disks: &mx_hw::DiskSystem) -> Vec<String> {
    let mut out = Vec::new();
    for pack in disks.packs() {
        // One flag per record of the pack; a corrupt map's record numbers
        // past the pack's end go to `beyond`.
        let mut seen = vec![false; pack.capacity() as usize];
        let mut beyond = mx_hw::IdSet::default();
        for (toc, entry) in pack.entries() {
            for rec in entry.file_map.iter().flatten() {
                if pack.read_record(*rec).is_err() {
                    out.push(format!(
                        "pack {}: toc {} maps unallocated record {}",
                        pack.id.0, toc.0, rec.0
                    ));
                }
                let fresh = match seen.get_mut(rec.0 as usize) {
                    Some(flag) => !std::mem::replace(flag, true),
                    None => beyond.insert(rec.0),
                };
                if !fresh {
                    out.push(format!(
                        "pack {}: record {} claimed by two file maps",
                        pack.id.0, rec.0
                    ));
                }
            }
        }
    }
    out
}

// ----------------------------------------------------- the one driver --

/// Per-shard recovery work parked behind the online salvager's
/// quarantine: the wipe of the previous population's files and the
/// replay of surviving sessions' file contents wait until the shard
/// directory is released (or, if the crash cost the entry itself, until
/// it is recreated).
#[derive(Debug, Clone)]
pub(crate) struct Deferred {
    pub(crate) shard: usize,
    pub(crate) drv: ProcessId,
    pub(crate) quota: u32,
    pub(crate) wipe: Vec<usize>,
    /// Each survivor with a file: its index, the values its file grew
    /// by, and whether its script abandons the session.
    pub(crate) restore: Vec<(usize, Vec<u64>, bool)>,
}

/// One machine running one design under the engine.
pub(crate) struct Single<D: Design> {
    pub(crate) d: D,
    pub(crate) sessions: Vec<Option<Session<D>>>,
    pub(crate) salvage: SalvageProbe,
    pub(crate) deferred: Vec<Deferred>,
}

impl<D: Design> Single<D> {
    fn open(&mut self, idx: usize, pid: ProcessId) {
        self.sessions[idx] = Some(Session::open(&mut self.d, pid));
    }

    /// One salvager step (with the release battery) if a salvage is in
    /// progress, then whatever deferred shard work became serviceable.
    fn salvage_advance(&mut self) {
        if self.d.online_salvage_active() {
            salvage_step_checked(&mut self.d, &mut self.salvage);
        }
        self.attempt_deferred();
    }

    /// Runs every deferred per-shard work item whose directory is out
    /// of quarantine; items still barred stay parked for the next
    /// release.
    pub(crate) fn attempt_deferred(&mut self) {
        let mut i = 0;
        while i < self.deferred.len() {
            match self.try_deferred(i) {
                Ok(true) => {
                    self.deferred.remove(i);
                }
                Ok(false) => i += 1,
                Err(msg) => {
                    self.salvage.violations.push(msg);
                    self.deferred.remove(i);
                }
            }
        }
    }

    /// `Ok(true)` = the shard's wipe and restores ran to completion;
    /// `Ok(false)` = the shard is still quarantined.
    fn try_deferred(&mut self, i: usize) -> Result<bool, String> {
        let Deferred {
            shard, drv, quota, ..
        } = self.deferred[i];
        let dir = Entry::Shard(shard);
        let at = match self.d.probe_dir(drv, dir) {
            Err(e) if D::busy(&e) => return Ok(false),
            Ok(at) => at,
            Err(_) => {
                // The crash (or the salvager clearing a mangled entry)
                // cost us the shard directory itself: recreate and
                // re-cap it. A directory created through the gates is
                // born released, so the work below proceeds.
                let at = self
                    .d
                    .create(drv, dir)
                    .map_err(|e| format!("shard s{shard} recreate: {e:?}"))?;
                self.d
                    .set_quota(drv, dir, quota)
                    .map_err(|e| format!("shard s{shard} quota: {e:?}"))?;
                at
            }
        };
        let work = self.deferred[i].clone();
        for &idx in &work.wipe {
            let _ = self.d.delete_file(drv, dir, idx);
        }
        for (idx, vals, abandon) in &work.restore {
            // A survivor that ended before its shard was released never
            // touches its file again. A logout deleted the file, so the
            // wipe alone matches stop-the-world recovery; a reaped
            // session's file outlives it and still holds its pages
            // against the shard's quota, so the driver replays it.
            let pid = match &self.sessions[*idx] {
                Some(s) => s.pid,
                None if *abandon => drv,
                None => continue,
            };
            let segno = restore_file(&mut self.d, pid, at, *idx, vals)?;
            if let Some(s) = self.sessions[*idx].as_mut() {
                s.own = Some(segno);
            }
        }
        Ok(true)
    }

    /// Retries one attempt through `SalvageBusy` barriers (`once`
    /// returns `None`), stepping the salvager between attempts and
    /// recording the blocked-op figures. `None` = the retry budget ran
    /// out: a typed violation, never a hang.
    fn retry<T>(
        &mut self,
        what: impl FnOnce() -> String,
        mut once: impl FnMut(&mut D, &mut [Option<Session<D>>]) -> Option<T>,
    ) -> Option<T> {
        let start = self.now();
        let mut attempts = 0u32;
        loop {
            if let Some(done) = once(&mut self.d, &mut self.sessions) {
                if attempts > 0 {
                    self.salvage.blocked_cycles += self.now() - start;
                }
                return Some(done);
            }
            attempts += 1;
            if attempts == 1 {
                self.salvage.blocked_ops += 1;
            }
            if attempts > SALVAGE_RETRY_BUDGET {
                self.salvage.blocked_cycles += self.now() - start;
                self.salvage.violations.push(format!(
                    "salvage retry budget ({SALVAGE_RETRY_BUDGET}) exhausted {}",
                    what()
                ));
                return None;
            }
            self.salvage.retries += 1;
            self.salvage_advance();
        }
    }
}

/// Recreates session `idx`'s file in directory `at` and replays its
/// pages.
pub(crate) fn restore_file<D: Design>(
    d: &mut D,
    pid: ProcessId,
    at: Handle<D>,
    idx: usize,
    vals: &[u64],
) -> Result<u32, String> {
    let segno = d
        .rig_mut()
        .create_segment(pid, &at, &file_name(idx))
        .map_err(|e| format!("survivor u{idx} file recreate: {e:?}"))?;
    for (page, &val) in vals.iter().enumerate() {
        d.rig_mut()
            .write(pid, segno, page as u32 * PW, Word::new(val))
            .map_err(|e| format!("survivor u{idx} replay page {page}: {e:?}"))?;
    }
    Ok(segno)
}

/// One attempt at an action. `None` means a `SalvageBusy` barrier was
/// hit: the caller steps the salvager and retries. Every arm is
/// retry-idempotent — partial effects (a created file) are recorded on
/// the session before the barrier can fire.
pub(crate) fn exec_once<D: Design>(
    d: &mut D,
    s: &mut Session<D>,
    idx: usize,
    shard: usize,
    action: &Action,
) -> Option<Label> {
    let label = |op, e: &D::Error| Label::Status(op, Status::of_refusal(D::Rig::refusal(e)));
    let read = |r: Result<u64, D::Error>| match r {
        Ok(w) => Label::Value(Op::Read, w),
        Err(e) => label(Op::Read, &e),
    };
    Some(match *action {
        Action::Link(sym) => match d.link(s, sym) {
            Ok(offset) => Label::Value(Op::Link, u64::from(offset)),
            Err(e) if D::busy(&e) => return None,
            Err(e) => label(Op::Link, &e),
        },
        Action::Resolve(target) => match d.resolve(s, target) {
            Ok(()) => Label::Status(Op::Resolve, Status::Ok),
            Err(e) if D::busy(&e) => return None,
            Err(e) => label(Op::Resolve, &e),
        },
        Action::Grow { page, val } => {
            if s.own.is_none() {
                let dir = Entry::Shard(shard);
                match d
                    .open_dir(s.pid, dir)
                    .and_then(|at| d.rig_mut().create_segment(s.pid, &at, &file_name(idx)))
                {
                    Ok(segno) => s.own = Some(segno),
                    Err(e) if D::busy(&e) => return None,
                    Err(e) => return Some(label(Op::Write, &e)),
                }
            }
            let segno = s.own.expect("just created");
            match d.rig_mut().write(s.pid, segno, page * PW, Word::new(val)) {
                Ok(()) => Label::GROWN,
                Err(e) => label(Op::Write, &e),
            }
        }
        // A survivor whose file restoration is still deferred behind a
        // quarantined shard has grown pages but no segment yet: the op
        // is blocked until the shard's release replays the file.
        Action::ReadOwn { page } => read(d.read(s.pid, s.own?, page * PW, false)),
        Action::ReadShared { page } => {
            if s.shared_segno.is_none() {
                match d.initiate_shared(s) {
                    Ok(segno) => s.shared_segno = Some(segno),
                    Err(e) if D::busy(&e) => return None,
                    Err(e) => return Some(label(Op::Read, &e)),
                }
            }
            let segno = s.shared_segno.expect("just initiated");
            read(d.read(s.pid, segno, page * PW, false))
        }
    })
}

/// One attempt at ending a session: deletes its file (unless abandoned)
/// and logs out (reaps, for abandoned sessions); `None` = blocked on a
/// barrier. The delete clears `own` on success so a retry that blocks
/// later (at logout) never re-deletes.
pub(crate) fn end_once<D: Design>(
    d: &mut D,
    s: &mut Session<D>,
    idx: usize,
    shard: usize,
    abandon: bool,
) -> Option<Label> {
    let mut delete = Status::Ok;
    if !abandon && s.own.is_some() {
        match d.delete_file(s.pid, Entry::Shard(shard), idx) {
            Ok(()) => s.own = None,
            Err(e) if D::busy(&e) => return None,
            Err(_) => delete = Status::Err,
        }
    }
    logout_once(d, idx, s.pid, abandon, delete)
}

/// Logs `pid` out and labels the session's end: `reap` or `out`, with
/// the file delete's outcome and `:err` on a refused logout; `None` =
/// blocked on a barrier.
pub(crate) fn logout_once<D: Design>(
    d: &mut D,
    idx: usize,
    pid: ProcessId,
    reap: bool,
    delete: Status,
) -> Option<Label> {
    let logout = match d.logout(idx, pid) {
        Ok(()) => Status::Ok,
        Err(e) if D::busy(&e) => return None,
        Err(_) => Status::Err,
    };
    Some(Label::End {
        reap,
        delete,
        logout,
    })
}

impl<D: Design> Driver for Single<D> {
    fn now(&self) -> u64 {
        self.d.rig().machine().clock.now()
    }

    fn queued(&self) -> usize {
        self.d.queued()
    }

    fn request(&mut self, idx: usize) -> bool {
        let got = self.retry(
            || format!("logging in u{idx}"),
            |d, _| match d.login_or_queue(idx) {
                Err(e) if D::busy(&e) => None,
                got => Some(got),
            },
        );
        match got {
            Some(Ok(Some(pid))) => {
                self.open(idx, pid);
                true
            }
            Some(Ok(None)) | None => false,
            // Load accounts always authenticate; anything else is
            // reported through the probe, never a panic.
            Some(Err(e)) => {
                self.salvage
                    .violations
                    .push(format!("login u{idx} refused: {e:?}"));
                false
            }
        }
    }

    fn admit(&mut self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut attempts = 0u32;
        loop {
            let pass = self.d.admit_waiting();
            for (idx, pid) in pass.sessions {
                self.open(idx, pid);
                out.push(idx);
            }
            for (idx, e) in pass.refused {
                self.salvage
                    .violations
                    .push(format!("re-login u{idx} refused: {e:?}"));
            }
            let Some(idx) = pass.busy else {
                return out;
            };
            attempts += 1;
            if attempts > SALVAGE_RETRY_BUDGET {
                self.salvage.violations.push(format!(
                    "salvage retry budget ({SALVAGE_RETRY_BUDGET}) exhausted \
                     re-admitting u{idx}"
                ));
                return out;
            }
            self.salvage.retries += 1;
            self.salvage_advance();
        }
    }

    fn exec(&mut self, idx: usize, shard: usize, action: &Action) -> Label {
        self.retry(
            || format!("by session {idx} mid-script"),
            |d, ss| {
                exec_once(
                    d,
                    ss[idx].as_mut().expect("live session"),
                    idx,
                    shard,
                    action,
                )
            },
        )
        .unwrap_or(Label::Busy)
    }

    fn finish(&mut self, idx: usize, shard: usize, abandon: bool) -> Label {
        let label = self.retry(
            || format!("by session {idx} at logout"),
            |d, ss| {
                let s = ss[idx].as_mut().expect("live session");
                let label = end_once(d, s, idx, shard, abandon)?;
                ss[idx] = None;
                Some(label)
            },
        );
        label.unwrap_or(Label::Busy)
    }

    fn schedule(&mut self) {
        self.d.rig_mut().schedule();
    }

    fn housekeep(&mut self) {
        if let Err(e) = self.d.rig_mut().sync_to_disk() {
            panic!("{} housekeeping sweep: {e:?}", D::Rig::NAME);
        }
    }

    fn salvage_tick(&mut self) {
        if self.salvage.first_op_at.is_none() {
            self.salvage.first_op_at = Some(self.now());
        }
        if self.d.online_salvage_active() {
            self.salvage.ops_overlapped += 1;
            self.salvage_advance();
        } else if !self.deferred.is_empty() {
            self.attempt_deferred();
        }
    }
}

// -------------------------------------------------------------- world --

/// What one machine's world holds.
pub(crate) struct WorldPlan {
    /// The library and the shared segment live here.
    pub(crate) store: bool,
    /// Quota of the migration landing zone, if this machine has one.
    pub(crate) mig_quota: Option<u32>,
    /// Quota-capped shard directories kept here.
    pub(crate) shards: Vec<usize>,
    pub(crate) shard_quota: u32,
    /// Sessions whose accounts are registered here.
    pub(crate) accounts: Vec<usize>,
}

impl WorldPlan {
    /// The whole world on one machine.
    pub(crate) fn single(spec: &LoadSpec) -> Self {
        Self {
            store: true,
            mig_quota: None,
            shards: (0..spec.shard_count()).collect(),
            shard_quota: spec.shard_quota_pages(),
            accounts: (0..spec.sessions).collect(),
        }
    }
}

/// The operator-side handles a harness keeps after world setup: the
/// driver account's process and its window onto the shared segment (on
/// the machine that holds it). Plain load runs discard this; the
/// recovery harness uses it to write its epoch beacon.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorldCtx {
    pub(crate) drv: ProcessId,
    pub(crate) shared_segno: Option<u32>,
}

/// Finds (after a crash) or creates root entry `entry`.
fn find_or_create<D: Design>(
    d: &mut D,
    probe: &mut SalvageProbe,
    drv: ProcessId,
    entry: Entry,
    recover: bool,
) -> Result<Handle<D>, String> {
    let name = entry.name();
    if recover {
        if let Ok(h) = gate_retry(d, probe, format_args!("{name} search"), |d| {
            d.search(drv, entry)
        }) {
            return Ok(h);
        }
    }
    gate_retry(d, probe, format_args!("{name} recreate"), |d| {
        d.create(drv, entry)
    })
}

/// Builds the world a load executes against: driver account and login,
/// published library, shared segment, quota-capped directories, and the
/// session accounts. With `recover`, reconciles it after a crash
/// instead: the accounts (in-core, therefore lost) are registered
/// first, whatever survived on disk is kept, only what vanished is
/// recreated, and the library and shared pages are rewritten
/// unconditionally — cheap, idempotent, and repairs a torn page. A
/// surviving shard keeps its salvaged quota cell: neither design's
/// set-quota call is idempotent. Every gate call retries through
/// `SalvageBusy`, so this also runs against a live online salvager.
pub(crate) fn build_world<D: Design>(
    d: &mut D,
    plan: &WorldPlan,
    probe: &mut SalvageProbe,
    recover: bool,
) -> Result<WorldCtx, String> {
    let accounts = |d: &mut D| {
        plan.accounts
            .iter()
            .for_each(|&i| d.register(&account_name(i)))
    };
    d.register("drv");
    if recover {
        accounts(d);
    }
    let drv = gate_retry(d, probe, "driver re-login", |d| d.login("drv"))?;
    let mut shared_segno = None;
    if plan.store {
        let lib = find_or_create(d, probe, drv, Entry::Lib, recover)?;
        d.publish(drv, lib, probe)?;
        let shared = find_or_create(d, probe, drv, Entry::Shared, recover)?;
        let segno = gate_retry(d, probe, "shared initiate", |d| {
            d.rig_mut().initiate(drv, &shared)
        })?;
        for page in 0..SHARED_PAGES {
            gate_retry(d, probe, format_args!("shared page {page}"), |d| {
                let word = Word::new(shared_word(page));
                d.rig_mut().write(drv, segno, page * PW, word)
            })?;
        }
        shared_segno = Some(segno);
    }
    let shards = plan
        .shards
        .iter()
        .map(|&j| (Entry::Shard(j), plan.shard_quota));
    for (dir, quota) in plan
        .mig_quota
        .map(|q| (Entry::Mig, q))
        .into_iter()
        .chain(shards)
    {
        if let Entry::Shard(j) = dir {
            if recover && d.shard_survives(drv, j, probe) {
                continue;
            }
        }
        find_or_create(d, probe, drv, dir, false)?;
        gate_retry(d, probe, format_args!("{} quota", dir.name()), |d| {
            d.set_quota(drv, dir, quota)
        })?;
    }
    if !recover {
        accounts(d);
    }
    Ok(WorldCtx { drv, shared_segno })
}

// ------------------------------------------------------------ run fns --

/// Boots a design and builds the one-machine world for `spec`.
pub(crate) fn setup<D: Design>(spec: &LoadSpec) -> (Single<D>, WorldCtx) {
    let mut d = D::boot(spec.sizes());
    if let Some((records, toc_slots)) = spec.overflow_pack() {
        d.rig_mut().machine_mut().disks.attach(records, toc_slots);
    }
    let ctx = build_world(
        &mut d,
        &WorldPlan::single(spec),
        &mut SalvageProbe::default(),
        false,
    )
    .unwrap_or_else(|e| panic!("{} world setup: {e}", D::Rig::NAME));
    let sessions = (0..spec.sessions).map(|_| None).collect();
    let driver = Single {
        d,
        sessions,
        salvage: SalvageProbe::default(),
        deferred: Vec::new(),
    };
    (driver, ctx)
}

/// Runs `spec` on one design with the scripts supplied by the caller:
/// the sharded engine partitions one global population and hands each
/// shard machine the scripts of its members (local indices, global
/// scripts), which is what keeps the merged stream independent of
/// worker count. An optional schedule policy is installed *after*
/// setup, exactly as the schedule explorer does, so every policy
/// explores from the same initial state.
pub(crate) fn run_load<D: Design>(
    spec: &LoadSpec,
    scripts: &[SessionScript],
    policy: Option<Box<dyn SchedulePolicy>>,
) -> LoadRun {
    assert_eq!(scripts.len(), spec.sessions, "one script per session");
    let (mut driver, _ctx) = setup::<D>(spec);

    let m = driver.d.rig().machine();
    let setup_cycles = m.clock.now();
    let ops_base = m.ops_retired();
    let meter_base = m.clock.meter_snapshot();
    let edge_base = m.clock.edge_snapshot();
    if let Some(p) = policy {
        driver.d.set_schedule_policy(p);
    }

    let out = drive(&mut driver, scripts);
    let d = driver.d;
    let m = d.rig().machine();
    let per_cpu_ops: Vec<u64> = m
        .ops_retired()
        .iter()
        .zip(ops_base.iter())
        .map(|(now, base)| now - base)
        .collect();
    let (queue_delay, event_queue_hwm) = d.load_probes();
    LoadRun {
        design: D::Rig::NAME,
        cycles: m.clock.now() - setup_cycles,
        setup_cycles,
        ops: out.ops,
        sessions: spec.sessions,
        abandoned: out.abandoned,
        queued_peak: out.queued_peak,
        parity: label::render(&out.parity),
        hist: out.hist,
        per_cpu_ops,
        queue_delay,
        event_queue_hwm,
        meter: meter_base.delta(&m.clock.meter_snapshot()),
        edges: edge_base.delta(m.clock.edge_set()),
        violations: d.rig().oracles(),
        user_samples: out.user_samples,
    }
}

/// Runs the spec on the new kernel design under an optional schedule
/// policy.
pub fn run_kernel_load(spec: &LoadSpec, policy: Option<Box<dyn SchedulePolicy>>) -> LoadRun {
    run_load::<KernelDesign>(spec, &spec.scripts(), policy)
}

/// Runs the spec on the 1974 supervisor. Its scheduler has no policy
/// hooks: one inherent schedule per spec.
pub fn run_legacy_load(spec: &LoadSpec) -> LoadRun {
    run_load::<LegacyDesign>(spec, &spec.scripts(), None)
}

/// Runs the spec through both designs under their baseline schedules.
pub fn run_both(spec: &LoadSpec) -> (LoadRun, LoadRun) {
    (run_kernel_load(spec, None), run_legacy_load(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_deterministic() {
        let spec = LoadSpec::new(6, 42);
        let a = run_kernel_load(&spec, None);
        let b = run_kernel_load(&spec, None);
        assert_eq!(a.parity, b.parity);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.hist, b.hist);
        assert_eq!(a.per_cpu_ops, b.per_cpu_ops);
        let la = run_legacy_load(&spec);
        let lb = run_legacy_load(&spec);
        assert_eq!(la.parity, lb.parity);
        assert_eq!(la.cycles, lb.cycles);
    }

    #[test]
    fn small_population_reaches_user_visible_parity() {
        let spec = LoadSpec::new(8, 7);
        let (k, l) = run_both(&spec);
        let problems = LoadRun::check_pair(&k, &l);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(k.sessions, 8);
        assert!(k.ops > 8, "sessions executed scripted work");
    }

    #[test]
    fn tight_storage_surfaces_quota_and_parity_holds() {
        // Across a few seeds, tight storage must provoke at least one
        // past-quota write somewhere, and parity must survive it.
        let mut saw_quota = false;
        for seed in 0..4 {
            let spec = LoadSpec::tight(6, seed);
            let (k, l) = run_both(&spec);
            let problems = LoadRun::check_pair(&k, &l);
            assert!(problems.is_empty(), "seed {seed}: {problems:?}");
            saw_quota |= k.parity.iter().any(|p| p == "w:quota");
        }
        assert!(saw_quota, "tight quotas never bit");
    }

    #[test]
    fn login_storm_queues_and_everyone_eventually_runs() {
        // Tight config has max_processes 4; the driver holds one slot,
        // so 8 users cannot all be live at once.
        let spec = LoadSpec::tight(8, 3);
        let (k, l) = run_both(&spec);
        assert!(k.queued_peak > 0, "storm exceeded the slots");
        assert_eq!(k.queued_peak, l.queued_peak, "same admission pressure");
        let problems = LoadRun::check_pair(&k, &l);
        assert!(problems.is_empty(), "{problems:?}");
        // Everyone ran to completion: one terminal label per session.
        let ends = k
            .parity
            .iter()
            .filter(|p| p.as_str() == "out" || p.as_str() == "reap")
            .count();
        assert_eq!(ends, 8);
    }

    #[test]
    fn both_cpus_retire_user_work() {
        let spec = LoadSpec::new(8, 11);
        let (k, l) = run_both(&spec);
        assert_eq!(k.per_cpu_ops.len(), 2);
        assert!(
            k.per_cpu_ops.iter().all(|&c| c > 0),
            "kernel left a CPU idle: {:?}",
            k.per_cpu_ops
        );
        assert!(
            l.per_cpu_ops.iter().all(|&c| c > 0),
            "legacy left a CPU idle: {:?}",
            l.per_cpu_ops
        );
    }

    #[test]
    fn queue_delay_and_meters_are_populated() {
        let spec = LoadSpec::new(8, 5);
        let k = run_kernel_load(&spec, None);
        let (wait, samples) = k.queue_delay;
        assert!(samples > 0, "dispatches happened");
        let _ = wait; // may be zero under light load; just well-defined
        assert!(k.meter.total() > 0, "load phase attributed cycles");
        assert!(k.hist.samples() == k.ops);
        assert!(k.ops_per_mcycle() > 0.0);
    }

    #[test]
    fn every_name_helper_prints_what_format_printed() {
        for i in NAME_INDICES {
            assert_eq!(&*account_name(i), format!("u{i}"));
            assert_eq!(account_index(&account_name(i)), i);
            assert_eq!(&*file_name(i), format!("f{i}"));
            assert_eq!(&*Entry::Shard(i).name(), format!("s{i}"));
            assert_eq!(account_name(i).to_string(), format!("u{i}"));
        }
        for i in (0..=LIB_SYMBOLS).chain([100]) {
            assert_eq!(&*symbol(i), format!("sym{i:02}"));
        }
        for (entry, text) in [
            (Entry::Lib, "lib"),
            (Entry::Shared, "shared"),
            (Entry::Mig, "mig"),
        ] {
            assert_eq!(&*entry.name(), text);
        }
        let defs = definitions();
        assert_eq!(defs.len(), LIB_SYMBOLS);
        assert_eq!((&*defs[3].0, defs[3].1), ("sym03", 88));
    }

    #[test]
    fn the_serving_record_check_names_every_bad_and_shared_record() {
        use mx_hw::{DiskSystem, RecordNo};
        let mut disks = DiskSystem::new();
        let id = disks.attach(8, 4);
        let pack = disks.pack_mut(id).unwrap();
        let (a, b) = (pack.create_entry(1).unwrap(), pack.create_entry(2).unwrap());
        let (r0, r1) = (
            pack.allocate_record().unwrap(),
            pack.allocate_record().unwrap(),
        );
        // Record 5 is free, 9 and 99 are past the pack's end; r1, 9 and 99
        // are named twice.
        let maps = [
            (a, vec![Some(r0), None, Some(r1), Some(RecordNo(9))]),
            (b, vec![Some(r1), Some(RecordNo(5)), Some(RecordNo(9))]),
            (b, vec![Some(RecordNo(99)), Some(RecordNo(99))]),
        ];
        for (toc, map) in maps {
            pack.entry_mut(toc).unwrap().file_map.extend(map);
        }
        let p = id.0;
        assert_eq!(
            check_serving_records(&disks),
            vec![
                format!("pack {p}: toc 0 maps unallocated record 9"),
                format!("pack {p}: record 1 claimed by two file maps"),
                format!("pack {p}: toc 1 maps unallocated record 5"),
                format!("pack {p}: toc 1 maps unallocated record 9"),
                format!("pack {p}: record 9 claimed by two file maps"),
                format!("pack {p}: toc 1 maps unallocated record 99"),
                format!("pack {p}: toc 1 maps unallocated record 99"),
                format!("pack {p}: record 99 claimed by two file maps"),
            ]
        );
    }
}
