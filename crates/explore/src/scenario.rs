//! Driven concurrency scenarios, runnable on both designs.
//!
//! A scenario is a *pure function of its seed*: the seed expands into a
//! fixed list of `Op`s before anything executes, and both the kernel
//! and the 1974 supervisor then execute that same logical list. The
//! schedule policy only reorders the kernel's internal dispatch and
//! wakeup-drain decisions — so the **parity labels** (outcomes of the
//! write/read operations a user can observe) must be identical across
//! every schedule *and* across both designs. Everything a run needs to
//! be reproduced is the `(scenario, seed, schedule)` triple.

use crate::oracle;
use crate::policies::{schedule_string, Recorder};
use crate::rig::{Res, Rig};
use mx_hw::meter::EdgeSet;
use mx_hw::{BootConfig, ProcessId, SplitMix64, Word, PAGE_WORDS};
use mx_kernel::vproc::VpId;
use mx_kernel::Kernel;
use mx_legacy::Supervisor;
use mx_sync::SchedulePolicy;

const PW: u32 = PAGE_WORDS as u32;

/// The paper-relevant concurrency scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Pure eventcount handoff on the VP manager alone: one producer
    /// advances, three consumers park at staggered thresholds and take
    /// sequencer tickets when woken. Small enough for exhaustive DFS.
    Handoff,
    /// [`ScenarioKind::Handoff`] driven through a deliberately broken
    /// wakeup that drops the last woken waiter — the injected violation
    /// the oracles must catch (and replay from the seed/schedule alone).
    HandoffLossy,
    /// S3's upward-signal path under competition: two segments growing
    /// across small packs force relocations and upward signals while
    /// the scheduler interleaves.
    Signals,
    /// Quota growth races: two segments under one 4-page quota cell;
    /// exactly the storm of `tests/signals.rs`, under arbitrary
    /// schedules.
    Quota,
    /// Page faults racing the idle-priority purifier in a cramped
    /// frame pool.
    Purifier,
    /// TLB invalidation broadcast (deactivation sweeps) racing
    /// concurrent translations with the associative memory on.
    Tlb,
}

impl ScenarioKind {
    /// The scenarios `repro --only x1` sweeps (the lossy variant is a
    /// self-check, not part of the sweep).
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::Handoff,
        ScenarioKind::Signals,
        ScenarioKind::Quota,
        ScenarioKind::Purifier,
        ScenarioKind::Tlb,
    ];

    /// Short stable name (used in reports and replay strings).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Handoff => "handoff",
            ScenarioKind::HandoffLossy => "handoff-lossy",
            ScenarioKind::Signals => "signals",
            ScenarioKind::Quota => "quota",
            ScenarioKind::Purifier => "purifier",
            ScenarioKind::Tlb => "tlb",
        }
    }

    /// Parses a [`ScenarioKind::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "handoff" => Some(ScenarioKind::Handoff),
            "handoff-lossy" => Some(ScenarioKind::HandoffLossy),
            "signals" => Some(ScenarioKind::Signals),
            "quota" => Some(ScenarioKind::Quota),
            "purifier" => Some(ScenarioKind::Purifier),
            "tlb" => Some(ScenarioKind::Tlb),
            _ => None,
        }
    }

    /// Whether the old design can execute this scenario's op list (the
    /// handoff scenarios exercise the eventcount substrate the 1974
    /// supervisor does not have).
    pub fn has_legacy(self) -> bool {
        !matches!(self, ScenarioKind::Handoff | ScenarioKind::HandoffLossy)
    }
}

/// One logical driver operation. The op list is precomputed from the
/// seed, so both designs execute the identical sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Write `val` to the first word of `page` in segment `seg`.
    Write { seg: usize, page: u32, val: u64 },
    /// Read the first word of `page` in segment `seg`.
    Read { seg: usize, page: u32 },
    /// One scheduler pass (kernel `schedule()`, legacy `dispatch()`).
    Schedule,
    /// Up to `usize` purifier steps (kernel only; legacy has none).
    Purify(usize),
    /// Advance the scenario eventcount (kernel only).
    Advance,
    /// Clean-shutdown sweep: deactivate everything, flush, persist.
    Sync,
}

/// Expands `(kind, seed)` into the fixed op list.
fn ops(kind: ScenarioKind, seed: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00 ^ (kind.name().len() as u64) << 32);
    let mut v = Vec::new();
    let mut written: Vec<(usize, u32)> = Vec::new();
    let push_read = |v: &mut Vec<Op>, rng: &mut SplitMix64, written: &[(usize, u32)]| {
        if let Some(&(seg, page)) = written.get(rng.range_usize(0, written.len().max(1))) {
            v.push(Op::Read { seg, page });
        }
    };
    match kind {
        ScenarioKind::Handoff | ScenarioKind::HandoffLossy => {
            // The handoff scenario is driven structurally, not by ops.
        }
        ScenarioKind::Signals => {
            for i in 0..24 {
                match rng.range_u32(0, 10) {
                    0..=5 => {
                        let seg = rng.range_usize(0, 2);
                        let page = rng.range_u32(0, 10);
                        let val = rng.range_u64(1, 1 << 30);
                        v.push(Op::Write { seg, page, val });
                        written.push((seg, page));
                    }
                    6..=7 => push_read(&mut v, &mut rng, &written),
                    _ => v.push(Op::Schedule),
                }
                if i == 7 || i == 15 {
                    v.push(Op::Advance);
                }
            }
        }
        ScenarioKind::Quota => {
            // Two growers race for one 4-page cell: page numbers advance
            // per segment so every accepted write costs a fresh page.
            let mut next_page = [0u32; 2];
            for i in 0..14 {
                let seg = rng.range_usize(0, 2);
                let page = next_page[seg];
                next_page[seg] += 1;
                let val = rng.range_u64(1, 1 << 30);
                v.push(Op::Write { seg, page, val });
                if rng.chance(1, 3) {
                    v.push(Op::Schedule);
                }
                if i == 6 {
                    v.push(Op::Advance);
                }
            }
        }
        ScenarioKind::Purifier => {
            for i in 0..28 {
                match rng.range_u32(0, 10) {
                    0..=5 => {
                        let page = rng.range_u32(0, 16);
                        let val = rng.range_u64(1, 1 << 30);
                        v.push(Op::Write { seg: 0, page, val });
                        written.push((0, page));
                    }
                    6..=7 => push_read(&mut v, &mut rng, &written),
                    8 => v.push(Op::Purify(1 + rng.range_usize(0, 3))),
                    _ => v.push(Op::Schedule),
                }
                if i == 9 || i == 19 {
                    v.push(Op::Advance);
                }
            }
        }
        ScenarioKind::Tlb => {
            for i in 0..30 {
                match rng.range_u32(0, 10) {
                    0..=4 => {
                        let seg = rng.range_usize(0, 2);
                        let page = rng.range_u32(0, 6);
                        let val = rng.range_u64(1, 1 << 30);
                        v.push(Op::Write { seg, page, val });
                        written.push((seg, page));
                    }
                    5..=8 => push_read(&mut v, &mut rng, &written),
                    _ => v.push(Op::Schedule),
                }
                // The invalidation broadcast mid-stream: everything is
                // deactivated while later ops re-translate.
                if i == 10 {
                    v.push(Op::Sync);
                }
                if i == 20 {
                    v.push(Op::Advance);
                }
            }
        }
    }
    if kind.has_legacy() {
        v.push(Op::Sync);
        // A deterministic read-back tail over everything written, so
        // the parity labels cover final contents, not just op results.
        written.sort_unstable();
        written.dedup();
        for (seg, page) in written {
            v.push(Op::Read { seg, page });
        }
    }
    v
}

/// Everything one explored schedule produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which scenario ran.
    pub kind: ScenarioKind,
    /// The seed the op list was expanded from.
    pub seed: u64,
    /// The recorded schedule string (replayable; `-` under pure FIFO).
    pub schedule: String,
    /// Every label the run emitted (scheduling-sensitive).
    pub outcome: Vec<String>,
    /// The user-visible subset: write/read results. Must be identical
    /// across schedules and across designs.
    pub parity: Vec<String>,
    /// FNV-1a hash of `outcome` — the distinct-schedule-outcome key.
    pub fingerprint: u64,
    /// Oracle violations (empty = the schedule passed).
    pub violations: Vec<String>,
    /// Observed inter-subsystem edges over the whole scenario run.
    pub edges: EdgeSet,
}

/// FNV-1a over the label list.
fn fingerprint(labels: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in labels {
        for b in l.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An op's label: `prefix:` then the result, an error showing as the
/// shared refusal's name, else as the error itself.
fn shown<R: Rig, T: ToString>(prefix: &str, result: Res<T, R>) -> String {
    let shown = match result {
        Ok(v) => v.to_string(),
        Err(e) => R::refusal(&e).map_or_else(|| format!("err:{e:?}"), String::from),
    };
    format!("{prefix}:{shown}")
}

/// Runs `kind` at `seed` on the kernel under `policy`, returning the
/// full report. Pass [`mx_sync::FifoPolicy`] for the baseline schedule.
pub fn run_kernel(kind: ScenarioKind, seed: u64, policy: Box<dyn SchedulePolicy>) -> RunReport {
    match kind {
        ScenarioKind::Handoff => run_handoff(seed, policy, false),
        ScenarioKind::HandoffLossy => run_handoff(seed, policy, true),
        _ => run_kernel_ops(kind, seed, policy),
    }
}

/// The configuration `kind` boots both designs with, and the roomy pack
/// it attaches after boot, if any, as `(records, toc_slots)`.
fn boot_config(kind: ScenarioKind) -> (BootConfig, Option<(u32, u32)>) {
    match kind {
        // A roomy third pack so relocation always has a target.
        ScenarioKind::Signals => (
            BootConfig {
                packs: 2,
                records_per_pack: 8,
                toc_slots_per_pack: 16,
                root_quota: 128,
                ..BootConfig::default()
            },
            Some((128, 32)),
        ),
        ScenarioKind::Quota => (
            BootConfig {
                frames: 128,
                packs: 2,
                records_per_pack: 64,
                toc_slots_per_pack: 24,
                pt_slots: 24,
                max_processes: 4,
                root_quota: 500,
            },
            Some((64, 32)),
        ),
        ScenarioKind::Purifier => (
            BootConfig {
                frames: 48,
                records_per_pack: 256,
                toc_slots_per_pack: 64,
                pt_slots: 16,
                max_processes: 4,
                root_quota: 500,
                ..BootConfig::default()
            },
            None,
        ),
        ScenarioKind::Tlb => (
            BootConfig {
                frames: 128,
                records_per_pack: 256,
                toc_slots_per_pack: 64,
                root_quota: 500,
                ..BootConfig::default()
            },
            None,
        ),
        ScenarioKind::Handoff | ScenarioKind::HandoffLossy => unreachable!("structural scenario"),
    }
}

/// Builds `kind`'s world on `R`: its configuration and pack, a process
/// for user 1 and a second one so the scheduler has something to
/// rotate, and the two segments the op list addresses (under a 4-page
/// quota directory for the quota race). Returns the system, the first
/// process and the segment numbers.
fn world<R: Rig>(kind: ScenarioKind) -> (R, ProcessId, Vec<u32>) {
    let (config, pack) = boot_config(kind);
    let mut sys = R::boot(config);
    if let Some((records, toc_slots)) = pack {
        sys.machine().disks.attach(records, toc_slots);
    }
    let pid = sys.login("x");
    sys.spawn();
    let mut parent = sys.root_dir();
    if kind == ScenarioKind::Quota {
        parent = sys.create(pid, &parent, "capped", true).expect("quota dir");
        sys.set_quota(pid, &parent, 4).expect("set quota");
    }
    let segnos = ["ga", "gb"]
        .iter()
        .map(|name| sys.create_segment(pid, &parent, name).expect("segment"))
        .collect();
    (sys, pid, segnos)
}

/// Executes `plan` on `sys` as `pid` and returns every label and the
/// user-visible subset. `extra` runs the ops only the kernel has
/// (`Purify`, `Advance`) and returns their label, or `None` to skip.
fn drive<R: Rig>(
    sys: &mut R,
    pid: ProcessId,
    segnos: &[u32],
    plan: &[Op],
    mut extra: impl FnMut(&mut R, Op) -> Option<String>,
) -> (Vec<String>, Vec<String>) {
    let mut outcome = Vec::new();
    let mut parity = Vec::new();
    for &op in plan {
        let (label, visible) = match op {
            Op::Write { seg, page, val } => {
                let done = sys.write(pid, segnos[seg], page * PW, Word::new(val));
                (shown::<R, _>("w", done.map(|()| "ok")), true)
            }
            Op::Read { seg, page } => {
                let got = sys.read(pid, segnos[seg], page * PW);
                (shown::<R, _>("r", got.map(|w| w.raw())), true)
            }
            // Which process lands where is schedule-sensitive: it
            // belongs in the outcome, never in the parity labels.
            Op::Schedule => {
                let who = sys.schedule().unwrap_or_else(|| "idle".into());
                (format!("s:{who}"), false)
            }
            Op::Sync => {
                sys.sync_to_disk().expect("sync");
                ("y".to_string(), false)
            }
            Op::Purify(_) | Op::Advance => match extra(sys, op) {
                Some(label) => (label, false),
                None => continue,
            },
        };
        if visible {
            parity.push(label.clone());
        }
        outcome.push(label);
    }
    (outcome, parity)
}

fn run_kernel_ops(kind: ScenarioKind, seed: u64, policy: Box<dyn SchedulePolicy>) -> RunReport {
    let (mut k, pid, segnos) = world::<Kernel>(kind);

    // Two spare user VPs parked on the scenario eventcount: the later
    // `Advance` op becomes an arity-2 wakeup-drain choice point.
    let ec = k.ec_create();
    let spare = [VpId(4), VpId(5)];
    for vp in spare {
        k.vpm.await_value(vp, ec, 1);
    }

    // Only now install the recording policy: boot and setup always run
    // the historical FIFO order, so every schedule explores the same
    // initial state.
    let (rec, trace) = Recorder::new(policy);
    k.set_schedule_policy(Box::new(rec));

    let (outcome, parity) = drive(&mut k, pid, &segnos, &ops(kind, seed), |k, op| {
        Some(match op {
            Op::Purify(steps) => format!("p:{}", k.run_purifier(steps).expect("purifier")),
            _ => shown::<Kernel, _>("a", k.ec_advance(ec)),
        })
    });

    let mut violations = k.oracles();
    // The parked spares must have been woken (wakeup exactness end-to-end).
    for vp in spare {
        if k.vpm.state(vp) == mx_kernel::vproc::VpState::Waiting {
            violations.push(format!("spare {vp:?} never woke from the scenario advance"));
        }
    }
    let schedule = schedule_string(&trace.borrow());
    let edges = k.machine.clock.edge_snapshot();
    finish(kind, seed, schedule, outcome, parity, violations, edges)
}

/// Runs the legacy counterpart of `kind` at `seed`. The old design has
/// no schedule hooks — this is the single FIFO baseline whose parity
/// labels every kernel schedule must match.
///
/// # Panics
///
/// Panics for the handoff scenarios ([`ScenarioKind::has_legacy`]).
pub fn run_legacy(kind: ScenarioKind, seed: u64) -> RunReport {
    assert!(kind.has_legacy(), "no legacy counterpart for {kind:?}");
    let (mut sup, pid, segnos) = world::<Supervisor>(kind);
    // The old design has no purifier and no eventcounts.
    let (outcome, parity) = drive(&mut sup, pid, &segnos, &ops(kind, seed), |_, _| None);
    let violations = sup.oracles();
    let edges = sup.machine.clock.edge_snapshot();
    finish(
        kind,
        seed,
        "-".to_string(),
        outcome,
        parity,
        violations,
        edges,
    )
}

/// The structural handoff scenario on a bare VP manager: VP 0 produces
/// two advances; VPs 1 and 2 park at threshold 1, VP 3 at threshold 2;
/// each consumer takes one sequencer ticket when it runs and then parks
/// out of the game. Every wakeup and every dispatch among the woken is
/// a choice point, and the whole tree is a few hundred schedules —
/// ideal for exhaustive DFS.
fn run_handoff(seed: u64, policy: Box<dyn SchedulePolicy>, lossy: bool) -> RunReport {
    use mx_kernel::core_segment::CoreSegmentManager;
    use mx_kernel::vproc::{VirtualProcessorManager, VpState};

    let mut csm = CoreSegmentManager::new(0, 4);
    let mut mem = mx_hw::MainMemory::new(8);
    let mut clock = mx_hw::Clock::new();
    let mut vpm = VirtualProcessorManager::new(&mut csm, 4).expect("vpm");
    let ec = vpm.create_eventcount();
    let seq = vpm.create_sequencer();
    let done = vpm.create_eventcount(); // never advanced: the parking lot
    vpm.await_value(VpId(1), ec, 1);
    vpm.await_value(VpId(2), ec, 1);
    vpm.await_value(VpId(3), ec, 2);

    let (rec, trace) = Recorder::new(policy);
    vpm.set_policy(Box::new(rec));

    let mut outcome = Vec::new();
    let mut tickets = Vec::new();
    let mut advances = 0;
    for _ in 0..32 {
        let Some(vp) = vpm.dispatch(&csm, &mut mem, &mut clock) else {
            break;
        };
        if vp == VpId(0) {
            if advances < 2 {
                advances += 1;
                let woken = if lossy {
                    vpm.advance_lossy_for_test(ec)
                } else {
                    vpm.advance(ec)
                };
                outcome.push(format!("adv{advances}:{woken}"));
                if advances == 2 {
                    vpm.await_value(VpId(0), done, 1);
                }
            }
        } else {
            let t = vpm.ticket(seq);
            tickets.push(t);
            outcome.push(format!("v{}t{}", vp.0, t));
            vpm.await_value(vp, done, 1);
        }
    }

    let mut violations = oracle::check_meter(&clock);
    violations.extend(oracle::check_vpm(&vpm));
    violations.extend(oracle::check_tickets(&tickets));
    // Liveness: with a correct advance, every consumer got its ticket.
    if !lossy {
        for vp in [VpId(1), VpId(2), VpId(3)] {
            let parked_out = vpm.state(vp) == VpState::Waiting && tickets.len() == 3;
            if !parked_out {
                violations.push(format!("consumer {vp:?} never completed its handoff"));
            }
        }
    }
    let kind = if lossy {
        ScenarioKind::HandoffLossy
    } else {
        ScenarioKind::Handoff
    };
    let schedule = schedule_string(&trace.borrow());
    let edges = clock.edge_snapshot();
    finish(kind, seed, schedule, outcome, Vec::new(), violations, edges)
}

fn finish(
    kind: ScenarioKind,
    seed: u64,
    schedule: String,
    outcome: Vec<String>,
    parity: Vec<String>,
    violations: Vec<String>,
    edges: EdgeSet,
) -> RunReport {
    let fp = fingerprint(&outcome);
    RunReport {
        kind,
        seed,
        schedule,
        outcome,
        parity,
        fingerprint: fp,
        violations,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::SeededRandomPolicy;
    use mx_sync::FifoPolicy;

    fn fifo() -> Box<dyn SchedulePolicy> {
        Box::new(FifoPolicy)
    }

    #[test]
    fn op_expansion_is_a_pure_function_of_the_seed() {
        for kind in ScenarioKind::ALL {
            assert_eq!(ops(kind, 42), ops(kind, 42));
        }
        assert_ne!(ops(ScenarioKind::Signals, 1), ops(ScenarioKind::Signals, 2));
    }

    #[test]
    fn fifo_handoff_is_clean_and_deterministic() {
        let a = run_kernel(ScenarioKind::Handoff, 0, fifo());
        let b = run_kernel(ScenarioKind::Handoff, 0, fifo());
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn lossy_handoff_is_caught_by_the_oracles() {
        let r = run_kernel(ScenarioKind::HandoffLossy, 0, fifo());
        assert!(
            r.violations.iter().any(|v| v.contains("stranded")),
            "expected a stranded-VP violation, got {:?}",
            r.violations
        );
    }

    #[test]
    fn kernel_scenarios_pass_oracles_under_fifo_and_random() {
        for kind in [
            ScenarioKind::Signals,
            ScenarioKind::Quota,
            ScenarioKind::Purifier,
            ScenarioKind::Tlb,
        ] {
            let fifo = run_kernel(kind, 7, fifo());
            assert!(
                fifo.violations.is_empty(),
                "{kind:?}: {:?}",
                fifo.violations
            );
            let rnd = run_kernel(kind, 7, Box::new(SeededRandomPolicy::new(3)));
            assert!(rnd.violations.is_empty(), "{kind:?}: {:?}", rnd.violations);
            assert_eq!(
                fifo.parity, rnd.parity,
                "{kind:?}: user-visible results moved with the schedule"
            );
        }
    }

    #[test]
    fn legacy_parity_on_user_visible_results() {
        for kind in [ScenarioKind::Signals, ScenarioKind::Quota] {
            let kernel = run_kernel(kind, 5, fifo());
            let legacy = run_legacy(kind, 5);
            assert!(
                legacy.violations.is_empty(),
                "{kind:?}: {:?}",
                legacy.violations
            );
            assert_eq!(
                kernel.parity, legacy.parity,
                "{kind:?}: the designs disagree on user-visible results"
            );
        }
    }
}
