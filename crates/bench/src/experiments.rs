//! The experiment drivers: one function per reproduced result.
//!
//! Every driver is deterministic: it boots fresh systems, runs a seeded
//! workload, and reports simulated cycles from the [`mx_hw::Clock`].
//! The paper's claims are about *shape* (who is slower, by roughly what
//! factor, where behaviour crosses over), and these drivers exist to
//! regenerate those shapes.

use mx_aim::{CompartmentSet, Label, Level};
use mx_explore::Rig;
use mx_hw::clock::ClockSnapshot;
use mx_hw::{BootConfig, ProcessId, TlbStats, Word, PAGE_WORDS};
use mx_kernel::{Kernel, KernelConfig};
use mx_legacy::{Supervisor, UserId as LUserId};
use mx_user::{publish_library, AnsweringService, NameSpace, UserLinker};
use std::collections::HashMap;

use crate::workload::{symbol_table, RefString, TreeSpec};

/// A two-system cycle comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What was measured.
    pub name: &'static str,
    /// Unit of the per-item figures (e.g. "cycles/link").
    pub unit: &'static str,
    /// Old-supervisor cycles per item.
    pub legacy: u64,
    /// New-design cycles per item.
    pub kernel: u64,
    /// Free-form observations (counters, crossovers).
    pub notes: Vec<String>,
}

impl Comparison {
    /// `kernel / legacy` as a percentage (100 = parity; >100 = the new
    /// design is slower).
    pub fn kernel_vs_legacy_pct(&self) -> f64 {
        if self.legacy == 0 {
            return 0.0;
        }
        self.kernel as f64 / self.legacy as f64 * 100.0
    }
}

impl core::fmt::Display for Comparison {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "{}", self.name)?;
        writeln!(f, "  old supervisor : {:>12} {}", self.legacy, self.unit)?;
        writeln!(f, "  Kernel/Multics : {:>12} {}", self.kernel, self.unit)?;
        writeln!(
            f,
            "  new vs old     : {:>11.1}%",
            self.kernel_vs_legacy_pct()
        )?;
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- setup --

const PW: u32 = PAGE_WORDS as u32;

/// Boots `R` with `config` and logs the benchmark user in.
fn booted<R: Rig>(config: BootConfig) -> (R, ProcessId) {
    let mut sys = R::boot(config);
    let pid = sys.login("bench");
    (sys, pid)
}

/// Builds `spec`'s directories, then its files, through `R`'s gates.
fn build_tree<R: Rig>(sys: &mut R, pid: ProcessId, spec: &TreeSpec) {
    let root = sys.root_dir();
    let mut made: HashMap<String, R::Entry> = HashMap::new();
    let dirs = spec.dir_paths().into_iter().map(|p| (p, true));
    for (path, is_dir) in dirs.chain(spec.file_paths().into_iter().map(|p| (p, false))) {
        let i = path.rfind('>').expect("paths start with >");
        let parent = if i == 0 { &root } else { &made[&path[..i]] };
        let entry = sys
            .create(pid, parent, &path[i + 1..], is_dir)
            .expect("tree entry");
        made.insert(path, entry);
    }
}

/// P4's boot shape with `frames` of core: 16 page-table slots, four
/// processes, 2,048-record packs of 64 TOC slots, a 1,200-record root
/// quota. The designs wire different frame counts, so each caller adds
/// its design's wired frames to the pageable pool it wants.
pub(crate) fn memory_config(frames: usize) -> BootConfig {
    BootConfig {
        frames,
        pt_slots: 16,
        max_processes: 4,
        records_per_pack: 2048,
        toc_slots_per_pack: 64,
        root_quota: 1200,
        ..BootConfig::default()
    }
}

/// The kernel's idle gap: four steps of the purifier daemon.
pub(crate) fn purify(k: &mut Kernel) {
    k.run_purifier(4).expect("purifier");
}

/// What one reference-string replay measured.
pub(crate) struct Replay<R> {
    /// The system, as the last reference left it.
    pub(crate) sys: R,
    /// The clock's movement over the references, idle gaps included.
    pub(crate) delta: ClockSnapshot,
    /// Cycles the idle gaps took.
    pub(crate) idle_cycles: u64,
    /// Associative-memory tallies over the references.
    pub(crate) tlb: TlbStats,
}

/// Replays `string` on `R` booted with `config`: logs in, creates and
/// initiates `data`, and reads or writes each reference's page at word
/// `page % 100` if `spread`, else at word 0. `tlb`, if given, first
/// switches the associative memory on or off from a cold cache; `idle`,
/// if given, runs after every 16th reference.
pub(crate) fn replay<R: Rig>(
    config: BootConfig,
    string: &RefString,
    spread: bool,
    tlb: Option<bool>,
    idle: Option<fn(&mut R)>,
) -> Replay<R> {
    let (mut sys, pid) = booted::<R>(config);
    let root = sys.root_dir();
    let segno = sys.create_segment(pid, &root, "data").expect("segment");
    if let Some(on) = tlb {
        set_associative_memory(sys.machine(), on);
    }
    let tlb0 = sys.machine().tlb_stats();
    let before = sys.machine().clock.snapshot();
    let mut idle_cycles = 0;
    for (i, &(page, write)) in string.refs.iter().enumerate() {
        let wordno = page * PW + if spread { page % 100 } else { 0 };
        if write {
            let value = Word::new(u64::from(page) + 1);
            sys.write(pid, segno, wordno, value).expect("write");
        } else {
            sys.read(pid, segno, wordno).expect("read");
        }
        if let Some(idle) = idle.filter(|_| i % 16 == 15) {
            let p0 = sys.machine().clock.now();
            idle(&mut sys);
            idle_cycles += sys.machine().clock.now() - p0;
        }
    }
    let machine = sys.machine();
    let delta = before.delta(&machine.clock.snapshot());
    let tlb = tlb_delta(&tlb0, &machine.tlb_stats());
    Replay {
        sys,
        delta,
        idle_cycles,
        tlb,
    }
}

/// Publishes `sys`'s clock and counters under `label` for `--trace`.
pub(crate) fn publish<R: Rig>(label: &str, sys: &mut R) {
    let counters = sys.counters();
    crate::trace::publish(label, &sys.machine().clock, counters);
}

// ------------------------------------------------------------ P1: linker --

/// P1 — the dynamic linker, in the kernel vs. extracted.
pub fn p1_linker(n_symbols: usize) -> Comparison {
    let symbols = symbol_table(n_symbols);
    let defs: Vec<(&str, u32)> = symbols.iter().map(|(s, o)| (s.as_str(), *o)).collect();

    // Old: the in-kernel linker.
    let (mut sup, lpid) = booted::<Supervisor>(BootConfig::default());
    let root = sup.root_dir();
    let (lib, _) = sup.create(lpid, &root, "libbench", false).expect("lib");
    sup.publish_definitions(lib, &defs);
    let before = sup.machine.clock.now();
    for (sym, off) in &defs {
        let l = sup.link(lpid, "libbench", sym).expect("legacy link");
        assert_eq!(l.offset, *off);
    }
    let legacy = (sup.machine.clock.now() - before) / n_symbols as u64;

    // New: the user-domain linker over the gates.
    let (mut k, kpid) = booted::<Kernel>(BootConfig::default());
    let root = k.root_token();
    k.create(kpid, &root, "libbench", false).expect("lib");
    let mut ns = NameSpace::new(&mut k, kpid);
    let segno = ns.initiate(&mut k, ">libbench").expect("initiate lib");
    publish_library(&mut k, kpid, segno, &defs).expect("publish");
    let mut linker = UserLinker::new(kpid);
    let before = k.machine.clock.now();
    for (sym, off) in &defs {
        let l = linker
            .link(&mut k, &mut ns, ">libbench", sym)
            .expect("user link");
        assert_eq!(l.offset, *off);
    }
    let kernel = (k.machine.clock.now() - before) / n_symbols as u64;

    publish("p1.legacy", &mut sup);
    publish("p1.kernel", &mut k);
    Comparison {
        name: "P1  dynamic linker (cold links)",
        unit: "cycles/link",
        legacy,
        kernel,
        notes: vec![format!(
            "user-domain linker scans the symbol table through ordinary reads; \
             {} gate crossings vs in-kernel privilege",
            k.machine.clock.gate_crossings()
        )],
    }
}

// --------------------------------------------------------- P2: name space --

/// P2 — pathname resolution, buried in the kernel vs. user-domain with
/// the search primitive and a prefix cache.
pub fn p2_namespace(spec: TreeSpec, rounds: usize) -> Comparison {
    let paths = spec.file_paths();

    let (mut sup, lpid) = booted::<Supervisor>(BootConfig::default());
    build_tree(&mut sup, lpid, &spec);
    let before = sup.machine.clock.now();
    for _ in 0..rounds {
        for p in &paths {
            sup.resolve(lpid, p, mx_legacy::AccessRight::Read)
                .expect("legacy resolve");
        }
    }
    let n = (rounds * paths.len()) as u64;
    let legacy = (sup.machine.clock.now() - before) / n;

    let (mut k, kpid) = booted::<Kernel>(BootConfig::default());
    build_tree(&mut k, kpid, &spec);
    let mut ns = NameSpace::new(&mut k, kpid);
    let before = k.machine.clock.now();
    for _ in 0..rounds {
        for p in &paths {
            ns.resolve(&mut k, p).expect("kernel resolve");
        }
    }
    let kernel = (k.machine.clock.now() - before) / n;

    publish("p2.legacy", &mut sup);
    publish("p2.kernel", &mut k);
    Comparison {
        name: "P2  name-space manager (repeated resolutions)",
        unit: "cycles/resolution",
        legacy,
        kernel,
        notes: vec![format!(
            "prefix cache: {} searches for {} resolutions ({} hits)",
            ns.searches, n, ns.cache_hits
        )],
    }
}

// ------------------------------------------------------- P3: answering --

/// P3 — login/logout sessions, monolithic vs. residue + user domain.
pub fn p3_answering(sessions: usize) -> Comparison {
    let mut sup = Supervisor::boot_default();
    sup.register_user("bench", LUserId(1), "pw", Label::BOTTOM);
    let before = sup.machine.clock.now();
    for _ in 0..sessions {
        let pid = sup
            .login("bench", "pw", Label::BOTTOM)
            .expect("legacy login");
        sup.dispatch();
        sup.logout("bench", pid).expect("legacy logout");
    }
    let legacy = (sup.machine.clock.now() - before) / sessions as u64;

    let mut k = Kernel::boot_default();
    let mut svc = AnsweringService::new();
    svc.register(&mut k, "bench", mx_kernel::UserId(1), "pw", Label::BOTTOM);
    let before = k.machine.clock.now();
    for _ in 0..sessions {
        let pid = svc
            .login(&mut k, "bench", "pw", Label::BOTTOM)
            .expect("kernel login");
        k.schedule();
        svc.logout(&mut k, pid).expect("kernel logout");
    }
    let kernel = (k.machine.clock.now() - before) / sessions as u64;

    publish("p3.legacy", &mut sup);
    publish("p3.kernel", &mut k);
    Comparison {
        name: "P3  answering service (login+logout sessions)",
        unit: "cycles/session",
        legacy,
        kernel,
        notes: vec!["policy, parsing and billing run unprivileged; only the \
             authentication residue crosses the gate"
            .to_string()],
    }
}

// ----------------------------------------------------------- P4: memory --

/// One row of the memory-manager sweep.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Pageable frames each system was given.
    pub frames: usize,
    /// Old supervisor: total cycles.
    pub legacy_cycles: u64,
    /// Old supervisor: faults serviced.
    pub legacy_faults: u64,
    /// New design: total cycles including the purifier daemon.
    pub kernel_total_cycles: u64,
    /// New design: user-visible cycles (purifier work subtracted — it
    /// runs "at a low priority, when the processor might otherwise have
    /// been idle").
    pub kernel_user_cycles: u64,
    /// New design: faults serviced.
    pub kernel_faults: u64,
}

/// P4 — the memory manager under the same reference string, from ample
/// memory to cramped. The sweep is over *pageable* frames: each system
/// is given whatever total core makes its pageable pool exactly that
/// size (their wired layouts differ).
pub fn p4_memory(
    pageable_sweep: &[usize],
    pages: u32,
    refs: usize,
    working_set: u32,
) -> Vec<MemoryRow> {
    let string = RefString::generate(41, pages, refs, working_set);
    let mut rows = Vec::new();
    for &pageable in pageable_sweep {
        // Old supervisor: wired = 1 scratch + 4 page-table frames
        // (16 AST slots) + 4 dsegs.
        let mut l = replay::<Supervisor>(memory_config(pageable + 9), &string, true, None, None);
        // New design, purifier run in idle gaps. Wired = 1 scratch +
        // 8 core-segment frames (VP states, cell table, 4 page-table
        // frames, system space) + 4 dsegs.
        let config = memory_config(pageable + 13);
        let mut k = replay::<Kernel>(config, &string, true, None, Some(purify));
        publish(&format!("p4.legacy.{pageable}"), &mut l.sys);
        publish(&format!("p4.kernel.{pageable}"), &mut k.sys);
        debug_assert_eq!(l.sys.frames.pageable() as usize, pageable);
        debug_assert_eq!(k.sys.pfm.pageable() as usize, pageable);
        rows.push(MemoryRow {
            frames: pageable,
            legacy_cycles: l.delta.cycles,
            legacy_faults: l.delta.faults,
            kernel_total_cycles: k.delta.cycles,
            kernel_user_cycles: k.delta.cycles - k.idle_cycles,
            kernel_faults: k.delta.faults,
        });
    }
    rows
}

// -------------------------------------------------------- P5: scheduler --

/// One row of the scheduler sweep.
#[derive(Debug, Clone)]
pub struct SchedulerRow {
    /// Processes in the mix.
    pub processes: u32,
    /// Old one-level scheduler: cycles per dispatch.
    pub legacy_cycles: u64,
    /// New two-level scheduler: cycles per dispatch.
    pub kernel_cycles: u64,
    /// Share of new-design dispatches that were cheap VP switches.
    pub cheap_switch_pct: f64,
}

/// P5 — one-level vs. two-level processor multiplexing.
pub fn p5_scheduler(process_counts: &[u32], passes: usize) -> Vec<SchedulerRow> {
    let mut rows = Vec::new();
    for &n in process_counts {
        let config = BootConfig {
            max_processes: n + 2,
            ..BootConfig::default()
        };
        let mut sup = Supervisor::boot(config.clone());
        for i in 0..n {
            sup.create_process(LUserId(i), Label::BOTTOM)
                .expect("legacy process");
        }
        let before = sup.machine.clock.now();
        for _ in 0..passes {
            sup.dispatch();
        }
        let legacy = (sup.machine.clock.now() - before) / passes as u64;

        let mut k = Kernel::boot(config);
        for i in 0..n {
            let name = format!("u{i}");
            k.register_account(&name, mx_kernel::UserId(i), 1, Label::BOTTOM);
            k.login_residue(&name, 1, Label::BOTTOM)
                .expect("kernel process");
        }
        let loads_before = k.upm.loads;
        let before = k.machine.clock.now();
        for _ in 0..passes {
            k.schedule();
        }
        let kernel = (k.machine.clock.now() - before) / passes as u64;
        let loads = k.upm.loads - loads_before;
        publish(&format!("p5.legacy.{n}"), &mut sup);
        publish(&format!("p5.kernel.{n}"), &mut k);
        rows.push(SchedulerRow {
            processes: n,
            legacy_cycles: legacy,
            kernel_cycles: kernel,
            cheap_switch_pct: 100.0 * (passes as f64 - loads as f64) / passes as f64,
        });
    }
    rows
}

// ------------------------------------------------------------ P7: quota --

/// One row of the quota sweep.
#[derive(Debug, Clone)]
pub struct QuotaRow {
    /// Directory depth of the growing segment.
    pub depth: u32,
    /// Old supervisor: cycles per page of growth (includes the walk).
    pub legacy_cycles: u64,
    /// Old supervisor: quota-walk levels per growth.
    pub legacy_walk_levels: f64,
    /// New design: cycles per page of growth (static cell, no walk).
    pub kernel_cycles: u64,
}

/// P7 — quota enforcement: dynamic hierarchy walk vs. static cell.
pub fn p7_quota(depths: &[u32], pages: u32) -> Vec<QuotaRow> {
    let mut rows = Vec::new();
    for &depth in depths {
        let (legacy_cycles, legacy_walk_levels) = grow_in_chain::<Supervisor>(depth, pages);
        let (kernel_cycles, _) = grow_in_chain::<Kernel>(depth, pages);
        rows.push(QuotaRow {
            depth,
            legacy_cycles,
            legacy_walk_levels,
            kernel_cycles,
        });
    }
    rows
}

/// Grows a segment `pages` pages at the bottom of a chain of `depth`
/// directories on `R`. Returns the cycles per page and the quota-walk
/// levels per walk (the old supervisor's counters; 0 on the kernel,
/// which keeps a static cell and never walks).
fn grow_in_chain<R: Rig>(depth: u32, pages: u32) -> (u64, f64) {
    let (mut sys, pid) = booted::<R>(BootConfig::default());
    let mut parent = sys.root_dir();
    for lvl in 0..depth {
        parent = sys
            .create(pid, &parent, &format!("c{lvl}"), true)
            .expect("chain dir");
    }
    let segno = sys.create_segment(pid, &parent, "grow").expect("segment");
    let walks = |sys: &R| {
        let c = sys.counters();
        let get = |name| c.get(name).unwrap_or(0);
        (get("quota_walks"), get("quota_walk_levels"))
    };
    let (walks0, levels0) = walks(&sys);
    let before = sys.machine().clock.now();
    for p in 0..pages {
        sys.write(pid, segno, p * PW, Word::new(1)).expect("grow");
    }
    let cycles = (sys.machine().clock.now() - before) / u64::from(pages);
    let (walks1, levels1) = walks(&sys);
    publish(&format!("p7.{}.{depth}", R::NAME), &mut sys);
    let levels = match walks1 - walks0 {
        0 => 0.0,
        n => (levels1 - levels0) as f64 / n as f64,
    };
    (cycles, levels)
}

// ------------------------------------------------------- P8: fault path --

/// P8 — missing-page service: interpretive retranslation vs. the
/// hardware lock bit, plus the two-processor race behaviour.
pub fn p8_fault_path(pages: u32, rounds: usize) -> Comparison {
    // Old supervisor: write pages, then repeatedly flush + fault back.
    let (mut sup, lpid, _, segno) = hot_segment::<Supervisor>(pages);
    let hot_uid = sup
        .resolve(lpid, "hot", mx_legacy::AccessRight::Read)
        .expect("resolve")
        .0;
    let astx = sup.ast.find(hot_uid).expect("active");
    let legacy = refault(&mut sup, lpid, segno, pages, rounds, |s| {
        s.flush_segment(astx).expect("flush");
    });
    let retranslations = sup.stats.retranslations;

    // New design.
    let (mut k, kpid, tok, ksegno) = hot_segment::<Kernel>(pages);
    let uid = k.uid_of_token(tok).expect("uid");
    let kernel = refault(&mut k, kpid, ksegno, pages, rounds, |k| {
        let handle = k.segm.get(uid).expect("active").handle;
        k.pfm
            .flush(&mut k.machine, &mut k.drm, &mut k.qcm, handle)
            .expect("flush");
    });

    publish("p8.legacy", &mut sup);
    publish("p8.kernel", &mut k);
    Comparison {
        name: "P8  missing-page service (flush + refault)",
        unit: "cycles/fault",
        legacy,
        kernel,
        notes: vec![
            format!(
                "old design performed {retranslations} interpretive retranslations; \
                 the lock bit makes them unnecessary ({} lock-waits observed)",
                k.stats.locked_waits
            ),
            "write-backs moved off the fault path into the purifier daemon".to_string(),
        ],
    }
}

/// P8's setup on `R`: `hot` created and initiated, and `pages` pages of
/// it written. Returns the system, the process, the entry and the
/// segment number.
fn hot_segment<R: Rig>(pages: u32) -> (R, ProcessId, R::Entry, u32) {
    let (mut sys, pid) = booted::<R>(BootConfig::default());
    let root = sys.root_dir();
    let hot = sys.create(pid, &root, "hot", false).expect("segment");
    let segno = sys.initiate(pid, &hot).expect("initiate");
    for p in 0..pages {
        let value = Word::new(u64::from(p) + 1);
        sys.write(pid, segno, p * PW, value).expect("seed");
    }
    (sys, pid, hot, segno)
}

/// P8's timed loop: `rounds` times, `flush` the segment out of core and
/// read each of its `pages` pages back. Returns the cycles per fault.
fn refault<R: Rig>(
    sys: &mut R,
    pid: ProcessId,
    segno: u32,
    pages: u32,
    rounds: usize,
    mut flush: impl FnMut(&mut R),
) -> u64 {
    let before = sys.machine().clock.now();
    for _ in 0..rounds {
        flush(sys);
        for p in 0..pages {
            sys.read(pid, segno, p * PW).expect("fault back");
        }
    }
    (sys.machine().clock.now() - before) / (rounds as u64 * u64::from(pages))
}

// --------------------------------------------------------- S1/S2/S3 demos --

/// S1 — the mythical-identifier interface: no information leaks through
/// inaccessible directories. Returns a human-readable transcript.
pub fn s1_mythical_identifiers() -> String {
    let mut k = Kernel::boot_default();
    k.register_account("alice", mx_kernel::UserId(1), 1, Label::BOTTOM);
    k.register_account("bob", mx_kernel::UserId(2), 2, Label::BOTTOM);
    let alice = k.login_residue("alice", 1, Label::BOTTOM).unwrap();
    let bob = k.login_residue("bob", 2, Label::BOTTOM).unwrap();
    let root = k.root_token();
    let private = k.create(alice, &root, "private", true).unwrap();
    k.create(alice, &private, "exists", false).unwrap();

    let mut out = String::from("S1  Bratt's mythical identifiers\n");
    let t_real = k.dir_search(bob, private, "exists").unwrap();
    let t_ghost = k.dir_search(bob, private, "ghost").unwrap();
    let t_ghost2 = k.dir_search(bob, private, "ghost").unwrap();
    out.push_str(&format!(
        "  search(inaccessible dir, existing name)  -> token {:#018x}\n",
        t_real.0
    ));
    out.push_str(&format!(
        "  search(inaccessible dir, missing name)   -> token {:#018x}\n",
        t_ghost.0
    ));
    out.push_str(&format!(
        "  repeated probe is stable                  -> {}\n",
        t_ghost == t_ghost2
    ));
    let e_real = k.initiate(bob, t_real).unwrap_err();
    let e_ghost = k.initiate(bob, t_ghost).unwrap_err();
    out.push_str(&format!(
        "  initiate(real-but-forbidden) = {e_real:?}; initiate(mythical) = {e_ghost:?}\n"
    ));
    out.push_str(&format!(
        "  indistinguishable                        -> {}\n",
        e_real == e_ghost
    ));
    out.push_str(&format!(
        "  mythical identifiers issued so far        : {}\n",
        k.dirm.stats.mythical_issued
    ));
    out
}

/// S2 — the zero-page accounting confinement violation: a read by a
/// high-labelled process writes a low-labelled quota cell.
pub fn s2_confinement() -> String {
    let mut k = Kernel::boot_default();
    let secret = Label::new(Level(2), CompartmentSet::empty());
    k.register_account("owner", mx_kernel::UserId(1), 1, Label::BOTTOM);
    k.register_account("spy-high", mx_kernel::UserId(2), 2, secret);
    let owner = k.login_residue("owner", 1, Label::BOTTOM).unwrap();
    let high = k.login_residue("spy-high", 2, secret).unwrap();
    let root = k.root_token();
    let mut acl = mx_kernel::Acl::owner(mx_kernel::UserId(1));
    acl.grant(mx_kernel::UserId(2), &[mx_kernel::AccessRight::Read]);
    let tok = k
        .create_entry(owner, root, "sparse", acl, Label::BOTTOM, false)
        .unwrap();
    // The owner writes page 0 and page 9: pages 1..9 stay zero flags.
    let oseg = k.initiate(owner, tok).unwrap();
    k.write_word(owner, oseg, 0, Word::new(1)).unwrap();
    k.write_word(owner, oseg, 9 * mx_hw::PAGE_WORDS as u32, Word::new(2))
        .unwrap();

    let violations_before = k.flows.violation_count();
    let (_, records_before) = k.segment_meta(owner, oseg).unwrap();

    // The high process merely READS a hole.
    let hseg = k.initiate(high, tok).unwrap();
    let value = k
        .read_word(high, hseg, 4 * mx_hw::PAGE_WORDS as u32)
        .unwrap();

    let (_, records_after) = k.segment_meta(owner, oseg).unwrap();
    let violations_after = k.flows.violation_count();

    let mut out = String::from("S2  zero-page accounting: a read that writes\n");
    out.push_str(&format!(
        "  high-labelled read of a hole returned   : {value}\n"
    ));
    out.push_str(&format!(
        "  records charged before/after the read   : {records_before} -> {records_after}\n"
    ));
    out.push_str(&format!(
        "  unlawful information flows recorded      : {} -> {}\n",
        violations_before, violations_after
    ));
    out.push_str(
        "  \"a read implicitly causes information to be written, perhaps on\n   \
         the other side of a protection boundary\" (Lampson's confinement)\n",
    );
    // The charge reverts when the page is reclaimed still-zero.
    let uid = k.uid_of_token(tok).unwrap();
    let handle = k.segm.get(uid).unwrap().handle;
    k.pfm
        .flush(&mut k.machine, &mut k.drm, &mut k.qcm, handle)
        .unwrap();
    let (_, records_final) = k.segment_meta(owner, oseg).unwrap();
    out.push_str(&format!(
        "  after page removal's zero scan           : {records_final} records charged\n"
    ));
    out
}

/// S3 — full-pack relocation driven by the quota-trap exception and the
/// upward signal.
pub fn s3_relocation() -> String {
    let mut k = Kernel::boot(KernelConfig {
        packs: 2,
        records_per_pack: 8,
        toc_slots_per_pack: 16,
        root_quota: 64,
        ..KernelConfig::default()
    });
    // A roomy third pack for the move.
    let big = k.machine.disks.attach(128, 32);
    k.register_account("grower", mx_kernel::UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("grower", 1, Label::BOTTOM).unwrap();
    let root = k.root_token();
    let tok = k.create(pid, &root, "bulky", false).unwrap();
    let segno = k.initiate(pid, tok).unwrap();
    let mut out = String::from("S3  full pack -> relocation -> upward signal\n");
    for p in 0..12u32 {
        k.write_word(
            pid,
            segno,
            p * mx_hw::PAGE_WORDS as u32,
            Word::new(u64::from(p) + 1),
        )
        .expect("growth never fails visibly: the signal is consumed inside");
    }
    let uid = k.uid_of_token(tok).unwrap();
    let home = k.dirm.home_of(uid).unwrap();
    out.push_str(&format!(
        "  relocations performed        : {}\n",
        k.segm.stats.relocations
    ));
    out.push_str(&format!(
        "  upward signals raised        : {}\n",
        k.segm.stats.upward_signals
    ));
    out.push_str(&format!(
        "  signals consumed (trampoline): {}\n",
        k.stats.trampolines
    ));
    out.push_str(&format!(
        "  directory-entry moves written: {}\n",
        k.dirm.stats.moves_recorded
    ));
    out.push_str(&format!(
        "  segment now lives on pack {} (big pack = {})\n",
        home.pack.0, big.0
    ));
    // Every page survived the move.
    let ok = (0..12u32).all(|p| {
        k.read_word(pid, segno, p * mx_hw::PAGE_WORDS as u32)
            .map(|w| w == Word::new(u64::from(p) + 1))
            .unwrap_or(false)
    });
    out.push_str(&format!("  all data intact after move   : {ok}\n"));
    out
}

// ------------------------------------------------------------ ablations --

/// A1 — ablate the name-space prefix cache: DESIGN.md calls the cache
/// out as the source of the extracted manager's speedup; without it the
/// user-domain resolver should fall back to roughly gate-per-component
/// cost.
pub fn a1_namespace_cache(spec: TreeSpec, rounds: usize) -> Comparison {
    let paths = spec.file_paths();
    let n = (rounds * paths.len()) as u64;

    let (mut k, kpid) = booted::<Kernel>(BootConfig::default());
    build_tree(&mut k, kpid, &spec);
    let mut ns = NameSpace::new(&mut k, kpid);
    let before = k.machine.clock.now();
    for _ in 0..rounds {
        for p in &paths {
            ns.resolve(&mut k, p).expect("cached resolve");
        }
    }
    let with_cache = (k.machine.clock.now() - before) / n;

    let (mut k, kpid) = booted::<Kernel>(BootConfig::default());
    build_tree(&mut k, kpid, &spec);
    let mut ns = NameSpace::new(&mut k, kpid);
    let before = k.machine.clock.now();
    for _ in 0..rounds {
        for p in &paths {
            ns.flush_cache();
            ns.resolve(&mut k, p).expect("uncached resolve");
        }
    }
    let without_cache = (k.machine.clock.now() - before) / n;

    Comparison {
        name: "A1  name-space prefix cache ablation",
        unit: "cycles/resolution",
        legacy: without_cache,
        kernel: with_cache,
        notes: vec!["'legacy' row = cache disabled; 'kernel' row = cache enabled".into()],
    }
}

/// A2 — ablate the purifier's idle-time execution: with no idle gaps
/// the write-behind work lands on the user path (synchronous purifies
/// inside frame claims), which is the cost the paper says the dedicated
/// low-priority process wins back.
///
/// The reference string uses P4's seed so that, called at P4's cramped
/// configuration (`pageable = 36, pages = 40, refs = 1500, ws = 10`),
/// the idle-gaps arm reruns exactly P4's kernel measurement and the
/// user-visible figures of the two experiments coincide.
pub fn a2_purifier_idle(pageable: usize, pages: u32, refs: usize, ws: u32) -> Comparison {
    let string = RefString::generate(41, pages, refs, ws);
    let run = |idle: Option<fn(&mut Kernel)>| {
        let r = replay::<Kernel>(memory_config(pageable + 13), &string, false, None, idle);
        r.delta.cycles - r.idle_cycles
    };
    Comparison {
        name: "A2  purifier idle-time ablation (user-visible cycles)",
        unit: "cycles total",
        legacy: run(None),
        kernel: run(Some(purify)),
        notes: vec![
            "'legacy' row = no idle gaps (write-behind lands on the user path);              'kernel' row = daemon runs at idle"
                .into(),
        ],
    }
}

/// Switches the descriptor-walk associative memory on or off on every
/// processor, starting from a cold cache either way.
fn set_associative_memory(machine: &mut mx_hw::Machine, on: bool) {
    for cpu in &mut machine.cpus {
        cpu.features.associative_memory = on;
    }
    machine.tlb_clear();
}

/// Component-wise difference of two TLB tallies (later minus earlier).
fn tlb_delta(before: &mx_hw::TlbStats, after: &mx_hw::TlbStats) -> mx_hw::TlbStats {
    mx_hw::TlbStats {
        lookups: after.lookups - before.lookups,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        fills: after.fills - before.fills,
        invalidations: after.invalidations - before.invalidations,
    }
}

/// The A3 driver's own conservation checks: the TLB tallies must be
/// internally consistent and every charged cycle must be attributed to
/// a subsystem. `repro --only a3` relies on these panicking loudly.
fn a3_check(label: &str, clock: &mx_hw::Clock, tlb: &mx_hw::TlbStats) {
    assert_eq!(
        tlb.hits + tlb.misses,
        tlb.lookups,
        "{label}: TLB counter conservation (hits + misses == lookups)"
    );
    assert_eq!(
        clock.meter().attributed_total(),
        clock.now(),
        "{label}: meter conservation (sum(per-subsystem) == Clock::now())"
    );
}

/// One A3 workload on `R`: replays `string` with the associative memory
/// off, then on, checking each leg's conservation and publishing it as
/// `a3.{leg}.off` or `a3.{leg}.on` with its TLB tallies, and compares
/// the legs' cycles per reference under `name`.
fn a3_workload<R: Rig>(
    name: &'static str,
    leg: &str,
    config: BootConfig,
    string: &RefString,
    spread: bool,
) -> Comparison {
    let [(off, _), (on, tlb)] = [false, true].map(|on| {
        let label = format!("a3.{leg}.{}", if on { "on" } else { "off" });
        let mut r = replay::<R>(config.clone(), string, spread, Some(on), None);
        a3_check(&label, &r.sys.machine().clock, &r.tlb);
        assert!(
            on || r.tlb.lookups == 0,
            "{label}: a disabled associative memory must never be consulted"
        );
        let mut counters = r.sys.counters();
        for (name, v) in r.tlb.counters().iter() {
            counters.set(name, v);
        }
        crate::trace::publish(&label, &r.sys.machine().clock, counters);
        (r.delta.cycles / string.refs.len() as u64, r.tlb)
    });
    let hits = if tlb.lookups == 0 {
        0.0
    } else {
        tlb.hits as f64 / tlb.lookups as f64 * 100.0
    };
    Comparison {
        name,
        unit: "cycles/reference",
        legacy: off,
        kernel: on,
        notes: vec![format!(
            "'legacy' row = TLB off; 'kernel' row = TLB on ({} lookups, {hits:.1}% hits, \
             {} invalidations)",
            tlb.lookups, tlb.invalidations
        )],
    }
}

/// A3 — ablate the hardware associative memory (the descriptor-walk
/// translation cache of [`mx_hw::Tlb`]). With it off, every data
/// reference pays the walk's two descriptor fetches; with it on, a
/// repeated reference hits the cache and pays none — the 6180 behaviour
/// both feature levels model. Two workloads: a P2-style hot set
/// repeatedly referenced through the old supervisor's user access path
/// (pathname resolution itself runs on supervisor absolute addressing
/// and never consults the associative memory), and a P4-style
/// ample-core reference string through the kernel gates.
pub fn a3_associative_memory(pageable: usize, pages: u32, refs: usize, ws: u32) -> Vec<Comparison> {
    vec![
        // Eight pages with a tight working set: after the first touch
        // every reference repeats, which is where the cache pays.
        a3_workload::<Supervisor>(
            "A3a associative-memory ablation — P2-style hot set (old supervisor)",
            "p2",
            BootConfig::default(),
            &RefString::generate(43, 8, refs, 4),
            true,
        ),
        a3_workload::<Kernel>(
            "A3b associative-memory ablation — P4 ample-core references (kernel)",
            "p4",
            memory_config(pageable + 13),
            &RefString::generate(47, pages, refs, ws),
            false,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p1_the_extracted_linker_is_slower() {
        let c = p1_linker(12);
        assert!(
            c.kernel > c.legacy,
            "paper: 'the dynamic linker ran somewhat slower when removed from the kernel' \
             (old {}, new {})",
            c.legacy,
            c.kernel
        );
        assert!(
            c.kernel_vs_legacy_pct() < 1000.0,
            "slower, but not absurdly so: {:.0}%",
            c.kernel_vs_legacy_pct()
        );
    }

    #[test]
    fn p2_the_extracted_name_space_is_faster() {
        let c = p2_namespace(TreeSpec::small(), 4);
        assert!(
            c.kernel < c.legacy,
            "paper: 'the name space manager ran somewhat faster' (old {}, new {})",
            c.legacy,
            c.kernel
        );
    }

    #[test]
    fn p3_the_restructured_answering_service_is_slightly_slower() {
        let c = p3_answering(12);
        let pct = c.kernel_vs_legacy_pct();
        assert!(
            pct > 100.0,
            "paper: 'about 3% slower' — must be slower at all (old {}, new {})",
            c.legacy,
            c.kernel
        );
        assert!(pct < 125.0, "but only slightly: {pct:.1}%");
    }

    #[test]
    fn p5_two_level_scheduling_is_about_the_same_for_small_mixes() {
        let rows = p5_scheduler(&[2], 40);
        let r = &rows[0];
        let ratio = r.kernel_cycles as f64 / r.legacy_cycles as f64;
        assert!(
            (0.2..=1.5).contains(&ratio),
            "paper: 'about the same as the current system' (old {}, new {})",
            r.legacy_cycles,
            r.kernel_cycles
        );
        assert!(
            r.cheap_switch_pct > 50.0,
            "most switches stay at the VP level"
        );
    }

    #[test]
    fn p7_the_static_cell_beats_the_walk_and_depth_insensitivity() {
        let rows = p7_quota(&[1, 6], 6);
        assert!(
            rows[1].legacy_walk_levels > rows[0].legacy_walk_levels,
            "the old walk lengthens with depth"
        );
        // The new design's growth cost must not grow with depth the way
        // the old walk does.
        let old_growth = rows[1].legacy_cycles as i64 - rows[0].legacy_cycles as i64;
        let new_growth = rows[1].kernel_cycles as i64 - rows[0].kernel_cycles as i64;
        assert!(
            new_growth < old_growth,
            "depth sensitivity: old +{old_growth}, new +{new_growth}"
        );
    }

    #[test]
    fn p8_fault_service_counters_tell_the_story() {
        let c = p8_fault_path(6, 3);
        assert!(c.legacy > 0 && c.kernel > 0);
        assert!(c.notes[0].contains("retranslations"));
    }

    #[test]
    fn a3_the_associative_memory_wins_on_both_workloads() {
        let cs = a3_associative_memory(80, 24, 400, 8);
        assert_eq!(cs.len(), 2);
        for c in &cs {
            assert!(
                c.kernel < c.legacy,
                "TLB on must measurably cut {}: off {} vs on {}",
                c.unit,
                c.legacy,
                c.kernel
            );
            assert!(c.notes[0].contains("hits"), "hit rate reported");
        }
    }

    #[test]
    fn s_demos_produce_their_claims() {
        let s1 = s1_mythical_identifiers();
        assert!(s1.contains("indistinguishable                        -> true"));
        let s2 = s2_confinement();
        assert!(s2.contains("-> 1\n") || s2.contains("unlawful"));
        let s3 = s3_relocation();
        assert!(s3.contains("all data intact after move   : true"));
    }
}
