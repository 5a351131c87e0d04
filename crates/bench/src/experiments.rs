//! The experiment drivers: one function per reproduced result.
//!
//! Every driver is deterministic: it boots fresh systems, runs a seeded
//! workload, and reports simulated cycles from the [`mx_hw::Clock`].
//! The paper's claims are about *shape* (who is slower, by roughly what
//! factor, where behaviour crosses over), and these drivers exist to
//! regenerate those shapes.

use mx_aim::{CompartmentSet, Label, Level};
use mx_hw::{BootConfig, Word};
use mx_kernel::{Kernel, KernelConfig};
use mx_legacy::{Acl as LAcl, Supervisor, SupervisorConfig, UserId as LUserId};
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

fn boot_legacy() -> (Supervisor, mx_legacy::ProcessId) {
    let mut sup = Supervisor::boot_default();
    let pid = sup
        .create_process(LUserId(1), Label::BOTTOM)
        .expect("process");
    (sup, pid)
}

fn boot_kernel() -> (Kernel, mx_kernel::ProcessId) {
    let mut k = Kernel::boot_default();
    k.register_account("bench", mx_kernel::UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("bench", 1, Label::BOTTOM).expect("login");
    (k, pid)
}

/// Builds the tree on the old supervisor; returns path → uid.
fn build_legacy_tree(sup: &mut Supervisor, spec: &TreeSpec) -> HashMap<String, mx_legacy::SegUid> {
    let acl = LAcl::owner(LUserId(1));
    let mut map: HashMap<String, mx_legacy::SegUid> = HashMap::new();
    for dir in spec.dir_paths() {
        let (parent_uid, name) = match dir.rfind('>') {
            Some(0) => (sup.root(), &dir[1..]),
            Some(i) => (map[&dir[..i]], &dir[i + 1..]),
            None => unreachable!("paths start with >"),
        };
        let uid = sup
            .create_directory_in(parent_uid, name, acl.clone(), Label::BOTTOM)
            .expect("tree dir");
        map.insert(dir.clone(), uid);
    }
    for file in spec.file_paths() {
        let i = file.rfind('>').expect("file under a dir");
        let parent_uid = if i == 0 { sup.root() } else { map[&file[..i]] };
        let uid = sup
            .create_segment_in(parent_uid, &file[i + 1..], acl.clone(), Label::BOTTOM)
            .expect("tree file");
        map.insert(file.clone(), uid);
    }
    map
}

/// Builds the same tree through the kernel gates; returns path → token.
fn build_kernel_tree(
    k: &mut Kernel,
    pid: mx_kernel::ProcessId,
    spec: &TreeSpec,
) -> HashMap<String, mx_kernel::ObjToken> {
    let acl = mx_kernel::Acl::owner(mx_kernel::UserId(1));
    let mut map: HashMap<String, mx_kernel::ObjToken> = HashMap::new();
    let root = k.root_token();
    for dir in spec.dir_paths() {
        let (parent, name) = match dir.rfind('>') {
            Some(0) => (root, &dir[1..]),
            Some(i) => (map[&dir[..i]], &dir[i + 1..]),
            None => unreachable!(),
        };
        let tok = k
            .create_entry(pid, parent, name, acl.clone(), Label::BOTTOM, true)
            .expect("tree dir");
        map.insert(dir.clone(), tok);
    }
    for file in spec.file_paths() {
        let i = file.rfind('>').expect("file under a dir");
        let parent = if i == 0 { root } else { map[&file[..i]] };
        let tok = k
            .create_entry(
                pid,
                parent,
                &file[i + 1..],
                acl.clone(),
                Label::BOTTOM,
                false,
            )
            .expect("tree file");
        map.insert(file.clone(), tok);
    }
    map
}

// ------------------------------------------------------------ P1: linker --

/// P1 — the dynamic linker, in the kernel vs. extracted.
pub fn p1_linker(n_symbols: usize) -> Comparison {
    let symbols = symbol_table(n_symbols);
    let defs: Vec<(&str, u32)> = symbols.iter().map(|(s, o)| (s.as_str(), *o)).collect();

    // Old: the in-kernel linker.
    let (mut sup, lpid) = boot_legacy();
    let lib = sup
        .create_segment_in(
            sup.root(),
            "libbench",
            LAcl::owner(LUserId(1)),
            Label::BOTTOM,
        )
        .expect("lib");
    sup.publish_definitions(lib, &defs);
    let before = sup.machine.clock.now();
    for (sym, off) in &defs {
        let l = sup.link(lpid, "libbench", sym).expect("legacy link");
        assert_eq!(l.offset, *off);
    }
    let legacy = (sup.machine.clock.now() - before) / n_symbols as u64;

    // New: the user-domain linker over the gates.
    let (mut k, kpid) = boot_kernel();
    let root = k.root_token();
    k.create_entry(
        kpid,
        root,
        "libbench",
        mx_kernel::Acl::owner(mx_kernel::UserId(1)),
        Label::BOTTOM,
        false,
    )
    .expect("lib");
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

    crate::trace::publish("p1.legacy", &sup.machine.clock, sup.stats.counters());
    crate::trace::publish("p1.kernel", &k.machine.clock, k.stats.counters());
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

    let (mut sup, lpid) = boot_legacy();
    build_legacy_tree(&mut sup, &spec);
    let before = sup.machine.clock.now();
    for _ in 0..rounds {
        for p in &paths {
            sup.resolve(lpid, p, mx_legacy::AccessRight::Read)
                .expect("legacy resolve");
        }
    }
    let n = (rounds * paths.len()) as u64;
    let legacy = (sup.machine.clock.now() - before) / n;

    let (mut k, kpid) = boot_kernel();
    build_kernel_tree(&mut k, kpid, &spec);
    let mut ns = NameSpace::new(&mut k, kpid);
    let before = k.machine.clock.now();
    for _ in 0..rounds {
        for p in &paths {
            ns.resolve(&mut k, p).expect("kernel resolve");
        }
    }
    let kernel = (k.machine.clock.now() - before) / n;

    crate::trace::publish("p2.legacy", &sup.machine.clock, sup.stats.counters());
    crate::trace::publish("p2.kernel", &k.machine.clock, k.stats.counters());
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

    crate::trace::publish("p3.legacy", &sup.machine.clock, sup.stats.counters());
    crate::trace::publish("p3.kernel", &k.machine.clock, k.stats.counters());
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
        let frames = pageable + 9;
        let mut sup = Supervisor::boot(SupervisorConfig {
            frames,
            pt_slots: 16,
            max_processes: 4,
            records_per_pack: 2048,
            toc_slots_per_pack: 64,
            root_quota: 1200,
            ..SupervisorConfig::default()
        });
        let lpid = sup
            .create_process(LUserId(1), Label::BOTTOM)
            .expect("process");
        sup.create_segment_in(sup.root(), "data", LAcl::owner(LUserId(1)), Label::BOTTOM)
            .expect("segment");
        let segno = sup.initiate(lpid, "data").expect("initiate");
        let before = sup.machine.clock.snapshot();
        for (page, write) in &string.refs {
            let wordno = page * mx_hw::PAGE_WORDS as u32 + (page % 100);
            if *write {
                sup.user_write(lpid, segno, wordno, Word::new(u64::from(*page) + 1))
                    .expect("legacy write");
            } else {
                sup.user_read(lpid, segno, wordno).expect("legacy read");
            }
        }
        let ldelta = before.delta(&sup.machine.clock.snapshot());

        // New design, purifier run in idle gaps. Wired = 1 scratch +
        // 8 core-segment frames (VP states, cell table, 4 page-table
        // frames, system space) + 4 dsegs.
        let kframes = pageable + 13;
        let mut k = Kernel::boot(KernelConfig {
            frames: kframes,
            pt_slots: 16,
            max_processes: 4,
            records_per_pack: 2048,
            toc_slots_per_pack: 64,
            root_quota: 1200,
            ..KernelConfig::default()
        });
        k.register_account("bench", mx_kernel::UserId(1), 1, Label::BOTTOM);
        let kpid = k.login_residue("bench", 1, Label::BOTTOM).expect("login");
        let root = k.root_token();
        let tok = k
            .create_entry(
                kpid,
                root,
                "data",
                mx_kernel::Acl::owner(mx_kernel::UserId(1)),
                Label::BOTTOM,
                false,
            )
            .expect("segment");
        let ksegno = k.initiate(kpid, tok).expect("initiate");
        let before = k.machine.clock.snapshot();
        let mut purifier_cycles = 0u64;
        for (i, (page, write)) in string.refs.iter().enumerate() {
            let wordno = page * mx_hw::PAGE_WORDS as u32 + (page % 100);
            if *write {
                k.write_word(kpid, ksegno, wordno, Word::new(u64::from(*page) + 1))
                    .expect("kernel write");
            } else {
                k.read_word(kpid, ksegno, wordno).expect("kernel read");
            }
            if i % 16 == 15 {
                // An idle gap: the purifier daemon gets the processor.
                let p0 = k.machine.clock.now();
                k.run_purifier(4).expect("purifier");
                purifier_cycles += k.machine.clock.now() - p0;
            }
        }
        let kdelta = before.delta(&k.machine.clock.snapshot());

        crate::trace::publish(
            &format!("p4.legacy.{pageable}"),
            &sup.machine.clock,
            sup.stats.counters(),
        );
        crate::trace::publish(
            &format!("p4.kernel.{pageable}"),
            &k.machine.clock,
            k.stats.counters(),
        );
        debug_assert_eq!(sup.frames.pageable() as usize, pageable);
        debug_assert_eq!(k.pfm.pageable() as usize, pageable);
        rows.push(MemoryRow {
            frames: pageable,
            legacy_cycles: ldelta.cycles,
            legacy_faults: ldelta.faults,
            kernel_total_cycles: kdelta.cycles,
            kernel_user_cycles: kdelta.cycles - purifier_cycles,
            kernel_faults: kdelta.faults,
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
        crate::trace::publish(
            &format!("p5.legacy.{n}"),
            &sup.machine.clock,
            sup.stats.counters(),
        );
        crate::trace::publish(
            &format!("p5.kernel.{n}"),
            &k.machine.clock,
            k.stats.counters(),
        );
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
        // Old supervisor: a chain of `depth` directories.
        let (mut sup, lpid) = boot_legacy();
        let mut parent = sup.root();
        let mut path = String::new();
        for lvl in 0..depth {
            parent = sup
                .create_directory_in(
                    parent,
                    &format!("c{lvl}"),
                    LAcl::owner(LUserId(1)),
                    Label::BOTTOM,
                )
                .expect("chain dir");
            path.push_str(&format!(">c{lvl}"));
        }
        sup.create_segment_in(parent, "grow", LAcl::owner(LUserId(1)), Label::BOTTOM)
            .expect("segment");
        path.push_str(">grow");
        let segno = sup.initiate(lpid, &path).expect("initiate");
        let walks_before = (sup.stats.quota_walks, sup.stats.quota_walk_levels);
        let before = sup.machine.clock.now();
        for p in 0..pages {
            sup.user_write(lpid, segno, p * mx_hw::PAGE_WORDS as u32, Word::new(1))
                .expect("grow");
        }
        let legacy = (sup.machine.clock.now() - before) / u64::from(pages);
        let walks = sup.stats.quota_walks - walks_before.0;
        let levels = sup.stats.quota_walk_levels - walks_before.1;

        // New design: same chain through the gates.
        let (mut k, kpid) = boot_kernel();
        let mut parent = k.root_token();
        for lvl in 0..depth {
            parent = k
                .create_entry(
                    kpid,
                    parent,
                    &format!("c{lvl}"),
                    mx_kernel::Acl::owner(mx_kernel::UserId(1)),
                    Label::BOTTOM,
                    true,
                )
                .expect("chain dir");
        }
        let tok = k
            .create_entry(
                kpid,
                parent,
                "grow",
                mx_kernel::Acl::owner(mx_kernel::UserId(1)),
                Label::BOTTOM,
                false,
            )
            .expect("segment");
        let ksegno = k.initiate(kpid, tok).expect("initiate");
        let before = k.machine.clock.now();
        for p in 0..pages {
            k.write_word(kpid, ksegno, p * mx_hw::PAGE_WORDS as u32, Word::new(1))
                .expect("grow");
        }
        let kernel = (k.machine.clock.now() - before) / u64::from(pages);

        crate::trace::publish(
            &format!("p7.legacy.{depth}"),
            &sup.machine.clock,
            sup.stats.counters(),
        );
        crate::trace::publish(
            &format!("p7.kernel.{depth}"),
            &k.machine.clock,
            k.stats.counters(),
        );
        rows.push(QuotaRow {
            depth,
            legacy_cycles: legacy,
            legacy_walk_levels: if walks == 0 {
                0.0
            } else {
                levels as f64 / walks as f64
            },
            kernel_cycles: kernel,
        });
    }
    rows
}

// ------------------------------------------------------- P8: fault path --

/// P8 — missing-page service: interpretive retranslation vs. the
/// hardware lock bit, plus the two-processor race behaviour.
pub fn p8_fault_path(pages: u32, rounds: usize) -> Comparison {
    // Old supervisor: write pages, then repeatedly flush + fault back.
    let (mut sup, lpid) = boot_legacy();
    sup.create_segment_in(sup.root(), "hot", LAcl::owner(LUserId(1)), Label::BOTTOM)
        .expect("segment");
    let segno = sup.initiate(lpid, "hot").expect("initiate");
    for p in 0..pages {
        sup.user_write(
            lpid,
            segno,
            p * mx_hw::PAGE_WORDS as u32,
            Word::new(u64::from(p) + 1),
        )
        .expect("seed");
    }
    let hot_uid = sup
        .resolve(lpid, "hot", mx_legacy::AccessRight::Read)
        .expect("resolve")
        .0;
    let astx = sup.ast.find(hot_uid).expect("active");
    let mut legacy_faults = 0u64;
    let before = sup.machine.clock.now();
    for _ in 0..rounds {
        sup.flush_segment(astx).expect("flush");
        for p in 0..pages {
            sup.user_read(lpid, segno, p * mx_hw::PAGE_WORDS as u32)
                .expect("fault back");
            legacy_faults += 1;
        }
    }
    let legacy = (sup.machine.clock.now() - before) / legacy_faults;
    let retranslations = sup.stats.retranslations;

    // New design.
    let (mut k, kpid) = boot_kernel();
    let root = k.root_token();
    let tok = k
        .create_entry(
            kpid,
            root,
            "hot",
            mx_kernel::Acl::owner(mx_kernel::UserId(1)),
            Label::BOTTOM,
            false,
        )
        .expect("segment");
    let ksegno = k.initiate(kpid, tok).expect("initiate");
    for p in 0..pages {
        k.write_word(
            kpid,
            ksegno,
            p * mx_hw::PAGE_WORDS as u32,
            Word::new(u64::from(p) + 1),
        )
        .expect("seed");
    }
    let uid = k.uid_of_token(tok).expect("uid");
    let mut kernel_faults = 0u64;
    let before = k.machine.clock.now();
    for _ in 0..rounds {
        let handle = k.segm.get(uid).expect("active").handle;
        k.pfm
            .flush(&mut k.machine, &mut k.drm, &mut k.qcm, handle)
            .expect("flush");
        for p in 0..pages {
            k.read_word(kpid, ksegno, p * mx_hw::PAGE_WORDS as u32)
                .expect("fault back");
            kernel_faults += 1;
        }
    }
    let kernel = (k.machine.clock.now() - before) / kernel_faults;

    crate::trace::publish("p8.legacy", &sup.machine.clock, sup.stats.counters());
    crate::trace::publish("p8.kernel", &k.machine.clock, k.stats.counters());
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
    let private = k
        .create_entry(
            alice,
            root,
            "private",
            mx_kernel::Acl::owner(mx_kernel::UserId(1)),
            Label::BOTTOM,
            true,
        )
        .unwrap();
    k.create_entry(
        alice,
        private,
        "exists",
        mx_kernel::Acl::owner(mx_kernel::UserId(1)),
        Label::BOTTOM,
        false,
    )
    .unwrap();

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
    let tok = k
        .create_entry(
            pid,
            root,
            "bulky",
            mx_kernel::Acl::owner(mx_kernel::UserId(1)),
            Label::BOTTOM,
            false,
        )
        .unwrap();
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

    let (mut k, kpid) = boot_kernel();
    build_kernel_tree(&mut k, kpid, &spec);
    let mut ns = NameSpace::new(&mut k, kpid);
    let before = k.machine.clock.now();
    for _ in 0..rounds {
        for p in &paths {
            ns.resolve(&mut k, p).expect("cached resolve");
        }
    }
    let with_cache = (k.machine.clock.now() - before) / n;

    let (mut k, kpid) = boot_kernel();
    build_kernel_tree(&mut k, kpid, &spec);
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
    let run = |idle_purify: bool| -> u64 {
        let mut k = Kernel::boot(KernelConfig {
            frames: pageable + 13,
            pt_slots: 16,
            max_processes: 4,
            records_per_pack: 2048,
            toc_slots_per_pack: 64,
            root_quota: 1200,
            ..KernelConfig::default()
        });
        k.register_account("bench", mx_kernel::UserId(1), 1, Label::BOTTOM);
        let pid = k.login_residue("bench", 1, Label::BOTTOM).expect("login");
        let root = k.root_token();
        let tok = k
            .create_entry(
                pid,
                root,
                "data",
                mx_kernel::Acl::owner(mx_kernel::UserId(1)),
                Label::BOTTOM,
                false,
            )
            .expect("segment");
        let segno = k.initiate(pid, tok).expect("initiate");
        let before = k.machine.clock.now();
        let mut daemon_cycles = 0;
        for (i, (page, write)) in string.refs.iter().enumerate() {
            let wordno = page * mx_hw::PAGE_WORDS as u32;
            if *write {
                k.write_word(pid, segno, wordno, Word::new(u64::from(*page) + 1))
                    .expect("w");
            } else {
                k.read_word(pid, segno, wordno).expect("r");
            }
            if idle_purify && i % 16 == 15 {
                let p0 = k.machine.clock.now();
                k.run_purifier(4).expect("purifier");
                daemon_cycles += k.machine.clock.now() - p0;
            }
        }
        (k.machine.clock.now() - before) - daemon_cycles
    };
    Comparison {
        name: "A2  purifier idle-time ablation (user-visible cycles)",
        unit: "cycles total",
        legacy: run(false),
        kernel: run(true),
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
    // -- P2-style: repeated references to a small hot set, old
    // supervisor. Eight pages with a tight working set: after the first
    // touch every reference repeats, which is where the cache pays.
    let hot = RefString::generate(43, 8, refs, 4);
    let run_p2 = |tlb_on: bool| -> (u64, mx_hw::TlbStats) {
        let (mut sup, lpid) = boot_legacy();
        sup.create_segment_in(sup.root(), "data", LAcl::owner(LUserId(1)), Label::BOTTOM)
            .expect("segment");
        let segno = sup.initiate(lpid, "data").expect("initiate");
        set_associative_memory(&mut sup.machine, tlb_on);
        let t0 = sup.machine.tlb_stats();
        let before = sup.machine.clock.now();
        for (page, write) in &hot.refs {
            let wordno = page * mx_hw::PAGE_WORDS as u32 + (page % 100);
            if *write {
                sup.user_write(lpid, segno, wordno, Word::new(u64::from(*page) + 1))
                    .expect("a3 write");
            } else {
                sup.user_read(lpid, segno, wordno).expect("a3 read");
            }
        }
        let per = (sup.machine.clock.now() - before) / hot.refs.len() as u64;
        let tlb = tlb_delta(&t0, &sup.machine.tlb_stats());
        let label = if tlb_on { "a3.p2.on" } else { "a3.p2.off" };
        a3_check(label, &sup.machine.clock, &tlb);
        let mut counters = sup.stats.counters();
        for (name, v) in tlb.counters().iter() {
            counters.set(name, v);
        }
        crate::trace::publish(label, &sup.machine.clock, counters);
        (per, tlb)
    };
    let (p2_off, p2_off_tlb) = run_p2(false);
    let (p2_on, p2_on_tlb) = run_p2(true);
    assert_eq!(
        p2_off_tlb.lookups, 0,
        "a3.p2.off: a disabled associative memory must never be consulted"
    );

    // -- P4-style: ample-core reference string, kernel gates ------------
    let string = RefString::generate(47, pages, refs, ws);
    let run_p4 = |tlb_on: bool| -> (u64, mx_hw::TlbStats) {
        let mut k = Kernel::boot(KernelConfig {
            frames: pageable + 13,
            pt_slots: 16,
            max_processes: 4,
            records_per_pack: 2048,
            toc_slots_per_pack: 64,
            root_quota: 1200,
            ..KernelConfig::default()
        });
        k.register_account("bench", mx_kernel::UserId(1), 1, Label::BOTTOM);
        let pid = k.login_residue("bench", 1, Label::BOTTOM).expect("login");
        let root = k.root_token();
        let tok = k
            .create_entry(
                pid,
                root,
                "data",
                mx_kernel::Acl::owner(mx_kernel::UserId(1)),
                Label::BOTTOM,
                false,
            )
            .expect("segment");
        let segno = k.initiate(pid, tok).expect("initiate");
        set_associative_memory(&mut k.machine, tlb_on);
        let t0 = k.machine.tlb_stats();
        let before = k.machine.clock.now();
        for (page, write) in &string.refs {
            let wordno = page * mx_hw::PAGE_WORDS as u32;
            if *write {
                k.write_word(pid, segno, wordno, Word::new(u64::from(*page) + 1))
                    .expect("a3 write");
            } else {
                k.read_word(pid, segno, wordno).expect("a3 read");
            }
        }
        let per = (k.machine.clock.now() - before) / string.refs.len() as u64;
        let tlb = tlb_delta(&t0, &k.machine.tlb_stats());
        let label = if tlb_on { "a3.p4.on" } else { "a3.p4.off" };
        a3_check(label, &k.machine.clock, &tlb);
        let mut counters = k.stats.counters();
        for (name, v) in tlb.counters().iter() {
            counters.set(name, v);
        }
        crate::trace::publish(label, &k.machine.clock, counters);
        (per, tlb)
    };
    let (p4_off, p4_off_tlb) = run_p4(false);
    let (p4_on, p4_on_tlb) = run_p4(true);
    assert_eq!(
        p4_off_tlb.lookups, 0,
        "a3.p4.off: a disabled associative memory must never be consulted"
    );

    let hit_pct = |t: &mx_hw::TlbStats| {
        if t.lookups == 0 {
            0.0
        } else {
            t.hits as f64 / t.lookups as f64 * 100.0
        }
    };
    vec![
        Comparison {
            name: "A3a associative-memory ablation — P2-style hot set (old supervisor)",
            unit: "cycles/reference",
            legacy: p2_off,
            kernel: p2_on,
            notes: vec![format!(
                "'legacy' row = TLB off; 'kernel' row = TLB on ({} lookups, {:.1}% hits, \
                 {} invalidations)",
                p2_on_tlb.lookups,
                hit_pct(&p2_on_tlb),
                p2_on_tlb.invalidations
            )],
        },
        Comparison {
            name: "A3b associative-memory ablation — P4 ample-core references (kernel)",
            unit: "cycles/reference",
            legacy: p4_off,
            kernel: p4_on,
            notes: vec![format!(
                "'legacy' row = TLB off; 'kernel' row = TLB on ({} lookups, {:.1}% hits, \
                 {} invalidations)",
                p4_on_tlb.lookups,
                hit_pct(&p4_on_tlb),
                p4_on_tlb.invalidations
            )],
        },
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
