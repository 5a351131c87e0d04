//! Fault-injection edge cases at the boundaries of the recovery story.
//!
//! R1 sweeps crash points; these tests pin the edges it skirts: a
//! transient read that fails on the *last* retry of `READ_RETRY_BUDGET`
//! (one short of the budget is absorbed; exactly the budget surfaces as
//! a typed error, never a panic), a pack dropping offline in the middle
//! of a salvage walk, and the full-pack segment move refused or failed
//! part-way (a target too small, an exactly full one, a read exhausting
//! the design's retry edge), which must leave no storage and no quota
//! charge behind. Both designs.

use multics::aim::Label;
use multics::explore::oracle::check_storage;
use multics::hw::{DiskError, FaultPlan, PackId, Word, PAGE_WORDS};
use multics::kernel::{Acl, Kernel, KernelConfig, KernelError, UserId};
use multics::legacy::{
    AccessRight, Acl as LAcl, LegacyError, Supervisor, SupervisorConfig, UserId as LUserId,
};

const BUDGET: u64 = multics::kernel::page_frame::READ_RETRY_BUDGET as u64;

/// Boots a kernel with one file whose page 0 is flushed to disk;
/// returns the kernel, pid, segno, and the page's (pack, record).
fn kernel_with_cold_page() -> (
    Kernel,
    multics::kernel::ProcessId,
    u32,
    PackId,
    multics::hw::RecordNo,
) {
    let mut k = Kernel::boot(KernelConfig::default());
    k.register_account("u", UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
    let root = k.root_token();
    let tok = k
        .create_entry(pid, root, "f", Acl::owner(UserId(1)), Label::BOTTOM, false)
        .unwrap();
    let segno = k.initiate(pid, tok).unwrap();
    k.write_word(pid, segno, 0, Word::new(0o1234)).unwrap();
    let uid = k.uid_of_token(tok).unwrap();
    let handle = k.segm.get(uid).unwrap().handle;
    k.pfm
        .flush(&mut k.machine, &mut k.drm, &mut k.qcm, handle)
        .unwrap();
    let home = k.dirm.home_of(uid).unwrap();
    let rec = k.drm.record_of(&k.machine, home, 0).unwrap().unwrap();
    (k, pid, segno, home.pack, rec)
}

#[test]
fn kernel_failures_up_to_the_penultimate_retry_are_absorbed() {
    let (mut k, pid, segno, pack, rec) = kernel_with_cold_page();
    // BUDGET - 1 consecutive transient failures: the final attempt of
    // the budget succeeds, so the caller never sees an error.
    let mut plan = FaultPlan::new();
    for kth in 1..BUDGET {
        plan = plan.transient_read(pack, rec, kth);
    }
    k.machine.install_fault_plan(plan);
    let before = k.pfm.stats.transient_retries;
    assert_eq!(k.read_word(pid, segno, 0).unwrap(), Word::new(0o1234));
    assert_eq!(
        k.pfm.stats.transient_retries,
        before + BUDGET - 1,
        "every absorbed failure is accounted"
    );
}

#[test]
fn kernel_failure_on_the_last_retry_exhausts_the_budget_as_typed_error() {
    let (mut k, pid, segno, pack, rec) = kernel_with_cold_page();
    // Exactly BUDGET consecutive failures: the last permitted attempt
    // fails too, and the exhaustion is a typed error — not a panic, not
    // a hang, not a corrupted frame.
    let mut plan = FaultPlan::new();
    for kth in 1..=BUDGET {
        plan = plan.transient_read(pack, rec, kth);
    }
    k.machine.install_fault_plan(plan);
    let err = k.read_word(pid, segno, 0).unwrap_err();
    assert!(
        matches!(err, KernelError::Disk(DiskError::TransientRead { .. })),
        "expected typed transient-read exhaustion, got {err:?}"
    );
    // The fault really was transient: with the plan's ordinals spent the
    // same reference succeeds and the data is intact.
    assert_eq!(k.read_word(pid, segno, 0).unwrap(), Word::new(0o1234));
    // And the file system took no damage on the way through.
    let report = k.salvage(false).unwrap();
    assert!(report.clean(), "problems: {:?}", report.problems);
}

#[test]
fn legacy_budget_has_the_same_last_retry_edge() {
    assert_eq!(
        multics::legacy::page_control::READ_RETRY_BUDGET,
        multics::kernel::page_frame::READ_RETRY_BUDGET,
        "both designs retry the same number of times"
    );
    let mut sup = Supervisor::boot(SupervisorConfig::default());
    let pid = sup.create_process(LUserId(1), Label::BOTTOM).unwrap();
    sup.create_segment_in(sup.root(), "f", LAcl::owner(LUserId(1)), Label::BOTTOM)
        .unwrap();
    let segno = sup.initiate(pid, "f").unwrap();
    sup.user_write(pid, segno, 0, Word::new(0o4321)).unwrap();
    let uid = sup.resolve(pid, "f", AccessRight::Read).unwrap().0;
    let astx = sup.ast.find(uid).unwrap();
    sup.flush_segment(astx).unwrap();
    let home = sup.ast.get(astx).unwrap().home;
    let rec = sup
        .machine
        .disks
        .pack(home.pack)
        .unwrap()
        .entry(home.toc)
        .unwrap()
        .file_map[0]
        .unwrap();

    // The full budget of failures: the retry loop absorbs them all and
    // the attempt after the last retry succeeds.
    let mut plan = FaultPlan::new();
    for kth in 1..=BUDGET {
        plan = plan.transient_read(home.pack, rec, kth);
    }
    sup.machine.install_fault_plan(plan);
    assert_eq!(sup.user_read(pid, segno, 0).unwrap(), Word::new(0o4321));

    // Page it back out and fail one past the budget: typed error. (The
    // 1974 loop counts *retries after the first attempt*, so it absorbs
    // BUDGET transient failures and errors on failure BUDGET + 1; the
    // kernel loop counts attempts and errors on failure BUDGET. The R1
    // crash matrix sweeps both boundaries; these tests pin each design's
    // own edge.)
    sup.flush_segment(astx).unwrap();
    let mut plan = FaultPlan::new();
    for kth in 1..=BUDGET + 1 {
        plan = plan.transient_read(home.pack, rec, kth);
    }
    sup.machine.install_fault_plan(plan);
    let err = sup.user_read(pid, segno, 0).unwrap_err();
    assert!(
        matches!(err, LegacyError::Disk(DiskError::TransientRead { .. })),
        "expected typed transient-read exhaustion, got {err:?}"
    );
    // Recovery after the transient clears.
    assert_eq!(sup.user_read(pid, segno, 0).unwrap(), Word::new(0o4321));
}

#[test]
fn kernel_pack_offline_mid_salvage_is_a_typed_error() {
    // A small table of contents on pack 0 forces later directories to
    // spill onto pack 1, so the salvage walk crosses pack boundaries.
    let mut k = Kernel::boot(KernelConfig {
        toc_slots_per_pack: 12,
        records_per_pack: 128,
        root_quota: 256,
        ..KernelConfig::default()
    });
    k.register_account("u", UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
    let root = k.root_token();
    let mut victim_pack = None;
    let mut dir_uids = Vec::new();
    for i in 0..8 {
        let d = k
            .create_entry(
                pid,
                root,
                &format!("d{i}"),
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                true,
            )
            .unwrap();
        let f = k
            .create_entry(pid, d, "f", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let segno = k.initiate(pid, f).unwrap();
        k.write_word(pid, segno, 0, Word::new(7)).unwrap();
        let uid = k.uid_of_token(d).unwrap();
        dir_uids.push(uid);
        let home = k.dirm.home_of(uid).unwrap();
        if home.pack != PackId(0) {
            victim_pack = Some(home.pack);
            break;
        }
    }
    let victim = victim_pack.expect("some directory landed off pack 0");
    k.sync_to_disk().unwrap();
    // Push every directory's pages out of core so the walk must read the
    // platters, then drop the victim pack offline. The walk succeeds on
    // the online pack's reads and hits the offline one mid-walk.
    for uid in dir_uids {
        if let Some(seg) = k.segm.get(uid) {
            let handle = seg.handle;
            k.pfm
                .flush(&mut k.machine, &mut k.drm, &mut k.qcm, handle)
                .unwrap();
        }
    }
    k.machine.faults.set_offline(victim, true);
    let err = k.salvage(false).unwrap_err();
    assert!(
        matches!(err, KernelError::Disk(DiskError::PackOffline { pack }) if pack == victim),
        "expected typed pack-offline from the salvage walk, got {err:?}"
    );
    // The pack comes back: the salvager completes and finds the file
    // system it abandoned mid-walk fully consistent.
    k.machine.faults.set_offline(victim, false);
    let report = k.salvage(false).unwrap();
    assert!(report.clean(), "problems: {:?}", report.problems);
}

#[test]
fn legacy_pack_offline_surfaces_typed_error_and_recovers() {
    let mut sup = Supervisor::boot(SupervisorConfig::default());
    let pid = sup.create_process(LUserId(1), Label::BOTTOM).unwrap();
    sup.create_segment_in(sup.root(), "g", LAcl::owner(LUserId(1)), Label::BOTTOM)
        .unwrap();
    let segno = sup.initiate(pid, "g").unwrap();
    sup.user_write(pid, segno, 0, Word::new(0o77)).unwrap();
    let uid = sup.resolve(pid, "g", AccessRight::Read).unwrap().0;
    let astx = sup.ast.find(uid).unwrap();
    sup.flush_segment(astx).unwrap();
    let home = sup.ast.get(astx).unwrap().home;
    sup.machine.faults.set_offline(home.pack, true);
    let err = sup.user_read(pid, segno, 0).unwrap_err();
    assert!(
        matches!(err, LegacyError::Disk(DiskError::PackOffline { pack }) if pack == home.pack),
        "expected typed pack-offline, got {err:?}"
    );
    sup.machine.faults.set_offline(home.pack, false);
    assert_eq!(sup.user_read(pid, segno, 0).unwrap(), Word::new(0o77));
    let report = sup.salvage(false).unwrap();
    assert!(report.clean(), "problems: {:?}", report.problems);
}

#[test]
fn legacy_pack_offline_mid_salvage_is_a_typed_error() {
    // A small table of contents on pack 0 forces later directories to
    // spill onto pack 1, so the raw walk crosses pack boundaries.
    let mut sup = Supervisor::boot(SupervisorConfig {
        toc_slots_per_pack: 12,
        records_per_pack: 128,
        ..SupervisorConfig::default()
    });
    let pid = sup.create_process(LUserId(1), Label::BOTTOM).unwrap();
    let mut victim = None;
    for i in 0..8 {
        let d = sup
            .create_directory_in(
                sup.root(),
                &format!("d{i}"),
                LAcl::owner(LUserId(1)),
                Label::BOTTOM,
            )
            .unwrap();
        sup.create_segment_in(d, "f", LAcl::owner(LUserId(1)), Label::BOTTOM)
            .unwrap();
        let path = format!("d{i}>f");
        let segno = sup.initiate(pid, &path).unwrap();
        sup.user_write(pid, segno, 0, Word::new(0o70 + i)).unwrap();
        let astx = sup.activate(d).unwrap();
        let pack = sup.ast.get(astx).unwrap().home.pack;
        if pack != PackId(0) {
            victim = Some((pack, path, Word::new(0o70 + i)));
            break;
        }
    }
    let (pack, path, value) = victim.expect("some directory landed off pack 0");
    sup.sync_to_disk().unwrap();
    let image = |sup: &Supervisor| {
        let packs = sup.machine.disks.packs();
        let toc: Vec<_> = packs
            .map(|p| {
                let entries: Vec<_> = p.entries().map(|(i, e)| (i, e.clone())).collect();
                (entries, p.allocated_record_nos())
            })
            .collect();
        let root = sup.ast.find(sup.root()).unwrap();
        (toc, sup.ast.get(root).unwrap().quota)
    };
    let before = image(&sup);
    // The walk reads the online pack and meets the offline one mid-walk:
    // a directory it cannot read is not an empty directory, so nothing
    // below it may be reclaimed as an orphan or uncharged.
    sup.machine.faults.set_offline(pack, true);
    let err = sup.salvage(true).unwrap_err();
    assert!(
        matches!(err, LegacyError::Disk(DiskError::PackOffline { pack: p }) if p == pack),
        "expected typed pack-offline from the salvage walk, got {err:?}"
    );
    assert!(
        image(&sup) == before,
        "the failed salvage must leave every TOC entry, record and cell in place"
    );
    // The pack comes back: the salvager finds the file system it
    // abandoned mid-walk fully consistent, and the file reads its value.
    sup.machine.faults.set_offline(pack, false);
    let report = sup.salvage(false).unwrap();
    assert!(report.clean(), "problems: {:?}", report.problems);
    let segno = sup.initiate(pid, &path).unwrap();
    assert_eq!(sup.user_read(pid, segno, 0).unwrap(), value);
}

// ------------------------------------------------------ full-pack moves --

/// The first word of page `p` of the test file.
fn page(p: u32) -> u32 {
    p * PAGE_WORDS as u32
}

/// A booted kernel with one process and one initiated file `f`.
struct KFile {
    k: Kernel,
    pid: multics::kernel::ProcessId,
    segno: u32,
    uid: multics::kernel::SegUid,
}

impl KFile {
    fn boot(config: KernelConfig) -> Self {
        let mut k = Kernel::boot(config);
        k.register_account("u", UserId(1), 1, Label::BOTTOM);
        let pid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
        let root = k.root_token();
        let tok = k
            .create_entry(pid, root, "f", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let segno = k.initiate(pid, tok).unwrap();
        let uid = k.uid_of_token(tok).unwrap();
        Self { k, pid, segno, uid }
    }

    fn write(&mut self, p: u32) -> Result<(), KernelError> {
        self.k
            .write_word(self.pid, self.segno, page(p), Word::new(u64::from(p) + 1))
    }

    /// Writes pages from page 0 on while pack 0 has a free record;
    /// returns the next page.
    fn fill_pack_0(&mut self) -> u32 {
        let mut p = 0;
        while self.k.machine.disks.pack(PackId(0)).unwrap().free_records() > 0 {
            self.write(p).unwrap();
            p += 1;
        }
        p
    }

    fn home(&self) -> multics::kernel::DiskHome {
        self.k.dirm.home_of(self.uid).unwrap()
    }

    /// Every page below `pages` reads back what [`KFile::write`] wrote,
    /// storage is conserved and the salvager finds nothing, after the
    /// image is synced.
    fn intact(&mut self, pages: u32) {
        for p in 0..pages {
            let w = self.k.read_word(self.pid, self.segno, page(p)).unwrap();
            assert_eq!(w, Word::new(u64::from(p) + 1), "page {p}");
        }
        self.k.sync_to_disk().unwrap();
        assert_eq!(check_storage(&self.k.machine.disks), Vec::<String>::new());
        let report = self.k.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
    }
}

/// A booted old supervisor with one process and one initiated file `f`.
struct LFile {
    sup: Supervisor,
    pid: multics::legacy::ProcessId,
    segno: u32,
}

impl LFile {
    fn boot(config: SupervisorConfig) -> Self {
        let mut sup = Supervisor::boot(config);
        let pid = sup.create_process(LUserId(1), Label::BOTTOM).unwrap();
        sup.create_segment_in(sup.root(), "f", LAcl::owner(LUserId(1)), Label::BOTTOM)
            .unwrap();
        let segno = sup.initiate(pid, "f").unwrap();
        Self { sup, pid, segno }
    }

    fn write(&mut self, p: u32) -> Result<(), LegacyError> {
        self.sup
            .user_write(self.pid, self.segno, page(p), Word::new(u64::from(p) + 1))
    }

    fn fill_pack_0(&mut self) -> u32 {
        let mut p = 0;
        while self
            .sup
            .machine
            .disks
            .pack(PackId(0))
            .unwrap()
            .free_records()
            > 0
        {
            self.write(p).unwrap();
            p += 1;
        }
        p
    }

    fn home(&mut self) -> multics::legacy::types::DiskHome {
        let uid = self
            .sup
            .resolve(self.pid, "f", AccessRight::Read)
            .unwrap()
            .0;
        let astx = self.sup.activate(uid).unwrap();
        self.sup.ast.get(astx).unwrap().home
    }

    fn intact(&mut self, pages: u32) {
        for p in 0..pages {
            let w = self.sup.user_read(self.pid, self.segno, page(p)).unwrap();
            assert_eq!(w, Word::new(u64::from(p) + 1), "page {p}");
        }
        self.sup.sync_to_disk().unwrap();
        assert_eq!(check_storage(&self.sup.machine.disks), Vec::<String>::new());
        let report = self.sup.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
    }
}

fn one_small_pack() -> KernelConfig {
    KernelConfig {
        packs: 1,
        records_per_pack: 16,
        ..KernelConfig::default()
    }
}

fn legacy_one_small_pack() -> SupervisorConfig {
    SupervisorConfig {
        packs: 1,
        records_per_pack: 16,
        ..SupervisorConfig::default()
    }
}

#[test]
fn kernel_refused_growth_gives_its_quota_charge_back() {
    let mut f = KFile::boot(KernelConfig {
        packs: 2,
        records_per_pack: 8,
        toc_slots_per_pack: 16,
        root_quota: 64,
        ..KernelConfig::default()
    });
    let mut written = 0;
    let mut refused = 0;
    for p in 0..20 {
        match f.write(p) {
            Ok(()) => written = p + 1,
            Err(KernelError::AllPacksFull) => refused += 1,
            Err(e) => panic!("page {p}: {e:?}"),
        }
    }
    assert!(
        refused > 0 && written > 0,
        "{written} written, {refused} refused"
    );
    f.intact(written);
}

#[test]
fn legacy_refused_growth_gives_its_quota_charge_back() {
    let mut f = LFile::boot(SupervisorConfig {
        packs: 2,
        records_per_pack: 8,
        toc_slots_per_pack: 16,
        root_quota: 64,
        ..SupervisorConfig::default()
    });
    let mut written = 0;
    let mut refused = 0;
    for p in 0..20 {
        match f.write(p) {
            Ok(()) => written = p + 1,
            Err(LegacyError::AllPacksFull) => refused += 1,
            Err(e) => panic!("page {p}: {e:?}"),
        }
    }
    assert!(
        refused > 0 && written > 0,
        "{written} written, {refused} refused"
    );
    f.intact(written);
}

#[test]
fn kernel_move_to_a_pack_too_small_is_refused_untouched() {
    let mut f = KFile::boot(one_small_pack());
    let next = f.fill_pack_0();
    assert_eq!(
        f.write(next),
        Err(KernelError::AllPacksFull),
        "no other pack"
    );
    // A pack with fewer free records than the file has pages.
    let small = f.k.machine.disks.attach(5, 8);
    let home = f.home();
    assert!(f.k.drm.records_used(&f.k.machine, home).unwrap() > 5);
    assert_eq!(f.write(next), Err(KernelError::AllPacksFull));
    assert_eq!(f.home(), home, "the file did not move");
    let target = f.k.machine.disks.pack(small).unwrap();
    assert_eq!((target.free_records(), target.entries().count()), (5, 0));
    f.intact(next);
}

#[test]
fn legacy_move_to_a_pack_too_small_is_refused_untouched() {
    let mut f = LFile::boot(legacy_one_small_pack());
    let next = f.fill_pack_0();
    assert_eq!(
        f.write(next),
        Err(LegacyError::AllPacksFull),
        "no other pack"
    );
    let small = f.sup.machine.disks.attach(5, 8);
    let home = f.home();
    assert_eq!(f.write(next), Err(LegacyError::AllPacksFull));
    assert_eq!(f.home(), home, "the file did not move");
    let target = f.sup.machine.disks.pack(small).unwrap();
    assert_eq!((target.free_records(), target.entries().count()), (5, 0));
    f.intact(next);
}

#[test]
fn kernel_move_to_an_exactly_full_pack_keeps_the_file() {
    // A four-page file, every pack full, and a new pack with exactly
    // four free records: the move would fit, the page after it not.
    let mut f = KFile::boot(one_small_pack());
    for p in 0..4 {
        f.write(p).unwrap();
    }
    let root = f.k.root_token();
    let g =
        f.k.create_entry(
            f.pid,
            root,
            "g",
            Acl::owner(UserId(1)),
            Label::BOTTOM,
            false,
        )
        .unwrap();
    let gseg = f.k.initiate(f.pid, g).unwrap();
    let mut p = 0;
    while f.k.write_word(f.pid, gseg, page(p), Word::new(1)).is_ok() {
        p += 1;
    }
    f.k.machine.disks.attach(4, 8);
    let home = f.home();
    assert_eq!(f.write(4), Err(KernelError::AllPacksFull));
    assert_eq!(f.home(), home, "refused before anything moved");
    f.intact(4);
}

#[test]
fn legacy_move_to_an_exactly_full_pack_keeps_the_file() {
    let mut f = LFile::boot(legacy_one_small_pack());
    for p in 0..4 {
        f.write(p).unwrap();
    }
    f.sup
        .create_segment_in(f.sup.root(), "g", LAcl::owner(LUserId(1)), Label::BOTTOM)
        .unwrap();
    let gseg = f.sup.initiate(f.pid, "g").unwrap();
    let mut p = 0;
    while f.sup.user_write(f.pid, gseg, page(p), Word::new(1)).is_ok() {
        p += 1;
    }
    f.sup.machine.disks.attach(4, 8);
    let home = f.home();
    let relocations = f.sup.stats.relocations;
    assert_eq!(f.write(4), Err(LegacyError::AllPacksFull));
    assert_eq!(f.home(), home, "refused before anything moved");
    assert_eq!(f.sup.stats.relocations, relocations + 1, "a move was tried");
    f.intact(4);
}

/// Transient failures the move meets on the first record it reads.
fn failing_first_record(pack: PackId, rec: multics::hw::RecordNo, failures: u64) -> FaultPlan {
    (1..=failures).fold(FaultPlan::new(), |plan, kth| {
        plan.transient_read(pack, rec, kth)
    })
}

#[test]
fn kernel_move_absorbs_as_many_transient_failures_as_its_paging() {
    for (failures, moves) in [(BUDGET - 1, true), (BUDGET, false)] {
        let mut f = KFile::boot(one_small_pack());
        f.k.machine.disks.attach(64, 16);
        let next = f.fill_pack_0();
        let home = f.home();
        let rec = f.k.drm.record_of(&f.k.machine, home, 0).unwrap().unwrap();
        let plan = failing_first_record(home.pack, rec, failures);
        f.k.machine.install_fault_plan(plan);
        let retries = f.k.pfm.stats.transient_retries;
        match f.write(next) {
            Ok(()) if moves => assert_ne!(f.home(), home),
            Err(KernelError::Disk(DiskError::TransientRead { .. })) if !moves => {
                assert_eq!(f.home(), home, "the failed move left the file");
                assert_eq!(check_storage(&f.k.machine.disks), Vec::<String>::new());
                assert_eq!(
                    f.k.machine.disks.pack(PackId(1)).unwrap().entries().count(),
                    0
                );
                // The failures were transient: the next attempt moves.
                f.write(next).unwrap();
            }
            other => panic!("{failures} failures: {other:?}"),
        }
        assert_eq!(
            f.k.pfm.stats.transient_retries - retries,
            BUDGET - 1,
            "absorbed"
        );
        f.intact(next + 1);
    }
}

#[test]
fn legacy_move_absorbs_as_many_transient_failures_as_its_paging() {
    for (failures, moves) in [(BUDGET, true), (BUDGET + 1, false)] {
        let mut f = LFile::boot(legacy_one_small_pack());
        f.sup.machine.disks.attach(64, 16);
        let next = f.fill_pack_0();
        let home = f.home();
        let entry = f.sup.machine.disks.pack(home.pack).unwrap().entry(home.toc);
        let rec = entry.unwrap().file_map[0].unwrap();
        let plan = failing_first_record(home.pack, rec, failures);
        f.sup.machine.install_fault_plan(plan);
        let retries = f.sup.stats.disk_retries;
        match f.write(next) {
            Ok(()) if moves => assert_ne!(f.home(), home),
            Err(LegacyError::Disk(DiskError::TransientRead { .. })) if !moves => {
                assert_eq!(f.home(), home, "the failed move left the file");
                assert_eq!(check_storage(&f.sup.machine.disks), Vec::<String>::new());
                assert_eq!(
                    f.sup
                        .machine
                        .disks
                        .pack(PackId(1))
                        .unwrap()
                        .entries()
                        .count(),
                    0
                );
                f.write(next).unwrap();
            }
            other => panic!("{failures} failures: {other:?}"),
        }
        assert_eq!(f.sup.stats.disk_retries - retries, BUDGET, "absorbed");
        f.intact(next + 1);
    }
}
