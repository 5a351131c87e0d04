//! R1 — deterministic crash matrix with salvager-driven recovery.
//!
//! The robustness claim under test: the salvager recovers the storage
//! hierarchy from *operational* failures — power gone mid-write, a torn
//! or dropped sector, a pack briefly offline — without fsck-style human
//! help. The harness makes that claim mechanical:
//!
//! 1. run a fixed workload (directory + quota-cell building, file
//!    writes, segment growth that forces a whole-segment relocation)
//!    once with an empty [`FaultPlan`] to learn the write ordinals;
//! 2. for every write ordinal `n` (optionally strided), rerun the
//!    workload on a fresh system with power failing on write `n` — the
//!    payload torn at a deterministic word boundary or dropped outright;
//! 3. boot a *fresh* system from the surviving disk image, run the
//!    salvager with repair on, and assert: a second pass is clean
//!    (salvage converges and is idempotent), every record on every pack
//!    is referenced by exactly one file map (no storage leaked, no
//!    double claims), and every object that reached the disk before the
//!    crash survives with intact contents.
//!
//! "Reached the disk" is the durability bar: an operation counts as
//! complete once `sync_to_disk` has flushed it. Changes still in core
//! when power fails are legitimately lost — the salvager's job is a
//! consistent hierarchy, not a redo log.
//!
//! The same matrix runs against the 1974 supervisor and the new kernel,
//! so the experiment reports recovery outcome and recovery cost in
//! cycles for both designs. Everything is keyed off the machine's own
//! transfer ordinals and a [`CrashWrite::seeded`] draw per crash
//! point, so a given stride replays exactly.

use mx_explore::oracle::check_storage;
use mx_explore::Rig;
use mx_hw::salvage::Report;
use mx_hw::{BootConfig, CrashWrite, DiskError, FaultPlan, ProcessId, Word, PAGE_WORDS};
use mx_kernel::{Kernel, KernelError, SalvageReport};
use mx_legacy::{AccessRight, LegacyError, LegacySalvageReport, Supervisor};
use std::fmt::Debug;

use crate::experiments::{publish, Comparison};

/// Seed for the per-crash-point mode draws.
const SEED: u64 = 0x5231_C4A5_11E7_0001;
/// Phase-1 files created under the quota directory.
const FILES: u32 = 2;
/// Pages written per phase-1 file.
const PAGES: u32 = 2;
/// Pages written to the growing segment (enough to overflow its home
/// pack and force a relocation).
const GROW_PAGES: u32 = 12;
/// Quota placed on the phase-1 directory.
const QUOTA_LIMIT: u32 = 16;
/// Geometry of the roomy pack attached for the relocation to land on.
const BIG_PACK: (u32, u32) = (64, 32);

const PW: u32 = PAGE_WORDS as u32;

/// The value written at word `slot` of page `p` of phase-1 file `i`.
fn val(i: u32, p: u32, slot: u32) -> Word {
    Word::new(u64::from(0o4000 + i * 256 + p * 16 + slot))
}

/// The deterministic crash mode for write ordinal `n`.
fn crash_mode(n: u64) -> CrashWrite {
    CrashWrite::seeded(SEED ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Per-design crash-matrix tallies.
#[derive(Debug, Clone, Copy)]
pub struct MatrixSummary {
    /// Disk writes in the fault-free run (the crash-point universe).
    pub total_writes: u64,
    /// Crash points actually run (every `stride`-th ordinal).
    pub tested: u32,
    /// Crash points where the first salvage pass found damage.
    pub damage_found: u32,
    /// Repairs performed across the matrix.
    pub repairs: u64,
    /// Crash points late enough that phase-1 durability was verified.
    pub durable_verified: u32,
    /// Mean cycles from recovery bootload through the clean check.
    pub avg_recovery_cycles: u64,
    /// Worst-case recovery cycles over the matrix.
    pub max_recovery_cycles: u64,
}

/// The configuration both designs boot with: two small packs, so that
/// the growing segment outgrows its home pack.
fn boot_config() -> BootConfig {
    BootConfig {
        packs: 2,
        records_per_pack: 8,
        toc_slots_per_pack: 16,
        root_quota: 64,
        ..BootConfig::default()
    }
}

/// What the crash matrix needs of a design beyond its [`Rig`].
/// [`matrix`] is written once against it; each design keeps its own
/// workload and phase-1 check.
trait Design: Rig {
    type Problem: Debug;

    /// Bootloads on the machine of `crashed`, whose power failed.
    fn recover(config: BootConfig, crashed: Self) -> Result<Self, Self::Error>;
    /// The shared workload, as `pid`. Records the write ordinal at which
    /// the phase-1 sync completed into `sync1_at`.
    fn workload(&mut self, pid: ProcessId, sync1_at: &mut Option<u64>) -> Result<(), Self::Error>;
    fn relocations(&self) -> u64;
    /// True if `e` is how a power failure surfaces.
    fn power_failed(e: &Self::Error) -> bool;
    fn salvage(&mut self, repair: bool) -> Result<Report<Self::Problem>, Self::Error>;
    /// Checks phase-1 contents on the recovered system via the ordinary
    /// gates.
    fn verify_phase1(&mut self);
}

/// Boots `D` with the roomy pack attached and a process logged in, then
/// installs `plan`, so that write ordinals count workload transfers only
/// (bootload writes are excluded).
fn armed<D: Design>(plan: FaultPlan) -> (D, ProcessId) {
    let mut sys = D::boot(boot_config());
    sys.machine().disks.attach(BIG_PACK.0, BIG_PACK.1);
    let pid = sys.login("r1");
    sys.machine().faults.install(plan);
    (sys, pid)
}

impl Design for Kernel {
    type Problem = mx_kernel::Problem;

    fn recover(config: BootConfig, crashed: Self) -> Result<Self, KernelError> {
        Kernel::boot_from_image(config, crashed.machine)
    }

    fn workload(&mut self, pid: ProcessId, sync1_at: &mut Option<u64>) -> Result<(), KernelError> {
        let root = self.root_dir();
        let d = self.create(pid, &root, "d", true)?;
        self.set_quota(pid, d, QUOTA_LIMIT)?;
        for i in 0..FILES {
            let segno = self.create_segment(pid, &d, &format!("f{i}"))?;
            for p in 0..PAGES {
                self.write_word(pid, segno, p * PW, val(i, p, 0))?;
                self.write_word(pid, segno, p * PW + PW - 1, val(i, p, 1))?;
            }
        }
        self.sync_to_disk()?;
        *sync1_at = Some(self.machine.faults.writes);
        let segno = self.create_segment(pid, &root, "grow")?;
        for p in 0..GROW_PAGES {
            self.write_word(pid, segno, p * PW, Word::new(u64::from(p) + 1))?;
        }
        self.sync_to_disk()
    }

    fn relocations(&self) -> u64 {
        self.segm.stats.relocations
    }

    fn power_failed(e: &KernelError) -> bool {
        matches!(e, KernelError::Disk(_))
    }

    fn salvage(&mut self, repair: bool) -> Result<SalvageReport, KernelError> {
        Kernel::salvage(self, repair)
    }

    fn verify_phase1(&mut self) {
        let pid = self.login("check");
        let root = self.root_token();
        let d = self
            .dir_search(pid, root, "d")
            .expect("synced dir survives");
        for i in 0..FILES {
            let f = self
                .dir_search(pid, d, &format!("f{i}"))
                .expect("synced file survives");
            let segno = self.initiate(pid, f).expect("initiate survivor");
            for p in 0..PAGES {
                assert_eq!(
                    self.read_word(pid, segno, p * PW).expect("read survivor"),
                    val(i, p, 0),
                    "file f{i} page {p} lost its first word"
                );
                assert_eq!(
                    self.read_word(pid, segno, p * PW + PW - 1)
                        .expect("read survivor"),
                    val(i, p, 1),
                    "file f{i} page {p} lost its last word"
                );
            }
        }
    }
}

impl Design for Supervisor {
    type Problem = String;

    fn recover(config: BootConfig, crashed: Self) -> Result<Self, LegacyError> {
        Supervisor::boot_from_image(config, crashed.machine)
    }

    fn workload(&mut self, pid: ProcessId, sync1_at: &mut Option<u64>) -> Result<(), LegacyError> {
        let root = self.root_dir();
        let d = self.create(pid, &root, "d", true)?;
        self.set_quota(pid, &d, QUOTA_LIMIT)?;
        for i in 0..FILES {
            let (f, _) = self.create(pid, &d, &format!("f{i}"), false)?;
            let astx = self.activate(f)?;
            for p in 0..PAGES {
                self.sup_write(astx, p * PW, val(i, p, 0))?;
                self.sup_write(astx, p * PW + PW - 1, val(i, p, 1))?;
            }
        }
        self.sync_to_disk()?;
        *sync1_at = Some(self.machine.faults.writes);
        let (g, _) = self.create(pid, &root, "grow", false)?;
        let astx = self.activate(g)?;
        for p in 0..GROW_PAGES {
            self.sup_write(astx, p * PW, Word::new(u64::from(p) + 1))?;
        }
        self.sync_to_disk()
    }

    fn relocations(&self) -> u64 {
        self.stats.relocations
    }

    fn power_failed(e: &LegacyError) -> bool {
        matches!(e, LegacyError::Disk(_))
    }

    fn salvage(&mut self, repair: bool) -> Result<LegacySalvageReport, LegacyError> {
        Supervisor::salvage(self, repair)
    }

    fn verify_phase1(&mut self) {
        let pid = self.spawn();
        for i in 0..FILES {
            let (uid, _entry) = self
                .resolve(pid, &format!(">d>f{i}"), AccessRight::Read)
                .expect("synced file survives");
            let astx = self.activate(uid).expect("activate survivor");
            for p in 0..PAGES {
                assert_eq!(
                    self.sup_read(astx, p * PW).expect("read survivor"),
                    val(i, p, 0),
                    "file f{i} page {p} lost its first word"
                );
                assert_eq!(
                    self.sup_read(astx, p * PW + PW - 1).expect("read survivor"),
                    val(i, p, 1),
                    "file f{i} page {p} lost its last word"
                );
            }
        }
    }
}

/// Panics unless, after salvage, every allocated record on every pack is
/// referenced by exactly one file map — nothing leaked, nothing
/// double-claimed (claims (c) and (d)).
fn assert_storage_conserved(disks: &mx_hw::DiskSystem, design: &str, n: u64) {
    let violations = check_storage(disks);
    assert!(
        violations.is_empty(),
        "{design} crash point {n}: {violations:?}"
    );
}

/// Runs one design's half of the crash matrix.
fn matrix<D: Design>(stride: u64) -> MatrixSummary {
    let design = D::NAME;
    // Dry run: learn the write-ordinal universe and sanity-check that
    // the workload really exercises relocation.
    let (mut sys, pid) = armed::<D>(FaultPlan::new());
    let mut sync1 = None;
    sys.workload(pid, &mut sync1).expect("fault-free run");
    let total = sys.machine().faults.writes;
    sync1.expect("phase-1 checkpoint");
    assert!(
        sys.relocations() > 0,
        "workload must force a relocation (got none in {total} writes)"
    );

    let mut tested = 0;
    let mut damage_found = 0;
    let mut repairs = 0u64;
    let mut durable_verified = 0;
    let mut cycles_sum = 0u64;
    let mut cycles_max = 0u64;
    let mut last = None;
    for n in (1..=total).step_by(stride.max(1) as usize) {
        let (mut sys, pid) = armed::<D>(FaultPlan::new().crash_after_writes(n, crash_mode(n)));
        let mut s1 = None;
        let err = sys
            .workload(pid, &mut s1)
            .expect_err("the crash plan must fire before the workload ends");
        assert!(
            D::power_failed(&err),
            "{design} crash point {n}: power failure must surface typed, got {err:?}"
        );
        let mut rs = D::recover(boot_config(), sys).expect("recovery bootload");
        let repaired = rs.salvage(true).expect("salvage with repair");
        let check = rs.salvage(false).expect("salvage check pass");
        assert!(
            check.clean(),
            "{design} crash point {n}: second salvage pass still sees {:?}",
            check.problems
        );
        assert_storage_conserved(&rs.machine().disks, design, n);
        let cycles = rs.machine().clock.now();
        if s1.is_some_and(|c| n > c) {
            rs.verify_phase1();
            durable_verified += 1;
        }
        tested += 1;
        if !repaired.problems.is_empty() {
            damage_found += 1;
        }
        repairs += repaired.repairs.len() as u64;
        cycles_sum += cycles;
        cycles_max = cycles_max.max(cycles);
        last = Some(rs);
    }
    if let Some(mut rs) = last {
        publish(&format!("r1.{design}"), &mut rs);
    }
    MatrixSummary {
        total_writes: total,
        tested,
        damage_found,
        repairs,
        durable_verified,
        avg_recovery_cycles: cycles_sum / u64::from(tested.max(1)),
        max_recovery_cycles: cycles_max,
    }
}

// ------------------------------------------------- graceful degradation --

/// Exercises the non-crash fault modes on both designs: a transient
/// read absorbed by the retry budget, budget exhaustion surfacing as a
/// typed error, and a pack going offline and coming back. Panics if any
/// path misbehaves; returns one note line per design.
fn degradation_notes() -> Vec<String> {
    let mut notes = Vec::new();

    // Kernel side.
    let (mut k, pid) = armed::<Kernel>(FaultPlan::new());
    let root = k.root_dir();
    let t = k.create(pid, &root, "t", false).expect("probe file");
    let segno = k.initiate(pid, t).expect("initiate probe");
    k.write_word(pid, segno, 0, Word::new(0o7777))
        .expect("probe write");
    k.sync_to_disk().expect("probe sync");
    let uid = k.uid_of_token(t).expect("probe uid");
    let home = k.dirm.home_of(uid).expect("probe home");
    let rec = k
        .machine
        .disks
        .pack(home.pack)
        .expect("probe pack")
        .entry(home.toc)
        .expect("probe toc")
        .file_map[0]
        .expect("probe record");
    k.machine
        .faults
        .install(FaultPlan::new().transient_read(home.pack, rec, 1));
    assert_eq!(
        k.read_word(pid, segno, 0).expect("absorbed read"),
        Word::new(0o7777)
    );
    assert!(k.pfm.stats.transient_retries >= 1, "retry not counted");
    k.sync_to_disk().expect("re-sync");
    let mut plan = FaultPlan::new();
    for kth in 1..=u64::from(mx_kernel::page_frame::READ_RETRY_BUDGET) + 1 {
        plan = plan.transient_read(home.pack, rec, kth);
    }
    k.machine.faults.install(plan);
    let err = k.read_word(pid, segno, 0).expect_err("budget exhausted");
    assert!(
        matches!(err, KernelError::Disk(DiskError::TransientRead { .. })),
        "exhaustion must be typed, got {err:?}"
    );
    k.machine.faults.clear();
    k.sync_to_disk().expect("re-sync");
    k.machine.faults.set_offline(home.pack, true);
    let err = k.read_word(pid, segno, 0).expect_err("pack offline");
    assert!(
        matches!(err, KernelError::Disk(DiskError::PackOffline { .. })),
        "offline must be typed, got {err:?}"
    );
    k.machine.faults.set_offline(home.pack, false);
    assert_eq!(
        k.read_word(pid, segno, 0).expect("pack back online"),
        Word::new(0o7777)
    );
    notes.push(format!(
        "kernel: transient read absorbed ({} retries), retry exhaustion \
         and offline pack surface typed, pack return resumes service",
        k.pfm.stats.transient_retries
    ));

    // Old-supervisor side.
    let (mut sup, pid) = armed::<Supervisor>(FaultPlan::new());
    let root = sup.root_dir();
    let (t, _) = sup.create(pid, &root, "t", false).expect("probe file");
    let astx = sup.activate(t).expect("activate probe");
    sup.sup_write(astx, 0, Word::new(0o7777))
        .expect("probe write");
    sup.sync_to_disk().expect("probe sync");
    let (_uid, e) = sup
        .resolve(pid, ">t", AccessRight::Read)
        .expect("probe entry");
    let home = e.home;
    let rec = sup
        .machine
        .disks
        .pack(home.pack)
        .expect("probe pack")
        .entry(home.toc)
        .expect("probe toc")
        .file_map[0]
        .expect("probe record");
    sup.machine
        .faults
        .install(FaultPlan::new().transient_read(home.pack, rec, 1));
    let astx = sup.activate(t).expect("re-activate");
    assert_eq!(
        sup.sup_read(astx, 0).expect("absorbed read"),
        Word::new(0o7777)
    );
    assert!(sup.stats.disk_retries >= 1, "retry not counted");
    sup.sync_to_disk().expect("re-sync");
    let mut plan = FaultPlan::new();
    for kth in 1..=u64::from(mx_legacy::page_control::READ_RETRY_BUDGET) + 1 {
        plan = plan.transient_read(home.pack, rec, kth);
    }
    sup.machine.faults.install(plan);
    let astx = sup.activate(t).expect("re-activate");
    let err = sup.sup_read(astx, 0).expect_err("budget exhausted");
    assert!(
        matches!(err, LegacyError::Disk(DiskError::TransientRead { .. })),
        "exhaustion must be typed, got {err:?}"
    );
    sup.machine.faults.clear();
    sup.sync_to_disk().expect("re-sync");
    sup.machine.faults.set_offline(home.pack, true);
    // The old supervisor stores directory representations in segments,
    // so even re-activation pages against the offline pack — and must
    // degrade to a typed error rather than a panic.
    let err = sup.activate(t).expect_err("pack offline");
    assert!(
        matches!(err, LegacyError::Disk(DiskError::PackOffline { .. })),
        "offline must be typed, got {err:?}"
    );
    sup.machine.faults.set_offline(home.pack, false);
    let astx = sup.activate(t).expect("re-activate");
    assert_eq!(
        sup.sup_read(astx, 0).expect("pack back online"),
        Word::new(0o7777)
    );
    notes.push(format!(
        "legacy: transient read absorbed ({} retries), retry exhaustion \
         and offline pack surface typed, pack return resumes service",
        sup.stats.disk_retries
    ));
    notes
}

// ---------------------------------------------------------- experiment --

/// R1 — the crash matrix, both designs, every `stride`-th write of the
/// workload taken as a crash point. Panics (failing the experiment) if
/// any crash point fails to recover to a clean, conserved hierarchy
/// with durable contents intact.
pub fn r1_crash_recovery(stride: u64) -> Comparison {
    let kernel = matrix::<Kernel>(stride);
    let legacy = matrix::<Supervisor>(stride);
    let mut notes: Vec<String> = [("legacy", &legacy), ("kernel", &kernel)]
        .iter()
        .map(|(design, m)| {
            format!(
                "{design}: {}/{} crash points run, damage at {}, {} repairs, \
                 durable contents verified at {} points, worst recovery {} cycles",
                m.tested,
                m.total_writes,
                m.damage_found,
                m.repairs,
                m.durable_verified,
                m.max_recovery_cycles
            )
        })
        .collect();
    notes.push(
        "every point recovered: salvage converged (second pass clean), \
         records conserved, synced objects intact"
            .to_string(),
    );
    notes.extend(degradation_notes());
    Comparison {
        name: "R1  crash matrix: salvager-driven recovery",
        unit: "cycles/recovery (mean)",
        legacy: legacy.avg_recovery_cycles,
        kernel: kernel.avg_recovery_cycles,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: salvage-with-repair is idempotent from every crash
    /// state — the matrix asserts the second pass is clean at each
    /// point. Subsampled here to keep the test quick; `repro --only r1`
    /// runs the full matrix.
    #[test]
    fn subsampled_crash_matrix_recovers_both_designs() {
        let k = matrix::<Kernel>(7);
        assert!(k.tested > 0);
        assert!(k.durable_verified > 0, "late crash points must be tested");
        let l = matrix::<Supervisor>(7);
        assert!(l.tested > 0);
        assert!(l.durable_verified > 0, "late crash points must be tested");
    }

    /// Same seed, same matrix: the experiment is replayable.
    #[test]
    fn crash_matrix_is_deterministic() {
        let a = matrix::<Kernel>(11);
        let b = matrix::<Kernel>(11);
        assert_eq!(a.total_writes, b.total_writes);
        assert_eq!(a.damage_found, b.damage_found);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.avg_recovery_cycles, b.avg_recovery_cycles);
        assert_eq!(a.max_recovery_cycles, b.max_recovery_cycles);
    }

    /// The non-crash fault modes behave on both designs.
    #[test]
    fn degradation_paths_hold() {
        assert_eq!(degradation_notes().len(), 2);
    }
}
