//! What the two salvagers share.
//!
//! Both designs' salvagers check the same facts of the packs: each
//! directory entry names a TOC entry that exists and records the entry's
//! uid, no two entries claim one TOC entry, every TOC entry is claimed
//! (or is the root's), and every allocated record is referenced by some
//! file map. This module holds those checks, once:
//!
//! - [`Claims`], the claim check: an entry's TOC entry must be [`live`],
//!   and the first claim on it wins;
//! - [`sweep`], each pack's sweep for unclaimed TOC entries and for
//!   unreferenced records, which each design's offline pass and its
//!   online finalize both run, in [`Sweep::all`]'s order;
//! - [`Online`] and [`step`], the online salvage machine, which claims
//!   one directory a step while the system serves;
//! - [`Report`], what either salvager returns: the objects and cells it
//!   checked, its problems in the design's own type, and its repairs.
//!
//! A design implements [`Salvager`] with what it alone knows: how it
//! reads a directory, reads and repairs its quota cells and clears an
//! entry (all inside [`Salvager::claim_dir`]), and whether an orphan may
//! be reclaimed ([`Salvager::orphan`]).

use crate::disk::{DiskHome, DiskSystem, PackId, RecordNo, TocEntry};
use crate::ids::SegUid;
use crate::meter::Subsystem;
use crate::Machine;
use std::collections::{HashSet, VecDeque};
use std::fmt::Debug;

/// The TOC entry at `home`, if its pack and the entry exist.
pub fn toc_entry(disks: &DiskSystem, home: DiskHome) -> Option<&TocEntry> {
    disks
        .pack(home.pack)
        .ok()
        .and_then(|p| p.entry(home.toc).ok())
}

/// True if the TOC entry at `home` exists and records `uid`.
pub fn live(disks: &DiskSystem, home: DiskHome, uid: SegUid) -> bool {
    toc_entry(disks, home).is_some_and(|e| e.uid == uid.0)
}

/// What a directory entry's claim on its TOC entry finds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// The TOC entry is missing or records another uid.
    Dangling,
    /// An earlier entry claimed the TOC entry first.
    Duplicate,
    /// This claim is the first.
    Won,
}

/// Claimed TOC entries, kept in claim order so that an online step that
/// fails can forget its own.
#[derive(Debug, Default)]
pub struct Claims {
    set: HashSet<DiskHome>,
    order: Vec<DiskHome>,
}

impl Claims {
    /// Claims the TOC entry at `home` for an entry that names `uid`.
    pub fn claim(&mut self, disks: &DiskSystem, home: DiskHome, uid: SegUid) -> Claim {
        if !live(disks, home, uid) {
            Claim::Dangling
        } else if self.insert(home) {
            Claim::Won
        } else {
            Claim::Duplicate
        }
    }

    /// Claims the TOC entry at `home` unchecked: the root's home, or an
    /// object the service made. False if it was claimed already.
    pub fn insert(&mut self, home: DiskHome) -> bool {
        let fresh = self.set.insert(home);
        if fresh {
            self.order.push(home);
        }
        fresh
    }

    /// True if the TOC entry at `home` is claimed.
    pub fn contains(&self, home: DiskHome) -> bool {
        self.set.contains(&home)
    }

    /// [`Claims::claim`] into `seen`, for an entry these claims do not
    /// hold: true if the entry is live and neither set held it. A quota
    /// cell's preview counts a frozen subtree this way without claiming
    /// anything.
    pub fn preview(
        &self,
        seen: &mut Claims,
        disks: &DiskSystem,
        home: DiskHome,
        uid: SegUid,
    ) -> bool {
        !self.contains(home) && seen.claim(disks, home, uid) == Claim::Won
    }

    /// Forgets every claim after the first `len`.
    fn truncate(&mut self, len: usize) {
        for key in self.order.drain(len..) {
            self.set.remove(&key);
        }
    }
}

/// One pack's sweep, run once every directory has been claimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Reports each TOC entry of the pack that no claim names, and
    /// reclaims it if the design may ([`Salvager::orphan`]).
    Orphans(PackId),
    /// Reports each allocated record of the pack that no file map
    /// references, and frees it.
    Leaks(PackId),
}

impl Sweep {
    /// Every pack's orphan sweep, then every pack's leak sweep: a pack's
    /// leaks are swept after its reclaimed orphans freed their records.
    pub fn all(disks: &DiskSystem) -> VecDeque<Sweep> {
        let packs = || disks.packs().map(|p| p.id);
        packs()
            .map(Sweep::Orphans)
            .chain(packs().map(Sweep::Leaks))
            .collect()
    }
}

/// Runs one sweep against `claims` into `report`. With `repair`, each
/// orphan the design may reclaim is reclaimed and each leaked record is
/// freed.
///
/// # Errors
///
/// What the design's [`Salvager::orphan`] returns.
pub fn sweep<S: Salvager>(
    sys: &mut S,
    claims: &Claims,
    sweep: Sweep,
    report: &mut Report<S::Problem>,
    repair: bool,
) -> Result<(), S::Error> {
    let disks = &sys.machine().disks;
    match sweep {
        Sweep::Orphans(pack) => {
            let orphans: Vec<(DiskHome, SegUid)> = disks.pack(pack).map_or(Vec::new(), |p| {
                p.entries()
                    .map(|(toc, e)| (DiskHome { pack, toc }, SegUid(e.uid)))
                    .filter(|&(home, _)| !claims.contains(home))
                    .collect()
            });
            for (home, uid) in orphans {
                sys.orphan(report, home, uid, repair)?;
            }
        }
        Sweep::Leaks(pack) => {
            let leaked: Vec<RecordNo> = disks.pack(pack).map_or(Vec::new(), |p| {
                let referenced: HashSet<RecordNo> = p
                    .entries()
                    .flat_map(|(_, e)| e.file_map.iter().flatten().copied())
                    .collect();
                p.allocated_record_nos()
                    .into_iter()
                    .filter(|r| !referenced.contains(r))
                    .collect()
            });
            for record in leaked {
                report.problems.push(S::leaked(pack, record));
                if repair {
                    if let Ok(p) = sys.machine().disks.pack_mut(pack) {
                        let _ = p.free_record(record);
                    }
                    report.repairs.push(format!(
                        "freed leaked record {} on pack {}",
                        record.0, pack.0
                    ));
                }
            }
        }
    }
    Ok(())
}

/// A salvager's findings, in the order they were made, and its repairs.
/// Each design reports its problems as its own type `P`.
#[derive(Debug, Clone)]
pub struct Report<P> {
    /// Objects examined.
    pub objects_checked: u32,
    /// Quota cells examined.
    pub cells_checked: u32,
    /// Everything found wrong.
    pub problems: Vec<P>,
    /// Human-readable descriptions of repairs performed.
    pub repairs: Vec<String>,
}

impl<P> Default for Report<P> {
    fn default() -> Self {
        Self {
            objects_checked: 0,
            cells_checked: 0,
            problems: Vec::new(),
            repairs: Vec::new(),
        }
    }
}

impl<P> Report<P> {
    /// True if the file system was fully consistent.
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// What a design tells the shared salvager.
pub trait Salvager: Sized {
    /// What the frontier holds for a directory to claim.
    type Dir: Copy + Debug;
    /// One thing the design's salvager finds wrong.
    type Problem: Debug;
    /// What a failed read, write or repair reports.
    type Error;
    /// What the design carries from one directory's claim to another's.
    type Memo: Default + Debug;

    /// The machine whose packs are salvaged and whose clock is charged.
    fn machine(&mut self) -> &mut Machine;

    /// Where the design keeps its online salvage.
    fn online(&mut self) -> &mut Option<Online<Self>>;

    /// The directory a frontier item names.
    fn uid(dir: Self::Dir) -> SegUid;

    /// Claims, checks and repairs one directory and rechecks it for
    /// release: each entry's TOC entry through `st.claims`, each
    /// subdirectory won onto the frontier ([`Online::push`]), findings
    /// into `st.report`. The recheck's verdict.
    ///
    /// # Errors
    ///
    /// A failed read, write or repair; the step is then undone and
    /// retried ([`step`]).
    fn claim_dir(&mut self, st: &mut Online<Self>, dir: Self::Dir) -> Result<bool, Self::Error>;

    /// Reports the orphan TOC entry at `home`, which records `uid`, and
    /// with `repair` reclaims it if the design may.
    ///
    /// # Errors
    ///
    /// A failed reclaim.
    fn orphan(
        &mut self,
        report: &mut Report<Self::Problem>,
        home: DiskHome,
        uid: SegUid,
        repair: bool,
    ) -> Result<(), Self::Error>;

    /// How an allocated record no file map references is reported.
    fn leaked(pack: PackId, record: RecordNo) -> Self::Problem;
}

/// A planted defect in the online salvager, for the self-check that
/// proves the per-directory recheck catches a salvager that releases a
/// directory before finishing its repairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineCheat {
    /// Release a quota directory without repairing its drifted cell.
    ReleaseBeforeCellRepair,
}

/// What one [`step`] did, for a design whose problems are `P`.
#[derive(Debug, Clone)]
pub enum OnlineProgress<P> {
    /// A directory was claimed, repaired, rechecked and released into
    /// service.
    Released {
        /// The directory now servable.
        dir: SegUid,
        /// The post-repair recheck found nothing left wrong. False is a
        /// salvager bug (or a planted [`OnlineCheat`]), never expected in
        /// honest runs.
        recheck_clean: bool,
        /// Problems recorded while claiming this directory.
        problems_found: u32,
        /// Repairs performed on this directory.
        repairs_made: u32,
    },
    /// A per-pack sweep ran.
    Finalized {
        /// The pack swept.
        pack: PackId,
        /// False: the orphan sweep; true: the leaked-record sweep.
        leaks: bool,
    },
    /// The hierarchy is fully salvaged; the barrier has lifted.
    Done {
        /// Everything found and repaired across the whole run.
        report: Report<P>,
    },
    /// No online salvage is in progress.
    Idle,
}

/// An online salvage in progress.
///
/// Its work order is the frontier in FIFO order — the root, then each
/// claimed directory's subdirectories in entry order — then each pack's
/// orphan sweep, then each pack's leak sweep, then
/// [`OnlineProgress::Done`]. A step that fails is undone: its directory
/// or sweep goes back to the head of the queue, and the claims, the
/// frontier, the released set and the report's problems and repairs are
/// as they were before the step, so the next step retries it. What the
/// failed attempt wrote stays written, and its work stays counted in the
/// report's checked counts; the retry finds whatever it left undone.
#[derive(Debug)]
pub struct Online<S: Salvager> {
    /// Directories proven clean and open to service.
    released: HashSet<SegUid>,
    /// Directories found but not yet claimed.
    frontier: VecDeque<S::Dir>,
    /// TOC entries claimed by a claimed directory's entries, the root's
    /// home, and whatever the service created or relocated meanwhile;
    /// the orphan sweep keeps exactly these.
    pub claims: Claims,
    /// The per-pack sweeps left, once the frontier has drained.
    sweeps: Option<VecDeque<Sweep>>,
    /// Everything found and repaired so far.
    pub report: Report<S::Problem>,
    /// The planted defect, if any.
    pub cheat: Option<OnlineCheat>,
    /// What the design carries between claims.
    pub memo: S::Memo,
    dirs_released: u32,
}

impl<S: Salvager> Online<S> {
    /// A salvage whose frontier holds `root` alone, with nothing
    /// claimed or released.
    pub fn new(root: S::Dir, cheat: Option<OnlineCheat>) -> Self {
        Self {
            released: HashSet::new(),
            frontier: VecDeque::from([root]),
            claims: Claims::default(),
            sweeps: None,
            report: Report::default(),
            cheat,
            memo: S::Memo::default(),
            dirs_released: 0,
        }
    }

    /// Queues a subdirectory the directory being claimed names.
    pub fn push(&mut self, dir: S::Dir) {
        self.frontier.push_back(dir);
    }

    /// True once `uid` is released (or was born released).
    pub fn is_released(&self, uid: SegUid) -> bool {
        self.released.contains(&uid)
    }

    /// Releases a directory the service created while salvage runs: it
    /// cannot be crash debris.
    pub fn release_new(&mut self, uid: SegUid) {
        self.released.insert(uid);
    }

    /// Directories released so far.
    pub fn dirs_released(&self) -> u32 {
        self.dirs_released
    }

    fn advance(&mut self, sys: &mut S) -> Result<OnlineProgress<S::Problem>, S::Error> {
        // A step only appends to the claims, the problems and the
        // repairs, so truncating to these lengths undoes it.
        let claims = self.claims.order.len();
        let (problems, repairs) = (self.report.problems.len(), self.report.repairs.len());
        let result = match self.frontier.pop_front() {
            Some(dir) => {
                let queued = self.frontier.len();
                let result = sys.claim_dir(self, dir);
                if result.is_err() {
                    self.frontier.truncate(queued);
                    self.frontier.push_front(dir);
                }
                result.map(|recheck_clean| {
                    let uid = S::uid(dir);
                    self.released.insert(uid);
                    self.dirs_released += 1;
                    OnlineProgress::Released {
                        dir: uid,
                        recheck_clean,
                        problems_found: (self.report.problems.len() - problems) as u32,
                        repairs_made: (self.report.repairs.len() - repairs) as u32,
                    }
                })
            }
            None => {
                let sweeps = self
                    .sweeps
                    .get_or_insert_with(|| Sweep::all(&sys.machine().disks));
                let Some(s) = sweeps.pop_front() else {
                    return Ok(OnlineProgress::Done {
                        report: std::mem::take(&mut self.report),
                    });
                };
                let result = sweep(sys, &self.claims, s, &mut self.report, true);
                if result.is_err() {
                    sweeps.push_front(s);
                }
                let (Sweep::Orphans(pack) | Sweep::Leaks(pack)) = s;
                let leaks = matches!(s, Sweep::Leaks(_));
                result.map(|()| OnlineProgress::Finalized { pack, leaks })
            }
        };
        if result.is_err() {
            self.claims.truncate(claims);
            self.report.problems.truncate(problems);
            self.report.repairs.truncate(repairs);
        }
        result
    }
}

/// One unit of `sys`'s online salvage, charged to the salvager: claims,
/// repairs, rechecks and releases one directory, or runs one pack's
/// sweep once the frontier has drained. After [`OnlineProgress::Done`]
/// the salvage is over. A failed step is undone and the next one retries
/// it ([`Online`]).
///
/// # Errors
///
/// What the design's [`Salvager::claim_dir`] or [`Salvager::orphan`]
/// returns.
pub fn step<S: Salvager>(sys: &mut S) -> Result<OnlineProgress<S::Problem>, S::Error> {
    let Some(mut st) = sys.online().take() else {
        return Ok(OnlineProgress::Idle);
    };
    let guard = sys.machine().clock.enter(Subsystem::Salvager);
    let result = st.advance(sys);
    sys.machine().clock.exit(guard);
    if !matches!(result, Ok(OnlineProgress::Done { .. })) {
        *sys.online() = Some(st);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::TocIndex;
    use crate::MachineConfig;
    use std::collections::HashMap;

    /// A design whose directories are maps from uid to entries
    /// `(uid, pack 0 TOC index, is_dir)`, and whose claim of `fail_after`
    /// fails once after it claimed its entries.
    #[derive(Debug)]
    struct Toy {
        machine: Machine,
        online: Option<Online<Toy>>,
        dirs: HashMap<u64, Vec<(u64, TocIndex, bool)>>,
        fail_after: Option<u64>,
        fail_orphan: bool,
    }

    impl Salvager for Toy {
        type Dir = u64;
        type Problem = String;
        type Error = &'static str;
        type Memo = ();

        fn machine(&mut self) -> &mut Machine {
            &mut self.machine
        }
        fn online(&mut self) -> &mut Option<Online<Self>> {
            &mut self.online
        }
        fn uid(dir: u64) -> SegUid {
            SegUid(dir)
        }
        fn claim_dir(&mut self, st: &mut Online<Self>, dir: u64) -> Result<bool, &'static str> {
            for &(uid, toc, is_dir) in &self.dirs[&dir] {
                st.report.objects_checked += 1;
                match st
                    .claims
                    .claim(&self.machine.disks, at(0, toc.0), SegUid(uid))
                {
                    Claim::Won if is_dir => st.push(uid),
                    Claim::Won => {}
                    claim => st.report.problems.push(format!("{claim:?} {uid} in {dir}")),
                }
            }
            if self.fail_after.take_if(|d| *d == dir).is_some() {
                return Err("pack offline");
            }
            Ok(true)
        }
        fn orphan(
            &mut self,
            report: &mut Report<String>,
            home: DiskHome,
            uid: SegUid,
            repair: bool,
        ) -> Result<(), &'static str> {
            let DiskHome { pack, toc } = home;
            report
                .problems
                .push(format!("orphan {}:{} uid {}", pack.0, toc.0, uid.0));
            if std::mem::take(&mut self.fail_orphan) {
                return Err("reclaim failed");
            }
            if repair {
                let _ = self.machine.disks.pack_mut(pack).unwrap().delete_entry(toc);
                report
                    .repairs
                    .push(format!("reclaimed {}:{}", pack.0, toc.0));
            }
            Ok(())
        }
        fn leaked(pack: PackId, record: RecordNo) -> String {
            format!("leaked {}:{}", pack.0, record.0)
        }
    }

    /// TOC entry `toc` of pack `pack`.
    fn at(pack: u32, toc: u32) -> DiskHome {
        DiskHome {
            pack: PackId(pack),
            toc: TocIndex(toc),
        }
    }

    /// Root 1 holds directories 2 and 3; 2 holds directory 4, and 4 a
    /// dangling entry. Pack 1 holds an orphan and a leaked record.
    fn toy() -> Toy {
        let mut machine = Machine::new(MachineConfig {
            frames: 4,
            records_per_pack: 8,
            toc_slots_per_pack: 8,
            ..MachineConfig::default()
        });
        for uid in 1..=4 {
            machine
                .disks
                .pack_mut(PackId(0))
                .unwrap()
                .create_entry(uid)
                .unwrap();
        }
        let pack1 = machine.disks.pack_mut(PackId(1)).unwrap();
        pack1.create_entry(9).unwrap();
        pack1.allocate_record().unwrap();
        let dirs = HashMap::from([
            (1, vec![(2, TocIndex(1), true), (3, TocIndex(2), true)]),
            (2, vec![(4, TocIndex(3), true)]),
            (3, vec![]),
            (4, vec![(5, TocIndex(6), false)]),
        ]);
        let mut online = Online::new(1, None);
        online.claims.insert(at(0, 0));
        Toy {
            machine,
            online: Some(online),
            dirs,
            fail_after: None,
            fail_orphan: false,
        }
    }

    /// Steps to `Done`, naming each step's outcome.
    fn drain(t: &mut Toy) -> (Vec<String>, Report<String>) {
        let mut steps = Vec::new();
        loop {
            match step(t) {
                Ok(OnlineProgress::Released { dir, .. }) => steps.push(format!("dir {}", dir.0)),
                Ok(OnlineProgress::Finalized { pack, leaks }) => {
                    steps.push(format!(
                        "{} {}",
                        if leaks { "leaks" } else { "orphans" },
                        pack.0
                    ));
                }
                Ok(OnlineProgress::Done { report }) => return (steps, report),
                Ok(OnlineProgress::Idle) => panic!("idle before done"),
                Err(e) => steps.push(format!("error {e}")),
            }
        }
    }

    #[test]
    fn work_order_is_frontier_then_orphans_then_leaks() {
        let mut t = toy();
        let (steps, report) = drain(&mut t);
        assert_eq!(
            steps,
            [
                "dir 1",
                "dir 2",
                "dir 3",
                "dir 4",
                "orphans 0",
                "orphans 1",
                "leaks 0",
                "leaks 1"
            ]
        );
        assert_eq!(
            report.problems,
            ["Dangling 5 in 4", "orphan 1:0 uid 9", "leaked 1:0"]
        );
        assert_eq!(
            report.repairs,
            ["reclaimed 1:0", "freed leaked record 0 on pack 1"]
        );
        assert!(matches!(step(&mut t), Ok(OnlineProgress::Idle)));
    }

    #[test]
    fn a_failed_claim_is_undone_and_retried() {
        let mut t = toy();
        t.fail_after = Some(2);
        let (steps, report) = drain(&mut t);
        // Directory 2 claimed 4 and queued it before failing; the retry
        // claims 4 again without calling it a duplicate, and 4 is queued
        // once.
        assert_eq!(
            steps,
            [
                "dir 1",
                "error pack offline",
                "dir 2",
                "dir 3",
                "dir 4",
                "orphans 0",
                "orphans 1",
                "leaks 0",
                "leaks 1"
            ]
        );
        assert_eq!(
            report.problems,
            ["Dangling 5 in 4", "orphan 1:0 uid 9", "leaked 1:0"]
        );
        // The failed attempt's work stays counted: 2 examined its entry.
        assert_eq!(report.objects_checked, 5);
    }

    #[test]
    fn a_failed_sweep_is_undone_and_retried() {
        let mut t = toy();
        t.fail_orphan = true;
        let (steps, report) = drain(&mut t);
        assert_eq!(
            steps[4..7],
            ["orphans 0", "error reclaim failed", "orphans 1"]
        );
        assert_eq!(
            report.problems,
            ["Dangling 5 in 4", "orphan 1:0 uid 9", "leaked 1:0"]
        );
        assert_eq!(report.repairs.len(), 2);
    }

    #[test]
    fn service_made_objects_survive_the_sweeps() {
        let mut t = toy();
        let toc = t
            .machine
            .disks
            .pack_mut(PackId(1))
            .unwrap()
            .create_entry(10)
            .unwrap();
        let o = t.online.as_mut().unwrap();
        o.claims.insert(DiskHome {
            pack: PackId(1),
            toc,
        });
        o.release_new(SegUid(10));
        assert!(o.is_released(SegUid(10)) && !o.is_released(SegUid(2)));
        let (_, report) = drain(&mut t);
        assert!(!report.problems.iter().any(|p| p.contains("uid 10")));
        assert!(t.machine.disks.pack(PackId(1)).unwrap().entry(toc).is_ok());
    }

    #[test]
    fn the_claim_check_wants_a_live_entry_and_the_first_claim() {
        let mut t = toy();
        let disks = &t.machine.disks;
        let mut claims = Claims::default();
        assert_eq!(claims.claim(disks, at(0, 1), SegUid(2)), Claim::Won);
        assert_eq!(claims.claim(disks, at(0, 1), SegUid(2)), Claim::Duplicate);
        assert_eq!(claims.claim(disks, at(0, 2), SegUid(2)), Claim::Dangling);
        assert_eq!(claims.claim(disks, at(0, 7), SegUid(2)), Claim::Dangling);
        assert_eq!(claims.claim(disks, at(5, 1), SegUid(2)), Claim::Dangling);
        let mut seen = Claims::default();
        assert!(!claims.preview(&mut seen, disks, at(0, 1), SegUid(2)));
        assert!(claims.preview(&mut seen, disks, at(0, 2), SegUid(3)));
        assert!(!claims.preview(&mut seen, disks, at(0, 2), SegUid(3)));
        assert!(!claims.contains(at(0, 2)));
        t.online = None;
        assert!(matches!(step(&mut t), Ok(OnlineProgress::Idle)));
    }
}
