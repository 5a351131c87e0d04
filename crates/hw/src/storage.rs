//! What both designs do to a segment's disk home: the transient-read
//! retry and the full-pack segment move. The designs differ only in who
//! starts a move and who records it (the 1974 segment control rewrites
//! the directory entry itself; the kernel signals the move upward), so
//! the copy is written here once. Each design passes its own retry edge
//! and maps the [`DiskError`]s to its own errors; nothing here enters a
//! meter scope.

use crate::disk::{DiskError, DiskHome, PackId};
use crate::machine::Machine;

/// The transient-read retry budget of both designs' disk paths. The
/// kernel counts attempts and absorbs one failure fewer than this; the
/// 1974 supervisor counts retries after the first attempt and absorbs
/// this many.
pub const READ_RETRY_BUDGET: u32 = 3;

impl Machine {
    /// Runs `read`, running it again after each of up to `absorb`
    /// transient failures. Returns the outcome, with the number of
    /// failures absorbed: the first failure past `absorb`, and every
    /// other error, surfaces.
    pub fn read_with_retry<T>(
        &mut self,
        absorb: u32,
        mut read: impl FnMut(&mut Machine) -> Result<T, DiskError>,
    ) -> (Result<T, DiskError>, u32) {
        let mut absorbed = 0;
        loop {
            match read(self) {
                Err(DiskError::TransientRead { .. }) if absorbed < absorb => absorbed += 1,
                outcome => return (outcome, absorbed),
            }
        }
    }

    /// Moves the segment at `home`, records and all, to the emptiest
    /// other pack, absorbing up to `absorb` transient failures per read.
    /// Returns its new home, with the failures absorbed.
    ///
    /// It refuses before touching anything unless the target has a free
    /// record for every mapped page and one more (the page the move is
    /// made for). It then creates an entry for the same uid, copies each
    /// record (read, allocate, write, and only then map), carries the
    /// quota-cell record across and deletes the old entry.
    ///
    /// # Errors
    ///
    /// [`DiskError::PackFull`] naming the home's pack when no other pack
    /// has room,
    /// [`DiskError::TocFull`] for a full target TOC, or the failed lookup
    /// or transfer. A failed move deletes the entry it built and frees
    /// every record it allocated, except after [`DiskError::PowerFail`]:
    /// the image keeps the copy mapped up to the last completed write for
    /// the salvager.
    pub fn move_segment(
        &mut self,
        home: DiskHome,
        absorb: u32,
    ) -> (Result<DiskHome, DiskError>, u32) {
        let DiskHome { pack: from, toc } = home;
        let (map, cell, uid) = match self.disks.pack(from).and_then(|p| p.entry(toc)) {
            Ok(e) => (e.file_map.clone(), e.quota_cell, e.uid),
            Err(e) => return (Err(e), 0),
        };
        let need = map.iter().flatten().count() as u32 + 1;
        let room = |to: PackId| self.disks.pack(to).is_ok_and(|p| p.free_records() >= need);
        let Some(to) = self.disks.emptiest_pack(from).filter(|&to| room(to)) else {
            return (Err(DiskError::PackFull { pack: from }), 0);
        };
        let new = match self.disks.pack_mut(to).and_then(|p| p.create_entry(uid)) {
            Ok(new) => new,
            Err(e) => return (Err(e), 0),
        };
        let (mut absorbed, mut in_flight) = (0, None);
        let copied = (|| -> Result<(), DiskError> {
            for (pageno, old) in map.iter().enumerate() {
                if let Some(old) = *old {
                    let (read, n) = self.read_with_retry(absorb, |m| m.disk_read_record(from, old));
                    absorbed += n;
                    let buf = read?;
                    let rec = self.disks.pack_mut(to)?.allocate_record()?;
                    in_flight = Some(rec);
                    self.disk_write_record(to, rec, &buf)?;
                }
                self.disks
                    .pack_mut(to)?
                    .map_page(new, pageno as u32, in_flight.take())?;
            }
            self.disks.pack_mut(to)?.entry_mut(new)?.quota_cell = cell;
            Ok(())
        })();
        if let Err(e) = copied {
            if e != DiskError::PowerFail {
                if let Ok(pack) = self.disks.pack_mut(to) {
                    // Undo: the records the new map names go with it.
                    if let Some(rec) = in_flight {
                        let _ = pack.free_record(rec);
                    }
                    let _ = pack.delete_entry(new);
                }
            }
            return (Err(e), absorbed);
        }
        // Every record the old map names was just read, so only a map
        // naming one record twice fails the delete; the entry is gone
        // either way, and the copy stands.
        if let Ok(pack) = self.disks.pack_mut(from) {
            let _ = pack.delete_entry(toc);
        }
        (Ok(DiskHome { pack: to, toc: new }), absorbed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{QuotaCellRecord, RecordNo, TocIndex};
    use crate::faultinj::{CrashWrite, FaultPlan};
    use crate::machine::MachineConfig;
    use crate::mem::PAGE_WORDS;
    use crate::word::Word;

    const ABSORB: u32 = READ_RETRY_BUDGET - 1;

    /// A machine with packs of `records` records, and a segment of
    /// `pages` pages on pack 0 whose last and odd pages are zero pages
    /// and whose other pages `p` hold `p + 1` in their first word.
    fn machine(records: &[u32], pages: u32) -> (Machine, TocIndex) {
        let mut m = Machine::new(MachineConfig {
            packs: 0,
            ..MachineConfig::default()
        });
        for &r in records {
            m.disks.attach(r, 8);
        }
        let pack = m.disks.pack_mut(PackId(0)).unwrap();
        let toc = pack.create_entry(77).unwrap();
        for p in (0..pages - 1).step_by(2) {
            let rec = pack.allocate_record().unwrap();
            let mut page = [Word::ZERO; PAGE_WORDS];
            page[0] = Word::new(u64::from(p) + 1);
            pack.write_record(rec, &page).unwrap();
            pack.map_page(toc, p, Some(rec)).unwrap();
        }
        pack.map_page(toc, pages - 1, None).unwrap();
        pack.entry_mut(toc).unwrap().quota_cell = Some(QuotaCellRecord {
            limit_pages: 9,
            used_pages: 4,
        });
        (m, toc)
    }

    /// Entry `toc` of pack 0.
    fn home(toc: TocIndex) -> DiskHome {
        DiskHome {
            pack: PackId(0),
            toc,
        }
    }

    /// Each pack's TOC entries and free records.
    fn image(m: &Machine) -> Vec<(Vec<(TocIndex, crate::disk::TocEntry)>, u32)> {
        m.disks
            .packs()
            .map(|p| {
                let entries = p.entries().map(|(i, e)| (i, e.clone())).collect();
                (entries, p.free_records())
            })
            .collect()
    }

    #[test]
    fn read_with_retry_absorbs_up_to_its_edge() {
        let (mut m, toc) = machine(&[8], 2);
        let rec = m.disks.pack(PackId(0)).unwrap().page_record(toc, 0);
        let rec = rec.unwrap().unwrap();
        for (failures, absorb, want) in [(2, 2, true), (3, 2, false), (3, 3, true), (0, 0, true)] {
            let mut plan = FaultPlan::new();
            for k in 1..=u64::from(failures) {
                plan = plan.transient_read(PackId(0), rec, k);
            }
            m.install_fault_plan(plan);
            let (read, absorbed) =
                m.read_with_retry(absorb, |m| m.disk_read_record(PackId(0), rec));
            assert_eq!(read.is_ok(), want, "{failures} failures, absorb {absorb}");
            assert_eq!(absorbed, failures.min(absorb));
        }
        m.faults.set_offline(PackId(0), true);
        let (read, absorbed) = m.read_with_retry(3, |m| m.disk_read_record(PackId(0), rec));
        assert_eq!(read.err(), Some(DiskError::PackOffline { pack: PackId(0) }));
        assert_eq!(absorbed, 0, "only transient failures are retried");
    }

    #[test]
    fn a_move_copies_the_map_holes_and_cell_to_the_emptiest_pack() {
        let (mut m, toc) = machine(&[8, 4, 16], 5);
        let old = m.disks.pack(PackId(0)).unwrap().entry(toc).unwrap().clone();
        let (moved, absorbed) = m.move_segment(home(toc), ABSORB);
        let DiskHome { pack, toc: new } = moved.unwrap();
        assert_eq!((pack, absorbed), (PackId(2), 0));
        let entry = m.disks.pack(pack).unwrap().entry(new).unwrap().clone();
        assert_eq!((entry.uid, entry.quota_cell), (old.uid, old.quota_cell));
        assert_eq!(entry.file_map.len(), 5);
        for (p, (a, b)) in old.file_map.iter().zip(&entry.file_map).enumerate() {
            assert_eq!(a.is_some(), b.is_some(), "page {p}");
            if let Some(rec) = b {
                let data = m.disks.pack(pack).unwrap().read_record(*rec).unwrap();
                assert_eq!(data.word(0), Word::new(p as u64 + 1));
            }
        }
        assert!(m.disks.pack(PackId(0)).unwrap().entry(toc).is_err());
        assert_eq!(m.disks.pack(PackId(0)).unwrap().free_records(), 8);
    }

    #[test]
    fn a_move_refuses_a_target_without_room_for_one_more_page() {
        // Two mapped pages: the target needs three free records.
        for (target, ok) in [(2, false), (3, true)] {
            let (mut m, toc) = machine(&[8, target], 5);
            let before = image(&m);
            let (moved, _) = m.move_segment(home(toc), ABSORB);
            assert_eq!(moved.is_ok(), ok, "target of {target} records");
            if !ok {
                assert_eq!(moved, Err(DiskError::PackFull { pack: PackId(0) }));
                assert!(image(&m) == before, "a refused move touches nothing");
            }
        }
    }

    #[test]
    fn a_failed_move_leaves_nothing_behind_but_a_power_failure_does() {
        let (m, toc) = machine(&[8, 8], 5);
        let before = image(&m);
        let second = m.disks.pack(PackId(0)).unwrap().page_record(toc, 2);
        let second = second.unwrap().unwrap();
        // The second record's reads fail one past the edge.
        let mut exhausted = m.clone();
        let mut plan = FaultPlan::new();
        for k in 1..=u64::from(ABSORB) + 1 {
            plan = plan.transient_read(PackId(0), second, k);
        }
        exhausted.install_fault_plan(plan);
        let (moved, absorbed) = exhausted.move_segment(home(toc), ABSORB);
        assert!(matches!(moved, Err(DiskError::TransientRead { .. })));
        assert_eq!(absorbed, ABSORB);
        assert!(image(&exhausted) == before, "the half-built copy is undone");
        // The target drops offline: its first write fails after the
        // record was allocated.
        let mut offline = m.clone();
        offline.faults.set_offline(PackId(1), true);
        let (moved, _) = offline.move_segment(home(toc), ABSORB);
        assert_eq!(moved, Err(DiskError::PackOffline { pack: PackId(1) }));
        assert!(image(&offline) == before, "the allocated record is freed");
        // Power fails on the second write: the copy stays mapped up to
        // the first, and the second write's record stays allocated.
        let mut crashed = m;
        crashed.install_fault_plan(FaultPlan::new().crash_after_writes(2, CrashWrite::Dropped));
        let (moved, _) = crashed.move_segment(home(toc), ABSORB);
        assert_eq!(moved, Err(DiskError::PowerFail));
        let target = crashed.disks.pack(PackId(1)).unwrap();
        let (new, entry) = target.entries().next().expect("the half-built copy");
        assert_eq!(entry.file_map.len(), 2, "pages 0 and 1 mapped");
        assert_eq!(target.page_record(new, 0).unwrap(), Some(RecordNo(0)));
        assert_eq!(
            target.allocated_record_nos(),
            vec![RecordNo(0), RecordNo(1)]
        );
        assert!(crashed.disks.pack(PackId(0)).unwrap().entry(toc).is_ok());
    }
}
