//! Demountable disk packs and their tables of contents.
//!
//! In Multics a file-system directory entry names a segment by *pack
//! identifier* plus an *index into that pack's table of contents* (TOC);
//! for robustness and demountability all pages of a segment live on the
//! same pack. Both facts matter structurally: a pack can fill while a
//! segment is being grown, forcing the whole segment to move to an
//! emptier pack and the directory entry to be rewritten — the paper's
//! showcase for upward signalling.
//!
//! A TOC entry holds the segment's unique identifier, its *file map*
//! (page number → disk record, with page-sized blocks of zeros
//! represented by flags instead of records — the storage-charging
//! feature analysed in the paper), and, for directory segments, the
//! on-disk home of the directory's quota cell.

use crate::mem::PAGE_WORDS;
use crate::word::Word;
/// Identifies a disk pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackId(pub u32);

/// A record number within one pack; a record holds exactly one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordNo(pub u32);

/// An index into a pack's table of contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TocIndex(pub u32);

/// Errors raised by the disk subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// The pack has no free records: the full-pack condition.
    PackFull { pack: PackId },
    /// The pack's table of contents has no free entries.
    TocFull { pack: PackId },
    /// The named TOC entry does not exist.
    NoSuchEntry { pack: PackId, index: TocIndex },
    /// The named record is outside the pack or not allocated.
    BadRecord { pack: PackId, record: RecordNo },
    /// The named pack does not exist.
    NoSuchPack { pack: PackId },
    /// A read of the record failed transiently; the same read retried
    /// may succeed (injected by the fault plan).
    TransientRead { pack: PackId, record: RecordNo },
    /// The pack is offline; segments on other packs remain usable.
    PackOffline { pack: PackId },
    /// Power has failed: the machine is halted and no disk operation can
    /// proceed. Only the disk image survives for the next bootload.
    PowerFail,
}

impl core::fmt::Display for DiskError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DiskError::PackFull { pack } => write!(f, "pack {} is full", pack.0),
            DiskError::TocFull { pack } => write!(f, "pack {} TOC is full", pack.0),
            DiskError::NoSuchEntry { pack, index } => {
                write!(f, "pack {} has no TOC entry {}", pack.0, index.0)
            }
            DiskError::BadRecord { pack, record } => {
                write!(f, "pack {} record {} not allocated", pack.0, record.0)
            }
            DiskError::NoSuchPack { pack } => write!(f, "no pack {}", pack.0),
            DiskError::TransientRead { pack, record } => {
                write!(
                    f,
                    "transient read error on pack {} record {}",
                    pack.0, record.0
                )
            }
            DiskError::PackOffline { pack } => write!(f, "pack {} is offline", pack.0),
            DiskError::PowerFail => write!(f, "power failed; machine halted"),
        }
    }
}

impl std::error::Error for DiskError {}

/// The on-disk representation of a quota cell, stored in the TOC entry of
/// the directory segment it is associated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuotaCellRecord {
    /// Maximum pages the controlled region may occupy.
    pub limit_pages: u32,
    /// Pages currently charged against the limit.
    pub used_pages: u32,
}

/// One table-of-contents entry: the disk-resident description of a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TocEntry {
    /// The segment's system-wide unique identifier.
    pub uid: u64,
    /// Page number → record. `None` is the *zero page flag*: the page is
    /// logically part of the segment but all zeros, occupies no record,
    /// and accrues no storage charge.
    pub file_map: Vec<Option<RecordNo>>,
    /// On-disk quota cell, present only for directory segments that are
    /// quota directories.
    pub quota_cell: Option<QuotaCellRecord>,
}

impl TocEntry {
    /// Current length of the segment in pages.
    pub fn len_pages(&self) -> u32 {
        self.file_map.len() as u32
    }

    /// Number of pages actually occupying disk records — the paper's
    /// chargeable page count (zero pages are free).
    pub fn records_used(&self) -> u32 {
        self.file_map.iter().filter(|r| r.is_some()).count() as u32
    }
}

/// One page-sized disk record buffer.
pub type RecordBuf = Box<[Word; PAGE_WORDS]>;

fn blank_record() -> RecordBuf {
    Box::new([Word::ZERO; PAGE_WORDS])
}

/// The lowest empty slot of `table` at or above `floor`, below which
/// every slot is taken; the floor moves up to it (or to the end).
fn first_empty<T>(table: &[Option<T>], floor: &mut usize) -> Option<usize> {
    let found = table[*floor..].iter().position(Option::is_none);
    *floor = found.map_or(table.len(), |i| *floor + i);
    found.map(|_| *floor)
}

/// A demountable disk pack: a fixed pool of records plus a TOC.
///
/// Allocation takes the lowest free record or TOC slot, as a sweep from
/// slot 0 would, but starts from a floor per table below which every
/// slot is taken; a free or a delete lowers it.
#[derive(Debug, Clone)]
pub struct DiskPack {
    /// This pack's identity.
    pub id: PackId,
    records: Vec<Option<RecordBuf>>,
    toc: Vec<Option<TocEntry>>,
    /// Every record below this index is allocated.
    record_floor: usize,
    /// Every TOC slot below this index is occupied.
    toc_floor: usize,
    /// Records not allocated.
    free: u32,
}

impl DiskPack {
    /// Creates an empty pack with `records` data records and `toc_slots`
    /// table-of-contents entries.
    pub fn new(id: PackId, records: u32, toc_slots: u32) -> Self {
        Self {
            id,
            records: (0..records).map(|_| None).collect(),
            toc: (0..toc_slots).map(|_| None).collect(),
            record_floor: 0,
            toc_floor: 0,
            free: records,
        }
    }

    /// Total records on the pack.
    pub fn capacity(&self) -> u32 {
        self.records.len() as u32
    }

    /// Records not currently allocated.
    pub fn free_records(&self) -> u32 {
        self.free
    }

    /// True if no record is free — the full-pack condition.
    pub fn is_full(&self) -> bool {
        self.free == 0
    }

    /// Allocates a zeroed record: the lowest-numbered free one.
    ///
    /// # Errors
    ///
    /// [`DiskError::PackFull`] when every record is allocated.
    pub fn allocate_record(&mut self) -> Result<RecordNo, DiskError> {
        let i = first_empty(&self.records, &mut self.record_floor)
            .ok_or(DiskError::PackFull { pack: self.id })?;
        self.records[i] = Some(blank_record());
        self.free -= 1;
        Ok(RecordNo(i as u32))
    }

    /// Frees an allocated record.
    ///
    /// # Errors
    ///
    /// [`DiskError::BadRecord`] if the record is out of range or already
    /// free.
    pub fn free_record(&mut self, record: RecordNo) -> Result<(), DiskError> {
        match self.records.get_mut(record.0 as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.free += 1;
                self.record_floor = self.record_floor.min(record.0 as usize);
                Ok(())
            }
            _ => Err(DiskError::BadRecord {
                pack: self.id,
                record,
            }),
        }
    }

    /// Reads an allocated record.
    ///
    /// # Errors
    ///
    /// [`DiskError::BadRecord`] if the record is not allocated.
    pub fn read_record(&self, record: RecordNo) -> Result<&RecordBuf, DiskError> {
        self.records
            .get(record.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or(DiskError::BadRecord {
                pack: self.id,
                record,
            })
    }

    /// Overwrites an allocated record.
    ///
    /// # Errors
    ///
    /// [`DiskError::BadRecord`] if the record is not allocated.
    pub fn write_record(
        &mut self,
        record: RecordNo,
        data: &[Word; PAGE_WORDS],
    ) -> Result<(), DiskError> {
        match self.records.get_mut(record.0 as usize) {
            Some(Some(buf)) => {
                buf.copy_from_slice(data);
                Ok(())
            }
            _ => Err(DiskError::BadRecord {
                pack: self.id,
                record,
            }),
        }
    }

    /// Creates a TOC entry for a new segment with the given uid, in the
    /// lowest-numbered free slot.
    ///
    /// # Errors
    ///
    /// [`DiskError::TocFull`] when every slot is occupied.
    pub fn create_entry(&mut self, uid: u64) -> Result<TocIndex, DiskError> {
        let i = first_empty(&self.toc, &mut self.toc_floor)
            .ok_or(DiskError::TocFull { pack: self.id })?;
        self.toc[i] = Some(TocEntry {
            uid,
            file_map: Vec::new(),
            quota_cell: None,
        });
        Ok(TocIndex(i as u32))
    }

    /// Looks up a TOC entry.
    ///
    /// # Errors
    ///
    /// [`DiskError::NoSuchEntry`] if the slot is empty or out of range.
    pub fn entry(&self, index: TocIndex) -> Result<&TocEntry, DiskError> {
        self.toc
            .get(index.0 as usize)
            .and_then(|e| e.as_ref())
            .ok_or(DiskError::NoSuchEntry {
                pack: self.id,
                index,
            })
    }

    /// Mutable TOC entry lookup.
    ///
    /// # Errors
    ///
    /// [`DiskError::NoSuchEntry`] if the slot is empty or out of range.
    pub fn entry_mut(&mut self, index: TocIndex) -> Result<&mut TocEntry, DiskError> {
        let id = self.id;
        self.toc
            .get_mut(index.0 as usize)
            .and_then(|e| e.as_mut())
            .ok_or(DiskError::NoSuchEntry { pack: id, index })
    }

    /// Deletes a TOC entry, freeing all records in its file map.
    ///
    /// # Errors
    ///
    /// [`DiskError::NoSuchEntry`] if the entry does not exist, or
    /// [`DiskError::BadRecord`] if a (corrupt) file map names a record
    /// that is not allocated — the entry is gone either way.
    pub fn delete_entry(&mut self, index: TocIndex) -> Result<(), DiskError> {
        let entry = self
            .toc
            .get_mut(index.0 as usize)
            .and_then(Option::take)
            .ok_or(DiskError::NoSuchEntry {
                pack: self.id,
                index,
            })?;
        self.toc_floor = self.toc_floor.min(index.0 as usize);
        let mut bad = None;
        for rec in entry.file_map.into_iter().flatten() {
            // The file map should only name records this pack allocated;
            // report a corrupt map as a typed error instead of panicking,
            // still freeing whatever else the map names.
            if let Err(e) = self.free_record(rec) {
                bad = Some(e);
            }
        }
        match bad {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Record numbers currently allocated — the salvager's leak sweep
    /// compares these against the records the file maps reference.
    pub fn allocated_record_nos(&self) -> Vec<RecordNo> {
        self.records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|_| RecordNo(i as u32)))
            .collect()
    }

    /// Iterates over the occupied TOC entries.
    pub fn entries(&self) -> impl Iterator<Item = (TocIndex, &TocEntry)> {
        self.toc
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (TocIndex(i as u32), e)))
    }
}

/// All the packs attached to the machine.
#[derive(Debug, Clone, Default)]
pub struct DiskSystem {
    packs: Vec<DiskPack>,
}

impl DiskSystem {
    /// An empty disk system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a new pack and returns its id.
    pub fn attach(&mut self, records: u32, toc_slots: u32) -> PackId {
        let id = PackId(self.packs.len() as u32);
        self.packs.push(DiskPack::new(id, records, toc_slots));
        id
    }

    /// Number of attached packs.
    pub fn pack_count(&self) -> usize {
        self.packs.len()
    }

    /// Shared access to a pack.
    ///
    /// # Errors
    ///
    /// [`DiskError::NoSuchPack`] for an unknown id.
    pub fn pack(&self, id: PackId) -> Result<&DiskPack, DiskError> {
        self.packs
            .get(id.0 as usize)
            .ok_or(DiskError::NoSuchPack { pack: id })
    }

    /// Mutable access to a pack.
    ///
    /// # Errors
    ///
    /// [`DiskError::NoSuchPack`] for an unknown id.
    pub fn pack_mut(&mut self, id: PackId) -> Result<&mut DiskPack, DiskError> {
        self.packs
            .get_mut(id.0 as usize)
            .ok_or(DiskError::NoSuchPack { pack: id })
    }

    /// The pack with the most free records, excluding `exclude` — the
    /// relocation target when a segment outgrows a full pack.
    pub fn emptiest_pack(&self, exclude: PackId) -> Option<PackId> {
        self.packs
            .iter()
            .filter(|p| p.id != exclude && !p.is_full())
            .max_by_key(|p| p.free_records())
            .map(|p| p.id)
    }

    /// Iterates over all packs.
    pub fn packs(&self) -> impl Iterator<Item = &DiskPack> {
        self.packs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn allocate_until_full_then_pack_full_error() {
        let mut p = DiskPack::new(PackId(0), 2, 4);
        let a = p.allocate_record().unwrap();
        let b = p.allocate_record().unwrap();
        assert_ne!(a, b);
        assert!(p.is_full());
        assert_eq!(
            p.allocate_record(),
            Err(DiskError::PackFull { pack: PackId(0) })
        );
        p.free_record(a).unwrap();
        assert!(!p.is_full());
        assert_eq!(p.allocate_record().unwrap(), a);
    }

    #[test]
    fn record_read_write_round_trip() {
        let mut p = DiskPack::new(PackId(0), 1, 1);
        let r = p.allocate_record().unwrap();
        let mut page = [Word::ZERO; PAGE_WORDS];
        page[0] = Word::new(7);
        page[PAGE_WORDS - 1] = Word::new(8);
        p.write_record(r, &page).unwrap();
        let back = p.read_record(r).unwrap();
        assert_eq!(back[0], Word::new(7));
        assert_eq!(back[PAGE_WORDS - 1], Word::new(8));
    }

    #[test]
    fn free_record_twice_is_an_error() {
        let mut p = DiskPack::new(PackId(0), 1, 1);
        let r = p.allocate_record().unwrap();
        p.free_record(r).unwrap();
        assert!(p.free_record(r).is_err());
        assert!(p.read_record(r).is_err());
    }

    #[test]
    fn toc_entry_lifecycle_frees_records() {
        let mut p = DiskPack::new(PackId(0), 4, 2);
        let idx = p.create_entry(42).unwrap();
        let r0 = p.allocate_record().unwrap();
        let r2 = p.allocate_record().unwrap();
        {
            let e = p.entry_mut(idx).unwrap();
            e.file_map = vec![Some(r0), None, Some(r2)];
            assert_eq!(e.len_pages(), 3);
            assert_eq!(e.records_used(), 2);
        }
        assert_eq!(p.free_records(), 2);
        p.delete_entry(idx).unwrap();
        assert_eq!(p.free_records(), 4, "delete freed the mapped records");
        assert!(p.entry(idx).is_err());
    }

    #[test]
    fn toc_fills_up() {
        let mut p = DiskPack::new(PackId(0), 1, 1);
        p.create_entry(1).unwrap();
        assert_eq!(
            p.create_entry(2),
            Err(DiskError::TocFull { pack: PackId(0) })
        );
    }

    #[test]
    fn zero_pages_charge_nothing() {
        let mut p = DiskPack::new(PackId(0), 8, 1);
        let idx = p.create_entry(9).unwrap();
        let e = p.entry_mut(idx).unwrap();
        e.file_map = vec![None; 100];
        assert_eq!(e.len_pages(), 100);
        assert_eq!(
            e.records_used(),
            0,
            "a 100-page file of zeros stores nothing"
        );
    }

    #[test]
    fn emptiest_pack_excludes_and_prefers_free_space() {
        let mut d = DiskSystem::new();
        let a = d.attach(4, 4);
        let b = d.attach(4, 4);
        let c = d.attach(4, 4);
        // Fill b entirely and c partially.
        for _ in 0..4 {
            d.pack_mut(b).unwrap().allocate_record().unwrap();
        }
        d.pack_mut(c).unwrap().allocate_record().unwrap();
        assert_eq!(
            d.emptiest_pack(a),
            Some(c),
            "b is full, c beats nothing else"
        );
        assert_eq!(d.emptiest_pack(c), Some(a));
        // Exclude the only non-full pack: nothing remains.
        for _ in 0..4 {
            d.pack_mut(a).unwrap().allocate_record().unwrap();
        }
        for _ in 0..3 {
            d.pack_mut(c).unwrap().allocate_record().unwrap();
        }
        assert_eq!(d.emptiest_pack(c), None);
    }

    /// A pack's tables as they were kept before the floors: every
    /// allocation sweeps from slot 0 and every count sweeps the table.
    /// A TOC entry is its file map's record numbers.
    struct Sweeping {
        records: Vec<bool>,
        toc: Vec<Option<Vec<u32>>>,
    }

    impl Sweeping {
        fn allocate_record(&mut self) -> Option<u32> {
            let i = self.records.iter().position(|&taken| !taken)?;
            self.records[i] = true;
            Some(i as u32)
        }

        fn free_record(&mut self, r: u32) -> bool {
            match self.records.get_mut(r as usize) {
                Some(taken @ true) => {
                    *taken = false;
                    true
                }
                _ => false,
            }
        }

        fn create_entry(&mut self) -> Option<u32> {
            let i = self.toc.iter().position(Option::is_none)?;
            self.toc[i] = Some(Vec::new());
            Some(i as u32)
        }

        /// `None` if there is no such entry, else the last record of its
        /// file map that was not allocated.
        fn delete_entry(&mut self, i: u32) -> Option<Option<u32>> {
            let map = self.toc.get_mut(i as usize)?.take()?;
            Some(map.into_iter().filter(|&r| !self.free_record(r)).last())
        }

        fn free_records(&self) -> u32 {
            self.records.iter().filter(|&&taken| !taken).count() as u32
        }
    }

    /// Seeded reference model: each table is filled, emptied and
    /// refilled, with frees and deletes interleaved (records freed while
    /// a file map still names them included); after every step the pack
    /// and a sweeping twin give the same index or error, `free_records`
    /// and `is_full`.
    #[test]
    fn allocation_matches_a_sweeping_twin() {
        const RECORDS: u32 = 48;
        const SLOTS: u32 = 24;
        let pack_id = PackId(3);
        let mut p = DiskPack::new(pack_id, RECORDS, SLOTS);
        let mut twin = Sweeping {
            records: vec![false; RECORDS as usize],
            toc: vec![None; SLOTS as usize],
        };
        // Three times in four a taken slot, else any index, out of
        // range included.
        fn pick(rng: &mut SplitMix64, len: u32, taken: impl Fn(usize) -> bool) -> u32 {
            let live: Vec<u32> = (0..len).filter(|&i| taken(i as usize)).collect();
            if live.is_empty() || rng.below(4) == 0 {
                return rng.below(u64::from(len) + 2) as u32;
            }
            live[rng.below(live.len() as u64) as usize]
        }
        let mut rng = SplitMix64::new(0x00d1_5c00);
        let (mut packs_full, mut tocs_full, mut packs_empty, mut tocs_empty) = (0, 0, 0, 0);
        let mut stale_maps = 0;
        // Fill, empty, refill, empty, refill: the chance in 8 that a
        // step allocates rather than frees.
        for (phase, grow) in [7, 1, 7, 1, 7].into_iter().enumerate() {
            for step in 0..400u64 {
                let at = format!("phase {phase} step {step}");
                let allocate = rng.below(8) < grow;
                if rng.below(2) == 0 {
                    if allocate {
                        let got = p.allocate_record();
                        let want = twin.allocate_record();
                        assert_eq!(
                            got,
                            want.map(RecordNo)
                                .ok_or(DiskError::PackFull { pack: pack_id }),
                            "{at}"
                        );
                        packs_full += usize::from(want.is_none());
                        // Most records join a live file map.
                        let live: Vec<u32> = (0..SLOTS)
                            .filter(|&i| twin.toc[i as usize].is_some())
                            .collect();
                        if let (Some(r), false) = (want, live.is_empty() || rng.below(4) == 0) {
                            let i = live[rng.below(live.len() as u64) as usize];
                            p.entry_mut(TocIndex(i))
                                .unwrap()
                                .file_map
                                .push(Some(RecordNo(r)));
                            twin.toc[i as usize].as_mut().unwrap().push(r);
                        }
                    } else {
                        let r = pick(&mut rng, RECORDS, |r| twin.records[r]);
                        let freed = twin.free_record(r);
                        let want = if freed {
                            Ok(())
                        } else {
                            Err(DiskError::BadRecord {
                                pack: pack_id,
                                record: RecordNo(r),
                            })
                        };
                        assert_eq!(p.free_record(RecordNo(r)), want, "{at}");
                    }
                } else if allocate {
                    let want = twin.create_entry();
                    let got = p.create_entry(step);
                    assert_eq!(
                        got,
                        want.map(TocIndex)
                            .ok_or(DiskError::TocFull { pack: pack_id }),
                        "{at}"
                    );
                    tocs_full += usize::from(want.is_none());
                } else {
                    let i = pick(&mut rng, SLOTS, |i| twin.toc[i].is_some());
                    let index = TocIndex(i);
                    let want = match twin.delete_entry(i) {
                        None => Err(DiskError::NoSuchEntry {
                            pack: pack_id,
                            index,
                        }),
                        Some(None) => Ok(()),
                        Some(Some(r)) => {
                            stale_maps += 1;
                            Err(DiskError::BadRecord {
                                pack: pack_id,
                                record: RecordNo(r),
                            })
                        }
                    };
                    assert_eq!(p.delete_entry(index), want, "{at}");
                }
                assert_eq!(p.free_records(), twin.free_records(), "{at}");
                assert_eq!(p.is_full(), twin.free_records() == 0, "{at}");
                packs_empty += usize::from(p.free_records() == RECORDS);
                tocs_empty += usize::from(p.entries().next().is_none());
            }
        }
        assert!(packs_full > 5 && tocs_full > 5, "both tables filled");
        assert!(packs_empty > 5 && tocs_empty > 5, "both tables emptied");
        assert!(stale_maps > 0, "a delete met a record freed under its map");
    }

    #[test]
    fn quota_cell_record_stored_in_toc() {
        let mut p = DiskPack::new(PackId(0), 1, 1);
        let idx = p.create_entry(5).unwrap();
        p.entry_mut(idx).unwrap().quota_cell = Some(QuotaCellRecord {
            limit_pages: 100,
            used_pages: 3,
        });
        let e = p.entry(idx).unwrap();
        assert_eq!(e.quota_cell.unwrap().limit_pages, 100);
    }
}
