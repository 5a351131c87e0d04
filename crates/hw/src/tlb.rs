//! The associative memory: a translation cache for the descriptor walk.
//!
//! The real Honeywell 6180 hid the cost of the two-level descriptor walk
//! behind small SDW/PTW *associative memories*; without them every
//! reference would pay two extra core cycles for the descriptor fetches.
//! This module models that hardware as a set-associative cache keyed by
//! process identity (the descriptor-segment base in force), segment
//! number, and page number, holding the resolved core frame plus the
//! access bits needed to re-check a hit.
//!
//! Only *successful* translations are cached, so a resident entry by
//! construction describes a present, unlocked, non-quota-trapped page;
//! any supervisor mutation that could change that — eviction, descriptor
//! cut, lock- or quota-trap-bit set, page-table-slot reuse — must flush
//! the affected entries (Multics' "setfaults" discipline). The
//! invalidation entry points here are addressed by the *descriptor's*
//! core address, which is what supervisor software knows when it rewrites
//! a table word.
//!
//! A hit costs zero descriptor fetches. To keep caching invisible to
//! software (byte-identical core images with the feature on or off), a
//! write hit whose entry has not yet observed the modified bit performs
//! the same read-modify-write of the PTW that the walk would have done,
//! charged as a [`crate::clock::CostModel::ptw_update`].

use crate::cpu::AccessMode;
use crate::mem::{AbsAddr, FrameNo};
use crate::meter::CounterSet;

/// Number of sets in the associative memory.
pub const TLB_SETS: usize = 64;
/// Associativity (entries per set).
pub const TLB_WAYS: usize = 4;

/// One resident translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Address-space identity: the descriptor-segment base the
    /// translation was made under.
    pub asid: AbsAddr,
    /// Segment number within that address space.
    pub segno: u32,
    /// Page number within the segment.
    pub pageno: u32,
    /// Core address of the SDW the walk read.
    pub sdw_addr: AbsAddr,
    /// Core address of the PTW the walk read.
    pub ptw_addr: AbsAddr,
    /// Resolved core frame.
    pub frame: FrameNo,
    /// SDW read permission at fill time.
    pub read: bool,
    /// SDW write permission at fill time.
    pub write: bool,
    /// SDW execute permission at fill time.
    pub execute: bool,
    /// Whether the cached PTW has the modified bit set; a write hit with
    /// this clear must still set the bit in core.
    pub modified: bool,
    /// LRU stamp (monotone fill/touch tick); [`Tlb::fill`] overwrites it.
    pub(crate) lru: u64,
}

impl TlbEntry {
    /// True if the cached access bits permit `mode`.
    pub fn permits(&self, mode: AccessMode) -> bool {
        match mode {
            AccessMode::Read => self.read,
            AccessMode::Write => self.write,
            AccessMode::Execute => self.execute,
        }
    }
}

/// Hit/miss/flush tallies, for the meter and the ablation experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups attempted (hits + misses).
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the descriptor walk.
    pub misses: u64,
    /// Entries installed after a successful walk.
    pub fills: u64,
    /// Entries removed by selective invalidation or a full clear.
    pub invalidations: u64,
}

impl TlbStats {
    /// Component-wise sum (for aggregating across processors).
    pub fn merge(&self, other: &TlbStats) -> TlbStats {
        TlbStats {
            lookups: self.lookups + other.lookups,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            fills: self.fills + other.fills,
            invalidations: self.invalidations + other.invalidations,
        }
    }

    /// The tallies as a named counter set (threaded into trace reports).
    pub fn counters(&self) -> CounterSet {
        let mut c = CounterSet::new();
        c.set("tlb_lookups", self.lookups);
        c.set("tlb_hits", self.hits);
        c.set("tlb_misses", self.misses);
        c.set("tlb_fills", self.fills);
        c.set("tlb_invalidations", self.invalidations);
        c
    }
}

/// A per-processor set-associative translation cache.
///
/// Beside the ways themselves it keeps two ordered indexes of the
/// resident entries, one by PTW and one by SDW core address, so a
/// setfaults flush finds exactly the entries it drops instead of sweeping
/// every way. A flush that matches nothing changes no tally and no LRU
/// stamp; a single-address one that the index's filter rules out returns
/// without the binary search, and any other after one.
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: Vec<[Option<TlbEntry>; TLB_WAYS]>,
    by_ptw: AddrIndex,
    by_sdw: AddrIndex,
    tick: u64,
    stats: TlbStats,
}

/// Buckets of an index's counting filter (a power of two).
const FILTER_BUCKETS: usize = 512;

/// `(descriptor address, slot)` for every resident entry, sorted, where
/// `slot` is `set * TLB_WAYS + way`: one key per entry, so at most
/// `TLB_SETS * TLB_WAYS`, held contiguously for a cheap search.
///
/// Beside the keys, a counting filter holds how many keys fall in each
/// bucket of addresses, so most addresses that no entry was cached from
/// are ruled out without a search. A bucket counts at most the
/// `TLB_SETS * TLB_WAYS` resident entries, so its count never wraps.
#[derive(Debug, Clone)]
struct AddrIndex {
    keys: Vec<(u64, usize)>,
    filter: [u16; FILTER_BUCKETS],
}

impl Default for AddrIndex {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            filter: [0; FILTER_BUCKETS],
        }
    }
}

impl AddrIndex {
    /// The filter bucket of an address (Fibonacci hashing, so the
    /// consecutive PTWs of one page table spread over every bucket).
    fn bucket(addr: u64) -> usize {
        (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FILTER_BUCKETS.trailing_zeros()))
            as usize
    }

    fn insert(&mut self, key: (u64, usize)) {
        let at = self.keys.partition_point(|k| *k < key);
        self.keys.insert(at, key);
        self.filter[Self::bucket(key.0)] += 1;
    }

    fn remove(&mut self, key: (u64, usize)) {
        let at = self.keys.partition_point(|k| *k < key);
        debug_assert_eq!(self.keys.get(at), Some(&key), "indexed key");
        self.keys.remove(at);
        self.filter[Self::bucket(key.0)] -= 1;
    }

    /// False only if no key has address `addr`.
    fn may_hold(&self, addr: u64) -> bool {
        self.filter[Self::bucket(addr)] > 0
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.filter = [0; FILTER_BUCKETS];
    }

    /// The keys whose address lies in `[lo, hi)`: one binary search
    /// when there are none, the common case.
    fn range(&self, lo: u64, hi: u64) -> &[(u64, usize)] {
        let rest = &self.keys[self.keys.partition_point(|&(a, _)| a < lo)..];
        match rest.first() {
            Some(&(a, _)) if a < hi => &rest[..rest.partition_point(|&(a, _)| a < hi)],
            _ => &[],
        }
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new()
    }
}

impl Tlb {
    /// An empty associative memory.
    pub fn new() -> Self {
        Self {
            sets: vec![[None; TLB_WAYS]; TLB_SETS],
            by_ptw: AddrIndex::default(),
            by_sdw: AddrIndex::default(),
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// Deterministic set index for a translation key.
    fn set_index(asid: AbsAddr, segno: u32, pageno: u32) -> usize {
        // A small multiplicative mix; only determinism and spread matter.
        let h = asid
            .0
            .wrapping_mul(0o777_777)
            .wrapping_add(u64::from(segno).wrapping_mul(131))
            .wrapping_add(u64::from(pageno).wrapping_mul(31));
        (h % TLB_SETS as u64) as usize
    }

    /// Looks up a translation, updating the LRU stamp and the hit/miss
    /// tallies. Returns a mutable reference so a write hit can record
    /// the modified bit; callers change nothing else, since the indexes
    /// are keyed by the descriptor addresses the entry was filled with.
    pub fn lookup(&mut self, asid: AbsAddr, segno: u32, pageno: u32) -> Option<&mut TlbEntry> {
        self.stats.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        let set = &mut self.sets[Self::set_index(asid, segno, pageno)];
        let hit = set
            .iter_mut()
            .flatten()
            .find(|e| e.asid == asid && e.segno == segno && e.pageno == pageno);
        match hit {
            Some(entry) => {
                self.stats.hits += 1;
                entry.lru = tick;
                Some(entry)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Installs a translation after a successful walk, replacing the
    /// least recently used way of its set (or an existing entry for the
    /// same key).
    pub fn fill(&mut self, mut entry: TlbEntry) {
        self.tick += 1;
        entry.lru = self.tick;
        self.stats.fills += 1;
        let set_no = Self::set_index(entry.asid, entry.segno, entry.pageno);
        let set = &self.sets[set_no];
        // Replace an existing mapping for the key, then an empty way,
        // then the LRU way.
        let way = set
            .iter()
            .position(|s| {
                s.is_some_and(|e| {
                    e.asid == entry.asid && e.segno == entry.segno && e.pageno == entry.pageno
                })
            })
            .or_else(|| set.iter().position(Option::is_none))
            .or_else(|| (0..TLB_WAYS).min_by_key(|&w| set[w].map_or(0, |e| e.lru)))
            .expect("TLB_WAYS > 0");
        let slot = set_no * TLB_WAYS + way;
        if let Some(old) = self.sets[set_no][way].replace(entry) {
            self.by_ptw.remove((old.ptw_addr.0, slot));
            self.by_sdw.remove((old.sdw_addr.0, slot));
        }
        self.by_ptw.insert((entry.ptw_addr.0, slot));
        self.by_sdw.insert((entry.sdw_addr.0, slot));
    }

    /// Drops every entry cached from the PTW at `addr`.
    pub fn invalidate_ptw(&mut self, addr: AbsAddr) {
        if self.by_ptw.may_hold(addr.0) {
            self.flush(Index::Ptw, addr.0, addr.0 + 1);
        }
    }

    /// Drops every entry cached from the SDW at `addr`.
    pub fn invalidate_sdw(&mut self, addr: AbsAddr) {
        if self.by_sdw.may_hold(addr.0) {
            self.flush(Index::Sdw, addr.0, addr.0 + 1);
        }
    }

    /// Drops every entry whose PTW lies in `[base, base + len)` — the
    /// page-table-slot-reuse flush.
    pub fn invalidate_ptw_range(&mut self, base: AbsAddr, len: u64) {
        self.flush(Index::Ptw, base.0, base.0 + len);
    }

    /// Drops every entry whose SDW lies in `[base, base + len)` — the
    /// flush a rebuilt or reused descriptor segment requires.
    pub fn invalidate_sdw_range(&mut self, base: AbsAddr, len: u64) {
        self.flush(Index::Sdw, base.0, base.0 + len);
    }

    /// Drops everything (the 6180's "clear associative memory").
    pub fn clear(&mut self) {
        for &(_, slot) in &self.by_ptw.keys {
            self.sets[slot / TLB_WAYS][slot % TLB_WAYS] = None;
        }
        self.stats.invalidations += self.by_ptw.keys.len() as u64;
        self.by_ptw.clear();
        self.by_sdw.clear();
    }

    /// Drops every entry whose `index` address lies in `[lo, hi)`.
    fn flush(&mut self, index: Index, lo: u64, hi: u64) {
        let keys = match index {
            Index::Ptw => &self.by_ptw,
            Index::Sdw => &self.by_sdw,
        };
        // Empty, and so never allocated, when nothing matches.
        let slots: Vec<usize> = keys.range(lo, hi).iter().map(|&(_, s)| s).collect();
        for &slot in &slots {
            let e = self.sets[slot / TLB_WAYS][slot % TLB_WAYS]
                .take()
                .expect("indexed slot is resident");
            self.by_ptw.remove((e.ptw_addr.0, slot));
            self.by_sdw.remove((e.sdw_addr.0, slot));
        }
        self.stats.invalidations += slots.len() as u64;
    }

    /// The tallies so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Number of resident entries (for tests).
    pub fn resident(&self) -> usize {
        self.by_ptw.keys.len()
    }
}

/// Which descriptor address a flush selects entries by.
#[derive(Clone, Copy)]
enum Index {
    Ptw,
    Sdw,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn entry(asid: u64, segno: u32, pageno: u32) -> TlbEntry {
        TlbEntry {
            asid: AbsAddr(asid),
            segno,
            pageno,
            sdw_addr: AbsAddr(asid + u64::from(segno)),
            ptw_addr: AbsAddr(1000 + u64::from(segno) * 256 + u64::from(pageno)),
            frame: FrameNo(7),
            read: true,
            write: true,
            execute: false,
            modified: false,
            lru: 0,
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = Tlb::new();
        assert!(tlb.lookup(AbsAddr(5), 1, 2).is_none());
        tlb.fill(entry(5, 1, 2));
        let hit = tlb.lookup(AbsAddr(5), 1, 2).expect("hit");
        assert_eq!(hit.frame, FrameNo(7));
        let s = tlb.stats();
        assert_eq!((s.lookups, s.hits, s.misses, s.fills), (2, 1, 1, 1));
    }

    #[test]
    fn distinct_asids_do_not_collide() {
        let mut tlb = Tlb::new();
        tlb.fill(entry(5, 1, 2));
        assert!(tlb.lookup(AbsAddr(6), 1, 2).is_none());
        assert!(tlb.lookup(AbsAddr(5), 1, 2).is_some());
    }

    #[test]
    fn invalidate_by_ptw_sdw_and_range() {
        let mut tlb = Tlb::new();
        tlb.fill(entry(5, 1, 2));
        tlb.fill(entry(5, 1, 3));
        tlb.fill(entry(5, 2, 0));
        tlb.invalidate_ptw(entry(5, 1, 2).ptw_addr);
        assert!(tlb.lookup(AbsAddr(5), 1, 2).is_none());
        assert!(tlb.lookup(AbsAddr(5), 1, 3).is_some());
        tlb.invalidate_sdw(entry(5, 2, 0).sdw_addr);
        assert!(tlb.lookup(AbsAddr(5), 2, 0).is_none());
        // Range flush covering segment 1's whole page table.
        tlb.invalidate_ptw_range(AbsAddr(1000 + 256), 256);
        assert!(tlb.lookup(AbsAddr(5), 1, 3).is_none());
        assert_eq!(tlb.resident(), 0);
        assert_eq!(tlb.stats().invalidations, 3);
    }

    #[test]
    fn clear_empties_everything() {
        let mut tlb = Tlb::new();
        for p in 0..100 {
            tlb.fill(entry(5, 1, p));
        }
        assert!(tlb.resident() > 0);
        tlb.clear();
        assert_eq!(tlb.resident(), 0);
    }

    #[test]
    fn lru_way_is_replaced_within_a_full_set() {
        let mut tlb = Tlb::new();
        // Same (asid, segno) with panos spaced exactly TLB_SETS apart
        // land in the same set.
        let step = TLB_SETS as u32;
        let pages: Vec<u32> = (0..=TLB_WAYS as u32).map(|i| i * step).collect();
        for &p in pages.iter().take(TLB_WAYS) {
            tlb.fill(entry(5, 1, p));
        }
        // Touch page 0 so it is the most recently used.
        assert!(tlb.lookup(AbsAddr(5), 1, 0).is_some());
        // One more fill in the same set evicts the LRU way (step).
        tlb.fill(entry(5, 1, pages[TLB_WAYS]));
        assert!(tlb.lookup(AbsAddr(5), 1, 0).is_some(), "MRU survived");
        assert!(tlb.lookup(AbsAddr(5), 1, step).is_none(), "LRU evicted");
    }

    #[test]
    fn counters_round_trip_through_counter_set() {
        let mut tlb = Tlb::new();
        tlb.fill(entry(5, 1, 2));
        tlb.lookup(AbsAddr(5), 1, 2);
        let c = tlb.stats().counters();
        assert_eq!(c.get("tlb_hits"), Some(1));
        assert_eq!(c.get("tlb_fills"), Some(1));
        assert_eq!(
            c.get("tlb_lookups").unwrap(),
            c.get("tlb_hits").unwrap() + c.get("tlb_misses").unwrap()
        );
    }

    /// The associative memory as it was before the indexes: every flush
    /// sweeps all ways. Kept only as the reference the indexed flushes
    /// are checked against.
    #[derive(Debug, Clone)]
    struct SweepTlb {
        sets: Vec<[Option<TlbEntry>; TLB_WAYS]>,
        tick: u64,
        stats: TlbStats,
    }

    impl SweepTlb {
        /// A reference copy of `tlb`'s ways, clock and tallies.
        fn from(tlb: &Tlb) -> Self {
            Self {
                sets: tlb.sets.clone(),
                tick: tlb.tick,
                stats: tlb.stats,
            }
        }

        fn lookup(&mut self, asid: AbsAddr, segno: u32, pageno: u32) -> Option<TlbEntry> {
            self.stats.lookups += 1;
            self.tick += 1;
            let tick = self.tick;
            let set = &mut self.sets[Tlb::set_index(asid, segno, pageno)];
            let hit = set
                .iter_mut()
                .flatten()
                .find(|e| e.asid == asid && e.segno == segno && e.pageno == pageno);
            match hit {
                Some(entry) => {
                    self.stats.hits += 1;
                    entry.lru = tick;
                    Some(*entry)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn fill(&mut self, mut entry: TlbEntry) {
            self.tick += 1;
            entry.lru = self.tick;
            self.stats.fills += 1;
            let set = &mut self.sets[Tlb::set_index(entry.asid, entry.segno, entry.pageno)];
            if let Some(slot) = set.iter_mut().find(|s| {
                s.is_some_and(|e| {
                    e.asid == entry.asid && e.segno == entry.segno && e.pageno == entry.pageno
                })
            }) {
                *slot = Some(entry);
                return;
            }
            if let Some(slot) = set.iter_mut().find(|s| s.is_none()) {
                *slot = Some(entry);
                return;
            }
            let victim = set
                .iter_mut()
                .min_by_key(|s| s.map_or(0, |e| e.lru))
                .expect("TLB_WAYS > 0");
            *victim = Some(entry);
        }

        fn retain(&mut self, keep: impl Fn(&TlbEntry) -> bool) {
            let mut dropped = 0u64;
            for set in &mut self.sets {
                for slot in set.iter_mut() {
                    if slot.as_ref().is_some_and(|e| !keep(e)) {
                        *slot = None;
                        dropped += 1;
                    }
                }
            }
            self.stats.invalidations += dropped;
        }
    }

    /// Asserts `tlb` holds exactly the reference's ways (LRU stamps
    /// included), clock and tallies, that both indexes list exactly the
    /// resident entries and that each filter counts exactly its keys.
    fn assert_matches(tlb: &Tlb, reference: &SweepTlb, step: usize) {
        assert_eq!(tlb.sets, reference.sets, "resident set, step {step}");
        assert_eq!(tlb.stats, reference.stats, "tallies, step {step}");
        assert_eq!(tlb.tick, reference.tick, "LRU clock, step {step}");
        // One key per resident entry, each naming its slot's address.
        let resident = tlb.sets.iter().flatten().flatten().count();
        for (index, addr) in [
            (&tlb.by_ptw, (|e| e.ptw_addr) as fn(&TlbEntry) -> AbsAddr),
            (&tlb.by_sdw, |e| e.sdw_addr),
        ] {
            assert_eq!(index.keys.len(), resident, "index size, step {step}");
            assert!(index.keys.is_sorted(), "index order, step {step}");
            let mut filter = [0u16; FILTER_BUCKETS];
            for &(key, slot) in &index.keys {
                let e = tlb.sets[slot / TLB_WAYS][slot % TLB_WAYS].as_ref();
                assert_eq!(e.map(addr), Some(AbsAddr(key)), "index key, step {step}");
                filter[AddrIndex::bucket(key)] += 1;
            }
            assert_eq!(index.filter, filter, "filter counts, step {step}");
        }
    }

    /// A translation from a small pool of address spaces and shared page
    /// tables, so PTWs are cached under several address spaces, SDWs
    /// cover several pages, and sets overflow into LRU eviction.
    fn pooled_entry(rng: &mut SplitMix64) -> TlbEntry {
        let space = rng.below(4);
        let segno = rng.range_u32(0, 6);
        let pageno = rng.range_u32(0, 80);
        // Segment identity shared across address spaces.
        let seg = (space + u64::from(segno)) % 5;
        TlbEntry {
            asid: AbsAddr(space * 1000),
            segno,
            pageno,
            sdw_addr: AbsAddr(space * 1000 + u64::from(segno)),
            ptw_addr: AbsAddr(100_000 + seg * 256 + u64::from(pageno)),
            frame: FrameNo(rng.range_u32(0, 200)),
            read: rng.chance(3, 4),
            write: rng.chance(1, 2),
            execute: rng.chance(1, 4),
            modified: rng.chance(1, 2),
            lru: 0,
        }
    }

    #[test]
    fn indexed_flushes_match_the_full_sweep_on_random_sequences() {
        // Steps whose flush dropped something, whose flush matched
        // nothing, and whose fill replaced or evicted a resident entry;
        // single-address flushes the filter answered, and those it let
        // through to the search that then matched nothing.
        let (mut dropping, mut empty, mut replacing) = (0, 0, 0);
        let (mut answered, mut passed) = (0, 0);
        let mut single =
            |index: &AddrIndex, reference: &SweepTlb, addr: &dyn Fn(&TlbEntry) -> u64, at: u64| {
                let held = reference
                    .sets
                    .iter()
                    .flatten()
                    .flatten()
                    .any(|r| addr(r) == at);
                if !index.may_hold(at) {
                    assert!(!held, "the filter ruled out a resident address");
                    answered += 1;
                } else if !held {
                    passed += 1;
                }
            };
        for seed in 0..12u64 {
            let mut rng = SplitMix64::new(0x7_1B00 + seed);
            let mut tlb = Tlb::new();
            let mut reference = SweepTlb::from(&tlb);
            for step in 0..3_000 {
                let e = pooled_entry(&mut rng);
                let (before, resident) = (tlb.stats(), tlb.resident());
                match rng.below(1_000) {
                    0..=599 => {
                        tlb.fill(e);
                        reference.fill(e);
                    }
                    600..=899 => {
                        let got = tlb.lookup(e.asid, e.segno, e.pageno).copied();
                        let want = reference.lookup(e.asid, e.segno, e.pageno);
                        assert_eq!(got, want, "lookup, seed {seed} step {step}");
                    }
                    900..=949 => {
                        single(&tlb.by_ptw, &reference, &|r| r.ptw_addr.0, e.ptw_addr.0);
                        tlb.invalidate_ptw(e.ptw_addr);
                        reference.retain(|r| r.ptw_addr != e.ptw_addr);
                    }
                    950..=979 => {
                        single(&tlb.by_sdw, &reference, &|r| r.sdw_addr.0, e.sdw_addr.0);
                        tlb.invalidate_sdw(e.sdw_addr);
                        reference.retain(|r| r.sdw_addr != e.sdw_addr);
                    }
                    980..=989 => {
                        let (base, len) = (e.ptw_addr, rng.below(300));
                        tlb.invalidate_ptw_range(base, len);
                        reference.retain(|r| r.ptw_addr.0 < base.0 || r.ptw_addr.0 >= base.0 + len);
                    }
                    990..=997 => {
                        let (base, len) = (AbsAddr(e.asid.0 + rng.below(4)), rng.below(8));
                        tlb.invalidate_sdw_range(base, len);
                        reference.retain(|r| r.sdw_addr.0 < base.0 || r.sdw_addr.0 >= base.0 + len);
                    }
                    _ => {
                        tlb.clear();
                        reference.retain(|_| false);
                    }
                }
                assert_matches(&tlb, &reference, step);
                let after = tlb.stats();
                if after.fills > before.fills {
                    replacing += usize::from(tlb.resident() == resident);
                } else if after.lookups == before.lookups {
                    match after.invalidations > before.invalidations {
                        true => dropping += 1,
                        false => empty += 1,
                    }
                }
            }
        }
        assert!(dropping > 1_000 && empty > 1_000 && replacing > 1_000);
        assert!(
            answered > 1_000 && passed > 20,
            "{answered} answered, {passed} passed"
        );
    }

    #[test]
    fn flushing_an_absent_address_changes_no_tally_and_no_stamp() {
        let mut tlb = Tlb::new();
        for p in 0..40 {
            tlb.fill(entry(5, 1, p));
        }
        tlb.lookup(AbsAddr(5), 1, 3);
        let (sets, stats, tick) = (tlb.sets.clone(), tlb.stats(), tlb.tick);
        // Addresses just outside every resident PTW (1256..1296) and SDW (6).
        tlb.invalidate_ptw(AbsAddr(1255));
        tlb.invalidate_ptw(AbsAddr(1296));
        tlb.invalidate_sdw(AbsAddr(5));
        tlb.invalidate_sdw(AbsAddr(7));
        tlb.invalidate_ptw_range(AbsAddr(1000), 256);
        tlb.invalidate_ptw_range(AbsAddr(1296), 1_000);
        tlb.invalidate_ptw_range(AbsAddr(1260), 0);
        tlb.invalidate_sdw_range(AbsAddr(0), 6);
        tlb.invalidate_sdw_range(AbsAddr(6), 0);
        assert_eq!(tlb.sets, sets, "no entry and no LRU stamp moved");
        assert_eq!(tlb.stats(), stats, "no tally moved");
        assert_eq!(tlb.tick, tick);
        let mut empty = Tlb::new();
        empty.clear();
        assert_eq!(empty.stats(), TlbStats::default());
    }

    #[test]
    fn broadcast_flushes_each_processor_exactly_as_the_sweep_would() {
        use crate::cpu::{DescBase, ProcessorId, Ptw, Sdw};
        use crate::machine::Machine;
        use crate::VirtAddr;

        // Two address spaces (descriptor segments at 0 and 8) share the
        // page table of segment 0 at frame 1; each also has a private
        // segment 1 (page tables at frames 2 and 3).
        let mut m = Machine::kernel_proposed();
        let pts = [FrameNo(1).base(), FrameNo(2).base(), FrameNo(3).base()];
        for (i, pt) in pts.iter().enumerate() {
            for page in 0..4u64 {
                let ptw = Ptw {
                    frame: FrameNo(10 + 4 * i as u32 + page as u32),
                    present: true,
                    ..Ptw::default()
                };
                m.mem.write(pt.add(page), ptw.encode());
            }
        }
        let sdw = |page_table| Sdw {
            page_table,
            bound_pages: 4,
            read: true,
            write: true,
            execute: false,
            present: true,
            software: false,
        };
        for (cpu, dseg) in [(0, 0u64), (1, 8)] {
            m.mem.write(AbsAddr(dseg), sdw(pts[0]).encode());
            m.mem.write(AbsAddr(dseg + 1), sdw(pts[1 + cpu]).encode());
            m.cpus[cpu].dbr_user = Some(DescBase {
                base: AbsAddr(dseg),
                len: 2,
            });
            m.cpus[cpu].system_segno_limit = 0;
        }
        let touch = |m: &mut Machine| {
            for cpu in 0..2 {
                for segno in 0..2 {
                    for page in 0..4 {
                        let va = VirtAddr::new(segno, page * crate::mem::PAGE_WORDS as u32);
                        m.read(ProcessorId(cpu), va).unwrap();
                    }
                }
            }
        };
        // (by SDW, base, len): a one-word flush uses the single-address
        // entry point. Each is broadcast after refilling both processors
        // and mirrored on a sweep of each processor's copy.
        let flushes = [
            // The shared PTW: both processors drop it.
            (false, pts[0].add(2), 1),
            // Processor 1's private SDW: processor 0 is untouched.
            (true, AbsAddr(9), 1),
            // Processor 0's private page table.
            (false, pts[1], 4),
            // Processor 1's whole descriptor segment.
            (true, AbsAddr(8), 8),
            // Addresses nothing was cached from.
            (false, AbsAddr(3), 1),
            (true, AbsAddr(2), 6),
            // Everything (a clear).
            (false, AbsAddr(0), u64::MAX),
        ];
        for (by_sdw, base, len) in flushes {
            touch(&mut m);
            assert!(m.cpus.iter().all(|c| c.tlb.resident() == 8));
            let mut references: Vec<SweepTlb> =
                m.cpus.iter().map(|c| SweepTlb::from(&c.tlb)).collect();
            match (by_sdw, len) {
                (false, 1) => m.tlb_invalidate_ptw(base),
                (true, 1) => m.tlb_invalidate_sdw(base),
                (false, u64::MAX) => m.tlb_clear(),
                (false, _) => m.tlb_invalidate_ptw_range(base, len),
                (true, _) => m.tlb_invalidate_sdw_range(base, len),
            }
            for (cpu, reference) in m.cpus.iter().zip(&mut references) {
                reference.retain(|e| {
                    let addr = if by_sdw { e.sdw_addr } else { e.ptw_addr };
                    addr.0 < base.0 || addr.0 - base.0 >= len
                });
                assert_matches(&cpu.tlb, reference, 0);
            }
        }
        assert!(m.cpus.iter().all(|c| c.tlb.stats().invalidations > 0));
    }
}
