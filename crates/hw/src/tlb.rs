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
/// Beside the ways themselves it keeps two indexes of the resident
/// entries, one by PTW and one by SDW core address, so a setfaults flush
/// finds exactly the entries it drops instead of sweeping every way. A
/// flush that matches nothing changes no tally and no LRU stamp.
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: Vec<[Option<TlbEntry>; TLB_WAYS]>,
    by_ptw: AddrIndex,
    by_sdw: AddrIndex,
    tick: u64,
    stats: TlbStats,
}

/// Ways in the whole memory; way `w` of set `s` is slot `s * TLB_WAYS + w`.
const SLOTS: usize = TLB_SETS * TLB_WAYS;
/// Hash buckets of an index's chains and of its block counts (a power
/// of two).
const BUCKETS: usize = 512;
/// log2 of the words in a block: a range flush first reads the counts
/// of the 256-word blocks it covers.
const BLOCK_SHIFT: u32 = 8;
/// A range flush over more blocks than this sweeps without reading the
/// counts (no caller's range comes close).
const COUNTED_BLOCKS: u64 = 8;
/// No slot: an empty bucket, the end of a chain, or the back link of its
/// first slot.
const NIL: u16 = u16::MAX;
/// The address of a slot no entry holds; no flush range contains it.
const EMPTY: u64 = u64::MAX;

/// Every resident entry's address, chained by hash through the slots: a
/// bucket's chain holds each slot whose address hashes there, linked both
/// ways so a slot leaves its chain in O(1).
///
/// Beside the chains, `blocks` counts the resident slots whose address
/// falls in each bucket of 256-word blocks, so a range flush over a page
/// table or a descriptor segment no entry was cached from returns after
/// reading a few counts. A count holds at most the [`SLOTS`] resident
/// entries, so it never wraps.
#[derive(Debug, Clone)]
struct AddrIndex {
    head: [u16; BUCKETS],
    next: [u16; SLOTS],
    prev: [u16; SLOTS],
    /// The address each slot is chained under, [`EMPTY`] if none.
    addr: [u64; SLOTS],
    blocks: [u16; BUCKETS],
}

impl Default for AddrIndex {
    fn default() -> Self {
        Self {
            head: [NIL; BUCKETS],
            next: [NIL; SLOTS],
            prev: [NIL; SLOTS],
            addr: [EMPTY; SLOTS],
            blocks: [0; BUCKETS],
        }
    }
}

impl AddrIndex {
    /// The bucket of an address or block number (Fibonacci hashing, so
    /// the consecutive PTWs of one page table spread over every bucket).
    fn bucket(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - BUCKETS.trailing_zeros())) as usize
    }

    /// Chains the empty `slot` under `addr`.
    fn insert(&mut self, slot: usize, addr: u64) {
        let bucket = Self::bucket(addr);
        let first = self.head[bucket];
        if first != NIL {
            self.prev[usize::from(first)] = slot as u16;
        }
        (self.next[slot], self.prev[slot]) = (first, NIL);
        self.head[bucket] = slot as u16;
        self.addr[slot] = addr;
        self.blocks[Self::bucket(addr >> BLOCK_SHIFT)] += 1;
    }

    /// Unchains the resident `slot`.
    fn remove(&mut self, slot: usize) {
        let addr = std::mem::replace(&mut self.addr[slot], EMPTY);
        let (prev, next) = (self.prev[slot], self.next[slot]);
        match prev {
            NIL => self.head[Self::bucket(addr)] = next,
            p => self.next[usize::from(p)] = next,
        }
        if next != NIL {
            self.prev[usize::from(next)] = prev;
        }
        self.blocks[Self::bucket(addr >> BLOCK_SHIFT)] -= 1;
    }

    /// False only if no slot's address lies in `[lo, hi)`, which is not
    /// empty.
    fn may_hold(&self, lo: u64, hi: u64) -> bool {
        let (first, last) = (lo >> BLOCK_SHIFT, (hi - 1) >> BLOCK_SHIFT);
        last - first >= COUNTED_BLOCKS
            || (first..=last).any(|block| self.blocks[Self::bucket(block)] > 0)
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
        if self.sets[set_no][way].replace(entry).is_some() {
            self.by_ptw.remove(slot);
            self.by_sdw.remove(slot);
        }
        self.by_ptw.insert(slot, entry.ptw_addr.0);
        self.by_sdw.insert(slot, entry.sdw_addr.0);
    }

    /// Drops every entry cached from the PTW at `addr`.
    pub fn invalidate_ptw(&mut self, addr: AbsAddr) {
        self.flush(Index::Ptw, addr.0);
    }

    /// Drops every entry cached from the SDW at `addr`.
    pub fn invalidate_sdw(&mut self, addr: AbsAddr) {
        self.flush(Index::Sdw, addr.0);
    }

    /// Drops every entry whose PTW lies in `[base, base + len)` — the
    /// page-table-slot-reuse flush.
    pub fn invalidate_ptw_range(&mut self, base: AbsAddr, len: u64) {
        self.flush_range(Index::Ptw, base.0, base.0 + len);
    }

    /// Drops every entry whose SDW lies in `[base, base + len)` — the
    /// flush a rebuilt or reused descriptor segment requires.
    pub fn invalidate_sdw_range(&mut self, base: AbsAddr, len: u64) {
        self.flush_range(Index::Sdw, base.0, base.0 + len);
    }

    /// Drops everything (the 6180's "clear associative memory").
    pub fn clear(&mut self) {
        self.stats.invalidations += self.resident() as u64;
        self.sets.fill([None; TLB_WAYS]);
        self.by_ptw = AddrIndex::default();
        self.by_sdw = AddrIndex::default();
    }

    fn index(&self, index: Index) -> &AddrIndex {
        match index {
            Index::Ptw => &self.by_ptw,
            Index::Sdw => &self.by_sdw,
        }
    }

    /// Drops every entry whose `index` address is `addr`: one walk of
    /// its bucket's chain.
    fn flush(&mut self, index: Index, addr: u64) {
        let mut slot = self.index(index).head[AddrIndex::bucket(addr)];
        while slot != NIL {
            let (s, keys) = (usize::from(slot), self.index(index));
            slot = keys.next[s];
            if keys.addr[s] == addr {
                self.drop_slot(s);
            }
        }
    }

    /// Drops every entry whose `index` address lies in `[lo, hi)`: a
    /// sweep of the slot addresses, unless the block counts rule the
    /// range out.
    fn flush_range(&mut self, index: Index, lo: u64, hi: u64) {
        if lo >= hi || !self.index(index).may_hold(lo, hi) {
            return;
        }
        for s in 0..SLOTS {
            if self.index(index).addr[s].wrapping_sub(lo) < hi - lo {
                self.drop_slot(s);
            }
        }
    }

    /// Empties the resident `slot` and unchains it from both indexes.
    fn drop_slot(&mut self, slot: usize) {
        self.sets[slot / TLB_WAYS][slot % TLB_WAYS] = None;
        self.by_ptw.remove(slot);
        self.by_sdw.remove(slot);
        self.stats.invalidations += 1;
    }

    /// The tallies so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Number of resident entries (for tests).
    pub fn resident(&self) -> usize {
        self.sets.iter().flatten().flatten().count()
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
    /// included), clock and tallies; that each index chains every
    /// resident slot exactly once, in its address's bucket with both links
    /// agreeing, and no empty slot; and that the block counts equal a
    /// recount.
    fn assert_matches(tlb: &Tlb, reference: &SweepTlb, step: usize) {
        assert_eq!(tlb.sets, reference.sets, "resident set, step {step}");
        assert_eq!(tlb.stats, reference.stats, "tallies, step {step}");
        assert_eq!(tlb.tick, reference.tick, "LRU clock, step {step}");
        for (index, addr) in [
            (&tlb.by_ptw, (|e| e.ptw_addr) as fn(&TlbEntry) -> AbsAddr),
            (&tlb.by_sdw, |e| e.sdw_addr),
        ] {
            let mut chained = [0u8; SLOTS];
            for (bucket, &first) in index.head.iter().enumerate() {
                let (mut prev, mut slot) = (NIL, first);
                while slot != NIL {
                    let s = usize::from(slot);
                    chained[s] += 1;
                    assert_eq!(chained[s], 1, "slot {s} chained twice, step {step}");
                    assert_eq!(index.prev[s], prev, "back link, step {step}");
                    let home = AddrIndex::bucket(index.addr[s]);
                    assert_eq!(home, bucket, "chain bucket, step {step}");
                    (prev, slot) = (slot, index.next[s]);
                }
            }
            let mut blocks = [0u16; BUCKETS];
            for (s, way) in tlb.sets.iter().flatten().enumerate() {
                let want = way.as_ref().map_or(EMPTY, |e| addr(e).0);
                assert_eq!(index.addr[s], want, "slot address, step {step}");
                assert_eq!(chained[s], u8::from(way.is_some()), "chained, step {step}");
                if way.is_some() {
                    blocks[AddrIndex::bucket(want >> BLOCK_SHIFT)] += 1;
                }
            }
            assert_eq!(index.blocks, blocks, "block counts, step {step}");
        }
    }

    /// Where the pooled translations' descriptor segments (1,024 words
    /// each) and page tables (256 words each) sit, aligned as the
    /// supervisors place them.
    const DSEGS: u64 = 4096;
    const PAGE_TABLES: u64 = 100_352;

    /// A translation from a small pool of address spaces and shared page
    /// tables, so PTWs are cached under several address spaces, SDWs
    /// cover several pages, and sets overflow into LRU eviction. No
    /// translation is cached from spaces 4–6 or page tables 5 and 6,
    /// which [`pooled_range`] also draws.
    fn pooled_entry(rng: &mut SplitMix64) -> TlbEntry {
        let space = rng.below(4);
        let segno = rng.range_u32(0, 6);
        let pageno = rng.range_u32(0, 80);
        // Segment identity shared across address spaces.
        let seg = (space + u64::from(segno)) % 5;
        TlbEntry {
            asid: AbsAddr(DSEGS + space * 1024),
            segno,
            pageno,
            sdw_addr: AbsAddr(DSEGS + space * 1024 + u64::from(segno)),
            ptw_addr: AbsAddr(PAGE_TABLES + seg * 256 + u64::from(pageno)),
            frame: FrameNo(rng.range_u32(0, 200)),
            read: rng.chance(3, 4),
            write: rng.chance(1, 2),
            execute: rng.chance(1, 4),
            modified: rng.chance(1, 2),
            lru: 0,
        }
    }

    /// A range flush in a caller's shape: a whole page table (256 words)
    /// or descriptor segment (1,024 words) from the pool, cached from or
    /// not, or an unaligned range across the edge of one of their blocks.
    fn pooled_range(rng: &mut SplitMix64, by_sdw: bool) -> (u64, u64) {
        let (pool, words) = if by_sdw {
            (DSEGS, 1024)
        } else {
            (PAGE_TABLES, 256)
        };
        let table = pool + rng.below(7) * words;
        if rng.chance(1, 2) {
            return (table, words);
        }
        let edge = table + rng.below(words / 256) * 256;
        let len = rng.below(299) + 2;
        (edge - rng.below(len - 1) - 1, len)
    }

    #[test]
    fn indexed_flushes_match_the_full_sweep_on_random_sequences() {
        // Steps whose fill replaced or evicted a resident entry;
        // single-address flushes that dropped an entry and that found
        // nothing; range flushes the block counts ruled out, and those
        // that swept.
        let mut replacing = 0;
        let (mut dropped, mut found_nothing) = (0, 0);
        let (mut ruled_out, mut swept) = (0, 0);
        for seed in 0..12u64 {
            let mut rng = SplitMix64::new(0x7_1B00 + seed);
            let mut tlb = Tlb::new();
            let mut reference = SweepTlb::from(&tlb);
            for step in 0..3_000 {
                let e = pooled_entry(&mut rng);
                let (before, resident) = (tlb.stats(), tlb.resident());
                let roll = rng.below(1_000);
                match roll {
                    0..=599 => {
                        tlb.fill(e);
                        reference.fill(e);
                        replacing += usize::from(tlb.resident() == resident);
                    }
                    600..=899 => {
                        let got = tlb.lookup(e.asid, e.segno, e.pageno).copied();
                        let want = reference.lookup(e.asid, e.segno, e.pageno);
                        assert_eq!(got, want, "lookup, seed {seed} step {step}");
                    }
                    900..=979 => {
                        if roll < 950 {
                            tlb.invalidate_ptw(e.ptw_addr);
                            reference.retain(|r| r.ptw_addr != e.ptw_addr);
                        } else {
                            tlb.invalidate_sdw(e.sdw_addr);
                            reference.retain(|r| r.sdw_addr != e.sdw_addr);
                        }
                        match tlb.stats().invalidations > before.invalidations {
                            true => dropped += 1,
                            false => found_nothing += 1,
                        }
                    }
                    980..=997 => {
                        let by_sdw = roll >= 990;
                        let (lo, len) = pooled_range(&mut rng, by_sdw);
                        let (index, addr): (_, fn(&TlbEntry) -> u64) = match by_sdw {
                            false => (&tlb.by_ptw, |r| r.ptw_addr.0),
                            true => (&tlb.by_sdw, |r| r.sdw_addr.0),
                        };
                        let held = |r: &TlbEntry| addr(r).wrapping_sub(lo) < len;
                        if index.may_hold(lo, lo + len) {
                            swept += 1;
                        } else {
                            let mut resident = reference.sets.iter().flatten().flatten();
                            assert!(!resident.any(held), "ruled out a resident entry");
                            ruled_out += 1;
                        }
                        match by_sdw {
                            false => tlb.invalidate_ptw_range(AbsAddr(lo), len),
                            true => tlb.invalidate_sdw_range(AbsAddr(lo), len),
                        }
                        reference.retain(|r| !held(r));
                    }
                    _ => {
                        tlb.clear();
                        reference.retain(|_| false);
                    }
                }
                assert_matches(&tlb, &reference, step);
            }
        }
        assert!(replacing > 1_000, "{replacing} replacing fills");
        assert!(
            dropped > 1_000 && found_nothing > 1_000,
            "single-address flushes: {dropped} dropped, {found_nothing} found nothing"
        );
        assert!(
            ruled_out > 150 && swept > 200,
            "range flushes: {ruled_out} ruled out, {swept} swept"
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
