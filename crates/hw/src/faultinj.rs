//! Deterministic crash and disk-fault injection.
//!
//! A [`FaultPlan`] describes, in terms of the machine's own transfer
//! counters, exactly which disk operations misbehave: the Nth write of a
//! run is torn at a word boundary (or dropped outright) and the machine
//! loses power; the k-th read of a given record fails once with
//! [`DiskError::TransientRead`]; a pack drops offline once the write
//! counter reaches a threshold. Because everything is keyed off ordinals
//! rather than wall time or randomness, a run with a given plan is
//! exactly replayable — the property the crash-matrix experiment (R1)
//! relies on to enumerate every write of a workload as a crash point.
//!
//! The plan is installed on the [`Machine`](crate::Machine); the disk
//! transfer choke points consult [`DiskFaults`] before touching a pack.

use crate::disk::{DiskError, PackId, RecordNo};
use crate::mem::PAGE_WORDS;
use crate::rng::SplitMix64;
use std::collections::{HashMap, HashSet};

/// A machine-level hardware fault: the whole machine stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwFault {
    /// Power failed during the disk write with this 1-based ordinal.
    /// Core contents are lost; only the disk image survives.
    PowerFail {
        /// The global write ordinal on which power failed.
        at_write: u64,
    },
}

/// What reaches the platter on the write that loses power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashWrite {
    /// The write never reaches the platter; the record keeps its old
    /// contents.
    Dropped,
    /// The first `words` words of the new data reach the platter; the
    /// rest of the record keeps its old contents (a tear at a word
    /// boundary).
    Torn {
        /// New-data words written before power failed.
        words: usize,
    },
}

impl CrashWrite {
    /// The crash mode drawn from `seed`: dropped half the time, otherwise
    /// torn at a word boundary strictly inside the record.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        if rng.chance(1, 2) {
            CrashWrite::Dropped
        } else {
            CrashWrite::Torn {
                words: rng.range_usize(1, PAGE_WORDS),
            }
        }
    }
}

/// A deterministic fault plan, keyed entirely off transfer ordinals.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Power fails on this 1-based global write ordinal.
    pub crash_on_write: Option<(u64, CrashWrite)>,
    /// `(pack, record)` → 1-based per-record read ordinals that each
    /// fail once with [`DiskError::TransientRead`].
    pub transient_reads: HashMap<(PackId, RecordNo), Vec<u64>>,
    /// `(pack, threshold)`: the pack goes offline once the global write
    /// counter reaches `threshold`.
    pub offline_at_write: Vec<(PackId, u64)>,
}

impl FaultPlan {
    /// An empty plan (no faults; counters still advance).
    pub fn new() -> Self {
        Self::default()
    }

    /// Power fails on the `n`-th write (1-based), torn or dropped.
    #[must_use]
    pub fn crash_after_writes(mut self, n: u64, mode: CrashWrite) -> Self {
        self.crash_on_write = Some((n, mode));
        self
    }

    /// The `kth` read (1-based, per record) of `record` on `pack` fails
    /// once with [`DiskError::TransientRead`].
    #[must_use]
    pub fn transient_read(mut self, pack: PackId, record: RecordNo, kth: u64) -> Self {
        self.transient_reads
            .entry((pack, record))
            .or_default()
            .push(kth);
        self
    }

    /// `pack` goes offline once the global write counter reaches `n`.
    #[must_use]
    pub fn pack_offline_after_writes(mut self, pack: PackId, n: u64) -> Self {
        self.offline_at_write.push((pack, n));
        self
    }
}

/// The fate the plan assigns to one write attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteFate {
    /// The write proceeds normally.
    Commit,
    /// Power fails on this write; the payload is torn or dropped.
    Crash(CrashWrite),
}

/// Live fault-injection state attached to a machine's disk channel.
///
/// Counters advance even with an empty plan, so a fault-free dry run
/// measures exactly the write ordinals a later crash plan will index.
#[derive(Debug, Clone, Default)]
pub struct DiskFaults {
    plan: FaultPlan,
    /// Global write attempts (1-based ordinals; the counter holds the
    /// ordinal of the most recent attempt).
    pub writes: u64,
    /// Global read attempts.
    pub reads: u64,
    /// Read attempts of each record the plan fails reads of; no other
    /// record's count is ever compared.
    per_record_reads: HashMap<(PackId, RecordNo), u64>,
    offline: HashSet<PackId>,
    halted: Option<HwFault>,
}

impl DiskFaults {
    /// Installs a plan, resetting every counter and clearing any halt.
    pub fn install(&mut self, plan: FaultPlan) {
        *self = Self {
            plan,
            ..Self::default()
        };
    }

    /// Removes the plan and clears counters, halts, and offline marks.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Arms a crash `n` writes from *now*, leaving every counter alone.
    ///
    /// [`DiskFaults::install`] resets the ordinals, so an absolute plan's
    /// crash point shifts with however much traffic preceded it. A
    /// harness that wants "the next write after this point tears" —
    /// mid-run, after an unknown amount of prior I/O — arms relative to
    /// the live write counter instead. The committed/crashed boundary is
    /// then position-independent: the same `n` means the same thing at
    /// any point in any run.
    pub fn crash_after_further_writes(&mut self, n: u64, mode: CrashWrite) {
        self.plan.crash_on_write = Some((self.writes + n, mode));
    }

    /// The halt condition, if power has failed.
    pub fn halted(&self) -> Option<HwFault> {
        self.halted
    }

    /// True if `pack` is currently offline.
    pub fn is_offline(&self, pack: PackId) -> bool {
        self.offline.contains(&pack)
    }

    /// Forces a pack on or off line, outside any plan.
    pub fn set_offline(&mut self, pack: PackId, offline: bool) {
        if offline {
            self.offline.insert(pack);
        } else {
            self.offline.remove(&pack);
        }
    }

    fn apply_offline_transitions(&mut self) {
        let writes = self.writes;
        for (pack, n) in &self.plan.offline_at_write {
            if writes >= *n {
                self.offline.insert(*pack);
            }
        }
    }

    /// Consults the plan for one write attempt against `pack`.
    pub(crate) fn note_write(&mut self, pack: PackId) -> Result<WriteFate, DiskError> {
        if let Some(HwFault::PowerFail { .. }) = self.halted {
            return Err(DiskError::PowerFail);
        }
        self.writes += 1;
        self.apply_offline_transitions();
        if self.offline.contains(&pack) {
            return Err(DiskError::PackOffline { pack });
        }
        if let Some((n, mode)) = self.plan.crash_on_write {
            if self.writes == n {
                return Ok(WriteFate::Crash(mode));
            }
        }
        Ok(WriteFate::Commit)
    }

    /// Consults the plan for one read attempt of `record` on `pack`.
    pub(crate) fn note_read(&mut self, pack: PackId, record: RecordNo) -> Result<(), DiskError> {
        if let Some(HwFault::PowerFail { .. }) = self.halted {
            return Err(DiskError::PowerFail);
        }
        if self.offline.contains(&pack) {
            return Err(DiskError::PackOffline { pack });
        }
        self.reads += 1;
        let Some(ordinals) = self.plan.transient_reads.get(&(pack, record)) else {
            return Ok(());
        };
        let count = self.per_record_reads.entry((pack, record)).or_insert(0);
        *count += 1;
        if ordinals.contains(count) {
            return Err(DiskError::TransientRead { pack, record });
        }
        Ok(())
    }

    /// Records the power failure (called by the machine when the crash
    /// write fires).
    pub(crate) fn halt(&mut self) {
        self.halted = Some(HwFault::PowerFail {
            at_write: self.writes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_counts_but_never_faults() {
        let mut f = DiskFaults::default();
        for _ in 0..5 {
            assert_eq!(f.note_write(PackId(0)), Ok(WriteFate::Commit));
            assert_eq!(f.note_read(PackId(0), RecordNo(3)), Ok(()));
        }
        assert_eq!(f.writes, 5);
        assert_eq!(f.reads, 5);
        assert!(f.halted().is_none());
    }

    #[test]
    fn crash_fires_on_the_exact_ordinal_and_halt_sticks() {
        let mut f = DiskFaults::default();
        f.install(FaultPlan::new().crash_after_writes(3, CrashWrite::Dropped));
        assert_eq!(f.note_write(PackId(0)), Ok(WriteFate::Commit));
        assert_eq!(f.note_write(PackId(1)), Ok(WriteFate::Commit));
        assert_eq!(
            f.note_write(PackId(0)),
            Ok(WriteFate::Crash(CrashWrite::Dropped))
        );
        f.halt();
        assert_eq!(f.halted(), Some(HwFault::PowerFail { at_write: 3 }));
        assert_eq!(f.note_write(PackId(0)), Err(DiskError::PowerFail));
        assert_eq!(
            f.note_read(PackId(0), RecordNo(0)),
            Err(DiskError::PowerFail)
        );
    }

    #[test]
    fn transient_read_fails_exactly_once_per_listed_ordinal() {
        let mut f = DiskFaults::default();
        f.install(FaultPlan::new().transient_read(PackId(0), RecordNo(7), 2));
        assert_eq!(f.note_read(PackId(0), RecordNo(7)), Ok(()));
        assert_eq!(
            f.note_read(PackId(0), RecordNo(7)),
            Err(DiskError::TransientRead {
                pack: PackId(0),
                record: RecordNo(7)
            })
        );
        assert_eq!(f.note_read(PackId(0), RecordNo(7)), Ok(()), "fails once");
        // Other records are untouched, and not counted.
        assert_eq!(f.note_read(PackId(0), RecordNo(8)), Ok(()));
        assert_eq!(f.per_record_reads.len(), 1);
        assert_eq!(f.reads, 4);
    }

    #[test]
    fn pack_goes_offline_at_the_write_threshold() {
        let mut f = DiskFaults::default();
        f.install(FaultPlan::new().pack_offline_after_writes(PackId(1), 2));
        assert_eq!(f.note_write(PackId(1)), Ok(WriteFate::Commit));
        assert_eq!(
            f.note_write(PackId(1)),
            Err(DiskError::PackOffline { pack: PackId(1) })
        );
        assert!(f.is_offline(PackId(1)));
        // Other packs keep working.
        assert_eq!(f.note_write(PackId(0)), Ok(WriteFate::Commit));
        assert_eq!(f.note_read(PackId(0), RecordNo(0)), Ok(()));
        assert_eq!(
            f.note_read(PackId(1), RecordNo(0)),
            Err(DiskError::PackOffline { pack: PackId(1) })
        );
        f.set_offline(PackId(1), false);
        assert_eq!(f.note_read(PackId(1), RecordNo(0)), Ok(()));
    }

    #[test]
    fn install_resets_counters() {
        let mut f = DiskFaults::default();
        f.note_write(PackId(0)).unwrap();
        f.install(FaultPlan::new());
        assert_eq!(f.writes, 0);
    }

    #[test]
    fn relative_arming_is_position_independent() {
        let mut f = DiskFaults::default();
        // Arbitrary prior traffic that an absolute plan would have to
        // know about in advance.
        for _ in 0..5 {
            f.note_write(PackId(0)).unwrap();
        }
        f.crash_after_further_writes(2, CrashWrite::Torn { words: 3 });
        assert_eq!(f.writes, 5, "arming leaves the counters alone");
        assert_eq!(f.note_write(PackId(0)), Ok(WriteFate::Commit));
        assert_eq!(
            f.note_write(PackId(0)),
            Ok(WriteFate::Crash(CrashWrite::Torn { words: 3 }))
        );
        f.halt();
        assert_eq!(f.halted(), Some(HwFault::PowerFail { at_write: 7 }));
    }

    #[test]
    fn relative_arming_composes_with_a_fresh_machine() {
        // n writes from "now" on a fresh channel is the same as the
        // absolute plan — the relative path is a strict generalization.
        let mut f = DiskFaults::default();
        f.crash_after_further_writes(1, CrashWrite::Dropped);
        assert_eq!(
            f.note_write(PackId(0)),
            Ok(WriteFate::Crash(CrashWrite::Dropped))
        );
    }

    #[test]
    fn seeded_modes_replay_and_tear_strictly_inside_the_record() {
        let modes: Vec<CrashWrite> = (0..64).map(CrashWrite::seeded).collect();
        assert_eq!(modes, (0..64).map(CrashWrite::seeded).collect::<Vec<_>>());
        let dropped = modes.iter().filter(|m| **m == CrashWrite::Dropped).count();
        assert!((16..=48).contains(&dropped), "{dropped} of 64 dropped");
        for m in modes {
            if let CrashWrite::Torn { words } = m {
                assert!((1..PAGE_WORDS).contains(&words), "torn at {words}");
            }
        }
    }
}
