//! The cycle clock and cost model.
//!
//! The paper's performance results are relative ("about 3% slower",
//! "a factor of two in the speed of the code"). To reproduce their *shape*
//! deterministically we account simulated work in cycles: every memory
//! reference, descriptor fetch, fault, disk transfer, and executed
//! "instruction" charges the clock. Wall-clock Criterion measurements are
//! taken as a secondary check, but cycles are the primary metric because
//! they are exactly reproducible.
//!
//! The [`Language`] multiplier models the paper's observation that
//! recoding an assembly-language module in PL/I roughly halves the source
//! line count while roughly doubling the number of generated machine
//! instructions (Huber, 1976): software modules charge their algorithmic
//! work through [`Clock::charge_instructions`] tagged with the language
//! they are "written in".
//!
//! Every charge is additionally attributed to a kernel subsystem via the
//! embedded [`Meter`] (see [`crate::meter`]): supervisor code opens a
//! scope with [`Clock::enter`], and all cycles charged until the matching
//! [`Clock::exit`] are attributed to that subsystem.

use crate::meter::{Meter, MeterGuard, MeterSnapshot, Subsystem};

/// The implementation language of a (simulated) supervisor module.
///
/// Carries the paper's measured code-expansion factor: PL/I generates a
/// bit more than twice the machine instructions of hand assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// Hand-written 6180 assembly (ALM). Baseline cost.
    Assembly,
    /// PL/I. Costs [`CostModel::pli_expansion_permille`]/1000 cycles per
    /// abstract instruction.
    Pli,
}

/// Cycle costs charged for each kind of simulated hardware event.
///
/// The defaults are chosen for plausibility of *ratios* (a disk record
/// transfer is tens of thousands of times a core reference), which is all
/// the reproduced comparisons depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// One core read or write.
    pub core_access: u64,
    /// One descriptor word fetched during address translation.
    pub descriptor_fetch: u64,
    /// One hardware write-back of a page descriptor (used/modified or
    /// lock-bit maintenance during translation).
    pub ptw_update: u64,
    /// Fixed overhead of taking any fault (state save, dispatch).
    pub fault_overhead: u64,
    /// Fixed overhead of a kernel gate crossing (ring change).
    pub gate_crossing: u64,
    /// Fixed overhead of a process switch at the virtual-processor level.
    pub process_switch: u64,
    /// Disk seek + rotational latency, charged once per record transfer.
    pub disk_latency: u64,
    /// Per-word disk transfer cost, charged 1024 times per record.
    pub disk_word_transfer: u64,
    /// Cycles per abstract instruction for assembly code.
    pub instruction: u64,
    /// Instruction-count expansion of PL/I relative to assembly, in
    /// permille; the paper reports "somewhat more than a factor of two",
    /// so the default is 2200 (×2.2).
    pub pli_expansion_permille: u64,
    /// Fixed overhead of moving one frame across the inter-machine
    /// wire (interrupt, buffer handoff) — charged on each machine a
    /// frame touches, attributed to the network subsystem.
    pub wire_frame_overhead: u64,
    /// Per-byte wire transfer cost, charged with the frame overhead.
    pub wire_byte_transfer: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            core_access: 1,
            descriptor_fetch: 1,
            ptw_update: 1,
            fault_overhead: 50,
            gate_crossing: 30,
            process_switch: 120,
            disk_latency: 40_000,
            disk_word_transfer: 4,
            instruction: 1,
            pli_expansion_permille: 2200,
            wire_frame_overhead: 400,
            wire_byte_transfer: 6,
        }
    }
}

impl CostModel {
    /// Cycles charged for `n` abstract instructions written in `lang`.
    pub fn instructions(&self, n: u64, lang: Language) -> u64 {
        let base = n * self.instruction;
        match lang {
            Language::Assembly => base,
            Language::Pli => base * self.pli_expansion_permille / 1000,
        }
    }

    /// Cycles for transferring one full record (page) to or from disk.
    pub fn record_transfer(&self) -> u64 {
        self.disk_latency + self.disk_word_transfer * crate::mem::PAGE_WORDS as u64
    }

    /// Cycles for moving one `bytes`-long frame across the wire.
    pub fn wire_frame(&self, bytes: usize) -> u64 {
        self.wire_frame_overhead + self.wire_byte_transfer * bytes as u64
    }
}

/// The deterministic cycle clock.
///
/// A single monotone counter plus per-category tallies so experiments can
/// report where time went (compute vs. paging vs. gate crossings). The
/// embedded [`Meter`] additionally attributes every cycle to the kernel
/// subsystem that charged it; all charge paths route through one internal
/// add, so the attribution always sums exactly to [`Clock::now`].
#[derive(Debug, Clone, Default)]
pub struct Clock {
    cycles: u64,
    core_accesses: u64,
    descriptor_fetches: u64,
    ptw_updates: u64,
    faults: u64,
    gate_crossings: u64,
    process_switches: u64,
    disk_transfers: u64,
    instructions: u64,
    wire_frames: u64,
    meter: Meter,
}

impl Clock {
    /// A fresh clock at cycle zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current cycle count.
    pub fn now(&self) -> u64 {
        self.cycles
    }

    /// The single path by which cycles accrue: advances the clock and
    /// attributes the cycles to the current metering scope.
    fn add(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.meter.attribute(cycles);
    }

    /// Opens a cycle-attribution scope: every cycle charged until the
    /// matching [`Clock::exit`] is attributed to `subsystem`. Scopes nest;
    /// the innermost open scope is charged.
    pub fn enter(&mut self, subsystem: Subsystem) -> MeterGuard {
        self.meter.enter(subsystem)
    }

    /// Closes the scope `guard` came from (unwinding any scopes left open
    /// inside it).
    pub fn exit(&mut self, guard: MeterGuard) {
        self.meter.exit(guard);
    }

    /// The attribution ledger.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// Records a shared-writable-data edge in the runtime edge ledger:
    /// the currently-metered subsystem mutated data `owner` owns. The
    /// supervisors call this at their cross-subsystem mutation choke
    /// points (AST/page-table slots, quota cells, descriptor words);
    /// it charges no cycles and counts no event.
    pub fn note_shared_data(&mut self, owner: Subsystem) {
        self.meter.note_shared_data(owner);
    }

    /// The always-on caller→callee edge ledger.
    pub fn edge_set(&self) -> &crate::meter::EdgeSet {
        self.meter.edge_set()
    }

    /// An immutable copy of the edge ledger.
    pub fn edge_snapshot(&self) -> crate::meter::EdgeSet {
        self.meter.edge_set().clone()
    }

    /// An immutable copy of the attribution ledger.
    pub fn meter_snapshot(&self) -> MeterSnapshot {
        self.meter.snapshot()
    }

    /// Charges raw cycles without categorising them.
    pub fn charge(&mut self, cycles: u64) {
        self.add(cycles);
    }

    /// Charges one core access.
    pub fn charge_core_access(&mut self, cost: &CostModel) {
        self.core_accesses += 1;
        self.add(cost.core_access);
    }

    /// Charges one descriptor fetch.
    pub fn charge_descriptor_fetch(&mut self, cost: &CostModel) {
        self.descriptor_fetches += 1;
        self.add(cost.descriptor_fetch);
    }

    /// Charges one hardware page-descriptor write-back (reference-bit or
    /// lock-bit maintenance during translation).
    pub fn charge_ptw_update(&mut self, cost: &CostModel) {
        self.ptw_updates += 1;
        self.add(cost.ptw_update);
    }

    /// Charges a whole memory reference's accumulated translation and
    /// core costs in one meter attribution. The per-reference charge
    /// sequence (descriptor fetches, PTW write-backs, the core access)
    /// is the simulator's hottest path; none of those charges counts an
    /// event and no caller observes the clock between them, so
    /// batching them into a single `add` is attribution-exact while
    /// cutting the inner loop to one meter call per reference.
    pub fn charge_reference(&mut self, cost: &CostModel, c: RefCharges) {
        if c.is_empty() {
            return;
        }
        self.descriptor_fetches += c.descriptor_fetches;
        self.ptw_updates += c.ptw_updates;
        self.core_accesses += c.core_accesses;
        self.add(c.cycles(cost));
    }

    /// Charges the fixed overhead of a fault.
    pub fn charge_fault(&mut self, cost: &CostModel) {
        self.faults += 1;
        self.add(cost.fault_overhead);
        self.meter.count_event();
    }

    /// Charges a kernel gate crossing.
    pub fn charge_gate(&mut self, cost: &CostModel) {
        self.gate_crossings += 1;
        self.add(cost.gate_crossing);
        self.meter.count_event();
    }

    /// Charges a virtual-processor switch.
    pub fn charge_process_switch(&mut self, cost: &CostModel) {
        self.process_switches += 1;
        self.add(cost.process_switch);
        self.meter.count_event();
    }

    /// Charges one disk record transfer.
    pub fn charge_disk_transfer(&mut self, cost: &CostModel) {
        self.disk_transfers += 1;
        self.add(cost.record_transfer());
        self.meter.count_event();
    }

    /// Charges `n` abstract instructions of software written in `lang`.
    pub fn charge_instructions(&mut self, cost: &CostModel, n: u64, lang: Language) {
        self.instructions += n;
        self.add(cost.instructions(n, lang));
    }

    /// Charges `k` blocks of `n` abstract instructions each, every block
    /// rounded on its own: exactly `k` calls of
    /// [`Clock::charge_instructions`]`(cost, n, lang)` in one meter
    /// attribution. That is not one call for `n·k` instructions, which
    /// would round once: 14 PL/I instructions cost 30 cycles, so `k`
    /// blocks cost `30·k`, never ⌊30.8·k⌋.
    pub fn charge_instruction_blocks(&mut self, cost: &CostModel, n: u64, lang: Language, k: u64) {
        self.instructions += n * k;
        self.add(cost.instructions(n, lang) * k);
    }

    /// Charges one inter-machine wire frame of `bytes` bytes. The cost
    /// is attributed to the network subsystem under whatever scope is
    /// currently open, so the caller's context (user domain for bulk
    /// data, the answering service for admission routing) shows up as
    /// the invoking edge in the runtime ledger.
    pub fn charge_wire_frame(&mut self, cost: &CostModel, bytes: usize) {
        let guard = self.enter(Subsystem::Network);
        self.wire_frames += 1;
        self.add(cost.wire_frame(bytes));
        self.exit(guard);
    }

    /// Wire frames charged on this clock so far.
    pub fn wire_frames(&self) -> u64 {
        self.wire_frames
    }

    /// Number of faults taken so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Number of disk record transfers so far.
    pub fn disk_transfers(&self) -> u64 {
        self.disk_transfers
    }

    /// Number of gate crossings so far.
    pub fn gate_crossings(&self) -> u64 {
        self.gate_crossings
    }

    /// Number of process switches so far.
    pub fn process_switches(&self) -> u64 {
        self.process_switches
    }

    /// Abstract instructions executed so far.
    pub fn instructions_executed(&self) -> u64 {
        self.instructions
    }

    /// Page-descriptor write-backs charged so far.
    pub fn ptw_updates(&self) -> u64 {
        self.ptw_updates
    }

    /// Descriptor fetches charged so far.
    pub fn descriptor_fetches(&self) -> u64 {
        self.descriptor_fetches
    }

    /// A snapshot of all tallies, for before/after deltas in experiments.
    pub fn snapshot(&self) -> ClockSnapshot {
        ClockSnapshot {
            cycles: self.cycles,
            faults: self.faults,
            disk_transfers: self.disk_transfers,
            gate_crossings: self.gate_crossings,
            process_switches: self.process_switches,
            instructions: self.instructions,
            ptw_updates: self.ptw_updates,
        }
    }
}

/// Pending per-reference charges, accumulated across one memory
/// reference's translation and flushed with a single
/// [`Clock::charge_reference`]. The flush happens at every
/// charge-attribution boundary — before a fault is raised (so the
/// translation work is attributed to the scope that made the reference,
/// not to the fault handler's) and after a successful reference — so
/// totals, tallies, and meter attribution are byte-identical to charging
/// each step individually.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefCharges {
    /// Descriptor words fetched (SDW/PTW walks).
    pub descriptor_fetches: u64,
    /// Page-descriptor write-backs (used/modified/lock-bit maintenance).
    pub ptw_updates: u64,
    /// Core accesses.
    pub core_accesses: u64,
}

impl RefCharges {
    /// True when nothing has been accumulated (flush is a no-op).
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Total cycles these charges cost under `cost`.
    pub fn cycles(&self, cost: &CostModel) -> u64 {
        self.descriptor_fetches * cost.descriptor_fetch
            + self.ptw_updates * cost.ptw_update
            + self.core_accesses * cost.core_access
    }
}

/// An immutable snapshot of the clock's tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClockSnapshot {
    /// Total cycles.
    pub cycles: u64,
    /// Faults taken.
    pub faults: u64,
    /// Disk record transfers.
    pub disk_transfers: u64,
    /// Kernel gate crossings.
    pub gate_crossings: u64,
    /// Virtual-processor switches.
    pub process_switches: u64,
    /// Abstract instructions executed.
    pub instructions: u64,
    /// Page-descriptor write-backs.
    pub ptw_updates: u64,
}

impl ClockSnapshot {
    /// Component-wise difference `later - self`.
    ///
    /// # Panics
    ///
    /// Panics if `later` is not actually later (any tally smaller).
    pub fn delta(&self, later: &ClockSnapshot) -> ClockSnapshot {
        ClockSnapshot {
            cycles: later.cycles - self.cycles,
            faults: later.faults - self.faults,
            disk_transfers: later.disk_transfers - self.disk_transfers,
            gate_crossings: later.gate_crossings - self.gate_crossings,
            process_switches: later.process_switches - self.process_switches,
            instructions: later.instructions - self.instructions,
            ptw_updates: later.ptw_updates - self.ptw_updates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pli_costs_just_over_twice_assembly() {
        let cost = CostModel::default();
        let asm = cost.instructions(1000, Language::Assembly);
        let pli = cost.instructions(1000, Language::Pli);
        assert!(pli > 2 * asm, "PL/I should cost more than twice assembly");
        assert!(pli < 3 * asm, "but not three times");
    }

    #[test]
    fn clock_accumulates_by_category() {
        let cost = CostModel::default();
        let mut clk = Clock::new();
        clk.charge_core_access(&cost);
        clk.charge_fault(&cost);
        clk.charge_disk_transfer(&cost);
        clk.charge_instructions(&cost, 10, Language::Assembly);
        assert_eq!(clk.faults(), 1);
        assert_eq!(clk.disk_transfers(), 1);
        assert_eq!(clk.instructions_executed(), 10);
        assert_eq!(
            clk.now(),
            cost.core_access + cost.fault_overhead + cost.record_transfer() + 10
        );
    }

    #[test]
    fn snapshot_delta_isolates_an_interval() {
        let cost = CostModel::default();
        let mut clk = Clock::new();
        clk.charge_gate(&cost);
        let before = clk.snapshot();
        clk.charge_gate(&cost);
        clk.charge_process_switch(&cost);
        let d = before.delta(&clk.snapshot());
        assert_eq!(d.gate_crossings, 1);
        assert_eq!(d.process_switches, 1);
        assert_eq!(d.cycles, cost.gate_crossing + cost.process_switch);
    }

    #[test]
    fn batched_reference_charge_matches_incremental() {
        let cost = CostModel::default();
        let mut batched = Clock::new();
        let mut incremental = Clock::new();
        batched.charge_reference(
            &cost,
            RefCharges {
                descriptor_fetches: 2,
                ptw_updates: 1,
                core_accesses: 1,
            },
        );
        incremental.charge_descriptor_fetch(&cost);
        incremental.charge_descriptor_fetch(&cost);
        incremental.charge_ptw_update(&cost);
        incremental.charge_core_access(&cost);
        assert_eq!(batched.now(), incremental.now());
        assert_eq!(batched.snapshot(), incremental.snapshot());
        assert_eq!(batched.descriptor_fetches(), 2);
        assert_eq!(batched.ptw_updates(), 1);
    }

    #[test]
    fn empty_reference_charge_is_a_no_op() {
        let cost = CostModel::default();
        let mut clk = Clock::new();
        clk.charge_reference(&cost, RefCharges::default());
        assert_eq!(clk.now(), 0);
    }

    /// `k` blocks in one call equal `k` separate calls in cycles,
    /// instruction tally and per-subsystem attribution, and differ from
    /// one call for all `n·k` instructions whenever a block's cost
    /// rounds.
    #[test]
    fn instruction_blocks_round_one_by_one() {
        let cost = CostModel::default();
        for n in [14, 12] {
            for k in [0, 1, 1_000] {
                let (mut blocks, mut calls, mut merged) =
                    (Clock::new(), Clock::new(), Clock::new());
                for clk in [&mut blocks, &mut calls, &mut merged] {
                    let _ = clk.enter(Subsystem::DirectoryControl);
                }
                blocks.charge_instruction_blocks(&cost, n, Language::Pli, k);
                for _ in 0..k {
                    calls.charge_instructions(&cost, n, Language::Pli);
                }
                merged.charge_instructions(&cost, n * k, Language::Pli);
                let at = format!("n = {n}, k = {k}");
                assert_eq!(blocks.snapshot(), calls.snapshot(), "{at}");
                assert_eq!(blocks.instructions_executed(), n * k, "{at}");
                assert_eq!(blocks.meter_snapshot(), calls.meter_snapshot(), "{at}");
                let own = blocks
                    .meter_snapshot()
                    .attributed_to(Subsystem::DirectoryControl);
                assert_eq!(own, cost.instructions(n, Language::Pli) * k, "{at}");
                if k > 1 {
                    assert_ne!(blocks.now(), merged.now(), "{at}");
                }
            }
        }
        assert_eq!(CostModel::default().instructions(14, Language::Pli), 30);
    }

    #[test]
    fn disk_transfer_dwarfs_core_access() {
        let cost = CostModel::default();
        assert!(cost.record_transfer() > 10_000 * cost.core_access);
    }
}
