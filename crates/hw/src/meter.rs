//! mx-meter: kernel-wide cycle attribution and event counting.
//!
//! The paper argues about *where time goes* — how many cycles the kernel
//! spends in page control versus the gatekeeper versus user computation —
//! so the simulator needs attribution, not just a total. This module hangs
//! a subsystem ledger off the [`Clock`](crate::Clock): software announces
//! which subsystem is executing with [`Clock::enter`], every cycle charged
//! while that scope is open is attributed to it, and scopes nest across
//! gate crossings the way rings nest on the real machine.
//!
//! **Conservation** holds by construction: every charge path in the clock
//! routes through one internal add, so the per-subsystem tallies always
//! sum exactly to [`Clock::now`](crate::Clock::now). There is no
//! "unattributed" residue; cycles charged outside any scope belong to
//! [`Subsystem::UserDomain`].

use std::fmt;

/// The subsystems cycles can be attributed to.
///
/// These follow the type-extension layers the paper carves the supervisor
/// into, plus a few service processes the experiments exercise. Cycles
/// charged while no scope is open belong to [`Subsystem::UserDomain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subsystem {
    /// User-ring computation (the default when no kernel scope is open).
    UserDomain,
    /// Ring-crossing validation at kernel gates.
    Gatekeeper,
    /// Missing-page service, frame allocation, quota cell checks.
    PageControl,
    /// Segment activation, deactivation, and descriptor management.
    SegmentControl,
    /// Directory hierarchy walks, ACL checks, naming.
    DirectoryControl,
    /// Process creation, destruction, and address-space setup.
    ProcessControl,
    /// Virtual-processor multiplexing and dispatch.
    Scheduler,
    /// The write-behind purifier daemon.
    Purifier,
    /// Dynamic linking (snapping links on linkage faults).
    Linker,
    /// Login, logout, and the answering service.
    AnsweringService,
    /// Network/message demultiplexing.
    Network,
    /// Disk driver time: record transfers not inside any kernel scope.
    Disk,
    /// Consistency sweeps after crashes.
    Salvager,
}

impl Subsystem {
    /// Number of subsystems (size of the attribution ledger).
    pub const COUNT: usize = 13;

    /// Every subsystem, in ledger order.
    pub const ALL: [Subsystem; Subsystem::COUNT] = [
        Subsystem::UserDomain,
        Subsystem::Gatekeeper,
        Subsystem::PageControl,
        Subsystem::SegmentControl,
        Subsystem::DirectoryControl,
        Subsystem::ProcessControl,
        Subsystem::Scheduler,
        Subsystem::Purifier,
        Subsystem::Linker,
        Subsystem::AnsweringService,
        Subsystem::Network,
        Subsystem::Disk,
        Subsystem::Salvager,
    ];

    /// Ledger index of this subsystem.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the JSON key in trace reports.
    pub const fn name(self) -> &'static str {
        match self {
            Subsystem::UserDomain => "user_domain",
            Subsystem::Gatekeeper => "gatekeeper",
            Subsystem::PageControl => "page_control",
            Subsystem::SegmentControl => "segment_control",
            Subsystem::DirectoryControl => "directory_control",
            Subsystem::ProcessControl => "process_control",
            Subsystem::Scheduler => "scheduler",
            Subsystem::Purifier => "purifier",
            Subsystem::Linker => "linker",
            Subsystem::AnsweringService => "answering_service",
            Subsystem::Network => "network",
            Subsystem::Disk => "disk",
            Subsystem::Salvager => "salvager",
        }
    }
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How one subsystem was observed depending on another at run time.
///
/// The two improper kinds of the paper's classification, observed rather
/// than declared: an **invocation** (a metering scope opened while
/// another subsystem's scope was on top of the stack — the runtime
/// equivalent of a procedure call across a module boundary) and a
/// **shared-data write** (a tagged mutation of a data structure another
/// subsystem owns: AST/page-table slots, quota cells, descriptor words).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeKind {
    /// `from`'s scope was on top of the stack when `to`'s scope opened.
    Invoke,
    /// Code metered to `from` mutated writable data `to` owns.
    SharedData,
}

impl EdgeKind {
    /// Number of edge kinds (size of the edge ledger's third axis).
    pub const COUNT: usize = 2;

    /// Both kinds, in ledger order.
    pub const ALL: [EdgeKind; EdgeKind::COUNT] = [EdgeKind::Invoke, EdgeKind::SharedData];

    /// Ledger index of this kind.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable label used in gate reports.
    pub const fn name(self) -> &'static str {
        match self {
            EdgeKind::Invoke => "invoke",
            EdgeKind::SharedData => "shared-data",
        }
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observed caller→callee edge with its occurrence count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObservedEdge {
    /// The kind of dependency observed.
    pub kind: EdgeKind,
    /// The depending subsystem (the caller / the writer).
    pub from: Subsystem,
    /// The subsystem depended upon (the callee / the data's owner).
    pub to: Subsystem,
    /// How many times the edge fired.
    pub count: u64,
}

/// The always-on caller→callee edge ledger: a
/// `Subsystem × Subsystem × EdgeKind` count matrix.
///
/// The ledger is O(1) memory regardless of run length (13 × 13 × 2
/// counters), and it never evicts, so the runtime dependency graph it
/// induces is exact over the whole run, not a window. Two conservation
/// properties hold by construction and are pinned by tests:
///
/// * every scope entry records exactly one [`EdgeKind::Invoke`] edge,
///   so the invoke counts always sum to the meter's total scope
///   entries; and
/// * [`EdgeSet::merge`] is commutative and element-wise additive, so
///   per-shard ledgers fold into exactly the ledger one machine would
///   have produced (sum of per-shard counts == merged count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSet {
    counts: [[[u64; Subsystem::COUNT]; Subsystem::COUNT]; EdgeKind::COUNT],
}

impl Default for EdgeSet {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeSet {
    /// An empty ledger.
    pub fn new() -> Self {
        Self {
            counts: [[[0; Subsystem::COUNT]; Subsystem::COUNT]; EdgeKind::COUNT],
        }
    }

    /// Records one occurrence of `from → to`.
    pub fn record(&mut self, kind: EdgeKind, from: Subsystem, to: Subsystem) {
        self.counts[kind.index()][from.index()][to.index()] += 1;
    }

    /// Occurrences of `from → to` of `kind`.
    pub fn count(&self, kind: EdgeKind, from: Subsystem, to: Subsystem) -> u64 {
        self.counts[kind.index()][from.index()][to.index()]
    }

    /// Total occurrences of `kind` edges.
    pub fn total_of(&self, kind: EdgeKind) -> u64 {
        self.counts[kind.index()]
            .iter()
            .flat_map(|row| row.iter())
            .sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        EdgeKind::ALL.iter().all(|&k| self.total_of(k) == 0)
    }

    /// Every edge with a non-zero count, in (kind, from, to) ledger
    /// order — a deterministic flattening, byte-stable across runs.
    pub fn edges(&self) -> Vec<ObservedEdge> {
        let mut out = Vec::new();
        for kind in EdgeKind::ALL {
            for from in Subsystem::ALL {
                for to in Subsystem::ALL {
                    let count = self.count(kind, from, to);
                    if count > 0 {
                        out.push(ObservedEdge {
                            kind,
                            from,
                            to,
                            count,
                        });
                    }
                }
            }
        }
        out
    }

    /// Folds `other` into `self`, element-wise. Commutative and
    /// conservation-safe: merged counts are the sums of the parts.
    pub fn merge(&mut self, other: &EdgeSet) {
        for k in 0..EdgeKind::COUNT {
            for f in 0..Subsystem::COUNT {
                for t in 0..Subsystem::COUNT {
                    self.counts[k][f][t] += other.counts[k][f][t];
                }
            }
        }
    }

    /// Element-wise difference `later - self`, isolating an interval.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `later` is not actually later (counts
    /// are monotone).
    pub fn delta(&self, later: &EdgeSet) -> EdgeSet {
        let mut out = EdgeSet::new();
        for k in 0..EdgeKind::COUNT {
            for f in 0..Subsystem::COUNT {
                for t in 0..Subsystem::COUNT {
                    out.counts[k][f][t] = later.counts[k][f][t] - self.counts[k][f][t];
                }
            }
        }
        out
    }
}

/// Scope token returned by [`Clock::enter`](crate::Clock::enter).
///
/// Holding the guard does not borrow the clock (the supervisor code needs
/// `&mut` access to the machine while a scope is open), so closing the
/// scope is an explicit [`Clock::exit`](crate::Clock::exit) call. The
/// token records the stack depth to restore, which makes exits robust:
/// an exit unwinds *to* its depth, so a scope abandoned by an early
/// return inside is cleaned up by the enclosing exit.
#[derive(Debug)]
#[must_use = "pass this token to Clock::exit or the scope never closes"]
pub struct MeterGuard {
    pub(crate) depth: usize,
}

/// The attribution ledger embedded in the clock.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    attributed: [u64; Subsystem::COUNT],
    entries: [u64; Subsystem::COUNT],
    stack: Vec<Subsystem>,
    recorded: u64,
    edges: EdgeSet,
}

impl Meter {
    /// The subsystem currently being charged.
    pub fn current(&self) -> Subsystem {
        self.stack.last().copied().unwrap_or(Subsystem::UserDomain)
    }

    /// Attributes `cycles` to the current subsystem.
    pub(crate) fn attribute(&mut self, cycles: u64) {
        self.attributed[self.current().index()] += cycles;
    }

    /// Opens a scope; cycles charged until the matching exit are
    /// attributed to `subsystem`.
    pub(crate) fn enter(&mut self, subsystem: Subsystem) -> MeterGuard {
        let depth = self.stack.len();
        // The invocation edge: attributed to the *innermost* open scope
        // (the subsystem whose code actually made the call), exactly
        // once per entry — the fault-path unwind in `exit` never
        // re-records it.
        self.edges
            .record(EdgeKind::Invoke, self.current(), subsystem);
        self.stack.push(subsystem);
        self.entries[subsystem.index()] += 1;
        self.recorded += 1;
        MeterGuard { depth }
    }

    /// Closes the scope `guard` came from, unwinding any scopes left
    /// open inside it. Each closed scope counts as one event.
    pub(crate) fn exit(&mut self, guard: MeterGuard) {
        self.recorded += self.stack.len().saturating_sub(guard.depth) as u64;
        self.stack.truncate(guard.depth);
    }

    /// Counts one notable charge (a fault, gate crossing, process switch
    /// or disk transfer) as an event.
    pub(crate) fn count_event(&mut self) {
        self.recorded += 1;
    }

    /// Records a shared-writable-data edge: the current scope's
    /// subsystem mutated data `owner` owns. Call sites are the
    /// cross-subsystem mutation choke points (AST/page-table slots,
    /// quota cells, descriptor words); a mutation performed by the
    /// owner itself records a self-edge, which the runtime lattice
    /// treats as intra-module and ignores.
    pub(crate) fn note_shared_data(&mut self, owner: Subsystem) {
        self.edges
            .record(EdgeKind::SharedData, self.current(), owner);
    }

    /// The always-on caller→callee edge ledger.
    pub fn edge_set(&self) -> &EdgeSet {
        &self.edges
    }

    /// Events recorded over the meter's lifetime: scope entries and
    /// exits, faults, gate crossings, process switches and disk transfers.
    pub fn events_recorded(&self) -> u64 {
        self.recorded
    }

    /// Cycles attributed to `subsystem` so far.
    pub fn attributed_to(&self, subsystem: Subsystem) -> u64 {
        self.attributed[subsystem.index()]
    }

    /// Sum of all attributed cycles. Equals `Clock::now()` always —
    /// the conservation property the tests pin.
    pub fn attributed_total(&self) -> u64 {
        self.attributed.iter().sum()
    }

    /// Total scope entries across all subsystems. Always equals the
    /// edge ledger's invoke total — every entry records one edge.
    pub fn total_entries(&self) -> u64 {
        self.entries.iter().sum()
    }

    /// An immutable copy of the ledger.
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot {
            attributed: self.attributed,
            entries: self.entries,
            events_recorded: self.recorded,
        }
    }
}

/// An immutable copy of the attribution ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeterSnapshot {
    attributed: [u64; Subsystem::COUNT],
    entries: [u64; Subsystem::COUNT],
    events_recorded: u64,
}

impl MeterSnapshot {
    /// Cycles attributed to `subsystem`.
    pub fn attributed_to(&self, subsystem: Subsystem) -> u64 {
        self.attributed[subsystem.index()]
    }

    /// Scope entries recorded for `subsystem`.
    pub fn entries_for(&self, subsystem: Subsystem) -> u64 {
        self.entries[subsystem.index()]
    }

    /// Sum of attributed cycles across all subsystems.
    pub fn total(&self) -> u64 {
        self.attributed.iter().sum()
    }

    /// Events recorded over the meter's lifetime.
    pub fn events_recorded(&self) -> u64 {
        self.events_recorded
    }

    /// Per-subsystem rows with non-zero activity, largest share first.
    pub fn breakdown(&self) -> Vec<(Subsystem, u64, u64)> {
        let mut rows: Vec<(Subsystem, u64, u64)> = Subsystem::ALL
            .iter()
            .map(|&s| (s, self.attributed_to(s), self.entries_for(s)))
            .filter(|&(_, cycles, entries)| cycles > 0 || entries > 0)
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Component-wise difference `later - self`.
    pub fn delta(&self, later: &MeterSnapshot) -> MeterSnapshot {
        let mut attributed = [0u64; Subsystem::COUNT];
        let mut entries = [0u64; Subsystem::COUNT];
        for i in 0..Subsystem::COUNT {
            attributed[i] = later.attributed[i] - self.attributed[i];
            entries[i] = later.entries[i] - self.entries[i];
        }
        MeterSnapshot {
            attributed,
            entries,
            events_recorded: later.events_recorded - self.events_recorded,
        }
    }

    /// Renders the ledger as a JSON object (no external dependencies, so
    /// this is hand-rolled; all values are integers and names are fixed
    /// snake_case identifiers, so no escaping is required).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"total_cycles\":{},", self.total()));
        out.push_str(&format!("\"events_recorded\":{},", self.events_recorded));
        out.push_str("\"subsystems\":{");
        let mut first = true;
        for (subsystem, cycles, entries) in self.breakdown() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"cycles\":{cycles},\"entries\":{entries}}}",
                subsystem.name()
            ));
        }
        out.push_str("}}");
        out
    }

    /// Renders the ledger as aligned text lines for terminal output.
    pub fn render_text(&self) -> String {
        let total = self.total().max(1);
        let mut out = String::new();
        for (subsystem, cycles, entries) in self.breakdown() {
            out.push_str(&format!(
                "  {:<18} {:>14} cycles  {:>5.1}%  ({} entries)\n",
                subsystem.name(),
                cycles,
                cycles as f64 * 100.0 / total as f64,
                entries,
            ));
        }
        out
    }
}

/// An ordered name→value counter registry.
///
/// The kernel and the legacy supervisor keep different statistics
/// structs; both render into a `CounterSet` so reports and the trace
/// JSON treat them uniformly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    counters: Vec<(&'static str, u64)>,
}

impl CounterSet {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`, replacing any existing entry.
    pub fn set(&mut self, name: &'static str, value: u64) {
        if let Some(entry) = self.counters.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = value;
        } else {
            self.counters.push((name, value));
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// All counters in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Renders the registry as a JSON object. Counter names are fixed
    /// identifiers, so no escaping is required.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, CostModel, Language};

    #[test]
    fn unscoped_charges_belong_to_the_user_domain() {
        let cost = CostModel::default();
        let mut clk = Clock::new();
        clk.charge_core_access(&cost);
        clk.charge_instructions(&cost, 10, Language::Assembly);
        assert_eq!(clk.meter().attributed_to(Subsystem::UserDomain), clk.now());
        assert_eq!(clk.meter().attributed_total(), clk.now());
    }

    #[test]
    fn scopes_nest_and_conserve() {
        let cost = CostModel::default();
        let mut clk = Clock::new();
        clk.charge(7); // user domain
        let outer = clk.enter(Subsystem::PageControl);
        clk.charge(100);
        let inner = clk.enter(Subsystem::Disk);
        clk.charge(1000);
        clk.exit(inner);
        clk.charge(50);
        clk.exit(outer);
        clk.charge_instructions(&cost, 3, Language::Assembly);
        let m = clk.meter();
        assert_eq!(m.attributed_to(Subsystem::UserDomain), 7 + 3);
        assert_eq!(m.attributed_to(Subsystem::PageControl), 150);
        assert_eq!(m.attributed_to(Subsystem::Disk), 1000);
        assert_eq!(m.attributed_total(), clk.now());
    }

    #[test]
    fn exit_unwinds_scopes_abandoned_inside() {
        let mut clk = Clock::new();
        let outer = clk.enter(Subsystem::SegmentControl);
        let _abandoned = clk.enter(Subsystem::PageControl);
        clk.charge(5);
        // `_abandoned` is never passed to exit; the outer exit unwinds it.
        clk.exit(outer);
        clk.charge(9);
        let m = clk.meter();
        assert_eq!(m.attributed_to(Subsystem::PageControl), 5);
        assert_eq!(m.attributed_to(Subsystem::UserDomain), 9);
        assert_eq!(m.current(), Subsystem::UserDomain);
    }

    #[test]
    fn notable_charges_land_in_the_trace() {
        let cost = CostModel::default();
        let mut clk = Clock::new();
        let g = clk.enter(Subsystem::Gatekeeper);
        clk.charge_gate(&cost);
        clk.charge_fault(&cost);
        clk.charge_disk_transfer(&cost);
        clk.charge_process_switch(&cost);
        // Plain cycle charges are not events.
        clk.charge(3);
        clk.charge_core_access(&cost);
        clk.charge_instructions(&cost, 10, Language::Pli);
        let _abandoned = clk.enter(Subsystem::PageControl);
        // Unwinding two scopes counts two exits.
        clk.exit(g);
        assert_eq!(clk.meter().events_recorded(), 8);
        assert_eq!(clk.meter_snapshot().events_recorded(), 8);
        // The count is what a trace report carries for the run.
        assert!(clk
            .meter_snapshot()
            .to_json()
            .contains("\"events_recorded\":8,"));
        clk.charge_wire_frame(&cost, 16);
        assert_eq!(
            clk.meter().events_recorded(),
            10,
            "wire frame: enter + exit"
        );
    }

    #[test]
    fn snapshot_delta_and_json_render() {
        let mut clk = Clock::new();
        let before = clk.meter_snapshot();
        let g = clk.enter(Subsystem::Purifier);
        clk.charge(40);
        clk.exit(g);
        clk.charge(2);
        let d = before.delta(&clk.meter_snapshot());
        assert_eq!(d.attributed_to(Subsystem::Purifier), 40);
        assert_eq!(d.entries_for(Subsystem::Purifier), 1);
        assert_eq!(d.total(), 42);
        let json = d.to_json();
        assert!(json.contains("\"total_cycles\":42"));
        assert!(json.contains("\"purifier\":{\"cycles\":40,\"entries\":1}"));
    }

    #[test]
    fn invoke_edges_attribute_to_the_innermost_caller() {
        let mut clk = Clock::new();
        // UserDomain → Dir → Seg → Dir: each entry charges the scope on
        // top of the stack at the instant of the call, not the outermost.
        let a = clk.enter(Subsystem::DirectoryControl);
        let b = clk.enter(Subsystem::SegmentControl);
        let c = clk.enter(Subsystem::DirectoryControl);
        clk.exit(c);
        clk.exit(b);
        clk.exit(a);
        let e = clk.edge_set();
        assert_eq!(
            e.count(
                EdgeKind::Invoke,
                Subsystem::UserDomain,
                Subsystem::DirectoryControl
            ),
            1
        );
        assert_eq!(
            e.count(
                EdgeKind::Invoke,
                Subsystem::DirectoryControl,
                Subsystem::SegmentControl
            ),
            1
        );
        assert_eq!(
            e.count(
                EdgeKind::Invoke,
                Subsystem::SegmentControl,
                Subsystem::DirectoryControl
            ),
            1,
            "re-entrant Dir scope charges Seg, the innermost caller"
        );
        assert_eq!(
            e.count(
                EdgeKind::Invoke,
                Subsystem::DirectoryControl,
                Subsystem::DirectoryControl
            ),
            0,
            "the outer Dir scope is not the caller of the inner one"
        );
    }

    #[test]
    fn fault_path_unwind_records_each_edge_exactly_once() {
        let mut clk = Clock::new();
        // A scope abandoned by an early return (the translate-fault /
        // SalvageBusy shape) is closed by the enclosing exit's unwind;
        // the edge was recorded at entry and must not be re-recorded.
        let outer = clk.enter(Subsystem::PageControl);
        let _abandoned = clk.enter(Subsystem::Disk);
        clk.exit(outer); // unwinds Disk too
        let e = clk.edge_set();
        assert_eq!(
            e.count(EdgeKind::Invoke, Subsystem::PageControl, Subsystem::Disk),
            1
        );
        assert_eq!(
            e.count(
                EdgeKind::Invoke,
                Subsystem::UserDomain,
                Subsystem::PageControl
            ),
            1
        );
        assert_eq!(e.total_of(EdgeKind::Invoke), 2);
        assert_eq!(
            clk.meter().total_entries(),
            e.total_of(EdgeKind::Invoke),
            "one invoke edge per scope entry, even across unwinds"
        );
    }

    #[test]
    fn shared_data_edges_record_writer_to_owner() {
        let mut clk = Clock::new();
        let g = clk.enter(Subsystem::PageControl);
        clk.note_shared_data(Subsystem::SegmentControl); // AST walk
        clk.note_shared_data(Subsystem::SegmentControl);
        clk.note_shared_data(Subsystem::PageControl); // own data: self-edge
        clk.exit(g);
        let e = clk.edge_set();
        assert_eq!(
            e.count(
                EdgeKind::SharedData,
                Subsystem::PageControl,
                Subsystem::SegmentControl
            ),
            2
        );
        assert_eq!(
            e.count(
                EdgeKind::SharedData,
                Subsystem::PageControl,
                Subsystem::PageControl
            ),
            1,
            "owner mutating its own data is a self-edge (intra-module)"
        );
        assert_eq!(e.total_of(EdgeKind::SharedData), 3);
    }

    #[test]
    fn edge_merge_is_commutative_and_conservation_safe() {
        let mut a = EdgeSet::new();
        let mut b = EdgeSet::new();
        a.record(
            EdgeKind::Invoke,
            Subsystem::UserDomain,
            Subsystem::Gatekeeper,
        );
        a.record(
            EdgeKind::Invoke,
            Subsystem::UserDomain,
            Subsystem::Gatekeeper,
        );
        a.record(
            EdgeKind::SharedData,
            Subsystem::PageControl,
            Subsystem::SegmentControl,
        );
        b.record(
            EdgeKind::Invoke,
            Subsystem::UserDomain,
            Subsystem::Gatekeeper,
        );
        b.record(
            EdgeKind::Invoke,
            Subsystem::Scheduler,
            Subsystem::PageControl,
        );
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        for kind in EdgeKind::ALL {
            assert_eq!(
                ab.total_of(kind),
                a.total_of(kind) + b.total_of(kind),
                "sum of per-shard counts == merged count ({kind})"
            );
        }
        assert_eq!(
            ab.count(
                EdgeKind::Invoke,
                Subsystem::UserDomain,
                Subsystem::Gatekeeper
            ),
            3
        );
        // Delta inverts merge: (a merged b) - a == b.
        assert_eq!(a.delta(&ab), b);
    }

    #[test]
    fn edge_flattening_is_deterministic_and_sorted() {
        let mut e = EdgeSet::new();
        e.record(
            EdgeKind::SharedData,
            Subsystem::SegmentControl,
            Subsystem::DirectoryControl,
        );
        e.record(
            EdgeKind::Invoke,
            Subsystem::UserDomain,
            Subsystem::PageControl,
        );
        e.record(
            EdgeKind::Invoke,
            Subsystem::Gatekeeper,
            Subsystem::Scheduler,
        );
        let edges = e.edges();
        assert_eq!(edges.len(), 3);
        let mut sorted = edges.clone();
        sorted.sort();
        assert_eq!(edges, sorted, "ledger order is (kind, from, to) sorted");
        assert!(EdgeSet::new().is_empty());
        assert!(!e.is_empty());
    }

    #[test]
    fn counter_set_replaces_and_renders() {
        let mut cs = CounterSet::new();
        cs.set("page_faults", 3);
        cs.set("segment_faults", 1);
        cs.set("page_faults", 5);
        assert_eq!(cs.get("page_faults"), Some(5));
        assert_eq!(cs.len(), 2);
        assert_eq!(cs.to_json(), "{\"page_faults\":5,\"segment_faults\":1}");
    }
}
