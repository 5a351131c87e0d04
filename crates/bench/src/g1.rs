//! G1 — the runtime dependency lattice, derived from meter events.
//!
//! Every experiment in the battery already meters which subsystem each
//! cycle belongs to; since the meter also records every scope crossing
//! and every tagged cross-subsystem mutation into the bounded edge
//! ledger, the battery doubles as a *measurement of the dependency
//! structure the running system actually obeys*. This experiment runs
//! the battery on both designs, folds the ledgers, and diffs each
//! against the lattice its design declares:
//!
//! * the kernel design must come back **clean** — zero undeclared edges,
//!   zero loops. Any regression (a new crossing, a new tangle) fails CI
//!   right here, which is the paper's certification argument turned into
//!   a gate;
//! * the 1974 supervisor is expected to come back **indicted** — the
//!   quota walk's direct AST reference and the full-pack relocation
//!   reach upward from page control, exactly Figure 3's improper edges —
//!   and the advisor ranks which of them to break first;
//! * declared pairs the battery never drives are reported as coverage
//!   gaps (they can only ratchet down; `tests/lattice_gate.rs` pins the
//!   floor).
//!
//! The gate also distrusts itself: every invocation plants a known
//! layering cheat (page control invoking the answering service) in a
//! scratch kernel and proves the gate reports exactly that edge, with a
//! replay string that reproduces the verdict from the parsed seed alone.

use mx_aim::Label;
use mx_deps::runtime::{check, observed_graph, render_report, GateReport};
use mx_deps::suggest_breaks;
use mx_explore::{
    run_kernel as scenario_kernel, run_legacy as scenario_legacy, PctPolicy, ScenarioKind,
    SeededRandomPolicy,
};
use mx_hw::meter::{CounterSet, EdgeSet};
use mx_hw::{Clock, EdgeKind, Subsystem};
use mx_kernel::demux::FramingSpec;
use mx_kernel::{Kernel, KernelConfig, UserId};
use mx_load::{
    run_both, run_kernel_c1, run_kernel_fleet, run_kernel_s1, run_legacy_c1, run_legacy_fleet,
    run_legacy_s1, run_sharded, C1Policy, C1Spec, FleetSpec, LoadSpec, S1Spec, ShardSpec,
};
use mx_sync::FifoPolicy;

/// The seed every battery leg runs under; printed in the self-check's
/// replay string.
pub const BATTERY_SEED: u64 = 0x61;

/// A small kernel for the single-machine legs (demultiplexer driver,
/// planted cheat).
fn scratch_kernel() -> Kernel {
    Kernel::boot(KernelConfig {
        frames: 128,
        records_per_pack: 256,
        toc_slots_per_pack: 64,
        pt_slots: 24,
        max_processes: 4,
        root_quota: 200,
        ..KernelConfig::default()
    })
}

/// Drives the kernel demultiplexer so the `user_domain -> network` pair
/// is exercised: attach a framing spec, claim a channel, deliver a
/// frame, read it back. (The legacy design routes terminals through the
/// answering service; it has no separate network scope to exercise.)
fn demux_leg(kernel_edges: &mut EdgeSet) {
    let mut k = scratch_kernel();
    k.register_account("net", UserId(1), 7, Label::BOTTOM);
    let pid = k.login_residue("net", 7, Label::BOTTOM).expect("login");
    let stream = k.demux_attach(FramingSpec::ARPANET);
    k.demux_claim(pid, stream, 7).expect("claim");
    k.demux_receive(stream, &[0, 0, 7, b'm', b'x', b'\r'])
        .expect("receive");
    let mut bytes = Vec::new();
    k.demux_read(pid, stream, 7, &mut bytes).expect("read");
    assert_eq!(bytes, b"mx\r", "demux leg must round-trip the frame");
    kernel_edges.merge(k.machine.clock.edge_set());
}

/// A P-series leg: the P4/A2 cramped-memory shape — a seeded reference
/// string through a too-small frame pool with the purifier run at idle
/// every 16 references — so the paging, quota, and purifier mechanisms
/// the P-series measures also contribute their edges. (The other
/// P-series mechanisms — linking, name resolution, answering service,
/// dispatch, quota growth, fault path — are the load scripts' and
/// scenarios' ops, already in the battery.)
fn purifier_leg(kernel_edges: &mut EdgeSet) {
    use crate::experiments::{memory_config, purify, replay};
    let string = crate::workload::RefString::generate(41, 40, 1500, 10);
    let r = replay::<Kernel>(memory_config(36 + 13), &string, false, None, Some(purify));
    kernel_edges.merge(r.sys.machine.clock.edge_set());
}

/// Runs the full battery — ample and tight load, sharded load, chaos
/// composition, online salvage, every exploration scenario under three
/// policies, the P-series cramped-memory/purifier leg, and the
/// demultiplexer driver — folding each leg's edge ledger into one set
/// per design.
pub fn battery() -> (EdgeSet, EdgeSet) {
    let mut kernel = EdgeSet::new();
    let mut legacy = EdgeSet::new();

    for spec in [
        LoadSpec::new(6, BATTERY_SEED),
        LoadSpec::tight(6, BATTERY_SEED),
    ] {
        let (k, l) = run_both(&spec);
        kernel.merge(&k.edges);
        legacy.merge(&l.edges);
    }
    let sharded = run_sharded(
        &ShardSpec {
            sessions: 8,
            seed: BATTERY_SEED,
            shard_users: 4,
        },
        2,
    );
    kernel.merge(&sharded.kernel.edges);
    legacy.merge(&sharded.legacy.edges);

    let c1 = C1Spec::new(6, BATTERY_SEED, 0xFA11, 2, C1Policy::Fifo);
    kernel.merge(&run_kernel_c1(&c1).edges);
    legacy.merge(&run_legacy_c1(&c1).edges);
    let s1 = S1Spec::new(6, BATTERY_SEED, 0xFA11, 2, C1Policy::Fifo);
    kernel.merge(&run_kernel_s1(&s1).edges);
    legacy.merge(&run_legacy_s1(&s1).edges);

    for kind in ScenarioKind::ALL {
        kernel.merge(&scenario_kernel(kind, 1, Box::new(FifoPolicy)).edges);
        kernel.merge(&scenario_kernel(kind, 1, Box::new(SeededRandomPolicy::new(7))).edges);
        kernel.merge(&scenario_kernel(kind, 1, Box::new(PctPolicy::new(7))).edges);
        if kind.has_legacy() {
            legacy.merge(&scenario_legacy(kind, 1).edges);
        }
    }

    fleet_leg(&mut kernel, &mut legacy);

    purifier_leg(&mut kernel);
    demux_leg(&mut kernel);
    (kernel, legacy)
}

/// The F1 leg: a two-machine fleet on each design, the kernel one in
/// the specialized file-store configuration so the resident service
/// path (network-scoped dispatch reaching into segment and page
/// control) and the answering service's admission directives on the
/// wire contribute their edges. The fleet must itself be clean — a
/// dirty leg would smuggle noise into the very ledger the gate trusts.
fn fleet_leg(kernel_edges: &mut EdgeSet, legacy_edges: &mut EdgeSet) {
    let mut fspec = FleetSpec::new(2, 6, BATTERY_SEED);
    fspec.specialized_store = true;
    let fk = run_kernel_fleet(&fspec, None);
    assert!(
        fk.violations.is_empty(),
        "G1 fleet leg (kernel): {:?}",
        fk.violations
    );
    assert!(fk.remote_ops > 0, "G1 fleet leg must cross the wire");
    kernel_edges.merge(&fk.edges);

    let fl = run_legacy_fleet(&FleetSpec::new(2, 6, BATTERY_SEED), None);
    assert!(
        fl.violations.is_empty(),
        "G1 fleet leg (legacy): {:?}",
        fl.violations
    );
    legacy_edges.merge(&fl.edges);

    store_leg(kernel_edges);
}

/// The specialized store with its pages gone cold: a scratch kernel
/// writes a served file, sweeps everything to disk (`sync_to_disk`
/// deactivates every segment), then reads the file back through the
/// resident network entry — so the reactivation and the page-in it
/// takes are attributed to the network scope, deterministically
/// exercising the declared `network -> segment_control` and
/// `network -> page_control` pairs (which a warm store never shows:
/// its daemon just wrote the pages).
fn store_leg(kernel_edges: &mut EdgeSet) {
    use mx_hw::{EdgeKind, Subsystem, Word};
    let mut k = scratch_kernel();
    k.register_account("store", UserId(1), 7, Label::BOTTOM);
    let pid = k.login_residue("store", 7, Label::BOTTOM).expect("login");
    let root = k.root_token();
    let acl = mx_kernel::Acl::owner(UserId(1));
    let served = k
        .create_entry(pid, root, "served", acl, Label::BOTTOM, false)
        .expect("segment");
    let sa = k.initiate(pid, served).expect("initiate");
    k.write_word(pid, sa, 0, Word::new(0xF1EE)).expect("write");
    k.sync_to_disk().expect("sweep");
    let before = k.machine.clock.edge_snapshot();
    let w = k.resident_read_word(pid, sa, 0).expect("resident read");
    assert_eq!(w, Word::new(0xF1EE), "the cold read must return the bytes");
    let delta = before.delta(k.machine.clock.edge_set());
    for to in [Subsystem::SegmentControl, Subsystem::PageControl] {
        assert!(
            delta.count(EdgeKind::Invoke, Subsystem::Network, to) > 0,
            "store leg: the cold resident read must fault through {}",
            to.name()
        );
    }
    kernel_edges.merge(k.machine.clock.edge_set());
}

/// Boots a scratch kernel, plants the known layering cheat `1 + seed %
/// 3` times, and gates the *delta* ledger (so boot traffic cannot mask
/// the plant). The cheat count depends on the seed, which is what makes
/// the replay string a real reproduction recipe rather than a label.
pub fn cheat_run(seed: u64) -> GateReport {
    let mut k = scratch_kernel();
    let before = k.machine.clock.edge_snapshot();
    for _ in 0..(1 + seed % 3) {
        k.plant_lattice_cheat_for_test();
    }
    let delta = before.delta(k.machine.clock.edge_set());
    check(&mx_kernel::kernel_runtime_lattice(), &delta)
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("  {l}\n")).collect()
}

/// Runs the G1 lattice gate and renders the report.
///
/// # Panics
///
/// Panics — failing CI — if the kernel battery shows any undeclared
/// edge or loop, if the legacy battery fails to show the Figure-3
/// improper edges, or if the planted-cheat self-check does not report
/// exactly the planted edge and replay from its printed seed.
pub fn g1_lattice_gate() -> String {
    let (kernel_edges, legacy_edges) = battery();
    let kernel_report = check(&mx_kernel::kernel_runtime_lattice(), &kernel_edges);
    let legacy_report = check(&mx_legacy::legacy_runtime_lattice(), &legacy_edges);

    let mut out = String::new();
    out.push_str("  kernel design (must be clean — this is the CI gate):\n");
    out.push_str(&indent(&render_report(&kernel_report)));
    assert!(
        kernel_report.is_clean(),
        "G1: the kernel design crossed a boundary its lattice forbids\n{}",
        render_report(&kernel_report)
    );

    out.push_str("\n  1974 supervisor (expected to trip the gate):\n");
    out.push_str(&indent(&render_report(&legacy_report)));
    assert!(
        !legacy_report.is_clean(),
        "G1: the battery stopped driving the old design's improper paths — \
         the legacy gate came back clean, which would make the kernel's \
         clean verdict vacuous"
    );
    let has = |from: Subsystem, to: Subsystem, kind: EdgeKind| {
        legacy_report
            .undeclared
            .iter()
            .any(|e| e.from == from && e.to == to && e.kind == kind)
    };
    assert!(
        has(
            Subsystem::PageControl,
            Subsystem::SegmentControl,
            EdgeKind::SharedData
        ),
        "G1: the quota walk's direct AST reference must be observed"
    );
    assert!(
        has(
            Subsystem::PageControl,
            Subsystem::DirectoryControl,
            EdgeKind::SharedData
        ),
        "G1: full-pack relocation from the page path must be observed"
    );

    // Rank the old design's observed tangle: which edges to break first.
    let g = observed_graph(&legacy_edges);
    let plan = suggest_breaks(&g);
    out.push_str("\n  break advice for the observed legacy tangle:\n");
    out.push_str(&indent(&mx_deps::advisor::render_plan(&g, &plan)));

    // Self-check: the gate must catch a cheat it knows about, and the
    // verdict must reproduce from the printed string alone.
    let cheat = cheat_run(BATTERY_SEED);
    assert!(
        !cheat.is_clean(),
        "G1 self-check: the planted layering cheat went unnoticed"
    );
    assert_eq!(
        cheat.undeclared.len(),
        1,
        "G1 self-check: expected exactly the planted edge, got {:?}",
        cheat.undeclared
    );
    let planted = &cheat.undeclared[0];
    assert_eq!(
        (planted.from, planted.to, planted.kind),
        (
            Subsystem::PageControl,
            Subsystem::AnsweringService,
            EdgeKind::Invoke
        ),
        "G1 self-check: wrong edge attributed"
    );
    let printed = format!("g1 cheat seed={BATTERY_SEED:#x}");
    let parsed_seed = printed
        .rsplit("seed=")
        .next()
        .and_then(|s| s.strip_prefix("0x"))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .expect("printed replay string parses");
    let again = cheat_run(parsed_seed);
    assert_eq!(
        again.undeclared, cheat.undeclared,
        "G1 self-check: replay from the printed string did not reproduce"
    );
    out.push_str(&format!(
        "\n  planted-cheat self-check       : caught {} -> {} [{}] x{} and \
         replayed from '{printed}'\n",
        planted.from.name(),
        planted.to.name(),
        planted.kind.name(),
        planted.count
    ));

    let kernel_lattice = mx_kernel::kernel_runtime_lattice();
    let exercised_pairs = kernel_lattice.pairs().len() - kernel_report.unexercised.len();
    out.push_str(&format!(
        "  kernel coverage                : {exercised_pairs}/{} declared pairs exercised\n",
        kernel_lattice.pairs().len()
    ));

    let mut counters = CounterSet::new();
    counters.set("kernel_observed_edges", kernel_report.observed.len() as u64);
    counters.set("kernel_undeclared", kernel_report.undeclared.len() as u64);
    counters.set("kernel_loops", kernel_report.loops.len() as u64);
    counters.set("kernel_exercised_pairs", exercised_pairs as u64);
    counters.set("legacy_observed_edges", legacy_report.observed.len() as u64);
    counters.set("legacy_undeclared", legacy_report.undeclared.len() as u64);
    counters.set("legacy_loops", legacy_report.loops.len() as u64);
    crate::trace::publish("g1.lattice", &Clock::new(), counters);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g1_gates_clean_kernel_and_indicts_legacy() {
        let report = g1_lattice_gate();
        assert!(report.contains("-> CLEAN"), "kernel verdict line");
        assert!(report.contains("-> VIOLATION"), "legacy verdict line");
        assert!(report.contains("undeclared: page_control -> segment_control [shared-data]"));
        assert!(report.contains("planted-cheat self-check       : caught"));
    }

    #[test]
    fn the_cheat_count_tracks_the_seed() {
        let r1 = cheat_run(0);
        let r2 = cheat_run(1);
        assert_eq!(r1.undeclared[0].count, 1);
        assert_eq!(r2.undeclared[0].count, 2);
    }
}
