//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro                       # everything
//! repro --only f2,t1          # selected experiments (ids per DESIGN.md)
//! repro --list                # list experiment ids
//! repro --trace report.json   # also write per-subsystem cycle attribution
//! repro --only r1 --stride 16 # subsample the crash matrix (CI smoke)
//! repro --only l1 --l1-max 64 # cap the load-scaling sweep (CI smoke)
//! repro --only c1 --c1-max 32 # cap the chaos population (CI smoke)
//! repro --only m1 --shards 4 --m1-max 4096 # sharded load (CI smoke)
//! repro --only s1 --s1-max 16 # cap the online-salvage population (CI smoke)
//! repro --only f1 --machines 2 --f1-max 64 # fleet scaling (CI smoke)
//! ```
//!
//! The id `s1` runs both S1 experiments: the mythical-identifier
//! semantics check and the online-salvage robustness composition.
//! Likewise `f1` runs both Figure 1 (the project plan) and the F1
//! fleet-scaling experiment.

use mx_bench::{
    a1_namespace_cache, a2_purifier_idle, a3_associative_memory, p1_linker, p2_namespace,
    p3_answering, p4_memory, p5_scheduler, p7_quota, p8_fault_path, r1_crash_recovery,
    s1_mythical_identifiers, s2_confinement, s3_relocation, TreeSpec,
};
use mx_census::multics::{standard_transforms, start_of_project, PLI_EQUIVALENT_SHRINK_PERMILLE};
use mx_census::plan::render_plan;
use mx_census::report::specialization_estimate;
use mx_census::{entry_point_stats, size_table, Region};
use mx_deps::render::{render_audit_costs, render_dot};
use mx_deps::render_ascii;

const ALL: &[&str] = &[
    "f1", "f2", "f3", "f4", "t1", "t2", "t3", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "s1",
    "s2", "s3", "r1", "a1", "a2", "a3", "x1", "l1", "c1", "m1", "g1",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in ALL {
            println!("{id}");
        }
        return;
    }
    let mut dot = false;
    let mut stride: u64 = 1;
    let mut l1_max: usize = 1024;
    let mut c1_max: usize = 64;
    let mut s1_max: usize = 64;
    let mut m1_max: usize = 100_000;
    let mut shards: usize = 4;
    let mut machines: usize = 4;
    let mut f1_max: usize = 64;
    let mut trace_path: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--only" => {
                i += 1;
                if let Some(list) = args.get(i) {
                    selected.extend(list.split(',').map(|s| s.trim().to_lowercase()));
                }
            }
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(path) => trace_path = Some(path.clone()),
                    None => {
                        eprintln!("--trace requires a file path");
                        std::process::exit(2);
                    }
                }
            }
            "--stride" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => stride = n,
                    _ => {
                        eprintln!("--stride requires a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--l1-max" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => l1_max = n,
                    _ => {
                        eprintln!("--l1-max requires a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--c1-max" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => c1_max = n,
                    _ => {
                        eprintln!("--c1-max requires a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--s1-max" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => s1_max = n,
                    _ => {
                        eprintln!("--s1-max requires a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--m1-max" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => m1_max = n,
                    _ => {
                        eprintln!("--m1-max requires a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--shards" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => shards = n,
                    _ => {
                        eprintln!("--shards requires a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--machines" => {
                i += 1;
                // Requests travel on a channel numbered by the requester
                // and replies on 100 + server: the wire addresses at most
                // 100 machines.
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if (1..=100).contains(&n) => machines = n,
                    _ => {
                        eprintln!("--machines requires an integer from 1 to 100");
                        std::process::exit(2);
                    }
                }
            }
            "--f1-max" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => f1_max = n,
                    _ => {
                        eprintln!("--f1-max requires a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--dot" => dot = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // A typo in --only must not green a CI smoke job by running nothing.
    let unknown: Vec<&String> = selected
        .iter()
        .filter(|s| !ALL.contains(&s.as_str()))
        .collect();
    if !unknown.is_empty() {
        for id in &unknown {
            eprintln!("unknown experiment id: {id}");
        }
        eprintln!("valid ids: {}", ALL.join(", "));
        std::process::exit(2);
    }
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    println!("================================================================");
    println!(" The Multics Kernel Design Project — reproduction report");
    println!(" (Schroeder, Clark, Saltzer; SOSP 1977)");
    println!("================================================================\n");

    if want("f1") {
        header("F1", "Figure 1 — the project plan");
        println!("{}", render_plan());
    }
    if want("f2") {
        header(
            "F2",
            "Figure 2 — superficial dependency structure (old Multics)",
        );
        let g = mx_legacy::superficial_structure();
        println!("{}", render_ascii(&g));
        if dot {
            println!("{}", render_dot(&g));
        }
    }
    if want("f3") {
        header("F3", "Figure 3 — actual dependency structure (old Multics)");
        let g = mx_legacy::actual_structure();
        println!("{}", render_ascii(&g));
        println!("{}", render_audit_costs(&g));
        let plan = mx_deps::suggest_breaks(&g);
        println!("{}", mx_deps::advisor::render_plan(&g, &plan));
        if dot {
            println!("{}", render_dot(&g));
        }
    }
    if want("f4") {
        header("F4", "Figure 4 — the new, loop-free Kernel/Multics design");
        let g = mx_kernel::kernel_structure();
        println!("{}", render_ascii(&g));
        println!("{}", render_audit_costs(&g));
        if dot {
            println!("{}", render_dot(&g));
        }
    }
    if want("t1") {
        header("T1", "The kernel-size table");
        let table = size_table(&start_of_project(), &standard_transforms());
        println!("{table}");
    }
    if want("t2") {
        header("T2", "Entry-point statistics");
        let c = start_of_project();
        let ring0_entries: u32 = c.in_region(Region::RingZero).map(|m| m.entry_points).sum();
        let ring0_gates: u32 = c.in_region(Region::RingZero).map(|m| m.user_gates).sum();
        println!("  supervisor entry points        : {ring0_entries} (paper: ~1,200)");
        println!("  user-callable gates            : {ring0_gates} (paper: 157)");
        let s = entry_point_stats(&c, "linker");
        println!(
            "  linker extraction removes      : {:.1}% of object code (paper: 5%)",
            s.object_code_pct
        );
        println!(
            "                                   {:.1}% of entry points (paper: 2.5%)",
            s.entry_point_pct
        );
        println!(
            "                                   {:.1}% of user gates (paper: 11%)",
            s.user_gate_pct
        );
        println!(
            "  Kernel/Multics user gates      : {} (this reproduction's whole interface)\n",
            mx_kernel::Kernel::USER_GATES.len()
        );
    }
    if want("t3") {
        header("T3", "Growth history, recoding factors, specialization");
        let added: u32 = mx_census::multics::growth_history()
            .iter()
            .map(|e| e.lines_added)
            .sum();
        println!("  ring zero at the 9/1973 census : 44K source lines");
        for e in mx_census::multics::growth_history() {
            println!("    {} +{}K  {}", e.period, e.lines_added / 1000, e.cause);
        }
        println!(
            "  ring zero by 1977              : {}K  (x{:.2}; paper: 'almost doubled')",
            (44_000 + added) / 1000,
            (44_000 + added) as f64 / 44_000.0
        );
        let c = start_of_project();
        let equiv: u32 = c
            .in_region(Region::RingZero)
            .map(|m| m.pli_equivalent_lines(PLI_EQUIVALENT_SHRINK_PERMILLE))
            .sum();
        println!(
            "  ring zero in uniform PL/I      : {}K (paper: 36K; source 44K)",
            equiv / 1000
        );
        let pct = specialization_estimate(&c, &standard_transforms());
        println!("  file-store specialization      : another {pct:.0}% at most (paper: 15-25%)\n");
    }
    if want("p1") {
        header("P1", "Performance — the dynamic linker");
        println!("{}", p1_linker(24));
        println!("  paper: \"the dynamic linker ran somewhat slower when removed\"\n");
    }
    if want("p2") {
        header("P2", "Performance — the name space manager");
        println!("{}", p2_namespace(TreeSpec::small(), 4));
        println!("  paper: \"the name space manager ran somewhat faster\"\n");
    }
    if want("p3") {
        header("P3", "Performance — the answering service");
        let c = p3_answering(10);
        println!("{c}");
        println!(
            "  paper: \"ran about 3% slower\"; measured: {:+.1}%\n",
            c.kernel_vs_legacy_pct() - 100.0
        );
    }
    if want("p4") {
        header(
            "P4",
            "Performance — the memory manager (ample -> cramped core)",
        );
        let rows = p4_memory(&[80, 56, 44, 36], 40, 1500, 10);
        println!(
            "  {:>7} {:>14} {:>9} {:>14} {:>14} {:>9}",
            "pgable", "old cycles", "faults", "new total", "new user", "faults"
        );
        for r in &rows {
            println!(
                "  {:>7} {:>14} {:>9} {:>14} {:>14} {:>9}",
                r.frames,
                r.legacy_cycles,
                r.legacy_faults,
                r.kernel_total_cycles,
                r.kernel_user_cycles,
                r.kernel_faults
            );
        }
        println!(
            "  paper: \"the performance impact of the new design would be negative, but \
             not\n  significant unless the system were cramped for memory and thrashing\"\n"
        );
    }
    if want("p5") {
        header(
            "P5",
            "Performance — one-level vs two-level processor multiplexing",
        );
        let rows = p5_scheduler(&[1, 2, 3, 6, 10], 60);
        println!(
            "  {:>6} {:>16} {:>16} {:>12}",
            "procs", "old cyc/disp", "new cyc/disp", "cheap VP %"
        );
        for r in &rows {
            println!(
                "  {:>6} {:>16} {:>16} {:>11.0}%",
                r.processes, r.legacy_cycles, r.kernel_cycles, r.cheap_switch_pct
            );
        }
        println!("  paper: \"a performance about the same as the current system\"\n");
    }
    if want("p6") {
        header("P6", "The eventcount substrate (deterministic counters)");
        let mut table = mx_sync::EventTable::new();
        let ec = table.create();
        for w in 0..4 {
            table.await_value(ec, u64::from(w) / 2 + 1, mx_sync::WaiterId(w));
        }
        let woke1 = table.advance(ec).len();
        let woke2 = table.advance(ec).len();
        println!(
            "  4 waiters on thresholds 1,1,2,2: advance #1 wakes {woke1}, advance #2 wakes {woke2}"
        );
        println!("  the advancer never names a waiter: broadcast, receiver-blind");
        println!("  (wall-clock threaded measurements: `cargo bench --bench eventcount`)\n");
    }
    if want("p7") {
        header("P7", "Performance — quota: dynamic walk vs static cell");
        let rows = p7_quota(&[1, 2, 4, 6, 8], 6);
        println!(
            "  {:>6} {:>16} {:>12} {:>16}",
            "depth", "old cyc/grow", "walk levels", "new cyc/grow"
        );
        for r in &rows {
            println!(
                "  {:>6} {:>16} {:>12.1} {:>16}",
                r.depth, r.legacy_cycles, r.legacy_walk_levels, r.kernel_cycles
            );
        }
        println!("  the new design's growth cost is depth-blind: the cell is named, not found\n");
    }
    if want("p8") {
        header(
            "P8",
            "Performance — missing-page service and the lock window",
        );
        println!("{}", p8_fault_path(8, 4));
        println!();
    }
    if want("a1") {
        header("A1", "Ablation — the name-space prefix cache");
        println!("{}", a1_namespace_cache(TreeSpec::small(), 4));
        println!();
    }
    if want("a2") {
        header("A2", "Ablation — the purifier's idle-priority execution");
        println!("{}", a2_purifier_idle(36, 40, 1500, 10));
        println!();
    }
    if want("a3") {
        header("A3", "Ablation — the descriptor-walk associative memory");
        for c in a3_associative_memory(80, 40, 1200, 10) {
            println!("{c}");
        }
        println!(
            "  the driver asserts hits + misses == lookups and that every charged\n  \
             cycle is attributed to a subsystem; a violation aborts the run\n"
        );
    }
    if want("s1") {
        header("S1", "Semantics — mythical identifiers");
        println!("{}", s1_mythical_identifiers());
    }
    if want("s2") {
        header("S2", "Semantics — zero-page accounting vs confinement");
        println!("{}", s2_confinement());
    }
    if want("s3") {
        header("S3", "Semantics — full packs and the upward signal");
        println!("{}", s3_relocation());
    }
    if want("r1") {
        header("R1", "Robustness — crash matrix, salvager-driven recovery");
        if stride > 1 {
            println!("  (crash matrix subsampled: every {stride}th write ordinal)\n");
        }
        println!("{}", r1_crash_recovery(stride));
        println!(
            "  paper: the salvager turns operational failures into repairable\n  \
             inconsistencies; every enumerated crash point above recovered\n"
        );
    }

    if want("x1") {
        header("X1", "Exploration — schedules of the two-level scheduler");
        println!("{}", mx_bench::x1_schedule_exploration());
        println!(
            "  every schedule passed meter conservation, record conservation,\n  \
             wakeup exactness, ticket total-order, and old/new user-visible parity;\n  \
             any violation replays from its printed seed/schedule string alone\n"
        );
    }

    if want("l1") {
        header("L1", "Load — multi-user throughput/latency scaling");
        if l1_max < 1024 {
            println!("  (sweep capped at {l1_max} users)\n");
        }
        println!("{}", mx_bench::l1_load_scaling(l1_max));
        println!(
            "  every scale point passed meter conservation, record conservation,\n  \
             and old/new user-visible parity; with 2 CPUs both retire user work\n"
        );
    }

    if want("c1") {
        header("C1", "Chaos — load x crashes x adversarial schedules");
        if c1_max < 64 {
            println!("  (population capped at {c1_max} users)\n");
        }
        println!("{}", mx_bench::c1_chaos_composition(c1_max));
        println!(
            "  the same logical stream survived three mid-load power failures per\n  \
             design and schedule: salvage converged, queued logins were re-admitted\n  \
             in FIFO order, and the old/new label streams stayed identical\n"
        );
    }

    if want("m1") {
        header("M1", "Scale — sharded parallel load, wall-clock ops/sec");
        if m1_max < 100_000 {
            println!("  (sweep capped at {m1_max} users)\n");
        }
        println!("{}", mx_bench::m1_parallel_load(m1_max, shards));
        println!(
            "  every point passed the oracle battery per shard and post-merge, and\n  \
             the largest point's merged stream is byte-identical at K=1 and K={shards}\n"
        );
    }

    if want("s1") {
        header(
            "S1",
            "Robustness — online salvage under re-admitted traffic",
        );
        if s1_max < 64 {
            println!("  (population capped at {s1_max} users)\n");
        }
        println!("{}", mx_bench::s1_online_salvage(s1_max));
        println!(
            "  the same crash plan as C1, but the population is re-admitted while\n  \
             the salvager still holds most of the hierarchy: every directory release\n  \
             passed the oracle battery, blocked references retried within budget,\n  \
             and the user-visible stream is identical to stop-the-world recovery\n"
        );
    }

    if want("g1") {
        header(
            "G1",
            "Gate — the runtime dependency lattice, from meter events",
        );
        println!("{}", mx_bench::g1_lattice_gate());
        println!(
            "  the battery's own meter events prove the kernel design stays inside\n  \
             its declared lattice (any new edge or loop aborts this run), show the\n  \
             old supervisor's Figure-3 improper edges live, and rank which to break\n"
        );
    }

    if want("f1") {
        header(
            "F1",
            "Fleet — multi-machine Multics behind one answering service",
        );
        if machines != 4 || f1_max != 64 {
            println!("  (fleet capped at {machines} machines, {f1_max} users)\n");
        }
        println!("{}", mx_bench::f1_fleet_scaling(machines, f1_max));
        println!(
            "  every machine count produced the single-machine label stream, FIFO\n  \
             admission, and fleet-wide record conservation; the specialized file\n  \
             store's saving is measured against the paper's 15-25% projection\n"
        );
    }

    if let Some(path) = trace_path {
        let runs = mx_bench::trace::drain();
        let json = mx_bench::trace::render_json(&runs);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "cycle-attribution trace: {} runs written to {path}",
            runs.len()
        );
    }
}

fn header(id: &str, title: &str) {
    println!("----------------------------------------------------------------");
    println!(" [{id}] {title}");
    println!("----------------------------------------------------------------");
}
