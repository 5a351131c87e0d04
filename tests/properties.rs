//! Property-based tests on the core invariants.
//!
//! The build environment carries no property-testing crate, so each
//! property is driven by a deterministic seeded case generator: the same
//! invariants, checked over the same breadth of random inputs, with the
//! stream fixed by [`SplitMix64`] so every run sees identical cases.
//! Shrunk counter-examples found historically are pinned as named tests
//! (see `quota_regression_single_zero_write`).

use multics::aim::{CompartmentSet, Label, Level};
use multics::hw::cpu::{Ptw, Sdw};
use multics::hw::meter::Subsystem;
use multics::hw::{AbsAddr, FrameNo, SplitMix64, Word};
use multics::sync::{EventTable, MessageQueue, WaiterId};

const LIGHT_CASES: u64 = 128;
const HEAVY_CASES: u64 = 12;

fn arb_label(rng: &mut SplitMix64) -> Label {
    Label::new(
        Level(rng.below(4) as u8),
        CompartmentSet::from_bits(rng.below(16)),
    )
}

fn arb_name(rng: &mut SplitMix64) -> String {
    let len = rng.range_usize(1, 9);
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

// ---------------- AIM: the label lattice ---------------------------

#[test]
fn dominance_is_a_partial_order() {
    let mut rng = SplitMix64::new(0xA1);
    for _ in 0..LIGHT_CASES {
        let (a, b, c) = (
            arb_label(&mut rng),
            arb_label(&mut rng),
            arb_label(&mut rng),
        );
        assert!(a.dominates(a), "reflexive");
        if a.dominates(b) && b.dominates(a) {
            assert_eq!(a, b, "antisymmetric");
        }
        if a.dominates(b) && b.dominates(c) {
            assert!(a.dominates(c), "transitive");
        }
    }
}

#[test]
fn join_and_meet_are_bounds() {
    let mut rng = SplitMix64::new(0xA2);
    for _ in 0..LIGHT_CASES {
        let (a, b) = (arb_label(&mut rng), arb_label(&mut rng));
        let j = a.join(b);
        assert!(j.dominates(a) && j.dominates(b));
        let m = a.meet(b);
        assert!(a.dominates(m) && b.dominates(m));
        // Absorption.
        assert_eq!(a.join(a.meet(b)), a);
        assert_eq!(a.meet(a.join(b)), a);
    }
}

#[test]
fn no_read_up_no_write_down_are_duals() {
    use multics::aim::{AccessKind, ReferenceMonitor};
    let mut rng = SplitMix64::new(0xA3);
    for _ in 0..LIGHT_CASES {
        let (s, o) = (arb_label(&mut rng), arb_label(&mut rng));
        let read = ReferenceMonitor::decide(s, o, AccessKind::Read).granted();
        let write = ReferenceMonitor::decide(o, s, AccessKind::Write).granted();
        assert_eq!(read, write, "subject reading down = object written up");
    }
}

// ---------------- hardware word / descriptor codecs -----------------

#[test]
fn word_fields_round_trip() {
    let mut rng = SplitMix64::new(0xB1);
    for _ in 0..LIGHT_CASES {
        let raw = rng.below(1 << 36);
        let lo = rng.range_u32(0, 30);
        let width = rng.range_u32(1, 6);
        let w = Word::new(raw);
        let v = w.field(lo, width);
        assert_eq!(w.with_field(lo, width, v), w);
    }
}

#[test]
fn sdw_codec_round_trips() {
    let mut rng = SplitMix64::new(0xB2);
    for _ in 0..LIGHT_CASES {
        let bits = rng.below(32) as u8;
        let sdw = Sdw {
            page_table: AbsAddr(rng.below(1 << 22)),
            bound_pages: rng.range_u32(0, 512),
            read: bits & 1 != 0,
            write: bits & 2 != 0,
            execute: bits & 4 != 0,
            present: bits & 8 != 0,
            software: bits & 16 != 0,
        };
        assert_eq!(Sdw::decode(sdw.encode()), sdw);
    }
}

#[test]
fn ptw_codec_round_trips() {
    let mut rng = SplitMix64::new(0xB3);
    for _ in 0..LIGHT_CASES {
        let bits = rng.below(64) as u8;
        let ptw = Ptw {
            frame: FrameNo(rng.range_u32(0, 1 << 13)),
            quota_trap: bits & 1 != 0,
            locked: bits & 2 != 0,
            used: bits & 4 != 0,
            modified: bits & 8 != 0,
            present: bits & 16 != 0,
            wired: bits & 32 != 0,
        };
        assert_eq!(Ptw::decode(ptw.encode()), ptw);
    }
}

// ---------------- eventcounts ----------------------------------------

#[test]
fn eventcount_wakeups_are_exact() {
    let mut rng = SplitMix64::new(0xC1);
    for _ in 0..LIGHT_CASES {
        let thresholds: Vec<u64> = (0..rng.range_usize(1, 10))
            .map(|_| rng.range_u64(1, 12))
            .collect();
        let advances = rng.range_usize(1, 16);
        let mut t = EventTable::new();
        let ec = t.create();
        let mut parked: Vec<(u64, u32)> = Vec::new();
        for (i, th) in thresholds.iter().enumerate() {
            if !t.await_value(ec, *th, WaiterId(i as u32)) {
                parked.push((*th, i as u32));
            }
        }
        let mut woken: Vec<u32> = Vec::new();
        for _ in 0..advances {
            woken.extend(t.advance(ec).into_iter().map(|w| w.0));
        }
        let value = t.read(ec);
        assert_eq!(value, advances as u64);
        // Exactly the waiters whose threshold was crossed are awake.
        let expect: Vec<u32> = parked
            .iter()
            .filter(|(th, _)| *th <= value)
            .map(|(_, w)| *w)
            .collect();
        let mut woken_sorted = woken.clone();
        woken_sorted.sort_unstable();
        let mut expect_sorted = expect.clone();
        expect_sorted.sort_unstable();
        assert_eq!(woken_sorted, expect_sorted);
        // Nobody woke twice.
        let mut dedup = woken.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), woken.len());
    }
}

#[test]
fn message_queue_is_fifo_with_bounded_loss() {
    let mut rng = SplitMix64::new(0xC2);
    for _ in 0..LIGHT_CASES {
        // Some(v) = put, None = take. Model against a VecDeque.
        let cap = rng.range_usize(1, 8);
        let ops: Vec<Option<u32>> = (0..rng.range_usize(1, 60))
            .map(|_| {
                if rng.chance(1, 2) {
                    Some(rng.range_u32(0, 100))
                } else {
                    None
                }
            })
            .collect();
        let mut q = MessageQueue::new(cap);
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    let ok = q.put(v).is_ok();
                    assert_eq!(ok, model.len() < cap, "full exactly when model is");
                    if ok {
                        model.push_back(v);
                    }
                }
                None => {
                    let got = q.take().ok();
                    assert_eq!(got, model.pop_front());
                }
            }
            assert_eq!(q.len(), model.len());
        }
    }
}

// ---------------- dependency analysis ---------------------------------

#[test]
fn forward_edges_never_make_loops_and_a_back_edge_always_does() {
    use multics::deps::{DepKind, ModuleGraph};
    let mut rng = SplitMix64::new(0xD1);
    for _ in 0..LIGHT_CASES {
        let n = rng.range_usize(2, 12);
        let mut g = ModuleGraph::new();
        let ids: Vec<_> = (0..n).map(|i| g.add_module(format!("m{i}"), "")).collect();
        // Only forward edges (higher index depends on lower): a DAG.
        let mut used = Vec::new();
        for _ in 0..rng.range_usize(0, 30) {
            let (a, b) = (rng.range_usize(0, n), rng.range_usize(0, n));
            if a > b {
                g.depend(ids[a], ids[b], DepKind::Component, "");
                used.push((a, b));
            }
        }
        assert!(g.is_loop_free());
        let layers = g.layers().expect("dag layers");
        let flat: usize = layers.iter().map(|l| l.len()).sum();
        assert_eq!(flat, n, "every module appears in exactly one layer");
        // Close one used edge backwards: a loop must appear.
        if let Some((a, b)) = used.first() {
            g.depend(ids[*b], ids[*a], DepKind::Call, "back edge");
            assert!(!g.is_loop_free());
        }
    }
}

// ------------------- kernel-level properties (heavier, fewer cases) ----

/// An attacker probing an unreadable directory learns nothing: every
/// probe yields a token, tokens are stable, and initiation of any of
/// them is exactly `NoAccess`.
#[test]
fn mythical_identifiers_leak_nothing() {
    use multics::kernel::{Acl, Kernel, KernelConfig, KernelError, UserId};
    let mut rng = SplitMix64::new(0xE1);
    for _ in 0..HEAVY_CASES {
        let names: Vec<String> = (0..rng.range_usize(1, 8))
            .map(|_| arb_name(&mut rng))
            .collect();
        let real: std::collections::HashSet<String> = (0..rng.range_usize(0, 4))
            .map(|_| arb_name(&mut rng))
            .collect();
        let mut k = Kernel::boot(KernelConfig {
            frames: 128,
            records_per_pack: 256,
            toc_slots_per_pack: 64,
            pt_slots: 24,
            max_processes: 4,
            root_quota: 200,
            ..KernelConfig::default()
        });
        k.register_account("owner", UserId(1), 1, Label::BOTTOM);
        k.register_account("spy", UserId(2), 2, Label::BOTTOM);
        let owner = k.login_residue("owner", 1, Label::BOTTOM).unwrap();
        let spy = k.login_residue("spy", 2, Label::BOTTOM).unwrap();
        let root = k.root_token();
        let vault = k
            .create_entry(
                owner,
                root,
                "vault",
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                true,
            )
            .unwrap();
        for name in &real {
            k.create_entry(
                owner,
                vault,
                name,
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                false,
            )
            .unwrap();
        }
        for name in &names {
            let t1 = k
                .dir_search(spy, vault, name)
                .expect("never an error for the spy");
            let t2 = k.dir_search(spy, vault, name).expect("stable");
            assert_eq!(t1, t2, "repeated probes agree");
            assert_eq!(
                k.initiate(spy, t1).unwrap_err(),
                KernelError::NoAccess,
                "uniform refusal whether or not '{name}' exists"
            );
        }
    }
}

/// Drives the quota-conservation scenario: write the given words, flush
/// every `flush_every`-th write, purify, flush everything, then compare
/// the root cell's charge to the records actually mapped on disk.
fn check_quota_conservation(writes: &[(u32, u32, u64)], flush_every: usize) {
    use multics::kernel::{Acl, Kernel, KernelConfig, SegUid, UserId};
    let mut k = Kernel::boot(KernelConfig {
        frames: 96,
        records_per_pack: 512,
        toc_slots_per_pack: 64,
        pt_slots: 16,
        max_processes: 4,
        root_quota: 400,
        ..KernelConfig::default()
    });
    k.register_account("u", UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
    let root = k.root_token();
    let mut segnos = Vec::new();
    let mut tokens = Vec::new();
    for i in 0..3 {
        let tok = k
            .create_entry(
                pid,
                root,
                &format!("s{i}"),
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                false,
            )
            .unwrap();
        segnos.push(k.initiate(pid, tok).unwrap());
        tokens.push(tok);
    }
    for (i, (seg, page, value)) in writes.iter().enumerate() {
        let segno = segnos[*seg as usize];
        k.write_word(pid, segno, page * 1024, Word::new(*value))
            .unwrap();
        if i % flush_every == flush_every - 1 {
            let uid = k.uid_of_token(tokens[*seg as usize]).unwrap();
            let handle = k.segm.get(uid).unwrap().handle;
            k.pfm
                .flush(&mut k.machine, &mut k.drm, &mut k.qcm, handle)
                .unwrap();
        }
    }
    // Drain the purifier so deferred reversions settle.
    k.run_purifier(1000).unwrap();
    // Flush everything active: zero pages revert, charges settle.
    for tok in &tokens {
        let uid = k.uid_of_token(*tok).unwrap();
        if let Some(seg) = k.segm.get(uid) {
            let handle = seg.handle;
            k.pfm
                .flush(&mut k.machine, &mut k.drm, &mut k.qcm, handle)
                .unwrap();
        }
    }
    // Count mapped records over every object bound to the root cell.
    let mut mapped = 0u32;
    for pack in k.machine.disks.packs() {
        for (_, entry) in pack.entries() {
            mapped += entry.records_used();
        }
    }
    let (_, used) = k.qcm.cell_state(SegUid(1)).expect("root cell loaded");
    assert_eq!(
        used, mapped,
        "cell charge equals records on disk (writes={writes:?}, flush_every={flush_every})"
    );
}

/// The shrunk counter-example the old property runner found and checked
/// in as a regression seed: one write of value 0 to page 0 of segment 0,
/// flushing every third write. A zero-filled page is reverted (never
/// billed as a mapped record), so the quota cell must end at the same
/// count as the disk maps — historically it did not.
#[test]
fn quota_regression_single_zero_write() {
    check_quota_conservation(&[(0, 0, 0)], 3);
}

/// Quota-cell bookkeeping never drifts: after arbitrary write/flush
/// sequences, the root cell's `used` equals the records actually mapped
/// across all segments bound to it.
#[test]
fn quota_charges_match_mapped_records() {
    let mut rng = SplitMix64::new(0xE2);
    for _ in 0..HEAVY_CASES {
        let writes: Vec<(u32, u32, u64)> = (0..rng.range_usize(1, 40))
            .map(|_| (rng.range_u32(0, 3), rng.range_u32(0, 12), rng.below(100)))
            .collect();
        let flush_every = rng.range_usize(3, 10);
        check_quota_conservation(&writes, flush_every);
    }
}

/// After any sequence of creates, writes, deletes and flushes, the
/// salvager finds the file system fully consistent — the global
/// invariant every kernel path must preserve.
#[test]
fn the_salvager_always_finds_the_system_consistent() {
    use multics::kernel::{Acl, Kernel, KernelConfig, UserId};
    let mut rng = SplitMix64::new(0xE3);
    for _ in 0..HEAVY_CASES {
        let ops: Vec<(u8, u32, u32)> = (0..rng.range_usize(1, 40))
            .map(|_| (rng.below(4) as u8, rng.range_u32(0, 4), rng.range_u32(0, 8)))
            .collect();
        let mut k = Kernel::boot(KernelConfig {
            frames: 96,
            records_per_pack: 512,
            toc_slots_per_pack: 64,
            pt_slots: 16,
            max_processes: 4,
            root_quota: 400,
            ..KernelConfig::default()
        });
        k.register_account("u", UserId(1), 1, Label::BOTTOM);
        let pid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
        let root = k.root_token();
        let mut live: Vec<(String, multics::kernel::ObjToken, Option<u32>)> = Vec::new();
        for (op, slot, page) in ops {
            match op {
                // Create a segment (if the name is free).
                0 => {
                    let name = format!("s{slot}");
                    if !live.iter().any(|(n, _, _)| *n == name) {
                        if let Ok(tok) = k.create_entry(
                            pid,
                            root,
                            &name,
                            Acl::owner(UserId(1)),
                            Label::BOTTOM,
                            false,
                        ) {
                            live.push((name, tok, None));
                        }
                    }
                }
                // Write a page of some live segment.
                1 => {
                    let n = live.len().max(1);
                    if let Some((_, tok, segno)) = live.get_mut(slot as usize % n) {
                        let s = match segno {
                            Some(s) => *s,
                            None => {
                                let s = k.initiate(pid, *tok).unwrap();
                                *segno = Some(s);
                                s
                            }
                        };
                        let _ = k.write_word(pid, s, page * 1024, Word::new(u64::from(page) + 1));
                    }
                }
                // Delete one.
                2 => {
                    if !live.is_empty() {
                        let (name, _, segno) = live.remove(slot as usize % live.len());
                        if let Some(s) = segno {
                            let _ = k.terminate(pid, s);
                        }
                        k.delete_entry(pid, root, &name).unwrap();
                    }
                }
                // Flush + purify.
                _ => {
                    for (_, tok, _) in &live {
                        if let Some(uid) = k.uid_of_token(*tok) {
                            if let Some(seg) = k.segm.get(uid) {
                                let h = seg.handle;
                                k.pfm
                                    .flush(&mut k.machine, &mut k.drm, &mut k.qcm, h)
                                    .unwrap();
                            }
                        }
                    }
                    k.run_purifier(100).unwrap();
                }
            }
        }
        let report = k.salvage(false).unwrap();
        assert!(report.clean(), "salvager found: {:?}", report.problems);
    }
}

/// Data written through the kernel survives arbitrary flush/fault storms
/// byte-for-byte.
#[test]
fn paging_storms_preserve_contents() {
    use multics::kernel::{Acl, Kernel, KernelConfig, UserId};
    let mut rng = SplitMix64::new(0xE4);
    for _ in 0..HEAVY_CASES {
        let writes: Vec<(u32, u64)> = (0..rng.range_usize(1, 50))
            .map(|_| (rng.range_u32(0, 16), rng.below(1000)))
            .collect();
        let mut k = Kernel::boot(KernelConfig {
            frames: 64, // Small: pressure guaranteed.
            records_per_pack: 512,
            toc_slots_per_pack: 64,
            pt_slots: 8,
            max_processes: 3,
            root_quota: 300,
            ..KernelConfig::default()
        });
        k.register_account("u", UserId(1), 1, Label::BOTTOM);
        let pid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
        let root = k.root_token();
        let tok = k
            .create_entry(
                pid,
                root,
                "storm",
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                false,
            )
            .unwrap();
        let segno = k.initiate(pid, tok).unwrap();
        let mut model = std::collections::HashMap::new();
        for (page, value) in &writes {
            let wordno = page * 1024;
            k.write_word(pid, segno, wordno, Word::new(*value + 1))
                .unwrap();
            model.insert(wordno, *value + 1);
        }
        for (wordno, value) in model {
            assert_eq!(k.read_word(pid, segno, wordno).unwrap(), Word::new(value));
        }
    }
}

// ------------------- cycle-attribution conservation --------------------

/// The mx-meter conservation property on the new design: after a real
/// kernel workload (creates, paging writes, purifier, flushes), the sum
/// of per-subsystem attributed cycles equals the clock total exactly.
#[test]
fn kernel_workload_conserves_attributed_cycles() {
    use multics::kernel::{Acl, Kernel, KernelConfig, UserId};
    let mut k = Kernel::boot(KernelConfig {
        frames: 64,
        records_per_pack: 512,
        toc_slots_per_pack: 64,
        pt_slots: 8,
        max_processes: 3,
        root_quota: 300,
        ..KernelConfig::default()
    });
    k.register_account("u", UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
    let root = k.root_token();
    let tok = k
        .create_entry(
            pid,
            root,
            "meter",
            Acl::owner(UserId(1)),
            Label::BOTTOM,
            false,
        )
        .unwrap();
    let segno = k.initiate(pid, tok).unwrap();
    for p in 0..12u32 {
        k.write_word(pid, segno, p * 1024, Word::new(u64::from(p) + 1))
            .unwrap();
    }
    k.run_purifier(500).unwrap();
    for p in 0..12u32 {
        assert_eq!(
            k.read_word(pid, segno, p * 1024).unwrap(),
            Word::new(u64::from(p) + 1)
        );
    }
    let meter = k.machine.clock.meter();
    assert_eq!(
        meter.attributed_total(),
        k.machine.clock.now(),
        "no unattributed cycles"
    );
    assert!(
        meter.attributed_to(Subsystem::PageControl) > 0,
        "paging work was attributed to page control"
    );
    assert!(
        meter.events_recorded() > 0,
        "faults and transfers landed in the trace"
    );
}

/// The same conservation property on the legacy supervisor.
#[test]
fn legacy_workload_conserves_attributed_cycles() {
    use multics::legacy::{Acl, Supervisor, SupervisorConfig, UserId};
    let mut sup = Supervisor::boot(SupervisorConfig {
        frames: 64,
        records_per_pack: 512,
        toc_slots_per_pack: 64,
        root_quota: 300,
        ..SupervisorConfig::default()
    });
    let pid = sup.create_process(UserId(1), Label::BOTTOM).unwrap();
    sup.create_segment_in(sup.root(), "meter", Acl::owner(UserId(1)), Label::BOTTOM)
        .unwrap();
    let segno = sup.initiate(pid, "meter").unwrap();
    for p in 0..12u32 {
        sup.user_write(pid, segno, p * 1024, Word::new(u64::from(p) + 1))
            .unwrap();
    }
    for p in 0..12u32 {
        assert_eq!(
            sup.user_read(pid, segno, p * 1024).unwrap(),
            Word::new(u64::from(p) + 1)
        );
    }
    let meter = sup.machine.clock.meter();
    assert_eq!(
        meter.attributed_total(),
        sup.machine.clock.now(),
        "no unattributed cycles"
    );
    assert!(
        meter.attributed_to(Subsystem::PageControl) > 0,
        "paging work was attributed to page control"
    );
}
