//! Upward-signal and relocation torture tests.
//!
//! Small packs plus sustained growth force repeated whole-segment
//! relocations; each one must complete the quota and page work below,
//! signal upward, get its directory entry rewritten, and lose nothing.

use multics::aim::Label;
use multics::hw::SplitMix64;
use multics::hw::Word;
use multics::kernel::{Acl, Kernel, KernelConfig, KernelError, UserId};

fn boot_tight() -> (Kernel, multics::kernel::ProcessId) {
    let mut k = Kernel::boot(KernelConfig {
        frames: 128,
        packs: 2,
        records_per_pack: 10,
        toc_slots_per_pack: 24,
        pt_slots: 24,
        max_processes: 4,
        root_quota: 500,
    });
    // Two roomier packs so the mover always has a target.
    k.machine.disks.attach(64, 32);
    k.machine.disks.attach(64, 32);
    k.register_account("u", UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
    (k, pid)
}

#[test]
fn growth_across_full_packs_is_transparent() {
    let (mut k, pid) = boot_tight();
    let root = k.root_token();
    let tok = k
        .create_entry(
            pid,
            root,
            "grower",
            Acl::owner(UserId(1)),
            Label::BOTTOM,
            false,
        )
        .unwrap();
    let segno = k.initiate(pid, tok).unwrap();
    // 30 pages cannot fit on the 10-record boot pack: relocation must
    // happen, invisibly.
    for p in 0..30u32 {
        k.write_word(pid, segno, p * 1024, Word::new(u64::from(p) + 7))
            .unwrap();
    }
    assert!(
        k.segm.stats.relocations >= 1,
        "the pack filled and the segment moved"
    );
    assert_eq!(
        k.segm.stats.upward_signals, k.stats.trampolines,
        "every signal consumed"
    );
    assert_eq!(k.segm.stats.upward_signals, k.dirm.stats.moves_recorded);
    for p in 0..30u32 {
        assert_eq!(
            k.read_word(pid, segno, p * 1024).unwrap(),
            Word::new(u64::from(p) + 7)
        );
    }
    // The directory entry and the KST agree about the new home.
    let uid = k.uid_of_token(tok).unwrap();
    let home = k.dirm.home_of(uid).unwrap();
    assert_eq!(k.segm.get(uid).unwrap().home, home);
}

#[test]
fn several_segments_compete_for_packs() {
    let (mut k, pid) = boot_tight();
    let root = k.root_token();
    let mut rng = SplitMix64::new(99);
    let mut tokens = Vec::new();
    let mut segnos = Vec::new();
    for i in 0..4 {
        let tok = k
            .create_entry(
                pid,
                root,
                &format!("seg{i}"),
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                false,
            )
            .unwrap();
        segnos.push(k.initiate(pid, tok).unwrap());
        tokens.push(tok);
    }
    let mut model = std::collections::HashMap::new();
    for step in 0..120u64 {
        let s = rng.range_usize(0, 4);
        let page = rng.range_u32(0, 20);
        let value = step + 1;
        match k.write_word(pid, segnos[s], page * 1024, Word::new(value)) {
            Ok(()) => {
                model.insert((s, page), value);
            }
            Err(KernelError::AllPacksFull) => break, // Storage exhausted: fine.
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    for ((s, page), value) in model {
        assert_eq!(
            k.read_word(pid, segnos[s], page * 1024).unwrap(),
            Word::new(value),
            "segment {s} page {page}"
        );
    }
    assert!(
        k.segm.stats.relocations >= 1,
        "competition forced at least one move"
    );
}

#[test]
fn directory_growth_can_itself_move_the_directory() {
    // Entries are 20 words; enough creations grow the directory segment
    // across pages; on a tiny pack the *directory* relocates, and its
    // children remain reachable.
    let (mut k, pid) = boot_tight();
    let root = k.root_token();
    let dir = k
        .create_entry(
            pid,
            root,
            "crowded",
            Acl::owner(UserId(1)),
            Label::BOTTOM,
            true,
        )
        .unwrap();
    let n = 80u32; // 80 entries ≈ 1600 words: the directory crosses a page.
    for i in 0..n {
        k.create_entry(
            pid,
            dir,
            &format!("e{i}"),
            Acl::owner(UserId(1)),
            Label::BOTTOM,
            false,
        )
        .unwrap();
    }
    let names = k.list_dir(pid, dir).unwrap();
    assert_eq!(names.len(), n as usize);
    for i in [0u32, 41, 79] {
        let t = k.dir_search(pid, dir, &format!("e{i}")).unwrap();
        assert!(k.initiate(pid, t).is_ok(), "entry e{i} reachable");
    }
}

#[test]
fn quota_failures_during_storms_roll_back_cleanly() {
    let mut k = Kernel::boot(KernelConfig {
        frames: 96,
        records_per_pack: 256,
        toc_slots_per_pack: 64,
        pt_slots: 16,
        max_processes: 4,
        root_quota: 1000,
        ..KernelConfig::default()
    });
    k.register_account("u", UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
    let root = k.root_token();
    let dir = k
        .create_entry(
            pid,
            root,
            "capped",
            Acl::owner(UserId(1)),
            Label::BOTTOM,
            true,
        )
        .unwrap();
    k.set_quota(pid, dir, 4).unwrap();
    let tok = k
        .create_entry(pid, dir, "s", Acl::owner(UserId(1)), Label::BOTTOM, false)
        .unwrap();
    let segno = k.initiate(pid, tok).unwrap();
    let mut ok = 0;
    let mut refused = 0;
    for p in 0..10u32 {
        match k.write_word(pid, segno, p * 1024, Word::new(1)) {
            Ok(()) => ok += 1,
            Err(KernelError::QuotaExceeded { limit: 4, used: 4 }) => refused += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert_eq!(ok, 4);
    assert_eq!(refused, 6);
    let quid = k.uid_of_token(dir).unwrap();
    assert_eq!(
        k.qcm.cell_state(quid),
        Some((4, 4)),
        "failed charges rolled back exactly"
    );
    // Earlier pages still intact after the refusals.
    for p in 0..4u32 {
        assert_eq!(k.read_word(pid, segno, p * 1024).unwrap(), Word::new(1));
    }
}

#[test]
fn legacy_relocation_agrees_on_data_preservation() {
    use multics::legacy::{Acl as LAcl, Supervisor, SupervisorConfig, UserId as LUserId};
    let mut sup = Supervisor::boot(SupervisorConfig {
        packs: 2,
        records_per_pack: 10,
        toc_slots_per_pack: 24,
        root_quota: 500,
        ..SupervisorConfig::default()
    });
    // A big spare pack, as in the kernel test.
    sup.machine.disks.attach(64, 32);
    let pid = sup.create_process(LUserId(1), Label::BOTTOM).unwrap();
    sup.create_segment_in(sup.root(), "grower", LAcl::owner(LUserId(1)), Label::BOTTOM)
        .unwrap();
    let segno = sup.initiate(pid, "grower").unwrap();
    for p in 0..30u32 {
        sup.user_write(pid, segno, p * 1024, Word::new(u64::from(p) + 7))
            .unwrap();
    }
    assert!(sup.stats.relocations >= 1);
    for p in 0..30u32 {
        assert_eq!(
            sup.user_read(pid, segno, p * 1024).unwrap(),
            Word::new(u64::from(p) + 7)
        );
    }
}
