//! Integration tests: user programs executing on both supervisors.

use multics::aim::Label;
use multics::hw::interp::{assemble, Instr, Op};
use multics::hw::Word;
use multics::kernel::{Acl, Kernel, KernelConfig, KernelError, ProgramOutcome, UserId};
use multics::legacy::{
    Acl as LAcl, ProcessId as LProcessId, Supervisor, SupervisorConfig, UserId as LUserId,
};

fn boot() -> (Kernel, multics::kernel::ProcessId) {
    let mut k = Kernel::boot(KernelConfig {
        frames: 96,
        records_per_pack: 512,
        toc_slots_per_pack: 64,
        pt_slots: 16,
        max_processes: 4,
        root_quota: 400,
        ..KernelConfig::default()
    });
    k.register_account("dev", UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("dev", 1, Label::BOTTOM).unwrap();
    (k, pid)
}

fn make_seg(k: &mut Kernel, pid: multics::kernel::ProcessId, name: &str, acl: Acl) -> u32 {
    let root = k.root_token();
    let tok = k
        .create_entry(pid, root, name, acl, Label::BOTTOM, false)
        .unwrap();
    k.initiate(pid, tok).unwrap()
}

fn load(k: &mut Kernel, pid: multics::kernel::ProcessId, segno: u32, words: &[Word]) {
    for (i, w) in words.iter().enumerate() {
        k.write_word(pid, segno, i as u32, *w).unwrap();
    }
}

#[test]
fn a_program_grows_its_data_segment_through_quota_exceptions() {
    let (mut k, pid) = boot();
    let prog = make_seg(&mut k, pid, "prog", Acl::owner(UserId(1)));
    let data = make_seg(&mut k, pid, "data", Acl::owner(UserId(1)));
    // Store 42 at word 5*1024 (a never-before-used page), load it back.
    let code = assemble(&[
        Instr::imm(Op::Ldi, 42),
        Instr::mem(Op::Sta, data, 5 * 1024),
        Instr::imm(Op::Ldi, 0),
        Instr::mem(Op::Lda, data, 5 * 1024),
        Instr::bare(Op::Hlt),
    ]);
    load(&mut k, pid, prog, &code);
    let q_before = k.stats.quota_faults;
    let run = k.run_program(pid, prog, 0, 100).unwrap();
    assert_eq!(run.outcome, ProgramOutcome::Halted);
    assert_eq!(run.regs.a, Word::new(42));
    assert!(
        k.stats.quota_faults > q_before,
        "the store raised a quota exception"
    );
}

#[test]
fn a_program_cannot_write_a_read_only_segment() {
    let (mut k, pid) = boot();
    k.register_account("victim", UserId(2), 2, Label::BOTTOM);
    let victim = k.login_residue("victim", 2, Label::BOTTOM).unwrap();
    // Victim's file grants dev read-only.
    let root = k.root_token();
    let mut acl = Acl::owner(UserId(2));
    acl.grant(UserId(1), &[multics::kernel::AccessRight::Read]);
    let tok = k
        .create_entry(victim, root, "readonly", acl, Label::BOTTOM, false)
        .unwrap();
    let vseg = k.initiate(victim, tok).unwrap();
    k.write_word(victim, vseg, 0, Word::new(7)).unwrap();

    let target = k.initiate(pid, tok).unwrap();
    let prog = make_seg(&mut k, pid, "prog", Acl::owner(UserId(1)));
    let code = assemble(&[
        Instr::mem(Op::Lda, target, 0), // Read: allowed.
        Instr::imm(Op::Ldi, 99),
        Instr::mem(Op::Sta, target, 0), // Write: refused by hardware.
        Instr::bare(Op::Hlt),
    ]);
    load(&mut k, pid, prog, &code);
    let err = k.run_program(pid, prog, 0, 100).unwrap_err();
    assert_eq!(err, KernelError::NoAccess);
    // The read-only data survived.
    assert_eq!(k.read_word(victim, vseg, 0).unwrap(), Word::new(7));
}

#[test]
fn programs_survive_relocation_of_their_own_data_mid_run() {
    let mut k = Kernel::boot(KernelConfig {
        frames: 128,
        packs: 2,
        records_per_pack: 10,
        toc_slots_per_pack: 24,
        pt_slots: 16,
        max_processes: 4,
        root_quota: 400,
    });
    k.machine.disks.attach(128, 32);
    k.register_account("dev", UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("dev", 1, Label::BOTTOM).unwrap();
    let prog = make_seg(&mut k, pid, "prog", Acl::owner(UserId(1)));
    let data = make_seg(&mut k, pid, "data", Acl::owner(UserId(1)));
    // Fill 16 pages (the boot pack holds 10 records): the program's own
    // stores force a relocation while it runs.
    let code = assemble(&[
        Instr::imm(Op::Ldx, 0),         // 0
        Instr::bare(Op::Txa),           // 1: A = X     (loop head)
        Instr::mem(Op::Stax, data, 0),  // 2: data[X] = X (X is a multiple of 1024)
        Instr::imm(Op::Inx, 1024),      // 3
        Instr::imm(Op::Cpx, 16 * 1024), // 4
        Instr::mem(Op::Jne, prog, 1),   // 5
        Instr::bare(Op::Hlt),           // 6
    ]);
    load(&mut k, pid, prog, &code);
    let run = k.run_program(pid, prog, 0, 10_000).unwrap();
    assert_eq!(run.outcome, ProgramOutcome::Halted);
    assert!(
        k.segm.stats.relocations >= 1,
        "the data segment moved mid-run"
    );
    for p in 0..16u32 {
        assert_eq!(
            k.read_word(pid, data, p * 1024).unwrap(),
            Word::new(u64::from(p) * 1024),
            "page {p}"
        );
    }
}

#[test]
fn step_limit_reports_progress_without_losing_state() {
    let (mut k, pid) = boot();
    let prog = make_seg(&mut k, pid, "spin", Acl::owner(UserId(1)));
    // An infinite loop.
    let code = assemble(&[Instr::mem(Op::Jmp, prog, 0)]);
    load(&mut k, pid, prog, &code);
    let run = k.run_program(pid, prog, 0, 500).unwrap();
    assert_eq!(run.outcome, ProgramOutcome::StepLimit);
    assert_eq!(run.steps, 500);
}

#[test]
fn illegal_instructions_are_contained() {
    let (mut k, pid) = boot();
    let prog = make_seg(&mut k, pid, "bad", Acl::owner(UserId(1)));
    k.write_word(pid, prog, 0, Word::new(63 << 30)).unwrap();
    let run = k.run_program(pid, prog, 0, 10).unwrap();
    assert_eq!(run.outcome, ProgramOutcome::Illegal);
    assert_eq!(run.steps, 0);
}

/// The old supervisor with one process and a root it may create in.
fn legacy_boot() -> (Supervisor, LProcessId) {
    let mut sup = Supervisor::boot(SupervisorConfig::default());
    let pid = sup.create_process(LUserId(1), Label::BOTTOM).unwrap();
    (sup, pid)
}

fn legacy_seg(sup: &mut Supervisor, pid: LProcessId, name: &str) -> u32 {
    sup.create_segment_in(sup.root(), name, LAcl::owner(LUserId(1)), Label::BOTTOM)
        .unwrap();
    sup.initiate(pid, name).unwrap()
}

#[test]
fn legacy_program_grows_its_data_segment_and_halts() {
    let (mut sup, pid) = legacy_boot();
    let prog = legacy_seg(&mut sup, pid, "prog");
    let data = legacy_seg(&mut sup, pid, "data");
    let code = assemble(&[
        Instr::imm(Op::Ldi, 42),
        Instr::mem(Op::Sta, data, 5 * 1024),
        Instr::imm(Op::Ldi, 0),
        Instr::mem(Op::Lda, data, 5 * 1024),
        Instr::bare(Op::Hlt),
    ]);
    for (i, w) in code.iter().enumerate() {
        sup.user_write(pid, prog, i as u32, *w).unwrap();
    }
    let walks = sup.stats.quota_walks;
    let run = sup.run_program(pid, prog, 0, 100).unwrap();
    assert_eq!((run.outcome, run.steps), (ProgramOutcome::Halted, 4));
    assert_eq!(run.regs.a, Word::new(42));
    assert!(sup.stats.quota_walks > walks, "the store walked for quota");
}

#[test]
fn legacy_step_limit_reports_progress_without_losing_state() {
    let (mut sup, pid) = legacy_boot();
    let prog = legacy_seg(&mut sup, pid, "spin");
    let code = assemble(&[Instr::mem(Op::Jmp, prog, 0)]);
    sup.user_write(pid, prog, 0, code[0]).unwrap();
    let run = sup.run_program(pid, prog, 0, 500).unwrap();
    assert_eq!(run.outcome, ProgramOutcome::StepLimit);
    assert_eq!(run.steps, 500);
}

#[test]
fn legacy_illegal_instructions_are_contained() {
    let (mut sup, pid) = legacy_boot();
    let prog = legacy_seg(&mut sup, pid, "bad");
    sup.user_write(pid, prog, 0, Word::new(63 << 30)).unwrap();
    let run = sup.run_program(pid, prog, 0, 10).unwrap();
    assert_eq!(run.outcome, ProgramOutcome::Illegal);
    assert_eq!(run.steps, 0);
}

#[test]
fn both_systems_run_the_same_binary_to_the_same_answer() {
    // The old supervisor executes the identical word image.
    // Fibonacci by the shift-register method:
    // a=0; b=1; repeat 18 { t=a+b; a=b; b=t }  with a,b,t in data[0..3].
    let shift = |prog_seg: u32, data: u32| {
        assemble(&[
            Instr::imm(Op::Ldi, 0),
            Instr::mem(Op::Sta, data, 0), // a = 0
            Instr::imm(Op::Ldi, 1),
            Instr::mem(Op::Sta, data, 1), // b = 1
            Instr::imm(Op::Ldx, 0),
            // loop @5:
            Instr::mem(Op::Lda, data, 0),
            Instr::mem(Op::Add, data, 1), // A = a + b
            Instr::mem(Op::Sta, data, 2), // t = A
            Instr::mem(Op::Lda, data, 1),
            Instr::mem(Op::Sta, data, 0), // a = b
            Instr::mem(Op::Lda, data, 2),
            Instr::mem(Op::Sta, data, 1), // b = t
            Instr::imm(Op::Inx, 1),
            Instr::imm(Op::Cpx, 18),
            Instr::mem(Op::Jne, prog_seg, 5),
            Instr::mem(Op::Lda, data, 1), // A = b = fib(19)
            Instr::bare(Op::Hlt),
        ])
    };

    let (mut k, pid) = boot();
    let kprog = make_seg(&mut k, pid, "prog", Acl::owner(UserId(1)));
    let kdata = make_seg(&mut k, pid, "data", Acl::owner(UserId(1)));
    load(&mut k, pid, kprog, &shift(kprog, kdata));
    let krun = k.run_program(pid, kprog, 0, 10_000).unwrap();

    let mut sup = Supervisor::boot(SupervisorConfig::default());
    let lpid = sup.create_process(LUserId(1), Label::BOTTOM).unwrap();
    sup.create_segment_in(sup.root(), "prog", LAcl::owner(LUserId(1)), Label::BOTTOM)
        .unwrap();
    sup.create_segment_in(sup.root(), "data", LAcl::owner(LUserId(1)), Label::BOTTOM)
        .unwrap();
    let lprog = sup.initiate(lpid, "prog").unwrap();
    let ldata = sup.initiate(lpid, "data").unwrap();
    for (i, w) in shift(lprog, ldata).iter().enumerate() {
        sup.user_write(lpid, lprog, i as u32, *w).unwrap();
    }
    let lrun = sup.run_program(lpid, lprog, 0, 10_000).unwrap();

    assert_eq!(krun.regs.a, lrun.regs.a, "same binary, same answer");
    assert_eq!(krun.regs.a, Word::new(4181), "fib(19)");
}
