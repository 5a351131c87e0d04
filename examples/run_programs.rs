//! Executing user programs on both supervisors.
//!
//! Assembles a small program — it builds a 3,000-word table across
//! three pages, then sums it — stores it in a segment, and runs it on
//! the old supervisor and on Kernel/Multics. Every instruction fetch
//! goes through real address translation; the stores into fresh pages
//! raise the growth paths of each design (dynamic quota walk vs. the
//! hardware quota exception).
//!
//! ```text
//! cargo run --example run_programs
//! ```

use multics::aim::Label;
use multics::hw::interp::{assemble, Instr, Op};
use multics::hw::Word;
use multics::kernel::{Acl, Kernel, KernelConfig, UserId};
use multics::legacy::{Acl as LAcl, Supervisor, SupervisorConfig, UserId as LUserId};

/// The benchmark program, parameterized by the data segment's number.
///
/// ```text
///   for X in 0..3000 { data[X] = 1 }       (three pages of growth)
///   sum = 0; for X in 0..3000 { sum += data[X] }
///   A = sum; HLT
/// ```
fn program(prog_seg: u32, data_seg: u32) -> Vec<Word> {
    const N: u32 = 3000;
    assemble(&[
        // fill loop @0
        Instr::imm(Op::Ldx, 0),            // 0: X = 0
        Instr::imm(Op::Ldi, 1),            // 1: A = 1     (loop @1)
        Instr::mem(Op::Stax, data_seg, 0), // 2: data[X] = 1
        Instr::imm(Op::Inx, 1),            // 3: X += 1
        Instr::imm(Op::Cpx, N),            // 4
        Instr::mem(Op::Jne, prog_seg, 1),  // 5: loop
        // sum loop
        Instr::imm(Op::Ldi, 0),              // 6: A = 0
        Instr::mem(Op::Sta, data_seg, 4000), // 7: sum = 0 (word 4000, page 3)
        Instr::imm(Op::Ldx, 0),              // 8: X = 0
        Instr::mem(Op::Ldax, data_seg, 0),   // 9: A = data[X]   (loop @9)
        Instr::mem(Op::Add, data_seg, 4000), // 10: A += sum
        Instr::mem(Op::Sta, data_seg, 4000), // 11: sum = A
        Instr::imm(Op::Inx, 1),              // 12: X += 1
        Instr::imm(Op::Cpx, N),              // 13
        Instr::mem(Op::Jne, prog_seg, 9),    // 14: loop
        Instr::mem(Op::Lda, data_seg, 4000), // 15: A = sum
        Instr::bare(Op::Hlt),                // 16
    ])
}

fn main() {
    // ------------------------------------------------ old supervisor --
    let mut sup = Supervisor::boot(SupervisorConfig::default());
    let lpid = sup.create_process(LUserId(1), Label::BOTTOM).unwrap();
    sup.create_segment_in(sup.root(), "prog", LAcl::owner(LUserId(1)), Label::BOTTOM)
        .unwrap();
    sup.create_segment_in(sup.root(), "data", LAcl::owner(LUserId(1)), Label::BOTTOM)
        .unwrap();
    let prog_seg = sup.initiate(lpid, "prog").unwrap();
    let data_seg = sup.initiate(lpid, "data").unwrap();
    for (i, w) in program(prog_seg, data_seg).iter().enumerate() {
        sup.user_write(lpid, prog_seg, i as u32, *w).unwrap();
    }
    let before = sup.machine.clock.now();
    let lrun = sup.run_program(lpid, prog_seg, 0, 100_000).unwrap();
    println!("old supervisor:");
    println!(
        "  program ran {} instructions, A = {}",
        lrun.steps,
        lrun.regs.a.raw()
    );
    println!("  cycles: {}", sup.machine.clock.now() - before);
    println!(
        "  page faults {}, quota walks {} (avg {:.1} levels)",
        sup.stats.page_faults,
        sup.stats.quota_walks,
        sup.stats.quota_walk_levels as f64 / sup.stats.quota_walks.max(1) as f64
    );

    // ------------------------------------------------- Kernel/Multics --
    let mut k = Kernel::boot(KernelConfig::default());
    k.register_account("runner", UserId(1), 1, Label::BOTTOM);
    let pid = k.login_residue("runner", 1, Label::BOTTOM).unwrap();
    let root = k.root_token();
    let prog_tok = k
        .create_entry(
            pid,
            root,
            "prog",
            Acl::owner(UserId(1)),
            Label::BOTTOM,
            false,
        )
        .unwrap();
    let data_tok = k
        .create_entry(
            pid,
            root,
            "data",
            Acl::owner(UserId(1)),
            Label::BOTTOM,
            false,
        )
        .unwrap();
    let kprog = k.initiate(pid, prog_tok).unwrap();
    let kdata = k.initiate(pid, data_tok).unwrap();
    for (i, w) in program(kprog, kdata).iter().enumerate() {
        k.write_word(pid, kprog, i as u32, *w).unwrap();
    }
    let before = k.machine.clock.now();
    let run = k.run_program(pid, kprog, 0, 100_000).unwrap();
    println!("\nKernel/Multics:");
    println!(
        "  program ran {} instructions ({:?}), A = {}",
        run.steps,
        run.outcome,
        run.regs.a.raw()
    );
    println!("  cycles: {}", k.machine.clock.now() - before);
    println!(
        "  page faults {}, quota exceptions {} (every creation a direct cell hit)",
        k.stats.page_faults, k.stats.quota_faults
    );

    assert_eq!(lrun.regs.a.raw(), 3000);
    assert_eq!(run.regs.a.raw(), 3000);
    println!("\nboth systems computed sum = 3000 through real paged execution");
}
