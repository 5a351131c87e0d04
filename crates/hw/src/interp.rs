//! The instruction interpreter: programs in segments really execute.
//!
//! A deliberately small accumulator ISA in the 6180 spirit — one 36-bit
//! word per instruction, segment-qualified operand addresses — so that
//! supervisor experiments can run *user programs* whose instruction
//! fetches and data references go through real address translation:
//! a fetch can take a missing-segment fault, a store into a fresh page
//! can raise the quota exception, an indexed loop can spill a working
//! set. The interpreter knows nothing about either supervisor; it just
//! steps a [`Registers`] file against a [`Processor`].
//!
//! ## Instruction format
//!
//! ```text
//!  35      30 29        20 19                 0
//! +----------+------------+--------------------+
//! |  opcode  |   segno    |       offset       |
//! +----------+------------+--------------------+
//! ```
//!
//! Memory operands address `(segno, offset)`; the indexed forms add the
//! X register to the offset. Immediate forms use the offset field as a
//! 20-bit literal.

use crate::clock::{Clock, CostModel, Language};
use crate::cpu::{AccessMode, Processor, ProcessorId};
use crate::fault::Fault;
use crate::machine::Machine;
use crate::mem::MainMemory;
use crate::word::Word;
use crate::VirtAddr;

const OP_LO: u32 = 30;
const OP_W: u32 = 6;
const SEG_LO: u32 = 20;
const SEG_W: u32 = 10;
const OFF_LO: u32 = 0;
const OFF_W: u32 = 20;

/// The operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// No operation.
    Nop = 0,
    /// A ← `M[ea]`.
    Lda = 1,
    /// `M[ea]` ← A.
    Sta = 2,
    /// A ← A + `M[ea]` (36-bit wrapping).
    Add = 3,
    /// A ← A − `M[ea]` (36-bit wrapping).
    Sub = 4,
    /// A ← offset (20-bit immediate).
    Ldi = 5,
    /// Compare A with `M[ea]`; sets the EQ/LT flags.
    Cmp = 6,
    /// PC ← (segno, offset).
    Jmp = 7,
    /// PC ← (segno, offset) if EQ.
    Jeq = 8,
    /// PC ← (segno, offset) if not EQ.
    Jne = 9,
    /// PC ← (segno, offset) if LT.
    Jlt = 10,
    /// X ← offset (immediate).
    Ldx = 11,
    /// X ← X + offset (immediate, wrapping 20-bit).
    Inx = 12,
    /// A ← `M[segno, offset + X]`.
    Ldax = 13,
    /// `M[segno, offset + X]` ← A.
    Stax = 14,
    /// A ← X.
    Txa = 15,
    /// X ← A (low 20 bits).
    Tax = 16,
    /// Compare X with offset (immediate); sets EQ/LT.
    Cpx = 17,
    /// Halt.
    Hlt = 18,
}

impl Op {
    fn from_code(code: u64) -> Option<Op> {
        use Op::*;
        Some(match code {
            0 => Nop,
            1 => Lda,
            2 => Sta,
            3 => Add,
            4 => Sub,
            5 => Ldi,
            6 => Cmp,
            7 => Jmp,
            8 => Jeq,
            9 => Jne,
            10 => Jlt,
            11 => Ldx,
            12 => Inx,
            13 => Ldax,
            14 => Stax,
            15 => Txa,
            16 => Tax,
            17 => Cpx,
            18 => Hlt,
            _ => return None,
        })
    }
}

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Operation.
    pub op: Op,
    /// Operand segment number (ignored by immediate forms).
    pub segno: u32,
    /// Operand offset or immediate.
    pub offset: u32,
}

impl Instr {
    /// An instruction with no operand.
    pub fn bare(op: Op) -> Self {
        Self {
            op,
            segno: 0,
            offset: 0,
        }
    }

    /// An instruction with a memory operand.
    pub fn mem(op: Op, segno: u32, offset: u32) -> Self {
        Self { op, segno, offset }
    }

    /// An instruction with an immediate operand.
    pub fn imm(op: Op, value: u32) -> Self {
        Self {
            op,
            segno: 0,
            offset: value,
        }
    }

    /// Encodes to the 36-bit word representation.
    pub fn encode(self) -> Word {
        Word::ZERO
            .with_field(OP_LO, OP_W, self.op as u64)
            .with_field(SEG_LO, SEG_W, u64::from(self.segno))
            .with_field(OFF_LO, OFF_W, u64::from(self.offset))
    }

    /// Decodes from a word; `None` for an undefined opcode.
    pub fn decode(w: Word) -> Option<Self> {
        Some(Self {
            op: Op::from_code(w.field(OP_LO, OP_W))?,
            segno: w.field(SEG_LO, SEG_W) as u32,
            offset: w.field(OFF_LO, OFF_W) as u32,
        })
    }
}

/// Assembles a program into its word image.
pub fn assemble(program: &[Instr]) -> Vec<Word> {
    program.iter().map(|i| i.encode()).collect()
}

/// The visible register file of an executing program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registers {
    /// Accumulator.
    pub a: Word,
    /// Index register (20 bits used).
    pub x: u32,
    /// Program counter.
    pub pc: VirtAddr,
    /// Equal flag from the last compare.
    pub eq: bool,
    /// Less-than flag from the last compare (A < M, unsigned).
    pub lt: bool,
    /// The program executed HLT.
    pub halted: bool,
}

impl Registers {
    /// A register file starting execution at `pc`.
    pub fn at(pc: VirtAddr) -> Self {
        Self {
            a: Word::ZERO,
            x: 0,
            pc,
            eq: false,
            lt: false,
            halted: false,
        }
    }
}

/// What one step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction completed; execution may continue.
    Ran,
    /// A HLT completed; `regs.halted` is set.
    Halted,
    /// The fetched word does not decode: an illegal-instruction
    /// condition for the supervisor to handle.
    IllegalInstruction,
}

/// How a program run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramOutcome {
    /// The program executed HLT.
    Halted,
    /// An undecodable instruction word was fetched.
    Illegal,
    /// The step budget ran out.
    StepLimit,
}

/// The result of a supervisor's program run ([`drive`]).
#[derive(Debug, Clone, Copy)]
pub struct ProgramRun {
    /// Instructions completed.
    pub steps: u64,
    /// Why execution stopped.
    pub outcome: ProgramOutcome,
    /// Final register file.
    pub regs: Registers,
}

/// Runs a program from `pc` on processor `cpu` of `machine(sys)` until
/// it halts, fetches an undecodable word or completes `max_steps`
/// instructions, passing each fault to `service`: a supervisor's fault
/// dispatcher, after which the faulting instruction runs again. Both
/// designs' `run_program` are this loop with their own dispatcher.
///
/// # Errors
///
/// The first error `service` returns.
pub fn drive<S, E>(
    sys: &mut S,
    machine: impl Fn(&mut S) -> &mut Machine,
    cpu: ProcessorId,
    pc: VirtAddr,
    max_steps: u64,
    mut service: impl FnMut(&mut S, Fault) -> Result<(), E>,
) -> Result<ProgramRun, E> {
    let mut regs = Registers::at(pc);
    let mut steps = 0;
    let outcome = loop {
        if steps == max_steps {
            break ProgramOutcome::StepLimit;
        }
        let Machine {
            mem,
            clock,
            cpus,
            cost,
            ..
        } = machine(sys);
        match step(&mut cpus[cpu.0 as usize], mem, clock, cost, &mut regs) {
            Ok(StepOutcome::Ran) => steps += 1,
            Ok(StepOutcome::Halted) => break ProgramOutcome::Halted,
            Ok(StepOutcome::IllegalInstruction) => break ProgramOutcome::Illegal,
            Err(fault) => service(sys, fault)?,
        }
    };
    Ok(ProgramRun {
        steps,
        outcome,
        regs,
    })
}

/// Executes one instruction through the processor's address translation.
///
/// Faults (missing segment, missing page, quota, access, bounds) are
/// returned for the supervisor's fault dispatcher, exactly like a data
/// reference; the program counter is left *at* the faulting instruction
/// so the reference re-executes after service.
///
/// # Errors
///
/// Any translation [`Fault`] from the fetch or the operand reference.
pub fn step(
    cpu: &mut Processor,
    mem: &mut MainMemory,
    clock: &mut Clock,
    cost: &CostModel,
    regs: &mut Registers,
) -> Result<StepOutcome, Fault> {
    if regs.halted {
        return Ok(StepOutcome::Halted);
    }
    // Fetch (execute access).
    let fetch_abs = cpu.translate(mem, clock, cost, regs.pc, AccessMode::Execute)?;
    clock.charge_core_access(cost);
    let raw = mem.read(fetch_abs);
    let Some(instr) = Instr::decode(raw) else {
        return Ok(StepOutcome::IllegalInstruction);
    };
    clock.charge_instructions(cost, 1, Language::Assembly);

    let ea = |x: u32| VirtAddr::new(instr.segno, instr.offset.wrapping_add(x) & 0xF_FFFF);
    let next = VirtAddr::new(regs.pc.segno, regs.pc.wordno + 1);
    use Op::*;
    match instr.op {
        Nop => regs.pc = next,
        Lda => {
            regs.a = read_operand(cpu, mem, clock, cost, ea(0))?;
            regs.pc = next;
        }
        Ldax => {
            regs.a = read_operand(cpu, mem, clock, cost, ea(regs.x))?;
            regs.pc = next;
        }
        Sta => {
            write_operand(cpu, mem, clock, cost, ea(0), regs.a)?;
            regs.pc = next;
        }
        Stax => {
            write_operand(cpu, mem, clock, cost, ea(regs.x), regs.a)?;
            regs.pc = next;
        }
        Add => {
            let m = read_operand(cpu, mem, clock, cost, ea(0))?;
            regs.a = regs.a.wrapping_add(m);
            regs.pc = next;
        }
        Sub => {
            let m = read_operand(cpu, mem, clock, cost, ea(0))?;
            // 36-bit wrapping subtract: add the two's complement.
            let complement = Word::new((!m.raw()).wrapping_add(1));
            regs.a = regs.a.wrapping_add(complement);
            regs.pc = next;
        }
        Ldi => {
            regs.a = Word::new(u64::from(instr.offset));
            regs.pc = next;
        }
        Cmp => {
            let m = read_operand(cpu, mem, clock, cost, ea(0))?;
            regs.eq = regs.a == m;
            regs.lt = regs.a.raw() < m.raw();
            regs.pc = next;
        }
        Cpx => {
            regs.eq = regs.x == instr.offset;
            regs.lt = regs.x < instr.offset;
            regs.pc = next;
        }
        Jmp => regs.pc = VirtAddr::new(instr.segno, instr.offset),
        Jeq => {
            regs.pc = if regs.eq {
                VirtAddr::new(instr.segno, instr.offset)
            } else {
                next
            }
        }
        Jne => {
            regs.pc = if !regs.eq {
                VirtAddr::new(instr.segno, instr.offset)
            } else {
                next
            }
        }
        Jlt => {
            regs.pc = if regs.lt {
                VirtAddr::new(instr.segno, instr.offset)
            } else {
                next
            }
        }
        Ldx => {
            regs.x = instr.offset;
            regs.pc = next;
        }
        Inx => {
            regs.x = regs.x.wrapping_add(instr.offset) & 0xF_FFFF;
            regs.pc = next;
        }
        Txa => {
            regs.a = Word::new(u64::from(regs.x));
            regs.pc = next;
        }
        Tax => {
            regs.x = (regs.a.raw() & 0xF_FFFF) as u32;
            regs.pc = next;
        }
        Hlt => {
            regs.halted = true;
            regs.pc = next;
            return Ok(StepOutcome::Halted);
        }
    }
    Ok(StepOutcome::Ran)
}

fn read_operand(
    cpu: &mut Processor,
    mem: &mut MainMemory,
    clock: &mut Clock,
    cost: &CostModel,
    va: VirtAddr,
) -> Result<Word, Fault> {
    cpu.read(mem, clock, cost, va)
}

fn write_operand(
    cpu: &mut Processor,
    mem: &mut MainMemory,
    clock: &mut Clock,
    cost: &CostModel,
    va: VirtAddr,
    value: Word,
) -> Result<(), Fault> {
    cpu.write(mem, clock, cost, va, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{DescBase, Ptw, Sdw};
    use crate::machine::MachineConfig;
    use crate::mem::{FrameNo, PAGE_WORDS};

    /// One segment (0): pages 0..4 mapped to frames 2..6; RWE access,
    /// on processor 0 of a 16-frame machine.
    fn setup() -> Machine {
        let mut m = Machine::new(MachineConfig {
            frames: 16,
            packs: 0,
            ..MachineConfig::default()
        });
        let pt = FrameNo(1).base();
        for p in 0..4u32 {
            m.mem.write(
                pt.add(u64::from(p)),
                Ptw {
                    frame: FrameNo(2 + p),
                    present: true,
                    ..Ptw::default()
                }
                .encode(),
            );
        }
        let sdw = Sdw {
            page_table: pt,
            bound_pages: 4,
            read: true,
            write: true,
            execute: true,
            present: true,
            software: false,
        };
        m.mem.write(FrameNo(0).base(), sdw.encode());
        m.cpus[0].dbr_user = Some(DescBase {
            base: FrameNo(0).base(),
            len: 1,
        });
        m
    }

    fn load(mem: &mut MainMemory, at: u32, words: &[Word]) {
        // Segment page p is frame 2+p in this rig.
        for (i, w) in words.iter().enumerate() {
            let va = at + i as u32;
            let abs = FrameNo(2 + va / PAGE_WORDS as u32)
                .base()
                .add(u64::from(va % PAGE_WORDS as u32));
            mem.write(abs, *w);
        }
    }

    /// Runs the rig's program from word 0 with no supervisor: the first
    /// fault ends the run.
    fn run(m: &mut Machine, max_steps: u64) -> Result<ProgramRun, Fault> {
        let pc = VirtAddr::new(0, 0);
        drive(m, |m| m, ProcessorId(0), pc, max_steps, |_, f| Err(f))
    }

    fn step_once(m: &mut Machine, regs: &mut Registers) -> Result<StepOutcome, Fault> {
        step(&mut m.cpus[0], &mut m.mem, &mut m.clock, &m.cost, regs)
    }

    #[test]
    fn instr_codec_round_trips() {
        for i in [
            Instr::mem(Op::Lda, 3, 0x12345),
            Instr::imm(Op::Ldi, 0xF_FFFF),
            Instr::bare(Op::Hlt),
            Instr::mem(Op::Stax, 1023, 0),
        ] {
            assert_eq!(Instr::decode(i.encode()), Some(i));
        }
        assert_eq!(
            Instr::decode(Word::new(63 << 30)),
            None,
            "opcode 63 undefined"
        );
    }

    #[test]
    fn arithmetic_and_store() {
        let mut m = setup();
        // data at word 100..102; program at 0.
        load(&mut m.mem, 100, &[Word::new(7), Word::new(5)]);
        let prog = assemble(&[
            Instr::mem(Op::Lda, 0, 100),
            Instr::mem(Op::Add, 0, 101),
            Instr::mem(Op::Sta, 0, 102),
            Instr::mem(Op::Sub, 0, 101),
            Instr::bare(Op::Hlt),
        ]);
        load(&mut m.mem, 0, &prog);
        let out = run(&mut m, 10).expect("runs clean");
        assert_eq!(out.outcome, ProgramOutcome::Halted);
        assert_eq!(out.regs.a, Word::new(7));
        // The stored sum landed in segment word 102 (frame 2, offset 102).
        assert_eq!(m.mem.read(FrameNo(2).base().add(102)), Word::new(12));
    }

    #[test]
    fn loop_sums_an_array_across_pages() {
        let mut m = setup();
        // 1500 words of value 1 starting at word 1000 (crosses page 0→1).
        let ones = vec![Word::new(1); 1500];
        load(&mut m.mem, 1000, &ones);
        // sum += arr[X], kept in a memory cell at word 900:
        // A = arr[X]; A += sum; sum = A.
        let prog = assemble(&[
            Instr::imm(Op::Ldi, 0),      // 0: A = 0
            Instr::mem(Op::Sta, 0, 900), // 1: sum = 0
            Instr::imm(Op::Ldx, 0),      // 2: X = 0
            // loop @3:
            Instr::mem(Op::Ldax, 0, 1000), // 3: A = arr[X]
            Instr::mem(Op::Add, 0, 900),   // 4: A += sum
            Instr::mem(Op::Sta, 0, 900),   // 5: sum = A
            Instr::imm(Op::Inx, 1),        // 6: X += 1
            Instr::imm(Op::Cpx, 1500),     // 7: X == 1500?
            Instr::mem(Op::Jne, 0, 3),     // 8: loop
            Instr::mem(Op::Lda, 0, 900),   // 9: A = sum
            Instr::bare(Op::Hlt),          // 10
        ]);
        load(&mut m.mem, 0, &prog);
        let out = run(&mut m, 20_000).expect("runs clean");
        assert_eq!(out.outcome, ProgramOutcome::Halted);
        assert_eq!(out.regs.a, Word::new(1500));
        assert!(
            m.clock.instructions_executed() > 9000,
            "the loop really ran"
        );
    }

    #[test]
    fn compare_and_branches() {
        let mut m = setup();
        load(&mut m.mem, 200, &[Word::new(10)]);
        let prog = assemble(&[
            Instr::imm(Op::Ldi, 9),      // 0
            Instr::mem(Op::Cmp, 0, 200), // 1: 9 < 10 -> LT, !EQ
            Instr::mem(Op::Jlt, 0, 4),   // 2: taken
            Instr::bare(Op::Hlt),        // 3: (skipped)
            Instr::imm(Op::Ldi, 77),     // 4
            Instr::bare(Op::Hlt),        // 5
        ]);
        load(&mut m.mem, 0, &prog);
        let regs = run(&mut m, 10).expect("runs clean").regs;
        assert_eq!(regs.a, Word::new(77));
        assert!(regs.lt && !regs.eq);
    }

    #[test]
    fn nonterminating_program_reports_step_limit() {
        let mut m = setup();
        load(&mut m.mem, 0, &assemble(&[Instr::mem(Op::Jmp, 0, 0)]));
        let out = run(&mut m, 25).expect("runs clean");
        assert_eq!(out.outcome, ProgramOutcome::StepLimit);
        assert_eq!(out.steps, 25);
    }

    #[test]
    fn faults_leave_pc_on_the_faulting_instruction() {
        let mut m = setup();
        // Mark page 3 missing.
        let pt = FrameNo(1).base();
        m.mem.write(pt.add(3), Ptw::default().encode());
        let prog = assemble(&[
            Instr::mem(Op::Lda, 0, 3 * PAGE_WORDS as u32),
            Instr::bare(Op::Hlt),
        ]);
        load(&mut m.mem, 0, &prog);
        let mut regs = Registers::at(VirtAddr::new(0, 0));
        let err = step_once(&mut m, &mut regs).unwrap_err();
        assert!(matches!(err, Fault::MissingPage { .. }));
        assert_eq!(regs.pc, VirtAddr::new(0, 0), "re-executes after service");
        // Service it (hand-install the page) and re-step.
        m.mem.write(
            pt.add(3),
            Ptw {
                frame: FrameNo(5),
                present: true,
                ..Ptw::default()
            }
            .encode(),
        );
        assert_eq!(step_once(&mut m, &mut regs).unwrap(), StepOutcome::Ran);
        assert_eq!(regs.pc, VirtAddr::new(0, 1));
    }

    #[test]
    fn illegal_instruction_is_reported_not_executed() {
        let mut m = setup();
        load(&mut m.mem, 0, &[Word::new(63 << 30)]);
        let mut regs = Registers::at(VirtAddr::new(0, 0));
        assert_eq!(
            step_once(&mut m, &mut regs).unwrap(),
            StepOutcome::IllegalInstruction
        );
    }

    #[test]
    fn execute_permission_is_enforced_on_fetch() {
        let mut m = setup();
        // Strip execute from the SDW.
        let mut sdw = Sdw::decode(m.mem.read(FrameNo(0).base()));
        sdw.execute = false;
        m.mem.write(FrameNo(0).base(), sdw.encode());
        let mut regs = Registers::at(VirtAddr::new(0, 0));
        let err = step_once(&mut m, &mut regs).unwrap_err();
        assert!(matches!(err, Fault::AccessViolation { .. }));
    }
}
