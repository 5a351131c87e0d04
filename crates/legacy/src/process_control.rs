//! Process control: creation, the single-level scheduler, and the
//! process/VM loop.
//!
//! The old design keeps *every* process's state in segments: "process
//! control in turn depends upon segment control to provide segments in
//! which to store the states of inactive processes". Each process here
//! owns a *state segment* in the hierarchy (under `>processes`), touched
//! on every dispatch — so switching to a process can itself page, which
//! is the central dependency loop of Figure 3 made executable.

use crate::supervisor::{ProcState, Process, Supervisor};
use crate::types::{Acl, LegacyError, ProcessId, SegUid, UserId};
use mx_aim::Label;
use mx_hw::interp::{self, ProgramRun};
use mx_hw::meter::Subsystem;
use mx_hw::{Language, Name, Word};

const DISPATCH_INSTR: u64 = 45;
const CREATE_PROCESS_INSTR: u64 = 300;

impl Supervisor {
    /// Creates a process for `user` at AIM label `label`.
    ///
    /// Allocates a wired descriptor-segment frame, an empty KST, and a
    /// swappable state segment under `>processes`.
    ///
    /// # Errors
    ///
    /// [`LegacyError::ProcessTableFull`] when every process slot is taken.
    pub fn create_process(&mut self, user: UserId, label: Label) -> Result<ProcessId, LegacyError> {
        self.scoped(Subsystem::ProcessControl, |s| {
            s.create_process_body(user, label)
        })
    }

    fn create_process_body(
        &mut self,
        user: UserId,
        label: Label,
    ) -> Result<ProcessId, LegacyError> {
        self.charge(CREATE_PROCESS_INSTR, Language::Pli);
        let slot = (0..self.process_slots())
            .find(|s| self.processes[*s as usize].is_none())
            .ok_or(LegacyError::ProcessTableFull)?;
        let pid = ProcessId(slot);
        // The swappable state segment, in the hierarchy like any other.
        // All fallible hierarchy work happens BEFORE the slot is taken:
        // a failure here (quota, space, a salvage quarantine) must not
        // leak a table entry, or retrying the login drains the table.
        let proc_dir = self.ensure_processes_dir()?;
        let state_name = Name::new("proc-").num(self.next_uid);
        let state_uid = self.create_segment_in(proc_dir, &state_name, Acl::owner(user), label)?;
        let astx = self.activate(state_uid)?;
        self.sup_write(astx, 0, Word::new(u64::from(slot) + 1))?;
        let dseg_frame = self.dseg_frame_for_slot(slot);
        // Zero the descriptor segment: every SDW faulted. A reused slot's
        // old translations must not survive into the new process.
        self.machine.mem.zero_frame(dseg_frame);
        self.machine
            .tlb_invalidate_sdw_range(dseg_frame.base(), mx_hw::PAGE_WORDS as u64);
        let process = Process {
            id: pid,
            user,
            label,
            dseg_frame,
            kst: Default::default(),
            state: ProcState::Ready,
            state_uid: Some(state_uid),
            cpu_charge: 0,
        };
        self.processes[slot as usize] = Some(process);
        self.ready.push_back(pid);
        Ok(pid)
    }

    fn ensure_processes_dir(&mut self) -> Result<SegUid, LegacyError> {
        self.salvage_barrier_uid(self.root_uid)?;
        let root_astx = self.activate(self.root_uid)?;
        if let Some((_, e)) = self.lookup(root_astx, "processes")? {
            return Ok(e.uid);
        }
        self.create_directory_in(self.root_uid, "processes", Acl::new(), Label::BOTTOM)
    }

    /// Destroys a process: frees its slot and deletes its state segment's
    /// KST connections (the state segment itself stays for the
    /// accounting record, as in the real system until the answering
    /// service reaps it).
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoSuchProcess`] if the process is unknown.
    pub fn destroy_process(&mut self, pid: ProcessId) -> Result<(), LegacyError> {
        self.scoped(Subsystem::ProcessControl, |s| s.destroy_process_body(pid))
    }

    fn destroy_process_body(&mut self, pid: ProcessId) -> Result<(), LegacyError> {
        // Disconnect from every active segment.
        let connected: Vec<usize> = self
            .ast
            .iter()
            .filter(|(_, a)| a.connections.iter().any(|(p, _)| *p == pid))
            .map(|(i, _)| i)
            .collect();
        for astx in connected {
            if let Some(aste) = self.ast.get_mut(astx) {
                aste.connections.retain(|(p, _)| *p != pid);
            }
        }
        let proc = self.process_mut(pid)?;
        proc.state = ProcState::Dead;
        self.ready.retain(|p| *p != pid);
        if self.current == Some(pid) {
            self.current = None;
        }
        self.processes[pid.0 as usize] = None;
        Ok(())
    }

    /// Dispatches the next ready process, touching its state segment
    /// (which may page — the loop) and charging the switch.
    ///
    /// Returns the process now running, if any.
    pub fn dispatch(&mut self) -> Option<ProcessId> {
        self.scoped(Subsystem::Scheduler, |s| s.dispatch_body())
    }

    fn dispatch_body(&mut self) -> Option<ProcessId> {
        self.charge(DISPATCH_INSTR, Language::Assembly);
        // Requeue the running process first so a lone process keeps
        // getting the processor.
        if let Some(prev) = self.current.take() {
            if let Ok(p) = self.process_mut(prev) {
                if p.state == ProcState::Running {
                    p.state = ProcState::Ready;
                    self.ready.push_back(prev);
                }
            }
        }
        let next = self.ready.pop_front()?;
        let cost = self.machine.cost;
        self.machine.clock.charge_process_switch(&cost);
        // Touch the incoming process's swappable state: may fault.
        if let Ok(p) = self.process(next) {
            if let Some(state_uid) = p.state_uid {
                if let Ok(astx) = self.activate(state_uid) {
                    let _ = self.sup_read(astx, 0);
                }
            }
        }
        if let Ok(p) = self.process_mut(next) {
            p.state = ProcState::Running;
            p.cpu_charge += 1;
        }
        self.current = Some(next);
        Some(next)
    }

    /// Models the faulting process giving its processor away while a
    /// page transfer completes: one switch out, one back.
    pub(crate) fn yield_for_io(&mut self, pid: ProcessId) {
        let cost = self.machine.cost;
        self.machine.clock.charge_process_switch(&cost);
        if let Ok(p) = self.process_mut(pid) {
            p.state = ProcState::Blocked;
        }
        // The transfer completes synchronously in the simulation; the
        // process is immediately resumed.
        self.machine.clock.charge_process_switch(&cost);
        if let Ok(p) = self.process_mut(pid) {
            p.state = ProcState::Running;
            p.cpu_charge += 1;
        }
    }

    /// Runs a user program under the old supervisor: steps the
    /// interpreter, servicing faults through the monolithic handlers
    /// (interpretive retranslation, quota walks and all). Returns when
    /// the program halts, hits an undecodable word, or exhausts
    /// `max_steps`, saying which.
    ///
    /// # Errors
    ///
    /// Protection and storage errors exactly as data references raise
    /// them.
    pub fn run_program(
        &mut self,
        pid: ProcessId,
        segno: u32,
        start: u32,
        max_steps: u64,
    ) -> Result<ProgramRun, LegacyError> {
        let cpu = self.load_dbr(pid)?;
        self.machine.cpus[cpu.0 as usize].retire_op();
        let pc = mx_hw::VirtAddr::new(segno, start);
        interp::drive(
            self,
            |s| &mut s.machine,
            cpu,
            pc,
            max_steps,
            |s, fault| s.handle_fault(pid, fault),
        )
    }

    /// Number of live processes.
    pub fn live_processes(&self) -> usize {
        self.processes.iter().filter(|p| p.is_some()).count()
    }

    /// Accumulated accounting units for a process.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoSuchProcess`] if the process is unknown.
    pub fn cpu_charge(&self, pid: ProcessId) -> Result<u64, LegacyError> {
        Ok(self.process(pid)?.cpu_charge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_process_builds_state_segment_in_hierarchy() {
        let mut sup = Supervisor::boot_default();
        let pid = sup.create_process(UserId(1), Label::BOTTOM).unwrap();
        let state_uid = sup.process(pid).unwrap().state_uid.unwrap();
        assert!(sup.ast.find(state_uid).is_some(), "state segment active");
        assert_eq!(sup.live_processes(), 1);
    }

    #[test]
    fn process_slots_exhaust_and_recycle() {
        let mut sup = Supervisor::boot(crate::supervisor::SupervisorConfig {
            max_processes: 2,
            ..Default::default()
        });
        let a = sup.create_process(UserId(1), Label::BOTTOM).unwrap();
        let _b = sup.create_process(UserId(2), Label::BOTTOM).unwrap();
        assert_eq!(
            sup.create_process(UserId(3), Label::BOTTOM).unwrap_err(),
            LegacyError::ProcessTableFull
        );
        sup.destroy_process(a).unwrap();
        // Slot freed; a new process reuses it with a fresh state segment.
        let c = sup.create_process(UserId(4), Label::BOTTOM).unwrap();
        assert_eq!(c, a, "slot recycled");
    }

    #[test]
    fn dispatch_round_robins_and_touches_state() {
        let mut sup = Supervisor::boot_default();
        let a = sup.create_process(UserId(1), Label::BOTTOM).unwrap();
        let b = sup.create_process(UserId(2), Label::BOTTOM).unwrap();
        let first = sup.dispatch().unwrap();
        let second = sup.dispatch().unwrap();
        let third = sup.dispatch().unwrap();
        assert_eq!(first, a);
        assert_eq!(second, b);
        assert_eq!(third, a, "round robin wraps");
        assert!(sup.machine.clock.process_switches() >= 3);
    }

    #[test]
    fn destroyed_process_never_scheduled() {
        let mut sup = Supervisor::boot_default();
        let a = sup.create_process(UserId(1), Label::BOTTOM).unwrap();
        let b = sup.create_process(UserId(2), Label::BOTTOM).unwrap();
        sup.destroy_process(a).unwrap();
        assert_eq!(sup.dispatch(), Some(b));
        assert_eq!(sup.dispatch(), Some(b));
    }
}
