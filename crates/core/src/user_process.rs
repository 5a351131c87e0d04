//! The User Process Manager — level two of the two-level process
//! implementation.
//!
//! "The top part implements an arbitrary number of user processes and
//! depends upon the virtual memory to store their states. A subset of
//! the virtual processors are multiplexed among the user processes as
//! needed."
//!
//! Events discovered at the virtual-processor level (page services,
//! I/O completions) reach this level through the **real-memory message
//! queue** ([`mx_sync::MessageQueue`]) paired with an eventcount: the
//! low level `put`s without blocking and without knowing any receiver,
//! advances the eventcount, and this manager drains the queue when it
//! schedules.

use crate::error::KernelError;
use crate::types::{ProcessId, SegUid, UserId};
use crate::vproc::{VirtualProcessorManager, VpId};
use mx_aim::Label;
use mx_hw::{FrameNo, Machine};
use mx_sync::sim::EcId;
use mx_sync::MessageQueue;
use std::collections::VecDeque;

/// An event delivered from the virtual-processor level to the
/// user-process level through the real-memory queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelEvent {
    /// A page service completed for some process.
    PageServiced {
        /// The process whose reference was being serviced.
        pid: ProcessId,
    },
    /// Input arrived on a demultiplexer channel.
    ChannelInput {
        /// The stream.
        stream: u32,
        /// The channel within the stream.
        channel: u16,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UpState {
    Ready,
    Bound(VpId),
    Dead,
}

#[derive(Debug, Clone)]
struct UserProc {
    user: UserId,
    label: Label,
    dseg_frame: FrameNo,
    state: UpState,
    /// The process's swappable state segment, stored in the virtual
    /// memory like any other segment.
    state_seg: Option<SegUid>,
    charge: u64,
}

/// The outcome of a level-2 dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// The process now running.
    pub pid: ProcessId,
    /// The virtual processor it runs on.
    pub vp: VpId,
    /// True if the process was already loaded on this VP (cheap VP
    /// switch only); false if its state had to be brought in (the
    /// caller touches the state segment, which may page).
    pub already_loaded: bool,
}

/// The user-process object manager.
#[derive(Debug)]
pub struct UserProcessManager {
    procs: Vec<Option<UserProc>>,
    dseg_base: u32,
    queue: MessageQueue<KernelEvent>,
    /// Advanced on every queue put; level 2 awaits it when idle.
    pub queue_event: EcId,
    ready: VecDeque<ProcessId>,
    /// The process bound to each VP, indexed by VP.
    tenant: Vec<Option<ProcessId>>,
    /// The VP each process is bound to, indexed by process slot.
    bound: Vec<Option<VpId>>,
    vp_rotation: VecDeque<VpId>,
    /// Level-2 dispatches performed.
    pub dispatches: u64,
    /// Dispatches that needed a state load (process switch proper).
    pub loads: u64,
}

impl UserProcessManager {
    /// Builds the manager: process slots with wired descriptor-segment
    /// frames starting at `dseg_base`, and the real-memory event queue
    /// of `queue_capacity` messages.
    pub fn new(
        vpm: &mut VirtualProcessorManager,
        dseg_base: u32,
        max_processes: u32,
        queue_capacity: usize,
    ) -> Self {
        Self {
            procs: (0..max_processes).map(|_| None).collect(),
            dseg_base,
            queue: MessageQueue::new(queue_capacity),
            queue_event: vpm.create_eventcount(),
            ready: VecDeque::new(),
            tenant: vec![None; vpm.count()],
            bound: vec![None; max_processes as usize],
            vp_rotation: vpm.user_vps().into(),
            dispatches: 0,
            loads: 0,
        }
    }

    /// Creates a process, zeroing its descriptor segment.
    ///
    /// # Errors
    ///
    /// [`KernelError::TableFull`] when every slot is occupied.
    pub fn create(
        &mut self,
        machine: &mut Machine,
        user: UserId,
        label: Label,
    ) -> Result<ProcessId, KernelError> {
        let slot = self
            .procs
            .iter()
            .position(|p| p.is_none())
            .ok_or(KernelError::TableFull("process"))? as u32;
        let dseg_frame = FrameNo(self.dseg_base + slot);
        machine.mem.zero_frame(dseg_frame);
        // A reused slot's old translations must not survive into the new
        // process's descriptor segment.
        machine.tlb_invalidate_sdw_range(dseg_frame.base(), mx_hw::PAGE_WORDS as u64);
        self.procs[slot as usize] = Some(UserProc {
            user,
            label,
            dseg_frame,
            state: UpState::Ready,
            state_seg: None,
            charge: 0,
        });
        let pid = ProcessId(slot);
        self.ready.push_back(pid);
        Ok(pid)
    }

    /// Destroys a process and frees its slot.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] if unknown. Returns the final
    /// accounting charge.
    pub fn destroy(&mut self, pid: ProcessId) -> Result<u64, KernelError> {
        let slot = pid.0 as usize;
        let proc = self
            .procs
            .get_mut(slot)
            .and_then(Option::take)
            .ok_or(KernelError::NoSuchProcess)?;
        self.ready.retain(|p| *p != pid);
        if let Some(vp) = self.bound[slot].take() {
            self.tenant[vp.0 as usize] = None;
        }
        Ok(proc.charge)
    }

    /// The process's user.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] if unknown.
    pub fn user_of(&self, pid: ProcessId) -> Result<UserId, KernelError> {
        self.get(pid).map(|p| p.user)
    }

    /// The process's AIM label.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] if unknown.
    pub fn label_of(&self, pid: ProcessId) -> Result<Label, KernelError> {
        self.get(pid).map(|p| p.label)
    }

    /// The process's descriptor-segment frame.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] if unknown.
    pub fn dseg_frame(&self, pid: ProcessId) -> Result<FrameNo, KernelError> {
        self.get(pid).map(|p| p.dseg_frame)
    }

    /// Records the process's swappable state segment.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] if unknown.
    pub fn set_state_seg(&mut self, pid: ProcessId, uid: SegUid) -> Result<(), KernelError> {
        self.get_mut(pid)?.state_seg = Some(uid);
        Ok(())
    }

    /// The process's state segment, if assigned.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] if unknown.
    pub fn state_seg(&self, pid: ProcessId) -> Result<Option<SegUid>, KernelError> {
        self.get(pid).map(|p| p.state_seg)
    }

    /// Adds one accounting unit to a process.
    pub fn bill(&mut self, pid: ProcessId) {
        if let Ok(p) = self.get_mut(pid) {
            p.charge += 1;
        }
    }

    /// Live process count.
    pub fn live(&self) -> usize {
        self.procs.iter().filter(|p| p.is_some()).count()
    }

    /// The user VP a process is currently bound to, if any — the handle
    /// the kernel uses to home a process's memory references on a real
    /// processor.
    pub fn vp_of(&self, pid: ProcessId) -> Option<VpId> {
        self.bound.get(pid.0 as usize).copied().flatten()
    }

    /// Every (VP, process) binding, as the old search read them.
    #[cfg(test)]
    pub(crate) fn bindings(&self) -> impl Iterator<Item = (VpId, ProcessId)> + '_ {
        (0u32..)
            .zip(&self.tenant)
            .filter_map(|(vp, pid)| pid.map(|pid| (VpId(vp), pid)))
    }

    fn get(&self, pid: ProcessId) -> Result<&UserProc, KernelError> {
        self.procs
            .get(pid.0 as usize)
            .and_then(|p| p.as_ref())
            .filter(|p| p.state != UpState::Dead)
            .ok_or(KernelError::NoSuchProcess)
    }

    fn get_mut(&mut self, pid: ProcessId) -> Result<&mut UserProc, KernelError> {
        self.procs
            .get_mut(pid.0 as usize)
            .and_then(|p| p.as_mut())
            .filter(|p| p.state != UpState::Dead)
            .ok_or(KernelError::NoSuchProcess)
    }

    // ---- upward event delivery -------------------------------------------

    /// Delivers an event from the VP level: a non-blocking put into the
    /// real-memory queue plus an eventcount advance. A full queue drops
    /// the event (and counts it) — the low level must never wait on the
    /// high level.
    pub fn deliver(&mut self, vpm: &mut VirtualProcessorManager, event: KernelEvent) -> bool {
        let ok = self.queue.put(event).is_ok();
        vpm.advance(self.queue_event);
        ok
    }

    /// Drains all pending events (the level-2 scheduler does this on
    /// every pass).
    pub fn drain_events(&mut self) -> Vec<KernelEvent> {
        let mut out = Vec::new();
        while let Ok(e) = self.queue.take() {
            out.push(e);
        }
        out
    }

    /// Events dropped because the fixed queue was full.
    pub fn dropped_events(&self) -> u64 {
        self.queue.rejected()
    }

    /// Deepest the real-memory event queue ever got — how close the
    /// inter-level buffer came to filling under load.
    pub fn queue_high_watermark(&self) -> usize {
        self.queue.high_watermark()
    }

    /// Restarts the event-queue depth observation (epoch boundary).
    pub fn reset_queue_high_watermark(&mut self) {
        self.queue.reset_high_watermark();
    }

    // ---- the level-2 scheduler ---------------------------------------------

    /// Dispatches the next ready process onto a user virtual processor.
    ///
    /// If the process is still loaded on a VP, the switch is the cheap
    /// VP-level one; otherwise a VP is (re)assigned and the caller must
    /// load the process state (touching its state segment, which may
    /// page — exactly the cost the two-level design confines to genuine
    /// process switches).
    pub fn dispatch(&mut self, vpm: &mut VirtualProcessorManager) -> Option<Dispatch> {
        // Requeue whoever is bound and running so a lone process runs on.
        let pid = self.ready.pop_front()?;
        self.ready.push_back(pid);
        self.dispatches += 1;
        // Already on a VP?
        if let Some(vp) = self.vp_of(pid) {
            if let Ok(p) = self.get_mut(pid) {
                p.state = UpState::Bound(vp);
                p.charge += 1;
            }
            return Some(Dispatch {
                pid,
                vp,
                already_loaded: true,
            });
        }
        // Bind to the next user VP in rotation (unloading its tenant).
        let vp = self.vp_rotation.pop_front()?;
        self.vp_rotation.push_back(vp);
        self.bound[pid.0 as usize] = Some(vp);
        if let Some(prev) = self.tenant[vp.0 as usize].replace(pid) {
            self.bound[prev.0 as usize] = None;
            if let Ok(p) = self.get_mut(prev) {
                if p.state == UpState::Bound(vp) {
                    p.state = UpState::Ready;
                }
            }
        }
        if let Ok(p) = self.get_mut(pid) {
            p.state = UpState::Bound(vp);
            p.charge += 1;
        }
        self.loads += 1;
        let _ = vpm;
        Some(Dispatch {
            pid,
            vp,
            already_loaded: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_segment::CoreSegmentManager;

    fn rig(max: u32, vps: u32) -> (Machine, VirtualProcessorManager, UserProcessManager) {
        let machine = Machine::kernel_proposed();
        let mut csm = CoreSegmentManager::new(0, 4);
        let mut vpm = VirtualProcessorManager::new(&mut csm, vps).unwrap();
        // Reserve VP 0 for the kernel so user VPs are 1..vps.
        vpm.bind_kernel(VpId(0), "user-scheduler");
        let upm = UserProcessManager::new(&mut vpm, 8, max, 16);
        (machine, vpm, upm)
    }

    #[test]
    fn unbounded_feel_processes_over_few_vps() {
        let (mut m, mut vpm, mut upm) = rig(8, 3); // 2 user VPs
        let pids: Vec<_> = (0..6)
            .map(|i| upm.create(&mut m, UserId(i), Label::BOTTOM).unwrap())
            .collect();
        assert_eq!(upm.live(), 6);
        // Dispatch around: with 6 processes on 2 VPs, loads dominate.
        for _ in 0..12 {
            upm.dispatch(&mut vpm).unwrap();
        }
        assert_eq!(upm.dispatches, 12);
        assert!(upm.loads >= 6, "every process loaded at least once");
        drop(pids);
    }

    #[test]
    fn lone_process_stays_loaded_and_switches_cheaply() {
        let (mut m, mut vpm, mut upm) = rig(4, 2);
        let pid = upm.create(&mut m, UserId(1), Label::BOTTOM).unwrap();
        let first = upm.dispatch(&mut vpm).unwrap();
        assert_eq!(first.pid, pid);
        assert!(!first.already_loaded, "first dispatch loads");
        for _ in 0..5 {
            let d = upm.dispatch(&mut vpm).unwrap();
            assert!(d.already_loaded, "subsequent dispatches are cheap");
        }
        assert_eq!(upm.loads, 1);
    }

    #[test]
    fn event_queue_delivers_in_order_and_drops_when_full() {
        let (mut m, mut vpm, mut upm) = rig(2, 2);
        let pid = upm.create(&mut m, UserId(1), Label::BOTTOM).unwrap();
        for _ in 0..16 {
            assert!(upm.deliver(&mut vpm, KernelEvent::PageServiced { pid }));
        }
        assert!(
            !upm.deliver(&mut vpm, KernelEvent::PageServiced { pid }),
            "17th event hits the fixed capacity"
        );
        assert_eq!(upm.dropped_events(), 1);
        let drained = upm.drain_events();
        assert_eq!(drained.len(), 16);
        assert!(drained
            .iter()
            .all(|e| *e == KernelEvent::PageServiced { pid }));
        assert_eq!(
            vpm.read_eventcount(upm.queue_event),
            17,
            "every put advanced the count"
        );
    }

    #[test]
    fn destroy_returns_final_charge() {
        let (mut m, mut vpm, mut upm) = rig(2, 2);
        let pid = upm.create(&mut m, UserId(1), Label::BOTTOM).unwrap();
        upm.dispatch(&mut vpm);
        upm.bill(pid);
        let charge = upm.destroy(pid).unwrap();
        assert_eq!(charge, 2, "one dispatch + one bill");
        assert_eq!(upm.live(), 0);
        assert!(upm.user_of(pid).is_err());
    }

    #[test]
    fn slot_reuse_after_destroy() {
        let (mut m, _vpm, mut upm) = rig(1, 2);
        let a = upm.create(&mut m, UserId(1), Label::BOTTOM).unwrap();
        assert!(upm.create(&mut m, UserId(2), Label::BOTTOM).is_err());
        upm.destroy(a).unwrap();
        let b = upm.create(&mut m, UserId(2), Label::BOTTOM).unwrap();
        assert_eq!(a, b);
    }
}
