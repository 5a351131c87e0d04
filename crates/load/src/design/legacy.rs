//! The 1974 supervisor behind the [`Design`] interface.
//!
//! The old answering service refuses a login when the process table is
//! full, so the admission queue is harness bookkeeping: a FIFO fed by
//! `ProcessTableFull` refusals. Files are named by tree names, so opening a
//! directory to create in resolves it (charged) while a delete only
//! builds the path. The library's definition table is in-core: setup
//! and every recovery publish it outside the gates and then write the
//! library page themselves.

use super::{online_step, salvage_pass, Admitted, Design, Res, SalvagePass, Session, Step};
use crate::fleet::CH_DIRECTIVE;
use crate::label::Status;
use crate::run::{account_name, definitions, file_name, symbol, Entry, SalvageProbe};
use mx_aim::Label;
use mx_explore::{oracle, Rig};
use mx_hw::{Machine, Name, Subsystem, Word};
use mx_legacy::network::{NetworkId, NetworkKind};
use mx_legacy::{
    AccessRight, Acl, LegacyError, OnlineCheat, ProcessId, SegUid, Supervisor, SupervisorConfig,
    UserId,
};
use mx_sync::SchedulePolicy;
use std::collections::VecDeque;

pub(crate) struct LegacyDesign {
    sup: Supervisor,
    /// Logins the supervisor refused for want of a process slot, oldest
    /// first. Survives a crash: it is the users at their terminals.
    pending: VecDeque<usize>,
    net: Option<NetworkId>,
}

/// Session `idx`'s file in directory `dir`, by tree name: `s3>f17`.
fn file_path(dir: Entry, idx: usize) -> Name {
    dir.name().push(">").push(&file_name(idx))
}

impl LegacyDesign {
    fn net(&self) -> NetworkId {
        self.net.expect("network attached")
    }
}

impl Design for LegacyDesign {
    const NAME: &'static str = "legacy";
    const SCHEDULE_HOOKS: bool = false;
    const RESIDENT_STORE: bool = false;

    /// The uid, for creating in, and the entry, for naming by path.
    type Handle = (SegUid, Entry);
    type Ext = ();
    type Error = LegacyError;

    fn boot(config: SupervisorConfig) -> Self {
        Self {
            sup: Supervisor::boot(config),
            pending: VecDeque::new(),
            net: None,
        }
    }

    fn reboot(self, config: SupervisorConfig) -> Res<Self, Self> {
        Ok(Self {
            sup: Supervisor::boot_from_image(config, self.sup.machine)?,
            pending: self.pending,
            net: None,
        })
    }

    fn machine(&self) -> &Machine {
        &self.sup.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.sup.machine
    }

    fn oracle(&self) -> Vec<String> {
        oracle::check_legacy(&self.sup)
    }

    fn relocations(&self) -> u64 {
        self.sup.stats.relocations
    }

    fn busy(e: &LegacyError) -> bool {
        matches!(e, LegacyError::SalvageBusy)
    }

    fn status(e: &LegacyError) -> Status {
        Status::of_refusal(<Supervisor as Rig>::refusal(e))
    }

    fn register(&mut self, name: &str) {
        self.sup.register_user(name, UserId(1), "pw", Label::BOTTOM);
    }

    fn login(&mut self, name: &str) -> Res<ProcessId, Self> {
        self.sup.login(name, "pw", Label::BOTTOM)
    }

    fn open(&mut self, _pid: ProcessId) {}

    fn login_or_queue(&mut self, idx: usize) -> Res<Option<ProcessId>, Self> {
        match self.login(&account_name(idx)) {
            Ok(pid) => Ok(Some(pid)),
            // The old answering service refuses when the process table
            // is full; the harness's retry queue is the admission policy.
            Err(LegacyError::ProcessTableFull) => {
                self.pending.push_back(idx);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// A re-login needs a state segment under `>processes`, which may
    /// still be quarantined: a `SalvageBusy` leaves the login at the head
    /// of the queue for the caller to retry (not counted as a blocked op).
    fn admit_waiting(&mut self) -> Admitted<Self> {
        let mut out = Admitted {
            sessions: Vec::new(),
            refused: Vec::new(),
            busy: None,
        };
        while let Some(&idx) = self.pending.front() {
            match self.login(&account_name(idx)) {
                Ok(pid) => {
                    self.pending.pop_front();
                    out.sessions.push((idx, pid));
                }
                Err(LegacyError::ProcessTableFull) => break,
                Err(LegacyError::SalvageBusy) => {
                    out.busy = Some(idx);
                    break;
                }
                Err(e) => {
                    self.pending.pop_front();
                    out.refused.push((idx, e));
                }
            }
        }
        out
    }

    fn queued(&self) -> usize {
        self.pending.len()
    }

    fn pending_names(&self) -> Option<Vec<String>> {
        None
    }

    fn drop_youngest_queued(&mut self) {
        self.pending.pop_back();
    }

    fn logout(&mut self, idx: usize, pid: ProcessId) -> Res<(), Self> {
        self.sup.logout(&account_name(idx), pid).map(|_| ())
    }

    fn link(&mut self, s: &mut Session<Self>, sym: usize) -> Res<u32, Self> {
        self.sup.link(s.pid, "lib", &symbol(sym)).map(|l| l.offset)
    }

    fn resolve(&mut self, s: &mut Session<Self>, target: Entry) -> Res<(), Self> {
        self.sup
            .resolve(s.pid, &target.name(), AccessRight::Read)
            .map(|_| ())
    }

    fn initiate_shared(&mut self, s: &mut Session<Self>) -> Res<u32, Self> {
        self.sup.initiate(s.pid, "shared")
    }

    fn search(&mut self, drv: ProcessId, entry: Entry) -> Res<(SegUid, Entry), Self> {
        let (uid, _) = self.sup.resolve(drv, &entry.name(), AccessRight::Read)?;
        Ok((uid, entry))
    }

    fn create(&mut self, _drv: ProcessId, entry: Entry) -> Res<(SegUid, Entry), Self> {
        let (root, acl, name) = (self.sup.root(), Acl::owner(UserId(1)), entry.name());
        let uid = match entry {
            Entry::Shard(_) | Entry::Mig => {
                self.sup
                    .create_directory_in(root, &name, acl, Label::BOTTOM)
            }
            Entry::Lib | Entry::Shared => {
                self.sup.create_segment_in(root, &name, acl, Label::BOTTOM)
            }
        }?;
        Ok((uid, entry))
    }

    fn initiate(&mut self, drv: ProcessId, (_, entry): (SegUid, Entry)) -> Res<u32, Self> {
        self.sup.initiate(drv, &entry.name())
    }

    /// The definition table is in-core, so it is re-published outside
    /// the gates; the library page is written here to give both designs
    /// identical storage (the kernel's publish writes it).
    fn publish(
        &mut self,
        drv: ProcessId,
        (lib, _): (SegUid, Entry),
        probe: &mut SalvageProbe,
    ) -> Result<(), String> {
        let defs = definitions();
        let refs: Vec<(&str, u32)> = defs.iter().map(|(s, o)| (s.as_str(), *o)).collect();
        self.sup.publish_definitions(lib, &refs);
        let segno = super::gate_retry(self, probe, "lib initiate", |d| d.sup.initiate(drv, "lib"))?;
        super::gate_retry(self, probe, "lib page", |d| {
            d.sup
                .user_write(drv, segno, 0, Word::new(refs.len() as u64))
        })
    }

    /// The old resolve walks *into* the target, so a surviving but
    /// quarantined shard answers `SalvageBusy` — which proves it exists.
    fn shard_survives(&mut self, drv: ProcessId, shard: usize, _probe: &mut SalvageProbe) -> bool {
        match self.search(drv, Entry::Shard(shard)) {
            Ok(_) | Err(LegacyError::SalvageBusy) => true,
            Err(_) => false,
        }
    }

    fn set_quota(&mut self, drv: ProcessId, dir: Entry, pages: u32) -> Res<(), Self> {
        self.sup.set_quota_directory(drv, &dir.name(), pages)
    }

    fn open_dir(&mut self, pid: ProcessId, dir: Entry) -> Res<(SegUid, Entry), Self> {
        self.search(pid, dir)
    }

    fn probe_dir(&mut self, pid: ProcessId, dir: Entry) -> Res<(SegUid, Entry), Self> {
        self.search(pid, dir)
    }

    fn create_file(
        &mut self,
        pid: ProcessId,
        (at, dir): (SegUid, Entry),
        idx: usize,
    ) -> Res<u32, Self> {
        let acl = Acl::owner(UserId(1));
        self.sup
            .create_segment_in(at, &file_name(idx), acl, Label::BOTTOM)?;
        self.sup.initiate(pid, &file_path(dir, idx))
    }

    fn delete_file(&mut self, pid: ProcessId, dir: Entry, idx: usize) -> Res<(), Self> {
        self.sup.delete(pid, &file_path(dir, idx))
    }

    fn write(&mut self, pid: ProcessId, segno: u32, offset: u32, val: u64) -> Res<(), Self> {
        self.sup.user_write(pid, segno, offset, Word::new(val))
    }

    fn read(&mut self, pid: ProcessId, segno: u32, offset: u32, _resident: bool) -> Res<u64, Self> {
        self.sup.user_read(pid, segno, offset).map(|w| w.raw())
    }

    fn sync_to_disk(&mut self) -> Res<(), Self> {
        self.sup.sync_to_disk()
    }

    fn schedule(&mut self) {
        self.sup.dispatch();
    }

    fn set_schedule_policy(&mut self, _policy: Box<dyn SchedulePolicy>) {}

    fn reset_load_probes(&mut self) {}

    fn load_probes(&self) -> ((u64, u64), usize) {
        ((0, 0), 0)
    }

    fn salvage(&mut self, repair: bool) -> Result<SalvagePass, String> {
        salvage_pass(self.sup.salvage(repair))
    }

    fn begin_online_salvage(&mut self, release_early: bool) -> Result<(), String> {
        if !release_early {
            self.sup.begin_online_salvage();
            return Ok(());
        }
        let root = self.sup.root();
        let torn = match self.sup.ast.find(root) {
            Some(astx) => {
                if let Some(q) = self.sup.ast.get_mut(astx).and_then(|a| a.quota.as_mut()) {
                    q.used += 3;
                }
                Ok(())
            }
            None => Err("self-check drift injection found no root AST entry".to_string()),
        };
        self.sup
            .begin_online_salvage_with_cheat(Some(OnlineCheat::ReleaseBeforeCellRepair));
        torn
    }

    fn online_salvage_active(&self) -> bool {
        self.sup.online_salvage_active()
    }

    fn online_salvage_step(&mut self) -> Res<Step, Self> {
        self.sup.online_salvage_step().map(online_step)
    }

    fn attach_network(&mut self) {
        self.net = Some(self.sup.attach_network(NetworkKind::FrontEnd));
    }

    fn net_receive(&mut self, frame: &[u8]) -> Res<(), Self> {
        self.sup.network_receive(self.net(), frame)
    }

    /// No resident path and no per-process channel: every read goes
    /// through the ordinary gate from the ambient domain.
    fn net_read(
        &mut self,
        _pid: ProcessId,
        channel: u16,
        _resident: bool,
        buf: &mut Vec<u8>,
    ) -> Res<(), Self> {
        self.sup.network_read_channel(self.net(), channel, buf)
    }

    /// The answering service's scope covers only the receive; even its
    /// own channel is drained afterwards through the ordinary gate, and
    /// drained even when the receive failed.
    fn receive_directive(&mut self, frame: &[u8], buf: &mut Vec<u8>) -> Res<(), Self> {
        let cost = self.sup.machine.cost;
        let g = self.sup.machine.clock.enter(Subsystem::AnsweringService);
        self.sup.machine.clock.charge_wire_frame(&cost, frame.len());
        let got = self.net_receive(frame);
        self.sup.machine.clock.exit(g);
        let _ = self
            .sup
            .network_read_channel(self.net(), u16::from(CH_DIRECTIVE), buf);
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::NAME_INDICES;

    #[test]
    fn file_paths_print_what_format_printed() {
        for i in NAME_INDICES {
            for j in [0, 1, 7] {
                assert_eq!(&*file_path(Entry::Shard(j), i), format!("s{j}>f{i}"));
            }
            assert_eq!(&*file_path(Entry::Mig, i), format!("mig>f{i}"));
        }
    }
}
