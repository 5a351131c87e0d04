//! The gatekeeper: kernel assembly, the user-callable gates, fault
//! dispatch, and the upward-signal trampoline.
//!
//! [`Kernel`] owns the machine and every object manager, and exposes the
//! deliberately small set of user-callable **gates**
//! ([`Kernel::USER_GATES`]) — the paper's point that extracting the
//! linker, name space, answering service and network code "had a very
//! strong effect in reducing the complexity of the interface that the
//! user sees to the kernel". Pathname expansion, linking, login policy
//! and network protocol all live in `mx-user`, composed from these
//! gates.
//!
//! The gatekeeper also hosts the two fault paths the new hardware
//! enables — the descriptor-lock missing-page path and the quota-trap
//! path — and the trampoline that consumes [`Signal`]s: when a gate call
//! or fault service returns `Err(Upward(sig))`, every kernel frame below
//! has already finished its work; the trampoline invokes the directory
//! manager to record the move, then re-executes the original request.

use crate::core_segment::CoreSegmentManager;
use crate::demux::{DemuxManager, FramingSpec, StreamId};
use crate::directory::{DirectoryManager, FsCtx};
use crate::disk_record::DiskRecordManager;
use crate::error::{KernelError, Signal};
use crate::known_segment::{KnownSegmentManager, MAX_SEGNO};
use crate::page_frame::PageFrameManager;
use crate::quota_cell::QuotaCellManager;
use crate::segment::SegmentManager;
use crate::types::{Acl, ObjToken, ProcessId, SegUid, UserId};
use crate::user_process::{Dispatch, KernelEvent, UserProcessManager};
use crate::vproc::{VirtualProcessorManager, VpId, VP_SWITCH_CYCLES};
use mx_aim::{FlowTracker, Label, ReferenceMonitor};
use mx_hw::cpu::{DescBase, Ptw, Sdw};
use mx_hw::interp::{self, ProgramRun};
use mx_hw::meter::{CounterSet, Subsystem};
use mx_hw::{Fault, HwFeatures, Machine, Name, ProcessorId, VirtAddr, Word};
use std::collections::HashMap;

/// Virtual processors (the first three are kernel-bound).
const VPS: u32 = 6;

/// Real-memory event queue capacity.
const EVENT_QUEUE: usize = 64;

/// Seed for the identifier secret (deterministic experiments).
const SEED: u64 = 0x6b65_726e_656c;

/// Bootload configuration for Kernel/Multics: the one both designs boot
/// from. The kernel boots it on [`HwFeatures::KERNEL_PROPOSED`].
pub use mx_hw::BootConfig as KernelConfig;

/// Gatekeeper counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Missing-segment faults dispatched.
    pub segment_faults: u64,
    /// Missing-page faults dispatched (lock-bit protocol).
    pub page_faults: u64,
    /// Locked-descriptor exceptions (waited on the page eventcount).
    pub locked_waits: u64,
    /// Hardware quota exceptions dispatched.
    pub quota_faults: u64,
    /// Upward signals consumed by the trampoline.
    pub trampolines: u64,
}

impl KernelStats {
    /// Renders the counters into the shared registry form, so kernel and
    /// legacy statistics report through one interface.
    pub fn counters(&self) -> CounterSet {
        let mut cs = CounterSet::new();
        cs.set("segment_faults", self.segment_faults);
        cs.set("page_faults", self.page_faults);
        cs.set("locked_waits", self.locked_waits);
        cs.set("quota_faults", self.quota_faults);
        cs.set("trampolines", self.trampolines);
        cs
    }
}

#[derive(Debug, Clone)]
struct Account {
    user: UserId,
    password_hash: u64,
    clearance: Label,
    charge_units: u64,
}

/// Kernel/Multics, assembled.
#[derive(Debug)]
pub struct Kernel {
    /// The machine (with the paper's proposed hardware additions).
    pub machine: Machine,
    /// Core segment manager (sealed after boot).
    pub csm: CoreSegmentManager,
    /// Virtual processor manager.
    pub vpm: VirtualProcessorManager,
    /// Disk record manager.
    pub drm: DiskRecordManager,
    /// Quota cell manager.
    pub qcm: QuotaCellManager,
    /// Page frame manager.
    pub pfm: PageFrameManager,
    /// Segment manager.
    pub segm: SegmentManager,
    /// Known segment manager.
    pub ksm: KnownSegmentManager,
    /// Directory manager.
    pub dirm: DirectoryManager,
    /// User process manager.
    pub upm: UserProcessManager,
    /// Network-independent demultiplexer.
    pub demux: DemuxManager,
    /// AIM reference monitor.
    pub monitor: ReferenceMonitor,
    /// Observed information flows.
    pub flows: FlowTracker,
    /// Gatekeeper counters.
    pub stats: KernelStats,
    accounts: HashMap<String, Account>,
    processes_dir: ObjToken,
    state_counter: u64,
    /// The eventcounts [`Kernel::ec_create`] issued, ascending: the only
    /// ones the user eventcount gates accept. The managers' own
    /// eventcounts share the table and are not among them.
    user_eventcounts: Vec<mx_sync::sim::EcId>,
    /// In-progress incremental salvage, if any (see
    /// [`Kernel::begin_online_salvage`]). While set, gates into
    /// unreleased directories surface [`KernelError::SalvageBusy`].
    pub(crate) online: Option<mx_hw::salvage::Online<Kernel>>,
}

macro_rules! ctx {
    ($k:expr) => {
        FsCtx {
            machine: &mut $k.machine,
            drm: &mut $k.drm,
            qcm: &mut $k.qcm,
            pfm: &mut $k.pfm,
            vpm: &mut $k.vpm,
            segm: &mut $k.segm,
            flows: &mut $k.flows,
            monitor: &mut $k.monitor,
        }
    };
}
pub(crate) use ctx;

impl Kernel {
    /// The user-callable gates — the whole protected interface.
    ///
    /// Eighteen names, against the old supervisor's 157 user gates: the
    /// interface-shrinking effect the paper attributes to moving the
    /// linker, name space, answering service and network code out.
    pub const USER_GATES: &'static [&'static str] = &[
        "login_residue",
        "logout_residue",
        "dir_search",
        "initiate",
        "terminate",
        "create_entry",
        "delete_entry",
        "list_dir",
        "set_quota",
        "clear_quota",
        "read_word",
        "write_word",
        "segment_meta",
        "ec_create",
        "ec_advance",
        "ec_read",
        "demux_claim",
        "demux_read",
    ];

    /// The kernel assembled on `machine`: core segments, virtual
    /// processors, the cell table, the page-frame manager, the directory
    /// manager `dirm` builds on them (the cold bootload's root step or
    /// the recovery bootload's walk) and the process manager.
    fn assemble(
        config: &KernelConfig,
        mut machine: Machine,
        dirm: impl FnOnce(&mut FsCtx<'_>) -> Result<DirectoryManager, KernelError>,
    ) -> Result<Self, KernelError> {
        // Core segments live just above frame 0 (scratch); cap the
        // region at half of core so a pageable pool always remains.
        let mut csm = CoreSegmentManager::new(1, (config.frames / 2) as u32);
        let mut vpm = VirtualProcessorManager::new(&mut csm, VPS).expect("core for VP states");
        vpm.bind_kernel(VpId(0), "user-scheduler");
        vpm.bind_kernel(VpId(1), "page-purifier");
        vpm.bind_kernel(VpId(2), "core-manager");
        let mut qcm = QuotaCellManager::new(&mut csm).expect("core for the cell table");
        qcm.bind_table_base(&csm);
        let mut pfm = PageFrameManager::new(&mut csm, &mut vpm, config.pt_slots)
            .expect("core for the page-table pool");

        // The per-processor system address space (second descriptor base
        // register): segment 0 of every processor maps the kernel
        // communication core segment.
        let sys_comm = csm.allocate(1).expect("core for the comm segment");
        let sys_tables = csm.allocate(1).expect("core for the system tables");
        let comm_frame = csm.addr(sys_comm, 0).frame();
        let pt_addr = csm.addr(sys_tables, 0);
        machine.mem.write(
            pt_addr,
            Ptw {
                frame: comm_frame,
                present: true,
                wired: true,
                used: true,
                ..Ptw::default()
            }
            .encode(),
        );
        let dt_addr = csm.addr(sys_tables, 512);
        machine.mem.write(
            dt_addr,
            Sdw {
                page_table: pt_addr,
                bound_pages: 1,
                read: true,
                write: true,
                execute: true,
                present: true,
                software: false,
            }
            .encode(),
        );
        for cpu in &mut machine.cpus {
            cpu.dbr_system = Some(DescBase {
                base: dt_addr,
                len: 1,
            });
            cpu.system_segno_limit = 1;
        }

        csm.seal();
        let dseg_base = csm.end_frame();
        let wired_end = dseg_base + config.max_processes;
        assert!(
            (wired_end as usize) + 8 <= config.frames,
            "configuration leaves fewer than 8 pageable frames"
        );
        pfm.set_pageable_region(wired_end, config.frames as u32);

        let mut drm = DiskRecordManager::new();
        let mut segm = SegmentManager::new();
        let mut flows = FlowTracker::new();
        let mut monitor = ReferenceMonitor::new();
        let dirm = dirm(&mut FsCtx {
            machine: &mut machine,
            drm: &mut drm,
            qcm: &mut qcm,
            pfm: &mut pfm,
            vpm: &mut vpm,
            segm: &mut segm,
            flows: &mut flows,
            monitor: &mut monitor,
        })?;
        let upm = UserProcessManager::new(&mut vpm, dseg_base, config.max_processes, EVENT_QUEUE);
        Ok(Self {
            machine,
            csm,
            vpm,
            drm,
            qcm,
            pfm,
            segm,
            ksm: KnownSegmentManager::new(),
            dirm,
            upm,
            demux: DemuxManager::new(),
            monitor,
            flows,
            stats: KernelStats::default(),
            accounts: HashMap::new(),
            processes_dir: ObjToken(0),
            state_counter: 0,
            user_eventcounts: Vec::new(),
            online: None,
        })
    }

    /// Creates the well-known `>processes` directory.
    fn create_processes_dir(&mut self) -> Result<ObjToken, KernelError> {
        let root = self.dirm.root_token();
        self.with_retries(|k| {
            k.dirm.create(
                &mut ctx!(k),
                UserId(0),
                Label::BOTTOM,
                root,
                "processes",
                Acl::owner(UserId(0)),
                Label::BOTTOM,
                true,
            )
        })
    }

    /// Bootloads Kernel/Multics.
    ///
    /// # Panics
    ///
    /// Panics if the configuration leaves fewer than eight pageable
    /// frames.
    pub fn boot(config: KernelConfig) -> Self {
        let machine = Machine::new(config.machine(HwFeatures::KERNEL_PROPOSED));
        let mut kernel = Self::assemble(&config, machine, |fs| {
            DirectoryManager::new(fs, SEED, config.root_quota)
        })
        .expect("root directory");
        kernel.processes_dir = kernel.create_processes_dir().expect("processes directory");
        kernel
    }

    /// Bootloads with the default configuration.
    pub fn boot_default() -> Self {
        Self::boot(KernelConfig::default())
    }

    /// Bootloads Kernel/Multics on the machine that crashed — the crash
    /// recovery path. Only its packs survive ([`Machine::restart`]). No
    /// root directory is created; the hierarchy is rebuilt by walking
    /// the image's own directory segments (the root is the pack-0 TOC
    /// entry recording uid 1). Entries the crash tore are left for
    /// [`Kernel::salvage`] to report and repair.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoEntry`] if pack 0 records no root directory;
    /// storage errors walking the image.
    pub fn boot_from_image(config: KernelConfig, crashed: Machine) -> Result<Self, KernelError> {
        let machine = crashed.restart(config.machine(HwFeatures::KERNEL_PROPOSED));
        let pack = mx_hw::PackId(0);
        let root = machine
            .disks
            .pack(pack)
            .ok()
            .and_then(|p| p.entries().find(|(_, e)| e.uid == 1).map(|(toc, _)| toc));
        let root_home = crate::types::DiskHome {
            pack,
            toc: root.ok_or(KernelError::NoEntry)?,
        };
        let mut kernel = Self::assemble(&config, machine, |fs| {
            DirectoryManager::recover(fs, SEED, root_home)
        })?;
        // Refind the well-known `>processes` directory (recreate it if
        // the crash predated it).
        let root_uid = kernel.dirm.root();
        let existing =
            kernel.with_retries(|k| k.dirm.lookup_in(&mut ctx!(k), root_uid, "processes"))?;
        if let Some(puid) = existing {
            // Surviving state segments hold names `proc-N`; resume the
            // counter past them so new processes never collide.
            let entries = kernel.with_retries(|k| k.salvage_dir_entries(puid))?;
            for (_, name, ..) in entries {
                if let Some(n) = name
                    .strip_prefix("proc-")
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    kernel.state_counter = kernel.state_counter.max(n);
                }
            }
        }
        kernel.processes_dir = match existing {
            Some(uid) => kernel.dirm.token_for(uid),
            None => kernel.create_processes_dir()?,
        };
        // The recovery walk itself dispatched VPs and queued events; a
        // recovered system's load probes must start the new epoch clean
        // rather than inherit the boot traffic (let alone look like the
        // pre-crash instance's figures to a harness that re-reads them).
        kernel.reset_load_probes();
        Ok(kernel)
    }

    /// Restarts the load-observability probes — run-queue delay and the
    /// real-memory event-queue high watermark — at the current instant.
    ///
    /// [`Kernel::boot_from_image`] calls this so post-recovery epochs
    /// report their own figures; measurement harnesses call it at any
    /// epoch boundary of their choosing (after salvage, say, whose
    /// paging traffic is not user load).
    pub fn reset_load_probes(&mut self) {
        self.vpm.reset_queue_delay();
        self.upm.reset_queue_high_watermark();
    }

    /// The root directory token (the starting point user name-space
    /// code composes searches from).
    pub fn root_token(&mut self) -> ObjToken {
        self.dirm.root_token()
    }

    fn charge_gate(&mut self) {
        let cost = self.machine.cost;
        let g = self.machine.clock.enter(Subsystem::Gatekeeper);
        self.machine.clock.charge_gate(&cost);
        self.machine.clock.exit(g);
    }

    /// Runs `f` with all its cycle charges attributed to `subsystem` —
    /// the metering discipline every gate body and fault path follows.
    fn scoped<T>(&mut self, subsystem: Subsystem, f: impl FnOnce(&mut Self) -> T) -> T {
        let g = self.machine.clock.enter(subsystem);
        let result = f(self);
        self.machine.clock.exit(g);
        result
    }

    /// A deliberate layering violation for the lattice gate's planted
    /// self-check: page control invoking the answering service — the
    /// upward edge the lattice forbids. No real path calls this; it
    /// exists so G1 can prove the gate catches a cheat it knows about.
    #[doc(hidden)]
    pub fn plant_lattice_cheat_for_test(&mut self) {
        self.scoped(Subsystem::PageControl, |k| {
            k.scoped(Subsystem::AnsweringService, |k| {
                k.machine.clock.charge(1);
            });
        });
    }

    // ---- the upward-signal trampoline ------------------------------------

    /// Runs a kernel operation, consuming any upward signals it raises
    /// and re-executing it — the gatekeeper trampoline.
    pub(crate) fn with_retries<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, KernelError>,
    ) -> Result<T, KernelError> {
        for _ in 0..6 {
            match f(self) {
                Err(KernelError::Upward(sig)) => self.consume_signal(sig)?,
                other => return other,
            }
        }
        Err(KernelError::NotActive)
    }

    /// Consumes one upward signal: the directory manager records the
    /// move; the KSTs refresh their cached homes.
    fn consume_signal(&mut self, sig: Signal) -> Result<(), KernelError> {
        self.scoped(Subsystem::DirectoryControl, |k| {
            k.stats.trampolines += 1;
            match sig {
                Signal::SegmentMoved { uid, new_home } => {
                    // Recording the move writes the parent directory, which
                    // can itself grow and move: consume nested signals.
                    for _ in 0..6 {
                        match k.dirm.record_move(&mut ctx!(k), uid, new_home) {
                            Ok(()) => {
                                k.ksm.refresh_home(uid, new_home);
                                k.salvage_note_relocated(new_home);
                                return Ok(());
                            }
                            Err(KernelError::Upward(inner)) => k.consume_signal(inner)?,
                            Err(e) => return Err(e),
                        }
                    }
                    Err(KernelError::NotActive)
                }
            }
        })
    }

    // ---- accounts and processes (the answering-service residue) ----------

    /// Registers an account (system administration, not a user gate).
    pub fn register_account(
        &mut self,
        name: &str,
        user: UserId,
        password_hash: u64,
        clearance: Label,
    ) {
        self.accounts.insert(
            name.to_string(),
            Account {
                user,
                password_hash,
                clearance,
                charge_units: 0,
            },
        );
    }

    /// The login residue gate: verifies the (already hashed) password
    /// and the requested label against the clearance, then creates the
    /// process. All policy, parsing, and accounting presentation live in
    /// the user-domain answering service.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadCredentials`] or [`KernelError::AimViolation`].
    pub fn login_residue(
        &mut self,
        name: &str,
        password_hash: u64,
        label: Label,
    ) -> Result<ProcessId, KernelError> {
        self.charge_gate();
        self.scoped(Subsystem::AnsweringService, |k| {
            // The sub-1000-line protected residue: authentication and the
            // clearance check.
            crate::charge_pli(&mut k.machine, 60);
            let account = k.accounts.get(name).ok_or(KernelError::BadCredentials)?;
            if account.password_hash != password_hash {
                return Err(KernelError::BadCredentials);
            }
            if !account.clearance.dominates(label) {
                return Err(KernelError::AimViolation);
            }
            let user = account.user;
            k.create_process(user, label)
        })
    }

    /// The logout residue gate: destroys the process and returns its
    /// final charge, billing the account.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`].
    pub fn logout_residue(&mut self, name: &str, pid: ProcessId) -> Result<u64, KernelError> {
        self.charge_gate();
        self.scoped(Subsystem::AnsweringService, |k| {
            crate::charge_pli(&mut k.machine, 15);
            let charge = k.destroy_process(pid)?;
            if let Some(account) = k.accounts.get_mut(name) {
                account.charge_units += charge;
            }
            Ok(charge)
        })
    }

    /// Accumulated billing for an account.
    pub fn account_charge(&self, name: &str) -> Option<u64> {
        self.accounts.get(name).map(|a| a.charge_units)
    }

    /// Creates a process with a KST and a swappable state segment under
    /// `>processes`.
    ///
    /// # Errors
    ///
    /// Table exhaustion from below.
    pub fn create_process(&mut self, user: UserId, label: Label) -> Result<ProcessId, KernelError> {
        self.scoped(Subsystem::ProcessControl, |k| {
            // The state segment lives under `>processes`; a quarantined
            // processes directory must fail typed *before* any process
            // state is built.
            let processes_dir = k.processes_dir;
            k.salvage_barrier(processes_dir)?;
            crate::charge_pli(&mut k.machine, 240);
            let pid = k.upm.create(&mut k.machine, user, label)?;
            k.ksm.create_kst(pid);
            k.state_counter += 1;
            let name = Name::new("proc-").num(k.state_counter);
            let processes_dir = k.processes_dir;
            let token = k.with_retries(|k| {
                k.dirm.create(
                    &mut ctx!(k),
                    UserId(0),
                    Label::BOTTOM,
                    processes_dir,
                    &name,
                    Acl::owner(user),
                    label,
                    false,
                )
            })?;
            let uid = k
                .dirm
                .resolve_token(token)
                .ok_or(KernelError::Salvage("fresh token did not resolve"))?;
            k.salvage_note_created(uid, false);
            k.upm.set_state_seg(pid, uid)?;
            Ok(pid)
        })
    }

    /// Destroys a process, returning its final accounting charge.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`].
    pub fn destroy_process(&mut self, pid: ProcessId) -> Result<u64, KernelError> {
        self.scoped(Subsystem::ProcessControl, |k| {
            k.ksm.destroy_kst(pid);
            k.upm.destroy(pid)
        })
    }

    // ---- directory gates ---------------------------------------------------

    /// What every gate on a directory or its entries does around its
    /// body: charges the gate, stops at the salvage barrier on `token`,
    /// then runs `body` in `subsystem`'s meter scope as the process's
    /// user at its label, through the trampoline.
    fn dir_gate<T>(
        &mut self,
        pid: ProcessId,
        token: ObjToken,
        subsystem: Subsystem,
        mut body: impl FnMut(&mut Self, UserId, Label) -> Result<T, KernelError>,
    ) -> Result<T, KernelError> {
        self.charge_gate();
        self.salvage_barrier(token)?;
        self.scoped(subsystem, |k| {
            let user = k.upm.user_of(pid)?;
            let label = k.upm.label_of(pid)?;
            k.with_retries(|k| body(k, user, label))
        })
    }

    /// The single-directory search gate.
    ///
    /// # Errors
    ///
    /// Per [`DirectoryManager::search`].
    pub fn dir_search(
        &mut self,
        pid: ProcessId,
        dir: ObjToken,
        name: &str,
    ) -> Result<ObjToken, KernelError> {
        self.dir_gate(pid, dir, Subsystem::DirectoryControl, |k, user, label| {
            k.dirm.search(&mut ctx!(k), user, label, dir, name)
        })
    }

    /// The initiate gate: makes the object behind a token known.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`], uniformly, for mythical or forbidden
    /// tokens.
    pub fn initiate(&mut self, pid: ProcessId, token: ObjToken) -> Result<u32, KernelError> {
        // The barrier only bars tokens naming a quarantined *directory*:
        // plain segments serve as soon as their parent (the only path to
        // a token for them) is released.
        self.dir_gate(pid, token, Subsystem::SegmentControl, |k, user, label| {
            k.dirm
                .initiate(&mut ctx!(k), &mut k.ksm, pid, user, label, token)
        })
    }

    /// The terminate gate: unbinds a segment number.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`] if the segno is unknown.
    pub fn terminate(&mut self, pid: ProcessId, segno: u32) -> Result<(), KernelError> {
        self.charge_gate();
        self.scoped(Subsystem::SegmentControl, |k| {
            let entry = k.ksm.unbind(pid, segno)?;
            // Cut this process's SDW.
            if let Ok(frame) = k.upm.dseg_frame(pid) {
                let sdw_addr = frame.base().add(u64::from(segno));
                k.machine.clock.note_shared_data(Subsystem::SegmentControl);
                k.machine.mem.write(sdw_addr, Sdw::default().encode());
                k.machine.tlb_invalidate_sdw(sdw_addr);
            }
            let _ = entry;
            Ok(())
        })
    }

    /// The create gate.
    ///
    /// # Errors
    ///
    /// Per [`DirectoryManager::create`].
    #[allow(clippy::too_many_arguments)]
    pub fn create_entry(
        &mut self,
        pid: ProcessId,
        dir: ObjToken,
        name: &str,
        acl: Acl,
        label: Label,
        is_dir: bool,
    ) -> Result<ObjToken, KernelError> {
        self.dir_gate(pid, dir, Subsystem::DirectoryControl, |k, user, plabel| {
            let acl = acl.clone();
            let token = k
                .dirm
                .create(&mut ctx!(k), user, plabel, dir, name, acl, label, is_dir)?;
            if let Some(uid) = k.dirm.resolve_token(token) {
                k.salvage_note_created(uid, is_dir);
            }
            Ok(token)
        })
    }

    /// The delete gate.
    ///
    /// # Errors
    ///
    /// Per [`DirectoryManager::delete`].
    pub fn delete_entry(
        &mut self,
        pid: ProcessId,
        dir: ObjToken,
        name: &str,
    ) -> Result<(), KernelError> {
        self.dir_gate(pid, dir, Subsystem::DirectoryControl, |k, user, plabel| {
            let mut fs = ctx!(k);
            // Structural modification of a quarantined subtree is
            // barred: deleting a not-yet-salvaged child directory
            // through its (released) parent would pull the frontier out
            // from under the salvager.
            if let Some(o) = k.online.as_ref() {
                if let Some(duid) = k.dirm.resolve_token(dir) {
                    if let Some(cuid) = k.dirm.lookup_in(&mut fs, duid, name)? {
                        let child_is_dir = k
                            .dirm
                            .activation_info(cuid)
                            .map(|(_, _, d, _)| d)
                            .unwrap_or(false);
                        if child_is_dir && !o.is_released(cuid) {
                            return Err(KernelError::SalvageBusy);
                        }
                    }
                }
            }
            k.dirm.delete(&mut fs, &mut k.ksm, user, plabel, dir, name)
        })
    }

    /// The list gate.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`] for unreadable directories.
    pub fn list_dir(&mut self, pid: ProcessId, dir: ObjToken) -> Result<Vec<String>, KernelError> {
        self.dir_gate(pid, dir, Subsystem::DirectoryControl, |k, user, label| {
            k.dirm.list(&mut ctx!(k), user, label, dir)
        })
    }

    /// The quota-designation gate (childless directories only).
    ///
    /// # Errors
    ///
    /// Per [`DirectoryManager::set_quota_directory`].
    pub fn set_quota(
        &mut self,
        pid: ProcessId,
        dir: ObjToken,
        limit: u32,
    ) -> Result<(), KernelError> {
        self.dir_gate(pid, dir, Subsystem::DirectoryControl, |k, user, label| {
            k.dirm
                .set_quota_directory(&mut ctx!(k), user, label, dir, limit)
        })
    }

    /// The quota-removal gate (childless, uncharged only).
    ///
    /// # Errors
    ///
    /// Per [`DirectoryManager::clear_quota_directory`].
    pub fn clear_quota(&mut self, pid: ProcessId, dir: ObjToken) -> Result<(), KernelError> {
        self.dir_gate(pid, dir, Subsystem::DirectoryControl, |k, user, label| {
            k.dirm.clear_quota_directory(&mut ctx!(k), user, label, dir)
        })
    }

    // ---- memory reference gates (the ordinary data path) -------------------

    /// Reads one word as a process, through real address translation,
    /// with the gatekeeper servicing any faults.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`] on protection violations; quota and
    /// storage errors otherwise.
    pub fn read_word(
        &mut self,
        pid: ProcessId,
        segno: u32,
        wordno: u32,
    ) -> Result<Word, KernelError> {
        self.user_access(pid, segno, wordno, false, Word::ZERO)
            .map(|w| w.expect("read value"))
    }

    /// Writes one word as a process.
    ///
    /// # Errors
    ///
    /// As [`Kernel::read_word`].
    pub fn write_word(
        &mut self,
        pid: ProcessId,
        segno: u32,
        wordno: u32,
        value: Word,
    ) -> Result<(), KernelError> {
        self.user_access(pid, segno, wordno, true, value)
            .map(|_| ())
    }

    /// The real processor a process's memory references translate
    /// through. A process bound to the *k*-th user VP runs on CPU
    /// `k mod cpus`; an unbound process defaults to `pid mod cpus`. A
    /// lone process always binds the first user VP, so single-session
    /// workloads never leave CPU 0 — but a loaded system spreads its
    /// processes across every configured processor.
    pub fn cpu_for(&self, pid: ProcessId) -> ProcessorId {
        let n = self.machine.cpu_count() as u32;
        let rank = self.upm.vp_of(pid).and_then(|vp| self.vpm.user_rank(vp));
        ProcessorId(rank.unwrap_or(pid.0) % n)
    }

    fn user_access(
        &mut self,
        pid: ProcessId,
        segno: u32,
        wordno: u32,
        write: bool,
        value: Word,
    ) -> Result<Option<Word>, KernelError> {
        let frame = self.upm.dseg_frame(pid)?;
        let cpu = self.cpu_for(pid);
        self.machine.cpus[cpu.0 as usize].dbr_user = Some(DescBase {
            base: frame.base(),
            len: MAX_SEGNO,
        });
        let va = VirtAddr::new(segno, wordno);
        for _ in 0..12 {
            let attempt = if write {
                self.machine.write(cpu, va, value).map(|()| None)
            } else {
                self.machine.read(cpu, va).map(Some)
            };
            match attempt {
                Ok(w) => {
                    self.machine.cpus[cpu.0 as usize].retire_op();
                    return Ok(w);
                }
                Err(fault) => match self.dispatch_fault(pid, fault) {
                    Ok(()) => {}
                    Err(KernelError::Upward(sig)) => self.consume_signal(sig)?,
                    Err(e) => return Err(e),
                },
            }
        }
        Err(KernelError::UnhandledFault(Fault::BadDescriptor { va }))
    }

    /// The gatekeeper fault dispatcher.
    fn dispatch_fault(&mut self, pid: ProcessId, fault: Fault) -> Result<(), KernelError> {
        match fault {
            Fault::MissingSegment { va } => self.scoped(Subsystem::SegmentControl, |k| {
                k.stats.segment_faults += 1;
                k.segment_fault(pid, va.segno)
            }),
            Fault::MissingPage { descriptor, .. } => self.scoped(Subsystem::PageControl, |k| {
                k.stats.page_faults += 1;
                let (handle, pageno) = k
                    .pfm
                    .identify(descriptor)
                    .ok_or(KernelError::UnhandledFault(fault))?;
                k.pfm.service_missing(
                    &mut k.machine,
                    &mut k.drm,
                    &mut k.qcm,
                    &mut k.vpm,
                    handle,
                    pageno,
                )?;
                // The service completion flows upward through the
                // real-memory queue; the faulting process gave up its
                // virtual processor while the transfer ran — two cheap
                // VP-level switches, not the old full process switches.
                k.machine.clock.charge(2 * VP_SWITCH_CYCLES);
                k.upm.deliver(&mut k.vpm, KernelEvent::PageServiced { pid });
                k.upm.bill(pid);
                Ok(())
            }),
            Fault::LockedDescriptor { .. } => self.scoped(Subsystem::PageControl, |k| {
                // Another processor's service is in flight. Consult the
                // wakeup-waiting switch, then wait on the page
                // eventcount (already advanced in this serial
                // simulation, so the wait never blocks — but the cheap
                // VP switch is charged).
                k.stats.locked_waits += 1;
                // The switch consulted is the *faulting process's own*
                // processor — a wakeup posted for another CPU's process
                // must never be consumed here.
                let cpu = k.cpu_for(pid);
                let woken = k.machine.cpus[cpu.0 as usize].take_wakeup_waiting();
                if !woken {
                    k.machine.clock.charge(VP_SWITCH_CYCLES);
                }
                Ok(())
            }),
            Fault::QuotaTrap { va, .. } => self.scoped(Subsystem::PageControl, |k| {
                k.stats.quota_faults += 1;
                let subject = k.upm.label_of(pid)?;
                k.ksm.quota_exception(
                    &mut k.machine,
                    &mut k.drm,
                    &mut k.qcm,
                    &mut k.pfm,
                    &mut k.segm,
                    &mut k.flows,
                    pid,
                    va.segno,
                    va.pageno(),
                    subject,
                )
            }),
            Fault::AccessViolation { .. } => Err(KernelError::NoAccess),
            Fault::BoundsViolation { .. } => Err(KernelError::SegmentTooBig),
            other => Err(KernelError::UnhandledFault(other)),
        }
    }

    /// Missing segment: activate from the KST entry (no directory
    /// involved) and connect the SDW.
    fn segment_fault(&mut self, pid: ProcessId, segno: u32) -> Result<(), KernelError> {
        crate::charge_pli(&mut self.machine, 30);
        let entry = self.ksm.lookup(pid, segno)?.clone();
        let handle = self.segm.activate(
            &mut self.machine,
            &mut self.drm,
            &mut self.qcm,
            &mut self.pfm,
            entry.uid,
            entry.home,
            entry.cell,
            entry.is_dir,
            entry.label,
        )?;
        let sdw = Sdw {
            page_table: self.pfm.pt_addr(handle),
            bound_pages: crate::page_frame::PT_WORDS,
            read: entry.read,
            write: entry.write,
            execute: entry.execute,
            present: true,
            software: entry.is_dir,
        };
        let frame = self.upm.dseg_frame(pid)?;
        let sdw_addr = frame.base().add(u64::from(segno));
        self.machine
            .clock
            .note_shared_data(Subsystem::SegmentControl);
        self.machine.mem.write(sdw_addr, sdw.encode());
        self.machine.tlb_invalidate_sdw(sdw_addr);
        self.segm.register_connection(entry.uid, sdw_addr)?;
        Ok(())
    }

    /// Metadata gate: (length in pages, records charged) of an initiated
    /// segment.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`] if the segno is unknown.
    pub fn segment_meta(&mut self, pid: ProcessId, segno: u32) -> Result<(u32, u32), KernelError> {
        self.charge_gate();
        self.scoped(Subsystem::SegmentControl, |k| {
            let entry = k.ksm.lookup(pid, segno)?.clone();
            let home = k.dirm.home_of(entry.uid).unwrap_or(entry.home);
            Ok((
                k.drm.len_pages(&k.machine, home)?,
                k.drm.records_used(&k.machine, home)?,
            ))
        })
    }

    // ---- scheduling and daemons ----------------------------------------------

    /// One pass of the two-level scheduler: drain upward events, pick
    /// the next process, dispatch its VP (cheap) or load it (touching
    /// its state segment in the virtual memory).
    ///
    /// Returns the dispatch decision, if any process is ready.
    pub fn schedule(&mut self) -> Option<Dispatch> {
        self.scoped(Subsystem::Scheduler, |k| {
            let _events = k.upm.drain_events();
            let d = k.upm.dispatch(&mut k.vpm)?;
            // The VP-level switch is always charged (cheap, core-resident).
            k.vpm
                .dispatch(&k.csm, &mut k.machine.mem, &mut k.machine.clock);
            if !d.already_loaded {
                // A true process switch: bring the state segment in.
                if let Ok(Some(state_uid)) = k.upm.state_seg(d.pid) {
                    if let Some((home, cell, is_dir, label)) = k.dirm.activation_info(state_uid) {
                        let _ = k.segm.activate(
                            &mut k.machine,
                            &mut k.drm,
                            &mut k.qcm,
                            &mut k.pfm,
                            state_uid,
                            home,
                            cell,
                            is_dir,
                            label,
                        );
                        let _ = k.segm.read_word(
                            &mut k.machine,
                            &mut k.drm,
                            &mut k.qcm,
                            &mut k.pfm,
                            &mut k.vpm,
                            &mut k.flows,
                            state_uid,
                            0,
                            label,
                        );
                    }
                }
                let cost = k.machine.cost;
                k.machine.clock.charge_process_switch(&cost);
            }
            Some(d)
        })
    }

    /// Deactivates every active segment, flushing all dirty pages and
    /// persisting every quota cell to its TOC entry — the clean-shutdown
    /// sweep. After it returns, the disk image alone reconstructs the
    /// system (see [`Kernel::boot_from_image`]).
    ///
    /// # Errors
    ///
    /// Disk errors from the write-back path.
    pub fn sync_to_disk(&mut self) -> Result<(), KernelError> {
        self.scoped(Subsystem::SegmentControl, |k| {
            for uid in k.segm.active_uids() {
                k.segm
                    .deactivate(&mut k.machine, &mut k.drm, &mut k.qcm, &mut k.pfm, uid)?;
            }
            Ok(())
        })
    }

    /// Runs up to `steps` units of the page-purifier daemon (the
    /// low-priority write-behind). Returns how many units did work.
    ///
    /// # Errors
    ///
    /// Disk errors from the write-back path.
    pub fn run_purifier(&mut self, steps: usize) -> Result<usize, KernelError> {
        self.scoped(Subsystem::Purifier, |k| {
            let mut done = 0;
            for _ in 0..steps {
                if !k
                    .pfm
                    .purifier_step(&mut k.machine, &mut k.drm, &mut k.qcm)?
                {
                    break;
                }
                done += 1;
            }
            Ok(done)
        })
    }

    /// Installs a schedule policy on the virtual-processor manager's two
    /// choice points (dispatch order and wakeup-drain order).
    ///
    /// The default [`mx_sync::FifoPolicy`] reproduces the historical
    /// order byte-for-byte; the `mx-explore` harness installs seeded or
    /// enumerating policies here to explore alternative interleavings.
    pub fn set_schedule_policy(&mut self, policy: Box<dyn mx_sync::SchedulePolicy>) {
        self.vpm.set_policy(policy);
    }

    // ---- eventcount gates -----------------------------------------------------

    /// Creates a user-visible eventcount.
    pub fn ec_create(&mut self) -> mx_sync::sim::EcId {
        self.charge_gate();
        let ec = self.scoped(Subsystem::Scheduler, |k| k.vpm.create_eventcount());
        self.user_eventcounts.push(ec);
        ec
    }

    /// Advances an eventcount (the broadcast, receiver-blind notify).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchEventcount`] for an id `ec_create` never
    /// issued.
    pub fn ec_advance(&mut self, ec: mx_sync::sim::EcId) -> Result<usize, KernelError> {
        self.charge_gate();
        self.scoped(Subsystem::Scheduler, |k| {
            k.issued(ec)?;
            Ok(k.vpm.advance(ec))
        })
    }

    /// Reads an eventcount.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchEventcount`] for an id `ec_create` never
    /// issued.
    pub fn ec_read(&mut self, ec: mx_sync::sim::EcId) -> Result<u64, KernelError> {
        self.charge_gate();
        self.scoped(Subsystem::Scheduler, |k| {
            k.issued(ec)?;
            Ok(k.vpm.read_eventcount(ec))
        })
    }

    /// Refuses an eventcount id `ec_create` never issued: `EcId` is a
    /// bare number any caller can forge, and the page-frame and process
    /// managers' own eventcounts sit in the same table.
    fn issued(&self, ec: mx_sync::sim::EcId) -> Result<(), KernelError> {
        match self.user_eventcounts.binary_search(&ec) {
            Ok(_) => Ok(()),
            Err(_) => Err(KernelError::NoSuchEventcount),
        }
    }

    // ---- demultiplexer gates ----------------------------------------------------

    /// Attaches a multiplexed stream (privileged, driver-level).
    pub fn demux_attach(&mut self, spec: FramingSpec) -> StreamId {
        self.scoped(Subsystem::Network, |k| k.demux.attach(spec))
    }

    /// Injects a raw frame from the wire (driver-level).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchChannel`].
    pub fn demux_receive(&mut self, stream: StreamId, frame: &[u8]) -> Result<(), KernelError> {
        self.scoped(Subsystem::Network, |k| {
            k.demux.receive(&mut k.upm, &mut k.vpm, stream, frame)
        })
    }

    /// Claims a channel for a process (user gate). The owner may claim
    /// it again; no other process may.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchChannel`]; [`KernelError::ChannelClaimed`]
    /// for a channel another process has claimed.
    pub fn demux_claim(
        &mut self,
        pid: ProcessId,
        stream: StreamId,
        channel: u16,
    ) -> Result<(), KernelError> {
        self.charge_gate();
        self.scoped(Subsystem::Network, |k| {
            k.demux.claim_channel(stream, channel, pid)
        })
    }

    /// Reads a channel's buffered input into `buf` (user gate), as
    /// [`DemuxManager::read_channel`] does. A claimed channel is read
    /// only by its owner; an unclaimed one by any process.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchChannel`]; [`KernelError::ChannelClaimed`]
    /// for a channel another process has claimed.
    pub fn demux_read(
        &mut self,
        pid: ProcessId,
        stream: StreamId,
        channel: u16,
        buf: &mut Vec<u8>,
    ) -> Result<(), KernelError> {
        self.charge_gate();
        self.scoped(Subsystem::Network, |k| {
            k.demux.check_owner(stream, channel, pid)?;
            k.demux.read_channel(stream, channel, buf)
        })
    }

    /// Reads a channel's buffered input into `buf` from *inside* the
    /// kernel — the specialized file-store machine's service path, where
    /// the network daemon is kernel-resident and no gate crossing is
    /// paid. The
    /// general-purpose configuration uses [`Kernel::demux_read`]
    /// instead; the cycle difference between the two paths is exactly
    /// what the T3 estimate prices.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchChannel`].
    pub fn demux_read_resident(
        &mut self,
        stream: StreamId,
        channel: u16,
        buf: &mut Vec<u8>,
    ) -> Result<(), KernelError> {
        self.scoped(Subsystem::Network, |k| {
            k.demux.read_channel(stream, channel, buf)
        })
    }

    /// Reads one word on behalf of a remote machine, from the resident
    /// network service (no gate crossing; faults still serviced through
    /// the ordinary dispatchers, so segment/page activity is attributed
    /// to the network subsystem as the invoking scope).
    ///
    /// # Errors
    ///
    /// As [`Kernel::read_word`].
    pub fn resident_read_word(
        &mut self,
        pid: ProcessId,
        segno: u32,
        wordno: u32,
    ) -> Result<Word, KernelError> {
        self.scoped(Subsystem::Network, |k| {
            k.user_access(pid, segno, wordno, false, Word::ZERO)
                .map(|w| w.expect("read value"))
        })
    }

    // ---- program execution ------------------------------------------------

    /// Runs a user program: repeatedly steps the interpreter on the
    /// process's address space, servicing every fault through the
    /// gatekeeper (including quota exceptions raised by stores into
    /// fresh pages and any upward signals they provoke).
    ///
    /// Returns when the program halts, hits an undecodable word, or
    /// exhausts `max_steps`.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`] and storage errors exactly as data
    /// references raise them.
    pub fn run_program(
        &mut self,
        pid: ProcessId,
        segno: u32,
        start: u32,
        max_steps: u64,
    ) -> Result<ProgramRun, KernelError> {
        let frame = self.upm.dseg_frame(pid)?;
        let cpu = self.cpu_for(pid);
        self.machine.cpus[cpu.0 as usize].dbr_user = Some(DescBase {
            base: frame.base(),
            len: MAX_SEGNO,
        });
        self.machine.cpus[cpu.0 as usize].retire_op();
        let pc = VirtAddr::new(segno, start);
        interp::drive(
            self,
            |k| &mut k.machine,
            cpu,
            pc,
            max_steps,
            |k, fault| match k.dispatch_fault(pid, fault) {
                Err(KernelError::Upward(sig)) => k.consume_signal(sig),
                done => done,
            },
        )
    }

    /// Marker type used by the uid-bearing test helpers.
    pub fn uid_of_token(&self, token: ObjToken) -> Option<SegUid> {
        self.dirm.resolve_token(token)
    }

    /// Charges abstract instructions executed by *user-domain* code —
    /// the simulation accounting hook `mx-user` components use so their
    /// (unprivileged) work shows up on the same clock as the kernel's.
    pub fn charge_user_instructions(&mut self, n: u64, lang: mx_hw::Language) {
        let cost = self.machine.cost;
        self.machine.clock.charge_instructions(&cost, n, lang);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AccessRight;

    /// A gated channel read into a fresh buffer.
    fn read(
        k: &mut Kernel,
        pid: ProcessId,
        stream: StreamId,
        channel: u16,
    ) -> Result<Vec<u8>, KernelError> {
        let mut buf = Vec::new();
        k.demux_read(pid, stream, channel, &mut buf).map(|()| buf)
    }

    fn boot_small() -> Kernel {
        Kernel::boot(KernelConfig {
            frames: 128,
            records_per_pack: 256,
            toc_slots_per_pack: 64,
            pt_slots: 24,
            max_processes: 6,
            root_quota: 200,
            ..KernelConfig::default()
        })
    }

    fn login(k: &mut Kernel, name: &str, user: UserId) -> ProcessId {
        k.register_account(name, user, 42, Label::BOTTOM);
        k.login_residue(name, 42, Label::BOTTOM).unwrap()
    }

    #[test]
    fn boot_and_login_and_touch_a_segment() {
        let mut k = boot_small();
        let pid = login(&mut k, "saltzer", UserId(1));
        let root = k.root_token();
        let token = k
            .create_entry(
                pid,
                root,
                "data",
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                false,
            )
            .unwrap();
        let segno = k.initiate(pid, token).unwrap();
        k.write_word(pid, segno, 5, Word::new(0o123)).unwrap();
        assert_eq!(k.read_word(pid, segno, 5).unwrap(), Word::new(0o123));
        // The path exercised: segment fault, quota trap, page creation.
        assert!(k.stats.segment_faults >= 1);
        assert!(k.stats.quota_faults >= 1);
    }

    #[test]
    fn gate_list_is_small() {
        assert!(
            Kernel::USER_GATES.len() < 25,
            "the kernel interface stays small"
        );
    }

    #[test]
    fn forged_eventcounts_are_refused_with_a_typed_error() {
        let mut k = boot_small();
        let ec = k.ec_create();
        assert_eq!(k.ec_advance(ec), Ok(0));
        let forged = mx_sync::sim::EcId(999);
        assert_eq!(k.ec_read(forged), Err(KernelError::NoSuchEventcount));
        assert_eq!(k.ec_advance(forged), Err(KernelError::NoSuchEventcount));
        assert_eq!(k.ec_read(ec), Ok(1), "a refused advance moves nothing");
        // Ids 0 and 1 are the page-frame manager's page event and the
        // process manager's queue event: in the same table, but not the
        // user's to read or advance.
        let mut own = [k.pfm.page_event.0, k.upm.queue_event.0];
        own.sort_unstable();
        assert_eq!(own, [0, 1]);
        for own in [mx_sync::sim::EcId(0), mx_sync::sim::EcId(1)] {
            let before = k.vpm.read_eventcount(own);
            assert_eq!(k.ec_read(own), Err(KernelError::NoSuchEventcount));
            assert_eq!(k.ec_advance(own), Err(KernelError::NoSuchEventcount));
            assert_eq!(k.vpm.read_eventcount(own), before, "{own:?} moved");
        }
    }

    #[test]
    fn a_claimed_channel_is_read_and_claimed_only_by_its_owner() {
        let mut k = boot_small();
        let owner = login(&mut k, "owner", UserId(1));
        let other = login(&mut k, "other", UserId(2));
        let stream = k.demux_attach(crate::demux::FramingSpec::ARPANET);
        k.demux_claim(owner, stream, 7).unwrap();
        k.demux_receive(stream, &[0, 0, 7, b'h', b'i']).unwrap();
        assert_eq!(
            read(&mut k, other, stream, 7),
            Err(KernelError::ChannelClaimed)
        );
        assert_eq!(
            k.demux_claim(other, stream, 7),
            Err(KernelError::ChannelClaimed)
        );
        // The refused read drained nothing, and the owner may claim again.
        k.demux_claim(owner, stream, 7).unwrap();
        assert_eq!(read(&mut k, owner, stream, 7).unwrap(), b"hi");
        // An unclaimed channel stays open to every process.
        k.demux_receive(stream, &[0, 0, 9, b'x']).unwrap();
        assert_eq!(read(&mut k, other, stream, 9).unwrap(), b"x");
    }

    #[test]
    fn data_survives_flush_through_real_page_faults() {
        let mut k = boot_small();
        let pid = login(&mut k, "clark", UserId(1));
        let root = k.root_token();
        let token = k
            .create_entry(
                pid,
                root,
                "data",
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                false,
            )
            .unwrap();
        let segno = k.initiate(pid, token).unwrap();
        for p in 0..4u32 {
            k.write_word(pid, segno, p * 1024, Word::new(u64::from(p) + 1))
                .unwrap();
        }
        // Force everything out, then fault it back.
        let uid = k.uid_of_token(token).unwrap();
        let handle = k.segm.get(uid).unwrap().handle;
        k.pfm
            .flush(&mut k.machine, &mut k.drm, &mut k.qcm, handle)
            .unwrap();
        let faults_before = k.stats.page_faults;
        for p in 0..4u32 {
            assert_eq!(
                k.read_word(pid, segno, p * 1024).unwrap(),
                Word::new(u64::from(p) + 1)
            );
        }
        assert!(
            k.stats.page_faults > faults_before,
            "reads took real page faults"
        );
    }

    #[test]
    fn acl_and_aim_enforced_through_the_gates() {
        let mut k = boot_small();
        let alice = login(&mut k, "alice", UserId(1));
        let bob = login(&mut k, "bob", UserId(2));
        let root = k.root_token();
        let token = k
            .create_entry(
                alice,
                root,
                "private",
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                false,
            )
            .unwrap();
        // Bob can search the (public) root and obtain the identifier…
        let bob_token = k.dir_search(bob, root, "private").unwrap();
        assert_eq!(bob_token, token, "root is readable: the identifier is real");
        // …but initiation is uniformly refused.
        assert_eq!(
            k.initiate(bob, bob_token).unwrap_err(),
            KernelError::NoAccess
        );
        // A read-only grant lets Bob read but not write.
        let mut acl = Acl::owner(UserId(1));
        acl.grant(UserId(2), &[AccessRight::Read]);
        let t2 = k
            .create_entry(alice, root, "shared", acl, Label::BOTTOM, false)
            .unwrap();
        let alice_segno = k.initiate(alice, t2).unwrap();
        k.write_word(alice, alice_segno, 0, Word::new(7)).unwrap();
        let bob_segno = k.initiate(bob, t2).unwrap();
        assert_eq!(k.read_word(bob, bob_segno, 0).unwrap(), Word::new(7));
        assert_eq!(
            k.write_word(bob, bob_segno, 0, Word::new(9)).unwrap_err(),
            KernelError::NoAccess
        );
    }

    #[test]
    fn recovery_bootload_rebuilds_the_hierarchy_from_disk() {
        let config = KernelConfig {
            frames: 128,
            records_per_pack: 256,
            toc_slots_per_pack: 64,
            pt_slots: 24,
            max_processes: 6,
            root_quota: 200,
            ..KernelConfig::default()
        };
        let mut k = Kernel::boot(config.clone());
        let pid = login(&mut k, "writer", UserId(1));
        let root = k.root_token();
        let dir = k
            .create_entry(pid, root, "d", Acl::owner(UserId(1)), Label::BOTTOM, true)
            .unwrap();
        let f = k
            .create_entry(pid, dir, "f", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let segno = k.initiate(pid, f).unwrap();
        for p in 0..3u32 {
            k.write_word(pid, segno, p * 1024, Word::new(u64::from(p) + 0o100))
                .unwrap();
        }
        k.sync_to_disk().unwrap();
        let crashed = k.machine;

        let mut k2 = Kernel::boot_from_image(config, crashed).unwrap();
        let report = k2.salvage(false).unwrap();
        assert!(
            report.clean(),
            "clean shutdown recovers clean: {:?}",
            report.problems
        );
        let pid2 = login(&mut k2, "reader", UserId(1));
        let root2 = k2.root_token();
        let d2 = k2.dir_search(pid2, root2, "d").unwrap();
        let f2 = k2.dir_search(pid2, d2, "f").unwrap();
        let segno2 = k2.initiate(pid2, f2).unwrap();
        for p in 0..3u32 {
            assert_eq!(
                k2.read_word(pid2, segno2, p * 1024).unwrap(),
                Word::new(u64::from(p) + 0o100)
            );
        }
    }

    #[test]
    fn two_level_scheduler_runs() {
        let mut k = boot_small();
        let a = login(&mut k, "a", UserId(1));
        let b = login(&mut k, "b", UserId(2));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..6 {
            let d = k.schedule().unwrap();
            seen.insert(d.pid);
        }
        assert!(seen.contains(&a) && seen.contains(&b));
        assert!(k.vpm.switches >= 6, "every pass made a cheap VP switch");
    }

    #[test]
    fn processes_spread_across_both_real_processors() {
        let mut k = boot_small();
        let a = login(&mut k, "a", UserId(1));
        let b = login(&mut k, "b", UserId(2));
        // Before any dispatch, the home defaults to pid order.
        assert_eq!(k.cpu_for(a), ProcessorId(0));
        // Bind both: a takes the first user VP (CPU 0), b the second
        // (CPU 1 of the two-processor machine).
        k.schedule();
        k.schedule();
        assert_eq!(k.cpu_for(a), ProcessorId(0));
        assert_eq!(k.cpu_for(b), ProcessorId(1));
        // Memory references land on each process's own processor.
        let root = k.root_token();
        for (pid, user, name) in [(a, UserId(1), "fa"), (b, UserId(2), "fb")] {
            let tok = k
                .create_entry(pid, root, name, Acl::owner(user), Label::BOTTOM, false)
                .unwrap();
            let segno = k.initiate(pid, tok).unwrap();
            k.write_word(pid, segno, 0, Word::new(7)).unwrap();
        }
        let ops = k.machine.ops_retired();
        assert!(
            ops[0] > 0 && ops[1] > 0,
            "both processors retire user work: {ops:?}"
        );
    }

    #[test]
    fn cpu_for_is_the_old_search_for_every_pid() {
        // The definition before the ranks were kept: search the bindings
        // for the process, then the list of user VPs for its VP.
        fn searched(k: &Kernel, pid: ProcessId) -> ProcessorId {
            let n = k.machine.cpu_count() as u32;
            let vp = k.upm.bindings().find(|&(_, p)| p == pid).map(|(vp, _)| vp);
            if let Some(vp) = vp {
                if let Some(ix) = k.vpm.user_vps().iter().position(|v| *v == vp) {
                    return ProcessorId(ix as u32 % n);
                }
            }
            ProcessorId(pid.0 % n)
        }
        let max = 12;
        let mut k = Kernel::boot(KernelConfig {
            max_processes: max,
            ..KernelConfig::default()
        });
        let mut rng = mx_hw::SplitMix64::new(0xC9F0_0001);
        let mut live = Vec::new();
        let (mut bound, mut unbound) = (0, 0);
        for step in 0..400 {
            match rng.below(8) {
                0 | 1 if live.len() < max as usize => {
                    let name = format!("u{step}");
                    live.push(login(&mut k, &name, UserId(1 + step % 250)));
                }
                2 if !live.is_empty() => {
                    let pid = live.swap_remove(rng.below(live.len() as u64) as usize);
                    k.destroy_process(pid).unwrap();
                }
                _ => {
                    k.schedule();
                }
            }
            for pid in (0..max + 2).map(ProcessId) {
                assert_eq!(
                    k.cpu_for(pid),
                    searched(&k, pid),
                    "pid {} step {step}",
                    pid.0
                );
                if k.upm.vp_of(pid).is_some() {
                    bound += 1;
                } else if live.contains(&pid) {
                    unbound += 1;
                }
            }
        }
        assert!(
            bound > 500 && unbound > 500,
            "{bound} bound, {unbound} unbound"
        );
    }

    #[test]
    fn wakeup_for_cpu1_is_never_consumed_by_cpu0() {
        let mut k = boot_small();
        let a = login(&mut k, "a", UserId(1));
        let b = login(&mut k, "b", UserId(2));
        k.schedule();
        k.schedule();
        assert_eq!(k.cpu_for(b), ProcessorId(1), "b is homed on CPU 1");
        // A notification for b arrives between its locked-descriptor
        // exception and the wait primitive: post it on b's processor.
        assert!(k.machine.post_wakeup(k.cpu_for(b)));
        let fault = Fault::LockedDescriptor {
            va: VirtAddr::new(1, 0),
            descriptor: mx_hw::AbsAddr(0),
        };
        // a (CPU 0) hits its own locked descriptor: it must charge the
        // VP switch and leave b's wakeup alone.
        let before = k.machine.clock.now();
        k.dispatch_fault(a, fault).unwrap();
        assert_eq!(
            k.machine.clock.now() - before,
            VP_SWITCH_CYCLES,
            "a was not woken by b's notification"
        );
        assert!(
            k.machine.cpus[1].wakeup_waiting,
            "the wakeup destined for CPU 1 survived CPU 0's wait"
        );
        // b's own wait consumes it without blocking (no switch charge).
        let before = k.machine.clock.now();
        k.dispatch_fault(b, fault).unwrap();
        assert_eq!(k.machine.clock.now(), before, "wakeup-waiting: no block");
        assert!(!k.machine.cpus[1].wakeup_waiting, "consumed exactly once");
    }

    #[test]
    fn logout_bills_the_account() {
        let mut k = boot_small();
        let pid = login(&mut k, "billable", UserId(3));
        k.schedule();
        let charge = k.logout_residue("billable", pid).unwrap();
        assert_eq!(k.account_charge("billable"), Some(charge));
        assert!(k.upm.user_of(pid).is_err());
    }
}
