//! F1 — multi-machine Multics: a sharded fleet behind one answering
//! service.
//!
//! The paper's closing argument is that a kernel small enough to audit
//! is also small enough to *replicate*: several machines, each running
//! the same kernel (or a specialized subset of it), sharing one user
//! community through an inter-machine wire. This module builds that
//! fleet deterministically: M simulated machines, each a full
//! kernel or 1974 supervisor instance, a single front answering service
//! that routes every login, and a simulated wire carrying framed
//! messages between machines through the *existing* network entry
//! points (`demux_receive` on the kernel, `network_receive` on the old
//! supervisor).
//!
//! Determinism contract: the wire delivers frames link-FIFO, and the
//! cross-link delivery order is a [`ChoicePoint::Wire`] consulted on the
//! fleet's schedule policy — so the explorer can permute deliveries and
//! the parity oracle can prove the user-visible stream independent of
//! them. Under the default FIFO policy a fleet run is byte-identical
//! across reruns, and its merged label stream is byte-identical to the
//! single-machine load engine's for the same population.
//!
//! Placement: shard directory `s{j}` lives on machine `j % M`, and the
//! library, the shared segment, and the migration landing zone live on
//! machine 0 (the *store*). Sessions are homed by a seed-keyed hash so
//! remote and local traffic both occur at every machine count. Because
//! the engine executes one logical stream and every quota cell lives on
//! exactly one machine, the per-cell charge sequences — and therefore
//! the user-visible labels — are structurally identical to the
//! single-machine run.

use std::collections::VecDeque;

use crate::design::kernel::KernelDesign;
use crate::design::legacy::LegacyDesign;
use crate::design::{Design, Res, Session};
use crate::hist::Histogram;
use crate::label::{self, Label, Op, Status};
use crate::run::{
    account_name, build_world, drive_until, end_once, exec_once, file_name, logout_once, storm,
    Action, Driver, EngineState, Entry, LoadRun, LoadSpec, SalvageProbe, WorldPlan,
};
use mx_explore::Rig;
use mx_hw::meter::{EdgeSet, MeterSnapshot};
use mx_hw::{DiskSystem, IdMap, Language, ProcessId, Subsystem, Word, PAGE_WORDS};
use mx_sync::{ChoicePoint, FifoPolicy, SchedulePolicy};

// ------------------------------------------------------ wire protocol --

/// Response channel for requests served by machine `t` is `RESP + t`.
const CH_RESP_BASE: u16 = 100;
/// Largest fleet the wire can address: a requester's id is its request
/// channel, which must stay below the first reply channel.
const MAX_MACHINES: usize = CH_RESP_BASE as usize;
/// `Req` carries the session index in two bytes.
const MAX_SESSIONS: usize = 1 << 16;
const PW: u32 = PAGE_WORDS as u32;
/// Fleet housekeeping gossip (load figures, ack-carrying).
const CH_GOSSIP: u8 = 250;
/// Front answering-service admission directives.
pub(crate) const CH_DIRECTIVE: u8 = 251;

/// Every third served request, the serving machine gossips its load
/// figure to the rest of the fleet (and the receivers acknowledge),
/// which is what keeps more than one wire link busy at once — the
/// delivery-order choice points the explorer permutes.
const GOSSIP_EVERY: u64 = 3;

/// PL/I instructions the general store's user-domain command layer
/// spends decoding one remote request before dispatching it.
const CMD_DECODE_INSTR: u64 = 40;
/// Machine instructions the specialized file-store machine's resident
/// dispatch stub spends on the same decision — no command layer, no
/// gate, just a jump table inside the network subsystem.
const RESIDENT_DISPATCH_INSTR: u64 = 8;

const OP_LINK: u8 = 1;
const OP_RESOLVE_LIB: u8 = 2;
const OP_RESOLVE_SHARED: u8 = 3;
const OP_READ_SHARED: u8 = 4;
const OP_RESOLVE_SHARD: u8 = 5;
const OP_GROW: u8 = 6;
const OP_READ_OWN: u8 = 7;
const OP_DELETE_OWN: u8 = 8;
const OP_MIG_OPEN: u8 = 9;
const OP_MIG_WRITE: u8 = 10;
const OP_MIG_COMMIT: u8 = 11;

const ST_OK: u8 = 0;
const ST_QUOTA: u8 = 1;
const ST_FULL: u8 = 2;
const ST_ERR: u8 = 3;

/// Request payload: op, session index, shard, `a`, then `b` — fixed 14
/// bytes so a mangled frame is detectable by length alone.
const REQ_LEN: usize = 14;
/// Response payload: status byte plus a 64-bit value.
const RESP_LEN: usize = 9;
/// The longest frame on the wire: channel and length bytes, then the
/// longest payload, a request.
const FRAME_MAX: usize = 2 + REQ_LEN;
const _: () = assert!(RESP_LEN <= REQ_LEN, "a response frames like a request");

/// A reply's status byte as a label status; `Lost` when no reply came.
fn reply_status(resp: Option<(u8, u64)>) -> Status {
    match resp {
        Some((ST_OK, _)) => Status::Ok,
        Some((ST_QUOTA, _)) => Status::Quota,
        Some((ST_FULL, _)) => Status::Full,
        Some(_) => Status::Err,
        None => Status::Lost,
    }
}

/// Label for an RPC whose reply carries a value (`l:`, `r:`).
fn value_label(op: Op, resp: Option<(u8, u64)>) -> Label {
    match resp {
        Some((ST_OK, v)) => Label::Value(op, v),
        _ => Label::Status(op, reply_status(resp)),
    }
}

/// Label for an RPC whose reply is just an outcome (`n:`, `w:`).
fn ok_label(op: Op, resp: Option<(u8, u64)>) -> Label {
    Label::Status(op, reply_status(resp))
}

/// One remote request, before framing.
#[derive(Debug, Clone, Copy)]
struct Req {
    op: u8,
    idx: usize,
    shard: usize,
    a: u32,
    b: u64,
}

impl Req {
    fn new(op: u8, idx: usize, shard: usize) -> Self {
        Self {
            op,
            idx,
            shard,
            a: 0,
            b: 0,
        }
    }

    fn arg(mut self, a: u32) -> Self {
        self.a = a;
        self
    }

    fn val(mut self, b: u64) -> Self {
        self.b = b;
        self
    }

    fn encode(&self) -> [u8; REQ_LEN] {
        let mut p = [0; REQ_LEN];
        p[..6].copy_from_slice(&[
            self.op,
            self.idx as u8,
            (self.idx >> 8) as u8,
            self.shard as u8,
            self.a as u8,
            (self.a >> 8) as u8,
        ]);
        p[6..].copy_from_slice(&self.b.to_le_bytes());
        p
    }

    fn decode(bytes: &[u8]) -> Self {
        Self {
            op: bytes[0],
            idx: usize::from(u16::from_le_bytes([bytes[1], bytes[2]])),
            shard: usize::from(bytes[3]),
            a: u32::from(u16::from_le_bytes([bytes[4], bytes[5]])),
            b: u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes")),
        }
    }
}

// -------------------------------------------------------------- spec --

/// What fleet to run: machine count, population, and configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Machines in the fleet, 1 to 100 (1 degenerates to the
    /// single-machine engine with the wire idle).
    pub machines: usize,
    /// Scripted sessions, shared with [`LoadSpec`]; at most 65,536.
    pub sessions: usize,
    /// Seed every script and every home assignment expands from.
    pub seed: u64,
    /// Machine 0 runs the specialized file-store configuration: remote
    /// requests are dispatched by a short resident stub under the
    /// network subsystem (no user-domain command layer, no gate on the
    /// read path) — the paper's T3 leg. Kernel design only.
    pub specialized_store: bool,
    /// Home no sessions on machine 0, so the store serves files and
    /// nothing else (requires `machines >= 2`). Used to measure the
    /// specialized-vs-general store comparison cleanly.
    pub dedicated_store: bool,
    /// Give member machines (1..M) small primary packs so file growth
    /// forces full-pack relocation, and migrate each relocated session
    /// file to the store over the wire.
    pub migratory: bool,
    /// Self-check: silently discard the Nth delivered data frame
    /// (1-based). The parity/conservation oracles must catch it.
    pub drop_frame: Option<u64>,
}

impl FleetSpec {
    /// An ample-storage fleet, all flags off.
    pub fn new(machines: usize, sessions: usize, seed: u64) -> Self {
        Self {
            machines,
            sessions,
            seed,
            specialized_store: false,
            dedicated_store: false,
            migratory: false,
            drop_frame: None,
        }
    }

    /// The single-machine spec this fleet's label stream must match.
    pub fn base(&self) -> LoadSpec {
        LoadSpec::new(self.sessions, self.seed)
    }

    /// Session homes: seed-keyed, decorrelated from the shard
    /// assignment (`idx % shards`) so every machine count sees both
    /// local and remote own-file traffic.
    fn homes(&self) -> Vec<usize> {
        (0..self.sessions)
            .map(|idx| home_of(self.seed, idx, self.machines, self.dedicated_store))
            .collect()
    }
}

/// SplitMix64-style finalizer over (seed, idx): uniform, deterministic,
/// and uncorrelated with `idx % shards`.
fn home_of(seed: u64, idx: usize, machines: usize, dedicated: bool) -> usize {
    if machines == 1 {
        return 0;
    }
    let mut z = seed ^ 0xF1EE_7001_D00D_5EED ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if dedicated {
        1 + (z % (machines as u64 - 1)) as usize
    } else {
        (z % machines as u64) as usize
    }
}

// -------------------------------------------------------------- wire --

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Data,
    Directive,
    Gossip,
}

/// One front-end frame, held inline: channel byte, length byte, then at
/// most [`REQ_LEN`] payload bytes.
#[derive(Clone, Copy)]
struct Frame {
    len: u8,
    bytes: [u8; FRAME_MAX],
}

impl std::ops::Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

struct WireFrame {
    kind: FrameKind,
    bytes: Frame,
}

/// The inter-machine wire: one FIFO queue per directed link, delivery
/// order across links a [`ChoicePoint::Wire`] on the fleet policy.
struct Wire {
    machines: usize,
    links: Vec<VecDeque<WireFrame>>,
    /// The busy links' ids, ascending: [`Wire::send`] adds a link it
    /// makes busy, [`Wire::pop`] removes a link it empties.
    busy: Vec<u32>,
    policy: Box<dyn SchedulePolicy>,
    sent: u64,
    delivered: u64,
    dropped: u64,
    data_deliveries: u64,
    drop_at: Option<u64>,
}

impl Wire {
    fn new(machines: usize, policy: Option<Box<dyn SchedulePolicy>>, drop_at: Option<u64>) -> Self {
        Self {
            machines,
            links: (0..machines * machines).map(|_| VecDeque::new()).collect(),
            busy: Vec::with_capacity(machines * machines),
            policy: policy.unwrap_or_else(|| Box::new(FifoPolicy)),
            sent: 0,
            delivered: 0,
            dropped: 0,
            data_deliveries: 0,
            drop_at,
        }
    }

    /// Front-end framing: channel byte, length byte, payload.
    ///
    /// # Panics
    ///
    /// If the payload is longer than a request.
    fn frame(channel: u8, payload: &[u8]) -> Frame {
        let len = payload.len();
        assert!(len <= REQ_LEN, "a wire payload is at most {REQ_LEN} bytes");
        let mut bytes = [0; FRAME_MAX];
        bytes[0] = channel;
        bytes[1] = len as u8;
        bytes[2..2 + len].copy_from_slice(payload);
        Frame {
            len: (2 + len) as u8,
            bytes,
        }
    }

    /// Machine `src`'s request: its channel, then the encoded request.
    fn request(src: usize, req: &Req) -> Frame {
        Self::frame(src as u8, &req.encode())
    }

    /// Machine `server`'s reply: its reply channel, the status byte,
    /// then the value.
    fn response(server: usize, status: u8, value: u64) -> Frame {
        let mut payload = [status; RESP_LEN];
        payload[1..].copy_from_slice(&value.to_le_bytes());
        Self::frame((CH_RESP_BASE + server as u16) as u8, &payload)
    }

    /// Gossip from machine `from`; `ack` asks the receiver to
    /// acknowledge.
    fn gossip(ack: bool, from: usize) -> Frame {
        Self::frame(CH_GOSSIP, &[u8::from(ack), from as u8])
    }

    /// The front's directive to accept session `idx`.
    fn directive(idx: usize) -> Frame {
        Self::frame(CH_DIRECTIVE, &[idx as u8, (idx >> 8) as u8])
    }

    fn send(&mut self, src: usize, dst: usize, kind: FrameKind, bytes: Frame) {
        self.sent += 1;
        let link = src * self.machines + dst;
        if self.links[link].is_empty() {
            let id = link as u32;
            let at = self.busy.partition_point(|&l| l < id);
            self.busy.insert(at, id);
        }
        self.links[link].push_back(WireFrame { kind, bytes });
    }

    /// Next frame off the wire: link chosen by the policy when more than
    /// one is busy, head-of-line within a link always. Returns the
    /// destination machine and the frame, skipping a frame the planted
    /// drop cheat discards.
    fn pop(&mut self) -> Option<(usize, WireFrame)> {
        loop {
            let ids = &self.busy;
            let at = match ids.len() {
                0 => return None,
                1 => 0,
                _ => self
                    .policy
                    .choose(ChoicePoint::Wire, ids)
                    .min(ids.len() - 1),
            };
            let link = ids[at] as usize;
            let frame = self.links[link].pop_front().expect("non-empty link");
            if self.links[link].is_empty() {
                self.busy.remove(at);
            }
            if frame.kind == FrameKind::Data {
                self.data_deliveries += 1;
                if self.drop_at == Some(self.data_deliveries) {
                    self.dropped += 1;
                    continue;
                }
            }
            self.delivered += 1;
            return Some((link % self.machines, frame));
        }
    }
}

// ------------------------------------------------------------ results --

/// Everything one design's fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// `"kernel"` or `"legacy"`.
    pub design: &'static str,
    /// Fleet size.
    pub machines: usize,
    /// Load-phase cycles summed over every machine (the fleet's total
    /// work).
    pub cycles: u64,
    /// The busiest machine's load-phase cycles (the fleet's wall clock).
    pub wall_cycles: u64,
    /// Setup cycles summed over every machine.
    pub setup_cycles: u64,
    /// Operations completed.
    pub ops: u64,
    /// Sessions driven to completion.
    pub sessions: usize,
    /// Sessions reaped rather than logged out.
    pub abandoned: usize,
    /// Deepest the front admission queue got during the login storm.
    pub queued_peak: usize,
    /// The merged user-visible label stream — must be byte-identical to
    /// the single-machine run's for the same population.
    pub parity: Vec<String>,
    /// Per-operation service-time histogram (fleet cycles).
    pub hist: Histogram,
    /// Post-storm admissions in release order (the fairness record).
    pub admitted_order: Vec<usize>,
    /// Frames offered to the wire.
    pub frames_sent: u64,
    /// Frames the wire delivered.
    pub frames_delivered: u64,
    /// Frames the planted cheat discarded (0 in honest runs).
    pub frames_dropped: u64,
    /// Operations that crossed the wire at least once.
    pub remote_ops: u64,
    /// Session files migrated to the store on full-pack relocation.
    pub migrations: u64,
    /// Whole-segment relocations across the fleet.
    pub relocations: u64,
    /// Load-phase cycles per machine (machine 0 is the store).
    pub per_machine_cycles: Vec<u64>,
    /// The store machine's load-phase cycles (the T3 comparand).
    pub store_cycles: u64,
    /// The store machine's per-subsystem attribution over the load
    /// phase.
    pub store_meter: MeterSnapshot,
    /// Observed cross-subsystem edges merged over every machine.
    pub edges: EdgeSet,
    /// Per-machine oracle batteries, fleet-wide record conservation,
    /// and orchestrator-level failures. Empty = clean.
    pub violations: Vec<String>,
}

impl FleetRun {
    /// Operations retired per million fleet cycles.
    pub fn ops_per_mcycle(&self) -> f64 {
        self.ops as f64 * 1e6 / self.cycles.max(1) as f64
    }

    /// The fleet-vs-single-machine check: this run's own violations
    /// plus label, admission-pressure, and admission-order parity
    /// against the single-machine baseline. Empty = the fleet is
    /// user-indistinguishable from one machine.
    pub fn check_against(&self, single: &LoadRun) -> Vec<String> {
        let mut out = self.violations.clone();
        if self.parity.len() != single.parity.len() {
            out.push(format!(
                "parity: fleet emitted {} labels, single-machine {}",
                self.parity.len(),
                single.parity.len()
            ));
        }
        for (i, (f, s)) in self.parity.iter().zip(single.parity.iter()).enumerate() {
            if f != s {
                out.push(format!(
                    "parity: label {i} differs — fleet '{f}', single-machine '{s}'"
                ));
                break;
            }
        }
        if self.queued_peak != single.queued_peak {
            out.push(format!(
                "admission: fleet queue peaked at {}, single-machine at {}",
                self.queued_peak, single.queued_peak
            ));
        }
        if let Some(w) = self.admitted_order.windows(2).find(|w| w[0] >= w[1]) {
            out.push(format!(
                "admission: queue released u{} before u{} — not first-come-first-served",
                w[1], w[0]
            ));
        }
        out
    }
}

/// Fleet-wide record conservation: every record allocated anywhere in
/// the fleet is referenced by exactly one file map somewhere in the
/// fleet. Per-machine conservation is part of each machine's oracle
/// battery; the fleet-wide sum is what catches a record lost (or
/// double-materialized) while a pack's contents moved between machines.
fn disk_totals(disks: &DiskSystem) -> (u64, u64) {
    let mut allocated = 0u64;
    let mut referenced = 0u64;
    for pack in disks.packs() {
        allocated += pack.allocated_record_nos().len() as u64;
        for (_, entry) in pack.entries() {
            referenced += entry.file_map.iter().flatten().count() as u64;
        }
    }
    (allocated, referenced)
}

fn fleet_conservation(totals: &[(u64, u64)]) -> Vec<String> {
    let allocated: u64 = totals.iter().map(|t| t.0).sum();
    let referenced: u64 = totals.iter().map(|t| t.1).sum();
    if allocated == referenced {
        Vec::new()
    } else {
        vec![format!(
            "fleet record conservation: {allocated} records allocated across \
             the fleet but {referenced} referenced"
        )]
    }
}

// ------------------------------------------------------------- fleet --

/// A daemon-held handle to a file served on behalf of a remote session.
struct RFile {
    dir: Entry,
    segno: u32,
}

/// One machine of the fleet.
struct Member<D: Design> {
    d: D,
    /// The resident driver's session, which serves remote requests.
    daemon: Session<D>,
    shared_segno: Option<u32>,
    files: IdMap<usize, RFile>,
    served: u64,
    reloc_seen: u64,
    setup_cycles: u64,
    meter_base: MeterSnapshot,
    edge_base: EdgeSet,
}

/// A session as the front answering service tracks it.
struct FleetSession<D: Design> {
    home: usize,
    s: Session<D>,
    /// The session's file exists somewhere (it may live on another
    /// machine, where `s.own` cannot point).
    own_created: bool,
    migrated: bool,
    pages: Vec<u64>,
}

struct Fleet<D: Design> {
    spec: FleetSpec,
    cap: usize,
    homes: Vec<usize>,
    ms: Vec<Member<D>>,
    sessions: Vec<Option<FleetSession<D>>>,
    wire: Wire,
    /// The one buffer every channel read on every machine fills.
    rx: Vec<u8>,
    front: VecDeque<usize>,
    live: usize,
    last_active: usize,
    remote_ops: u64,
    migrations: u64,
    failures: Vec<String>,
}

fn status<D: Design>(e: &D::Error) -> u8 {
    match Status::of_refusal(D::Rig::refusal(e)) {
        Status::Quota => ST_QUOTA,
        Status::Full => ST_FULL,
        _ => ST_ERR,
    }
}

fn charge_frame<D: Design>(d: &mut D, len: usize) {
    let m = d.rig_mut().machine_mut();
    let cost = m.cost;
    m.clock.charge_wire_frame(&cost, len);
}

impl<D: Design> Fleet<D> {
    fn new(spec: &FleetSpec, wire_policy: Option<Box<dyn SchedulePolicy>>) -> Self {
        let base = spec.base();
        let homes = spec.homes();
        let mut ms = Vec::with_capacity(spec.machines);
        for m in 0..spec.machines {
            let mut sizes = base.sizes();
            // Room for the resident driver plus every session the front
            // can concentrate on one machine — admission pressure lives
            // at the front, never in a member's process table.
            sizes.max_processes = 32;
            let small_packs = spec.migratory && m != 0;
            if small_packs {
                // Small primary packs: growth fills them, forcing
                // full-pack relocation and then migration to the store.
                sizes.records_per_pack = 12;
                sizes.toc_slots_per_pack = 24;
            }
            let mut d = D::boot(sizes);
            if small_packs {
                // The relocation target pack, roomy enough that the
                // member never runs entirely out while migrations drain
                // it.
                d.rig_mut().machine_mut().disks.attach(512, 128);
            }
            let plan = WorldPlan {
                store: m == 0,
                // The migration landing zone, capped roomily: it only
                // ever holds files full packs pushed off member machines.
                mig_quota: (m == 0).then_some(2 * base.sessions as u32 + 64),
                shards: (0..base.shard_count())
                    .filter(|j| j % spec.machines == m)
                    .collect(),
                shard_quota: base.shard_quota_pages(),
                accounts: (0..spec.sessions).filter(|&idx| homes[idx] == m).collect(),
            };
            let ctx = build_world(&mut d, &plan, &mut SalvageProbe::default(), false)
                .unwrap_or_else(|e| panic!("{} machine {m} setup: {e}", D::Rig::NAME));
            d.attach_network();
            let daemon = Session::open(&mut d, ctx.drv);
            let clock = &d.rig().machine().clock;
            ms.push(Member {
                setup_cycles: clock.now(),
                meter_base: clock.meter_snapshot(),
                edge_base: clock.edge_snapshot(),
                reloc_seen: d.rig().relocations(),
                d,
                daemon,
                shared_segno: ctx.shared_segno,
                files: IdMap::default(),
                served: 0,
            });
        }
        Self {
            spec: *spec,
            cap: base.sizes().max_processes as usize - 1,
            homes,
            ms,
            sessions: (0..spec.sessions).map(|_| None).collect(),
            wire: Wire::new(spec.machines, wire_policy, spec.drop_frame),
            rx: Vec::with_capacity(FRAME_MAX),
            front: VecDeque::new(),
            live: 0,
            last_active: 0,
            remote_ops: 0,
            migrations: 0,
            failures: Vec::new(),
        }
    }

    /// Drains the wire: every queued frame is delivered (or dropped by
    /// the planted cheat), requests are serviced as they land, and any
    /// frames the servicing itself enqueues are delivered too.
    fn pump(&mut self) {
        while let Some((dst, frame)) = self.wire.pop() {
            self.deliver(dst, frame);
        }
    }

    fn deliver(&mut self, dst: usize, frame: WireFrame) {
        let m = &mut self.ms[dst];
        match frame.kind {
            FrameKind::Directive => {
                if let Err(e) = m.d.receive_directive(&frame.bytes, &mut self.rx) {
                    self.failures
                        .push(format!("machine {dst}: directive receive: {e:?}"));
                }
            }
            FrameKind::Gossip => {
                charge_frame(&mut m.d, frame.bytes.len());
                match m.d.net_receive(&frame.bytes) {
                    Ok(()) => {
                        let gossip = u16::from(CH_GOSSIP);
                        let _ = m.d.net_read(m.daemon.pid, gossip, false, &mut self.rx);
                    }
                    Err(e) => self
                        .failures
                        .push(format!("machine {dst}: gossip receive: {e:?}")),
                }
                // payload: [ack-wanted, sender]
                if frame.bytes.get(2) == Some(&1) {
                    let bytes = Wire::gossip(false, dst);
                    charge_frame(&mut self.ms[dst].d, bytes.len());
                    self.wire
                        .send(dst, frame.bytes[3] as usize, FrameKind::Gossip, bytes);
                }
            }
            FrameKind::Data => {
                charge_frame(&mut m.d, frame.bytes.len());
                if let Err(e) = m.d.net_receive(&frame.bytes) {
                    self.failures
                        .push(format!("machine {dst}: frame receive: {e:?}"));
                    return;
                }
                let ch = u16::from(frame.bytes[0]);
                if (ch as usize) < self.spec.machines {
                    // A request: the channel is the requester's id.
                    self.service_request(dst, ch);
                }
                // Responses stay buffered for the requester's read.
            }
        }
    }

    /// The specialized store serves from resident code; a general
    /// machine (and every machine of a design without the resident
    /// path) goes through the gate and the command layer.
    fn resident(&self, mi: usize) -> bool {
        D::RESIDENT_STORE && self.spec.specialized_store && mi == 0
    }

    /// Serves one buffered request on machine `mi`: read it out of the
    /// design, decode, execute, gossip, reply.
    fn service_request(&mut self, mi: usize, ch: u16) {
        let resident = self.resident(mi);
        let m = &mut self.ms[mi];
        if let Err(e) = m.d.net_read(m.daemon.pid, ch, resident, &mut self.rx) {
            self.failures
                .push(format!("machine {mi}: request read: {e:?}"));
            return;
        }
        if self.rx.len() != REQ_LEN {
            self.failures.push(format!(
                "machine {mi}: mangled request ({} bytes)",
                self.rx.len()
            ));
            return;
        }
        let req = Req::decode(&self.rx);
        let mach = m.d.rig_mut().machine_mut();
        let cost = mach.cost;
        if resident {
            let g = mach.clock.enter(Subsystem::Network);
            mach.clock
                .charge_instructions(&cost, RESIDENT_DISPATCH_INSTR, Language::Assembly);
            mach.clock.exit(g);
        } else {
            mach.clock
                .charge_instructions(&cost, CMD_DECODE_INSTR, Language::Pli);
        }
        let (status, value) = self.execute_op(mi, req);

        // Gossip *before* the response: while the reply is still in
        // flight, the acknowledgment travels the opposite way — two
        // busy links, a real delivery choice point.
        self.ms[mi].served += 1;
        if self.ms[mi].served.is_multiple_of(GOSSIP_EVERY) {
            for o in (0..self.spec.machines).filter(|&o| o != mi) {
                let bytes = Wire::gossip(true, mi);
                charge_frame(&mut self.ms[mi].d, bytes.len());
                self.wire.send(mi, o, FrameKind::Gossip, bytes);
            }
        }

        let bytes = Wire::response(mi, status, value);
        charge_frame(&mut self.ms[mi].d, bytes.len());
        self.wire.send(mi, ch as usize, FrameKind::Data, bytes);
    }

    /// One remote operation, executed by machine `mi`'s resident driver.
    /// For `OP_GROW`, the value is 1 when the file exists afterwards —
    /// the requester mirrors that into its `own_created`, which is what
    /// keeps fleet deletion behavior byte-identical to one machine.
    fn execute_op(&mut self, mi: usize, req: Req) -> (u8, u64) {
        let Req {
            op,
            idx,
            shard,
            a,
            b,
        } = req;
        let resident = self.resident(mi);
        let m = &mut self.ms[mi];
        let drv = m.daemon.pid;
        let value = |r: Res<u64, D>| r.map_or_else(|e| (status::<D>(&e), 0), |v| (ST_OK, v));
        let done = |r: Res<(), D>| value(r.map(|()| 0));
        match op {
            OP_LINK => value(m.d.link(&mut m.daemon, a as usize).map(u64::from)),
            OP_RESOLVE_LIB => done(m.d.resolve(&mut m.daemon, Entry::Lib)),
            OP_RESOLVE_SHARED => done(m.d.resolve(&mut m.daemon, Entry::Shared)),
            OP_RESOLVE_SHARD => done(m.d.resolve(&mut m.daemon, Entry::Shard(shard))),
            OP_READ_SHARED => match m.shared_segno {
                Some(seg) => value(m.d.read(drv, seg, a * PW, resident)),
                None => (ST_ERR, 0),
            },
            OP_GROW | OP_MIG_OPEN => {
                let dir = if op == OP_GROW {
                    Entry::Shard(shard)
                } else {
                    Entry::Mig
                };
                if !m.files.contains_key(&idx) {
                    match m.d.open_dir(drv, dir).and_then(|at| {
                        let name = file_name(idx);
                        m.d.rig_mut().create_segment(drv, &at, &name)
                    }) {
                        Ok(segno) => {
                            m.files.insert(idx, RFile { dir, segno });
                        }
                        Err(e) => return (status::<D>(&e), 0),
                    }
                }
                if op == OP_MIG_OPEN {
                    return (ST_OK, 0);
                }
                let segno = m.files[&idx].segno;
                match m.d.rig_mut().write(drv, segno, a * PW, Word::new(b)) {
                    Ok(()) => (ST_OK, 1),
                    Err(e) => (status::<D>(&e), 1),
                }
            }
            OP_READ_OWN => match m.files.get(&idx) {
                Some(f) => value(m.d.read(drv, f.segno, a * PW, resident)),
                None => (ST_ERR, 0),
            },
            OP_DELETE_OWN => match m.files.remove(&idx) {
                Some(f) => done(m.d.delete_file(drv, f.dir, idx)),
                None => (ST_ERR, 0),
            },
            OP_MIG_WRITE => match m.files.get(&idx) {
                Some(f) => done(m.d.rig_mut().write(drv, f.segno, a * PW, Word::new(b))),
                None => (ST_ERR, 0),
            },
            OP_MIG_COMMIT => done(m.d.rig_mut().sync_to_disk()),
            _ => (ST_ERR, 0),
        }
    }

    /// One synchronous RPC: frame the request, put it on the wire,
    /// drain the wire (which services it at the far end), then read the
    /// reply back through this machine's network entry. `None` = the
    /// reply never arrived (a frame was lost).
    fn rpc(&mut self, src: usize, dst: usize, pid: ProcessId, req: Req) -> Option<(u8, u64)> {
        let bytes = Wire::request(src, &req);
        charge_frame(&mut self.ms[src].d, bytes.len());
        self.wire.send(src, dst, FrameKind::Data, bytes);
        self.remote_ops += 1;
        self.pump();
        let channel = CH_RESP_BASE + dst as u16;
        match self.ms[src].d.net_read(pid, channel, false, &mut self.rx) {
            Ok(()) if self.rx.len() == RESP_LEN => Some((
                self.rx[0],
                u64::from_le_bytes(self.rx[1..].try_into().expect("8 bytes")),
            )),
            _ => None,
        }
    }

    /// Remote-or-colocated daemon operation: a session whose file
    /// migrated to its own home machine skips the wire.
    fn daemon_call(
        &mut self,
        target: usize,
        home: usize,
        pid: ProcessId,
        req: Req,
    ) -> Option<(u8, u64)> {
        if target == home {
            Some(self.execute_op(target, req))
        } else {
            self.rpc(home, target, pid, req)
        }
    }

    fn admit_one(&mut self, idx: usize) {
        let home = self.homes[idx];
        if home != 0 {
            // The front answering service directs the home machine to
            // accept the session — one directive frame, charged to the
            // answering service on both ends of the wire.
            let bytes = Wire::directive(idx);
            let m = self.ms[0].d.rig_mut().machine_mut();
            let cost = m.cost;
            let g = m.clock.enter(Subsystem::AnsweringService);
            m.clock.charge_wire_frame(&cost, bytes.len());
            m.clock.exit(g);
            self.wire.send(0, home, FrameKind::Directive, bytes);
            self.pump();
        }
        let d = &mut self.ms[home].d;
        match d.login(&account_name(idx)) {
            Ok(pid) => {
                self.sessions[idx] = Some(FleetSession {
                    home,
                    s: Session::open(d, pid),
                    own_created: false,
                    migrated: false,
                    pages: Vec::new(),
                });
                self.live += 1;
            }
            Err(e) => self
                .failures
                .push(format!("login u{idx} refused at machine {home}: {e:?}")),
        }
    }

    /// Full-pack relocation watch: when the grow that just ran bumped
    /// the owner machine's relocation counter, the touched session file
    /// is migrated to the store — read back page by page at the source,
    /// shipped over the wire, then deleted locally.
    fn maybe_migrate(&mut self, idx: usize, shard: usize, owner: usize) {
        let reloc = self.ms[owner].d.rig().relocations();
        if reloc <= self.ms[owner].reloc_seen {
            return;
        }
        self.ms[owner].reloc_seen = reloc;
        let Some(fs) = self.sessions[idx].as_ref() else {
            return;
        };
        if fs.migrated || !fs.own_created || fs.pages.is_empty() {
            return;
        }
        let (home, pid, pages) = (fs.home, fs.s.pid, fs.pages.len() as u32);
        // Where the file lives on the owner: the session's own segment
        // at home, the daemon's handle elsewhere.
        let (reader, segno) = if owner == home {
            (pid, fs.s.own)
        } else {
            let m = &self.ms[owner];
            (m.daemon.pid, m.files.get(&idx).map(|f| f.segno))
        };
        let Some(segno) = segno else {
            return;
        };
        let src = &mut self.ms[owner].d;
        let read: Result<Vec<u64>, String> = (0..pages)
            .map(|page| {
                src.read(reader, segno, page * PW, false)
                    .map_err(|e| format!("migration read u{idx} page {page}: {e:?}"))
            })
            .collect();
        let vals = match read {
            Ok(vals) => vals,
            Err(msg) => return self.failures.push(msg),
        };
        let drv = self.ms[owner].daemon.pid;
        let writes = vals.iter().enumerate().map(|(page, &val)| {
            let req = Req::new(OP_MIG_WRITE, idx, shard).arg(page as u32).val(val);
            (req, format!("write u{idx} page {page}"))
        });
        let open = (Req::new(OP_MIG_OPEN, idx, shard), format!("open u{idx}"));
        let commit = (
            Req::new(OP_MIG_COMMIT, idx, shard),
            format!("commit u{idx}"),
        );
        let steps = std::iter::once(open).chain(writes).chain([commit]);
        for (req, what) in steps {
            match self.rpc(owner, 0, drv, req) {
                Some((ST_OK, _)) => {}
                r => return self.failures.push(format!("migration {what}: {r:?}")),
            }
        }
        // Free the member machine's copy.
        let freed = if owner == home {
            let own = self.sessions[idx].as_mut().and_then(|s| s.s.own.take());
            own.map(|_| (pid, Entry::Shard(shard)))
        } else {
            self.ms[owner].files.remove(&idx).map(|f| (drv, f.dir))
        };
        if let Some((by, dir)) = freed {
            if let Err(e) = self.ms[owner].d.delete_file(by, dir, idx) {
                self.failures
                    .push(format!("migration source delete u{idx}: {e:?}"));
            }
        }
        if let Some(s) = self.sessions[idx].as_mut() {
            s.migrated = true;
        }
        self.migrations += 1;
    }

    fn session(&mut self, idx: usize) -> &mut FleetSession<D> {
        self.sessions[idx].as_mut().expect("live session")
    }

    /// Where session `idx` acts: its home, its process, the machine
    /// that owns its file (the store, once migrated), and whether that
    /// file is the session's own segment at home. Marks the home busy.
    fn place(&mut self, idx: usize, shard: usize) -> (usize, ProcessId, usize, bool) {
        let fs = self.sessions[idx].as_ref().expect("live session");
        let (home, pid, migrated) = (fs.home, fs.s.pid, fs.migrated);
        let owner = if migrated {
            0
        } else {
            shard % self.spec.machines
        };
        self.last_active = home;
        (home, pid, owner, owner == home && !migrated)
    }

    /// Runs an action where the session lives, as one machine would.
    fn local(&mut self, idx: usize, shard: usize, action: &Action) -> Label {
        let fs = self.sessions[idx].as_mut().expect("live session");
        // No salvage runs in a fleet, so no barrier can fire.
        exec_once(&mut self.ms[fs.home].d, &mut fs.s, idx, shard, action).unwrap_or(Label::Busy)
    }
}

impl<D: Design> Driver for Fleet<D> {
    fn now(&self) -> u64 {
        self.ms
            .iter()
            .map(|m| m.d.rig().machine().clock.now())
            .sum()
    }

    fn queued(&self) -> usize {
        self.front.len()
    }

    fn request(&mut self, idx: usize) -> bool {
        if self.live < self.cap {
            self.admit_one(idx);
            true
        } else {
            self.front.push_back(idx);
            false
        }
    }

    fn admit(&mut self) -> Vec<usize> {
        let mut out = Vec::new();
        while self.live < self.cap {
            let Some(idx) = self.front.pop_front() else {
                break;
            };
            self.admit_one(idx);
            out.push(idx);
        }
        out
    }

    fn exec(&mut self, idx: usize, shard: usize, action: &Action) -> Label {
        let (home, pid, owner, local_file) = self.place(idx, shard);
        let req = |op| Req::new(op, idx, shard);
        match *action {
            Action::Link(sym) if home != 0 => value_label(
                Op::Link,
                self.rpc(home, 0, pid, req(OP_LINK).arg(sym as u32)),
            ),
            Action::ReadShared { page } if home != 0 => value_label(
                Op::Read,
                self.rpc(home, 0, pid, req(OP_READ_SHARED).arg(page)),
            ),
            Action::Resolve(target) => {
                let (dst, op) = match target {
                    Entry::Lib => (0, OP_RESOLVE_LIB),
                    Entry::Mig => unreachable!("scripts never resolve the migration zone"),
                    Entry::Shared => (0, OP_RESOLVE_SHARED),
                    Entry::Shard(j) => (j % self.spec.machines, OP_RESOLVE_SHARD),
                };
                if dst == home {
                    self.local(idx, shard, action)
                } else {
                    ok_label(Op::Resolve, self.rpc(home, dst, pid, req(op)))
                }
            }
            Action::Grow { page, val } => {
                let label = if local_file {
                    let label = self.local(idx, shard, action);
                    let fs = self.session(idx);
                    fs.own_created |= fs.s.own.is_some();
                    label
                } else {
                    let resp = self.daemon_call(owner, home, pid, req(OP_GROW).arg(page).val(val));
                    if let Some((_, 1)) = resp {
                        self.session(idx).own_created = true;
                    }
                    ok_label(Op::Write, resp)
                };
                if label == Label::GROWN {
                    self.session(idx).pages.push(val);
                }
                if self.spec.migratory && owner != 0 {
                    self.maybe_migrate(idx, shard, owner);
                }
                label
            }
            Action::ReadOwn { page } if !local_file => value_label(
                Op::Read,
                self.daemon_call(owner, home, pid, req(OP_READ_OWN).arg(page)),
            ),
            _ => self.local(idx, shard, action),
        }
    }

    fn finish(&mut self, idx: usize, shard: usize, abandon: bool) -> Label {
        let (home, pid, owner, local_file) = self.place(idx, shard);
        let own_created = self.session(idx).own_created;
        let label = if !abandon && own_created && !local_file {
            let req = Req::new(OP_DELETE_OWN, idx, shard);
            let delete = match self.daemon_call(owner, home, pid, req) {
                Some((ST_OK, _)) => Status::Ok,
                Some(_) => Status::Err,
                None => Status::Lost,
            };
            logout_once(&mut self.ms[home].d, idx, pid, false, delete)
        } else {
            let fs = self.sessions[idx].as_mut().expect("live session");
            end_once(&mut self.ms[home].d, &mut fs.s, idx, shard, abandon)
        };
        self.sessions[idx] = None;
        self.live -= 1;
        label.unwrap_or(Label::Busy)
    }

    fn schedule(&mut self) {
        self.ms[self.last_active].d.rig_mut().schedule();
    }

    fn housekeep(&mut self) {
        for mi in 0..self.ms.len() {
            if let Err(e) = self.ms[mi].d.rig_mut().sync_to_disk() {
                self.failures
                    .push(format!("machine {mi}: housekeeping sweep: {e:?}"));
            }
        }
    }
}

/// Runs the fleet spec on one design. The optional policy governs only
/// the wire's delivery order ([`ChoicePoint::Wire`]); each machine's
/// internal schedule stays at the baseline, exactly as in the
/// single-machine engine.
fn run_fleet<D: Design>(
    spec: &FleetSpec,
    wire_policy: Option<Box<dyn SchedulePolicy>>,
) -> FleetRun {
    assert!(spec.machines >= 1, "a fleet needs at least one machine");
    assert!(
        spec.machines <= MAX_MACHINES,
        "the wire addresses at most {MAX_MACHINES} machines"
    );
    assert!(
        spec.sessions <= MAX_SESSIONS,
        "the wire addresses at most {MAX_SESSIONS} sessions"
    );
    assert!(
        !spec.dedicated_store || spec.machines >= 2,
        "a dedicated store needs at least one member machine"
    );
    let scripts = spec.base().scripts();
    let mut fleet = Fleet::<D>::new(spec, wire_policy);
    let mut st = EngineState::new(&scripts);
    storm(&mut fleet, &scripts, &mut st);
    drive_until(&mut fleet, &scripts, &mut st, None);
    fleet.pump();

    let per_machine_cycles: Vec<u64> = fleet
        .ms
        .iter()
        .map(|m| m.d.rig().machine().clock.now() - m.setup_cycles)
        .collect();
    let mut edges = EdgeSet::new();
    let mut violations = Vec::new();
    let mut totals = Vec::new();
    let mut relocations = 0;
    for (i, m) in fleet.ms.iter().enumerate() {
        edges.merge(&m.edge_base.delta(m.d.rig().machine().clock.edge_set()));
        for v in m.d.rig().oracles() {
            violations.push(format!("machine {i}: {v}"));
        }
        totals.push(disk_totals(&m.d.rig().machine().disks));
        relocations += m.d.rig().relocations();
    }
    violations.extend(fleet_conservation(&totals));
    violations.extend(fleet.failures.iter().cloned());
    let store = &fleet.ms[0];
    FleetRun {
        design: D::Rig::NAME,
        machines: spec.machines,
        cycles: per_machine_cycles.iter().sum(),
        wall_cycles: per_machine_cycles.iter().copied().max().unwrap_or(0),
        setup_cycles: fleet.ms.iter().map(|m| m.setup_cycles).sum(),
        ops: st.ops,
        sessions: spec.sessions,
        abandoned: st.abandoned,
        queued_peak: st.queued_peak,
        parity: label::render(&st.parity),
        hist: st.hist,
        admitted_order: st.admitted_order,
        frames_sent: fleet.wire.sent,
        frames_delivered: fleet.wire.delivered,
        frames_dropped: fleet.wire.dropped,
        remote_ops: fleet.remote_ops,
        migrations: fleet.migrations,
        relocations,
        store_cycles: per_machine_cycles[0],
        store_meter: store
            .meter_base
            .delta(&store.d.rig().machine().clock.meter_snapshot()),
        per_machine_cycles,
        edges,
        violations,
    }
}

/// Runs the fleet spec on the kernel design.
pub fn run_kernel_fleet(
    spec: &FleetSpec,
    wire_policy: Option<Box<dyn SchedulePolicy>>,
) -> FleetRun {
    run_fleet::<KernelDesign>(spec, wire_policy)
}

/// Runs the fleet spec on the 1974 supervisor design. The
/// `specialized_store` flag is ignored: the old design has no resident
/// file-store configuration to specialize into — every remote request
/// pays the gated read and the user-domain command decode.
pub fn run_legacy_fleet(
    spec: &FleetSpec,
    wire_policy: Option<Box<dyn SchedulePolicy>>,
) -> FleetRun {
    run_fleet::<LegacyDesign>(spec, wire_policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_kernel_load, run_legacy_load};

    /// A request keeps every field at its edge values through framing,
    /// and each frame kind is as long as it always was, which is what
    /// [`charge_frame`] charges: a request 16 bytes, a reply 11, gossip
    /// and a directive 4.
    #[test]
    fn requests_round_trip_at_their_edges_and_each_frame_kind_keeps_its_length() {
        let top = u32::from(u16::MAX);
        for (op, idx, shard, a, b) in [
            (OP_MIG_WRITE, MAX_SESSIONS - 1, 255, top, u64::MAX),
            (OP_LINK, 0, 0, 0, 0),
            (OP_GROW, 256, 7, 256, 1 << 63),
        ] {
            let req = Req::new(op, idx, shard).arg(a).val(b);
            let frame = Wire::request(MAX_MACHINES - 1, &req);
            assert_eq!(frame.len(), 16);
            assert_eq!(frame[..2], [MAX_MACHINES as u8 - 1, REQ_LEN as u8]);
            let back = Req::decode(&frame[2..]);
            let fields = (back.op, back.idx, back.shard, back.a, back.b);
            assert_eq!(fields, (op, idx, shard, a, b));
        }
        let reply = Wire::response(3, ST_QUOTA, u64::MAX);
        assert_eq!(reply.len(), 11);
        assert_eq!(
            reply[..3],
            [CH_RESP_BASE as u8 + 3, RESP_LEN as u8, ST_QUOTA]
        );
        assert_eq!(reply[3..], u64::MAX.to_le_bytes());
        assert_eq!(*Wire::gossip(true, 2), [CH_GOSSIP, 2, 1, 2]);
        assert_eq!(*Wire::gossip(false, 99), [CH_GOSSIP, 2, 0, 99]);
        let directive = Wire::directive(MAX_SESSIONS - 1);
        assert_eq!(*directive, [CH_DIRECTIVE, 2, 0xFF, 0xFF]);
    }

    #[test]
    #[should_panic(expected = "a wire payload is at most 14 bytes")]
    fn a_payload_longer_than_a_request_is_refused() {
        Wire::frame(0, &[0; REQ_LEN + 1]);
    }

    #[test]
    fn fleet_of_one_is_the_single_machine_run() {
        let spec = FleetSpec::new(1, 8, 11);
        let fleet = run_kernel_fleet(&spec, None);
        let single = run_kernel_load(&spec.base(), None);
        assert_eq!(fleet.check_against(&single), Vec::<String>::new());
        assert_eq!(fleet.frames_sent, 0, "one machine never touches the wire");
        assert_eq!(fleet.remote_ops, 0);
    }

    #[test]
    fn kernel_fleet_of_two_matches_single_machine() {
        let spec = FleetSpec::new(2, 10, 23);
        let fleet = run_kernel_fleet(&spec, None);
        let single = run_kernel_load(&spec.base(), None);
        assert_eq!(fleet.check_against(&single), Vec::<String>::new());
        assert!(fleet.remote_ops > 0, "homes must split across machines");
        assert!(fleet.frames_delivered > 0);
        assert_eq!(fleet.frames_dropped, 0);
    }

    #[test]
    fn legacy_fleet_of_two_matches_single_machine() {
        let spec = FleetSpec::new(2, 10, 23);
        let fleet = run_legacy_fleet(&spec, None);
        let single = run_legacy_load(&spec.base());
        assert_eq!(fleet.check_against(&single), Vec::<String>::new());
        assert!(fleet.remote_ops > 0);
    }

    #[test]
    fn fleet_reruns_are_byte_identical() {
        let spec = FleetSpec::new(3, 9, 77);
        let a = run_kernel_fleet(&spec, None);
        let b = run_kernel_fleet(&spec, None);
        assert_eq!(a.parity, b.parity);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.per_machine_cycles, b.per_machine_cycles);
    }

    #[test]
    fn planted_frame_drop_is_caught() {
        let mut spec = FleetSpec::new(2, 10, 23);
        let single = run_kernel_load(&spec.base(), None);
        spec.drop_frame = Some(3);
        let cheat = run_kernel_fleet(&spec, None);
        assert_eq!(cheat.frames_dropped, 1);
        assert!(
            !cheat.check_against(&single).is_empty(),
            "a lost wire frame must surface as a parity or oracle violation"
        );
    }

    #[test]
    fn specialized_store_serves_cheaper_than_general() {
        let mut spec = FleetSpec::new(2, 12, 31);
        spec.dedicated_store = true;
        let general = run_kernel_fleet(&spec, None);
        spec.specialized_store = true;
        let special = run_kernel_fleet(&spec, None);
        let single = run_kernel_load(&spec.base(), None);
        assert_eq!(general.check_against(&single), Vec::<String>::new());
        assert_eq!(special.check_against(&single), Vec::<String>::new());
        assert_eq!(general.parity, special.parity);
        assert!(
            special.store_cycles < general.store_cycles,
            "resident dispatch must undercut the command layer: {} vs {}",
            special.store_cycles,
            general.store_cycles
        );
    }

    #[test]
    #[should_panic(expected = "the wire addresses at most 100 machines")]
    fn fleets_beyond_the_reply_channels_are_refused() {
        // Machine 100's request channel would be machine 0's reply channel.
        run_kernel_fleet(&FleetSpec::new(101, 200, 7), None);
    }

    #[test]
    #[should_panic(expected = "the wire addresses at most 65536 sessions")]
    fn sessions_beyond_the_request_index_are_refused() {
        // A request carries the session index in two bytes.
        run_legacy_fleet(&FleetSpec::new(2, 65_537, 7), None);
    }

    #[test]
    fn migration_keeps_the_stream_and_the_records() {
        let mut spec = FleetSpec::new(2, 12, 5);
        spec.migratory = true;
        let fleet = run_kernel_fleet(&spec, None);
        let single = run_kernel_load(&spec.base(), None);
        assert_eq!(fleet.check_against(&single), Vec::<String>::new());
        assert!(fleet.relocations > 0, "small packs must force relocation");
        assert!(fleet.migrations > 0, "relocation must trigger migration");
    }
}
