//! The design interface: the one seam between the load harness and a
//! supervisor design.
//!
//! The paper's discipline is one manager per object type behind one
//! interface. The harness follows it: the engine ([`crate::run`]), the
//! C1/S1 epoch machinery ([`crate::epoch`]) and the fleet
//! ([`crate::fleet`]) are written once against [`Design`], and the trait
//! has exactly two statically dispatched implementations —
//! [`kernel::KernelDesign`] over the new kernel and its user-domain
//! answering service, [`legacy::LegacyDesign`] over the 1974 supervisor.
//! Nothing outside those two files names either design's types.
//!
//! It lives here, not in the design crates, because the kernel's session
//! layer (name space, linker, answering service) is in `mx-user`, which
//! already depends on `mx-kernel`. Every method is one call, or one fixed
//! call sequence, of the design: a harness written against it issues the
//! design's own gate sequence.

pub(crate) mod kernel;
pub(crate) mod legacy;

use crate::label::Status;
use crate::run::{check_serving_records, Entry, SalvageProbe, SALVAGE_RETRY_BUDGET};
use mx_explore::oracle;
use mx_hw::salvage::{OnlineProgress, Report};
use mx_hw::{BootConfig, Machine, ProcessId};
use mx_sync::SchedulePolicy;
use std::fmt::{self, Debug, Display};

/// One logged-in session, as the harness tracks it.
pub(crate) struct Session<D: Design> {
    pub(crate) pid: ProcessId,
    /// The design's per-session user-domain state.
    pub(crate) ext: D::Ext,
    /// Segment number of the session's own file, once created.
    pub(crate) own: Option<u32>,
    pub(crate) shared_segno: Option<u32>,
}

impl<D: Design> Session<D> {
    pub(crate) fn open(d: &mut D, pid: ProcessId) -> Self {
        Self {
            pid,
            ext: d.open(pid),
            own: None,
            shared_segno: None,
        }
    }
}

/// What one pass over the admission queue did.
pub(crate) struct Admitted<D: Design> {
    /// Logins admitted, `(session index, process)`, in queue order.
    pub(crate) sessions: Vec<(usize, ProcessId)>,
    /// Logins the design refused outright and dropped from the queue.
    pub(crate) refused: Vec<(usize, D::Error)>,
    /// The head login hit a salvage barrier and stays queued.
    pub(crate) busy: Option<usize>,
}

/// One stop-the-world salvage pass.
pub(crate) struct SalvagePass {
    pub(crate) problems: usize,
    pub(crate) repairs: usize,
    /// The problems found, unless the pass came back clean. A violation
    /// quotes them with `{:?}`; nothing else renders them.
    pub(crate) unclean: Option<Box<dyn Debug>>,
}

/// Prints the problems as the `{:?}` of their rendered text, as the
/// `salvage errored` violation has always quoted a pass.
impl Debug for SalvagePass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let unclean = self.unclean.as_ref().map(|p| format!("{p:?}"));
        f.debug_struct("SalvagePass")
            .field("problems", &self.problems)
            .field("repairs", &self.repairs)
            .field("unclean", &unclean)
            .finish()
    }
}

/// A stop-the-world salvage's outcome, as the harness needs it.
pub(crate) fn salvage_pass<P: Debug + 'static, E: Debug>(
    report: Result<Report<P>, E>,
) -> Result<SalvagePass, String> {
    let r = report.map_err(|e| format!("{e:?}"))?;
    Ok(SalvagePass {
        problems: r.problems.len(),
        repairs: r.repairs.len(),
        unclean: (!r.clean()).then(|| Box::new(r.problems) as Box<dyn Debug>),
    })
}

/// One online-salvage step, as the harness needs it.
pub(crate) enum Step {
    /// A directory was repaired, rechecked and handed back to traffic.
    Released { dir: u64, recheck_clean: bool },
    /// The salvage completed.
    Done { problems: usize, repairs: usize },
    /// A finalize step, or nothing left to do.
    Quiet,
}

/// What an online-salvage step did, as the harness needs it.
pub(crate) fn online_step<P>(progress: OnlineProgress<P>) -> Step {
    match progress {
        OnlineProgress::Released {
            dir, recheck_clean, ..
        } => Step::Released {
            dir: dir.0,
            recheck_clean,
        },
        OnlineProgress::Done { report } => Step::Done {
            problems: report.problems.len(),
            repairs: report.repairs.len(),
        },
        OnlineProgress::Finalized { .. } | OnlineProgress::Idle => Step::Quiet,
    }
}

/// A design call's outcome.
pub(crate) type Res<T, D> = Result<T, <D as Design>::Error>;

/// One supervisor design, as the load harness drives it.
pub(crate) trait Design: Sized {
    /// `"kernel"` or `"legacy"`.
    const NAME: &'static str;
    /// Whether the scheduler takes a schedule policy. The old supervisor
    /// has one inherent schedule.
    const SCHEDULE_HOOKS: bool;
    /// Whether the design can run the specialized file store (resident
    /// request reads and page reads, no command layer).
    const RESIDENT_STORE: bool;

    /// A directory or segment as the storage gates name it.
    type Handle: Copy;
    /// Per-session user-domain state.
    type Ext;
    type Error: Debug;

    // ---------------------------------------------------------- boot --
    fn boot(config: BootConfig) -> Self;
    /// Power is gone: boots a fresh machine from this one's disk image,
    /// keeping only the user-domain state that survives a crash.
    fn reboot(self, config: BootConfig) -> Res<Self, Self>;
    fn machine(&self) -> &Machine;
    fn machine_mut(&mut self) -> &mut Machine;
    /// The whole oracle battery. Empty = clean.
    fn oracle(&self) -> Vec<String>;
    /// Whole-segment relocations so far.
    fn relocations(&self) -> u64;

    // -------------------------------------------------------- errors --
    fn busy(e: &Self::Error) -> bool;
    /// `Quota`, `Full` or `Err`: the refusals both designs' labels share.
    fn status(e: &Self::Error) -> Status;

    // ------------------------------------------- accounts, admission --
    fn register(&mut self, name: &str);
    fn login(&mut self, name: &str) -> Res<ProcessId, Self>;
    /// The session-side state for a fresh login.
    fn open(&mut self, pid: ProcessId) -> Self::Ext;
    /// Login for session `idx`; `Ok(None)` = parked in the admission
    /// queue (slot exhaustion is never an error).
    fn login_or_queue(&mut self, idx: usize) -> Res<Option<ProcessId>, Self>;
    /// Admits parked logins while slots last.
    fn admit_waiting(&mut self) -> Admitted<Self>;
    fn queued(&self) -> usize;
    /// The parked logins, head first, where the design checks them across
    /// recovery.
    fn pending_names(&self) -> Option<Vec<String>>;
    /// Self-check: forgets the youngest parked login.
    fn drop_youngest_queued(&mut self);
    fn logout(&mut self, idx: usize, pid: ProcessId) -> Res<(), Self>;

    // ---------------------------------------------------- name space --
    /// Snaps a link to library symbol `sym`; the link's offset.
    fn link(&mut self, s: &mut Session<Self>, sym: usize) -> Res<u32, Self>;
    fn resolve(&mut self, s: &mut Session<Self>, target: Entry) -> Res<(), Self>;
    fn initiate_shared(&mut self, s: &mut Session<Self>) -> Res<u32, Self>;

    // ------------------------------------------------------- storage --
    /// Looks `entry` up in the root.
    fn search(&mut self, drv: ProcessId, entry: Entry) -> Res<Self::Handle, Self>;
    /// Creates `entry` in the root: a directory for shards and the
    /// migration zone, a segment otherwise.
    fn create(&mut self, drv: ProcessId, entry: Entry) -> Res<Self::Handle, Self>;
    fn initiate(&mut self, drv: ProcessId, seg: Self::Handle) -> Res<u32, Self>;
    /// Publishes the library's definitions, retrying through `probe`.
    fn publish(
        &mut self,
        drv: ProcessId,
        lib: Self::Handle,
        probe: &mut SalvageProbe,
    ) -> Result<(), String>;
    /// Recovery's probe for shard `s{shard}`: true = it survived.
    fn shard_survives(&mut self, drv: ProcessId, shard: usize, probe: &mut SalvageProbe) -> bool;
    fn set_quota(&mut self, drv: ProcessId, dir: Entry, pages: u32) -> Res<(), Self>;
    /// The directory to create a session file in.
    fn open_dir(&mut self, pid: ProcessId, dir: Entry) -> Res<Self::Handle, Self>;
    /// Whether `dir` is out of salvage quarantine (`SalvageBusy` if not).
    fn probe_dir(&mut self, pid: ProcessId, dir: Entry) -> Res<Self::Handle, Self>;
    /// Creates and initiates session `idx`'s file in directory `at`.
    fn create_file(&mut self, pid: ProcessId, at: Self::Handle, idx: usize) -> Res<u32, Self>;
    fn delete_file(&mut self, pid: ProcessId, dir: Entry, idx: usize) -> Res<(), Self>;
    fn write(&mut self, pid: ProcessId, segno: u32, offset: u32, val: u64) -> Res<(), Self>;
    /// A word read; `resident` takes the specialized store's path.
    fn read(&mut self, pid: ProcessId, segno: u32, offset: u32, resident: bool) -> Res<u64, Self>;
    fn sync_to_disk(&mut self) -> Res<(), Self>;

    // ---------------------------------------------------- scheduling --
    fn schedule(&mut self);
    fn set_schedule_policy(&mut self, policy: Box<dyn SchedulePolicy>);
    /// Zeroes the queue-delay and event-queue probes.
    fn reset_load_probes(&mut self);
    /// Queue-delay `(wait, samples)` and event-queue peak.
    fn load_probes(&self) -> ((u64, u64), usize);

    // ------------------------------------------------------- salvage --
    fn salvage(&mut self, repair: bool) -> Result<SalvagePass, String>;
    /// Starts an online salvage. With `release_early`, first tears the
    /// root quota cell and runs the salvager that releases each
    /// directory before repairing its cell; `Err` = the tear failed.
    fn begin_online_salvage(&mut self, release_early: bool) -> Result<(), String>;
    fn online_salvage_active(&self) -> bool;
    fn online_salvage_step(&mut self) -> Res<Step, Self>;

    // ------------------------------------------------------- network --
    fn attach_network(&mut self);
    fn net_receive(&mut self, frame: &[u8]) -> Res<(), Self>;
    /// Reads a channel's buffered input into `buf`, leaving it holding
    /// exactly that input.
    fn net_read(
        &mut self,
        pid: ProcessId,
        channel: u16,
        resident: bool,
        buf: &mut Vec<u8>,
    ) -> Res<(), Self>;
    /// Receives and drains an answering-service directive frame,
    /// charging the answering service for it; the drained input lands in
    /// `buf`.
    fn receive_directive(&mut self, frame: &[u8], buf: &mut Vec<u8>) -> Res<(), Self>;
}

/// One salvage step with the per-release battery applied: recheck
/// verdict, meter conservation, serving-half record conservation at
/// every release, and the full oracle battery at `Done`.
pub(crate) fn salvage_step_checked<D: Design>(d: &mut D, probe: &mut SalvageProbe) {
    match d.online_salvage_step() {
        Ok(Step::Released { dir, recheck_clean }) => {
            probe.dirs_released += 1;
            if !recheck_clean {
                probe.violations.push(format!(
                    "released dir uid {dir} with a failing recheck — \
                     per-directory salvage not idempotent"
                ));
            }
            let m = d.machine();
            for v in oracle::check_meter(&m.clock)
                .into_iter()
                .chain(check_serving_records(&m.disks))
            {
                probe
                    .violations
                    .push(format!("at release of uid {dir}: {v}"));
            }
        }
        Ok(Step::Done { problems, repairs }) => {
            probe.done_at = Some(d.machine().clock.now());
            probe.problems = problems;
            probe.repairs = repairs;
            for v in d.oracle() {
                probe.violations.push(format!("post-salvage: {v}"));
            }
        }
        Ok(Step::Quiet) => {}
        Err(e) => probe
            .violations
            .push(format!("online salvage step failed: {e:?}")),
    }
}

/// Retries `f` through `SalvageBusy`, stepping the salvager (and its
/// per-release oracle battery) between attempts. A bounded budget turns
/// a wedged salvager into a typed failure instead of a hang. With no
/// salvage in progress this is exactly one call of `f`. `what` names
/// the call in a failure, and is rendered only then.
pub(crate) fn gate_retry<D: Design, T>(
    d: &mut D,
    probe: &mut SalvageProbe,
    what: impl Display,
    mut f: impl FnMut(&mut D) -> Result<T, D::Error>,
) -> Result<T, String> {
    let mut attempts = 0u32;
    loop {
        match f(d) {
            Ok(v) => return Ok(v),
            Err(e) if D::busy(&e) => {
                attempts += 1;
                if attempts > SALVAGE_RETRY_BUDGET {
                    return Err(format!(
                        "{what}: salvage retry budget ({SALVAGE_RETRY_BUDGET}) exhausted"
                    ));
                }
                probe.retries += 1;
                salvage_step_checked(d, probe);
            }
            Err(e) => return Err(format!("{what}: {e:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pass as it was, with its problems rendered when it was built.
    mod rendered {
        // Its counts are read through the derived `Debug` alone.
        #[allow(dead_code)]
        #[derive(Debug)]
        pub(super) struct SalvagePass {
            pub(super) problems: usize,
            pub(super) repairs: usize,
            pub(super) unclean: Option<String>,
        }
    }

    /// Both places that read a pass's problems print the text they
    /// printed when the pass rendered them as it was built: the second
    /// pass's `{problems:?}`, and the `{:?}` of each pass in `salvage
    /// errored`. Legacy problems are strings, so their quotes are escaped
    /// twice there.
    #[test]
    fn a_salvage_pass_quotes_its_problems_as_the_rendered_text_did() {
        let report = |problems: Vec<String>| Report {
            problems,
            repairs: vec!["relinked".to_string()],
            ..Report::default()
        };
        for problems in [
            vec![],
            vec!["toc 3 \"f1\" orphaned".to_string(), "leak".to_string()],
        ] {
            let old = rendered::SalvagePass {
                problems: problems.len(),
                repairs: 1,
                unclean: (!problems.is_empty()).then(|| format!("{problems:?}")),
            };
            let pass = salvage_pass::<_, String>(Ok(report(problems))).unwrap();
            let quoted = pass.unclean.as_ref().map(|p| format!("{p:?}"));
            assert_eq!(quoted, old.unclean);
            let errored: Result<SalvagePass, String> = Err("PackOffline".to_string());
            assert_eq!(
                format!("{:?} / {errored:?}", Ok::<_, String>(&pass)),
                format!("{:?} / {errored:?}", Ok::<_, String>(&old))
            );
            assert_eq!(format!("{pass:#?}"), format!("{old:#?}"));
        }
    }
}
