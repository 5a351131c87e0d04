//! The user-domain answering service (Montgomery, 1976).
//!
//! Of the old Answering Service's 10,000 trusted lines, "fewer than
//! 1,000 of them need be included in the kernel": the password check,
//! clearance check and process creation (the `login_residue` gate). The
//! other nine-tenths — greeting parsing, login policy (attempt limits),
//! session bookkeeping, billing aggregation, reports — run here with no
//! privilege at all. The restructured service "in its preliminary
//! implementation, ran about 3% slower" — the cost of the extra gate
//! crossing on each login, which benchmark P3 reproduces.

use mx_aim::Label;
use mx_kernel::{Kernel, KernelError, ProcessId, UserId};
use std::collections::{HashMap, VecDeque};

/// Deterministic FNV-1a password hashing, done in user space so the
/// cleartext never crosses the gate.
pub fn password_hash(cleartext: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in cleartext.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One live session.
#[derive(Debug, Clone)]
pub struct Session {
    /// The account name.
    pub name: String,
    /// The process serving the session.
    pub pid: ProcessId,
    /// Label the session logged in at.
    pub label: Label,
}

/// Per-account user-domain bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct AccountRecord {
    /// Completed sessions.
    pub sessions: u64,
    /// Total charge units billed.
    pub charge_units: u64,
    /// Consecutive failed login attempts (policy state).
    pub failed_attempts: u32,
}

/// Outcome of a batched login attempt under load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A process slot was free; the session is live.
    Admitted(ProcessId),
    /// Every process slot was taken; the request parked at this depth in
    /// the admission queue. Queueing is pure user-domain policy — the
    /// kernel only ever said "table full".
    Queued(usize),
}

/// A login the service has parked until a process slot frees up.
#[derive(Debug, Clone)]
struct PendingLogin {
    name: String,
    password: String,
    label: Label,
}

/// The user-domain answering service.
#[derive(Debug, Default)]
pub struct AnsweringService {
    records: HashMap<String, AccountRecord>,
    sessions: Vec<Session>,
    pending: VecDeque<PendingLogin>,
    /// Lockout threshold (a policy the kernel never needs to know).
    pub max_attempts: u32,
}

impl AnsweringService {
    /// A service with the default three-strikes policy.
    pub fn new() -> Self {
        Self {
            records: HashMap::new(),
            sessions: Vec::new(),
            pending: VecDeque::new(),
            max_attempts: 3,
        }
    }

    /// Registers an account: user-domain record plus the kernel residue
    /// credential (hash only).
    pub fn register(
        &mut self,
        kernel: &mut Kernel,
        name: &str,
        user: UserId,
        password: &str,
        clearance: Label,
    ) {
        kernel.register_account(name, user, password_hash(password), clearance);
        self.records.entry(name.to_string()).or_default();
    }

    /// The full login flow: policy checks here, authentication at the
    /// residue gate.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadCredentials`] (wrong password, unknown account,
    /// or locked out), [`KernelError::AimViolation`] (label above
    /// clearance).
    pub fn login(
        &mut self,
        kernel: &mut Kernel,
        name: &str,
        password: &str,
        label: Label,
    ) -> Result<ProcessId, KernelError> {
        // A registered account's record is found by the borrowed name;
        // only an unknown name's new record owns a copy.
        let record = match self.records.get_mut(name) {
            Some(record) => record,
            None => self.records.entry(name.to_string()).or_default(),
        };
        if record.failed_attempts >= self.max_attempts {
            return Err(KernelError::BadCredentials);
        }
        // Nine-tenths of the old 10K-line service runs here,
        // unprivileged: greeting parsing, policy, session setup.
        kernel.charge_user_instructions(880, mx_hw::Language::Pli);
        match kernel.login_residue(name, password_hash(password), label) {
            Ok(pid) => {
                record.failed_attempts = 0;
                self.sessions.push(Session {
                    name: name.to_string(),
                    pid,
                    label,
                });
                Ok(pid)
            }
            Err(e) => {
                if e == KernelError::BadCredentials {
                    record.failed_attempts += 1;
                }
                Err(e)
            }
        }
    }

    /// Logout: residue gate destroys the process and reports the charge;
    /// the billing record is user-domain.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] if the session is unknown.
    pub fn logout(&mut self, kernel: &mut Kernel, pid: ProcessId) -> Result<u64, KernelError> {
        let idx = self
            .sessions
            .iter()
            .position(|s| s.pid == pid)
            .ok_or(KernelError::NoSuchProcess)?;
        let session = self.sessions.remove(idx);
        kernel.charge_user_instructions(240, mx_hw::Language::Pli);
        let charge = kernel.logout_residue(&session.name, pid)?;
        let record = self.records.entry(session.name).or_default();
        record.sessions += 1;
        record.charge_units += charge;
        Ok(charge)
    }

    /// Login under load: when every process slot is taken the request is
    /// queued instead of refused, and admitted later by
    /// [`AnsweringService::admit_waiting`] once a logout frees a slot.
    /// A login storm therefore never panics and never loses a
    /// well-formed request.
    ///
    /// # Errors
    ///
    /// Exactly the refusals [`AnsweringService::login`] gives — bad
    /// credentials, lockout, clearance violation. Slot exhaustion is not
    /// an error here; it queues.
    pub fn login_or_queue(
        &mut self,
        kernel: &mut Kernel,
        name: &str,
        password: &str,
        label: Label,
    ) -> Result<Admission, KernelError> {
        match self.login(kernel, name, password, label) {
            Ok(pid) => Ok(Admission::Admitted(pid)),
            Err(KernelError::TableFull(_)) => {
                self.pending.push_back(PendingLogin {
                    name: name.to_string(),
                    password: password.to_string(),
                    label,
                });
                Ok(Admission::Queued(self.pending.len()))
            }
            Err(e) => Err(e),
        }
    }

    /// Admits queued logins in arrival order while process slots last.
    /// Requests the policy now refuses outright (lockout reached while
    /// queued, say) are dropped; the head request blocked only by a full
    /// process table stays at the head.
    pub fn admit_waiting(&mut self, kernel: &mut Kernel) -> Vec<(String, ProcessId)> {
        let mut admitted = Vec::new();
        while let Some(req) = self.pending.pop_front() {
            match self.login(kernel, &req.name, &req.password, req.label) {
                Ok(pid) => admitted.push((req.name, pid)),
                Err(KernelError::TableFull(_)) => {
                    self.pending.push_front(req);
                    break;
                }
                Err(_) => {}
            }
        }
        admitted
    }

    /// Crash recovery for the service's own state: every live session's
    /// process died with core, so the session list is cleared — but the
    /// billing records and the *admission queue survive intact*. Parked
    /// logins are pure user-domain bookkeeping (name, password, label);
    /// the crash owes them nothing but their place in line, and
    /// [`AnsweringService::admit_waiting`] against the recovered kernel
    /// admits them in the original FIFO order. Returns the names of the
    /// sessions the crash killed, in login order.
    pub fn crash_recover(&mut self) -> Vec<String> {
        std::mem::take(&mut self.sessions)
            .into_iter()
            .map(|s| s.name)
            .collect()
    }

    /// Names of the parked logins, head (oldest) first — the order
    /// [`AnsweringService::admit_waiting`] will admit them in.
    pub fn pending_names(&self) -> Vec<String> {
        self.pending.iter().map(|p| p.name.clone()).collect()
    }

    /// Discards the *youngest* parked login, violating the service's
    /// keep-every-queued-login recovery obligation on purpose. Exists so
    /// recovery harnesses can prove their oracles catch a service that
    /// loses admissions across a crash; never called by real paths.
    #[doc(hidden)]
    pub fn drop_last_pending_for_test(&mut self) {
        self.pending.pop_back();
    }

    /// Logins parked for a process slot.
    pub fn queued_logins(&self) -> usize {
        self.pending.len()
    }

    /// Live session count.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// An account's user-domain record.
    pub fn record(&self, name: &str) -> Option<&AccountRecord> {
        self.records.get(name)
    }

    /// The billing report: (account, sessions, charge units), sorted by
    /// account name.
    pub fn billing_report(&self) -> Vec<(String, u64, u64)> {
        let mut rows: Vec<_> = self
            .records
            .iter()
            .map(|(n, r)| (n.clone(), r.sessions, r.charge_units))
            .collect();
        rows.sort();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_aim::{CompartmentSet, Level};
    use mx_kernel::KernelConfig;

    fn boot() -> Kernel {
        Kernel::boot(KernelConfig {
            frames: 128,
            records_per_pack: 256,
            toc_slots_per_pack: 64,
            pt_slots: 24,
            max_processes: 8,
            root_quota: 200,
            ..KernelConfig::default()
        })
    }

    #[test]
    fn login_session_logout_and_billing() {
        let mut k = boot();
        let mut svc = AnsweringService::new();
        svc.register(&mut k, "saltzer", UserId(1), "cactus", Label::BOTTOM);
        let pid = svc
            .login(&mut k, "saltzer", "cactus", Label::BOTTOM)
            .unwrap();
        assert_eq!(svc.active_sessions(), 1);
        k.schedule();
        let charge = svc.logout(&mut k, pid).unwrap();
        assert!(charge > 0);
        let rec = svc.record("saltzer").unwrap();
        assert_eq!(rec.sessions, 1);
        assert_eq!(rec.charge_units, charge);
        assert_eq!(svc.active_sessions(), 0);
        assert_eq!(svc.billing_report(), vec![("saltzer".into(), 1, charge)]);
    }

    #[test]
    fn three_strikes_lockout_is_pure_user_domain_policy() {
        let mut k = boot();
        let mut svc = AnsweringService::new();
        svc.register(&mut k, "clark", UserId(2), "arpa", Label::BOTTOM);
        for _ in 0..3 {
            assert_eq!(
                svc.login(&mut k, "clark", "wrong", Label::BOTTOM)
                    .unwrap_err(),
                KernelError::BadCredentials
            );
        }
        // Even the right password is refused now — by the user-domain
        // policy, before the gate is ever crossed.
        let gates = k.machine.clock.gate_crossings();
        assert_eq!(
            svc.login(&mut k, "clark", "arpa", Label::BOTTOM)
                .unwrap_err(),
            KernelError::BadCredentials
        );
        assert_eq!(
            k.machine.clock.gate_crossings(),
            gates,
            "no gate crossing for lockout"
        );
    }

    #[test]
    fn clearance_enforced_by_the_residue() {
        let mut k = boot();
        let mut svc = AnsweringService::new();
        let secret = Label::new(Level(2), CompartmentSet::empty());
        svc.register(&mut k, "low", UserId(3), "pw", Label::BOTTOM);
        assert_eq!(
            svc.login(&mut k, "low", "pw", secret).unwrap_err(),
            KernelError::AimViolation
        );
        svc.register(&mut k, "high", UserId(4), "pw", secret);
        assert!(svc.login(&mut k, "high", "pw", secret).is_ok());
        assert!(svc.login(&mut k, "high", "pw", Label::BOTTOM).is_ok());
    }

    #[test]
    fn login_storm_queues_beyond_process_slots() {
        let mut k = boot(); // 8 slots, one taken by the kernel's residue? none here
        let mut svc = AnsweringService::new();
        for i in 0..12 {
            svc.register(
                &mut k,
                &format!("user{i:02}"),
                UserId(10 + i),
                "pw",
                Label::BOTTOM,
            );
        }
        let mut live = Vec::new();
        let mut queued = 0;
        for i in 0..12 {
            match svc
                .login_or_queue(&mut k, &format!("user{i:02}"), "pw", Label::BOTTOM)
                .unwrap()
            {
                Admission::Admitted(pid) => live.push(pid),
                Admission::Queued(_) => queued += 1,
            }
        }
        assert_eq!(live.len(), 8, "every process slot filled");
        assert_eq!(queued, 4, "overflow queued, not refused, not panicked");
        assert_eq!(svc.queued_logins(), 4);
        // Nothing admits while the table is still full.
        assert!(svc.admit_waiting(&mut k).is_empty());
        // Two logouts free two slots; exactly the two oldest waiters land.
        svc.logout(&mut k, live[0]).unwrap();
        svc.logout(&mut k, live[1]).unwrap();
        let admitted = svc.admit_waiting(&mut k);
        let names: Vec<&str> = admitted.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["user08", "user09"], "arrival order preserved");
        assert_eq!(svc.queued_logins(), 2);
    }

    #[test]
    fn bad_credentials_are_refused_not_queued() {
        let mut k = boot();
        let mut svc = AnsweringService::new();
        svc.register(&mut k, "corbato", UserId(5), "ctss", Label::BOTTOM);
        assert_eq!(
            svc.login_or_queue(&mut k, "corbato", "wrong", Label::BOTTOM)
                .unwrap_err(),
            KernelError::BadCredentials
        );
        assert_eq!(svc.queued_logins(), 0, "refusals never park");
    }

    #[test]
    fn double_logout_is_a_typed_error() {
        let mut k = boot();
        let mut svc = AnsweringService::new();
        svc.register(&mut k, "once", UserId(6), "pw", Label::BOTTOM);
        let pid = svc.login(&mut k, "once", "pw", Label::BOTTOM).unwrap();
        svc.logout(&mut k, pid).unwrap();
        assert_eq!(
            svc.logout(&mut k, pid).unwrap_err(),
            KernelError::NoSuchProcess
        );
        let rec = svc.record("once").unwrap();
        assert_eq!(rec.sessions, 1, "billed exactly once");
    }

    #[test]
    fn logout_of_never_logged_in_user_is_a_typed_error() {
        let mut k = boot();
        let mut svc = AnsweringService::new();
        svc.register(&mut k, "ghost", UserId(7), "pw", Label::BOTTOM);
        assert_eq!(
            svc.logout(&mut k, ProcessId(3)).unwrap_err(),
            KernelError::NoSuchProcess
        );
    }

    #[test]
    fn abandoned_session_slot_is_reused_after_reap() {
        let mut k = boot();
        let mut svc = AnsweringService::new();
        for i in 0..9 {
            svc.register(
                &mut k,
                &format!("u{i}"),
                UserId(20 + i),
                "pw",
                Label::BOTTOM,
            );
        }
        // Fill all 8 slots; the 8th user walks away without logging out.
        let mut pids = Vec::new();
        for i in 0..8 {
            pids.push(
                svc.login(&mut k, &format!("u{i}"), "pw", Label::BOTTOM)
                    .unwrap(),
            );
        }
        assert!(matches!(
            svc.login_or_queue(&mut k, "u8", "pw", Label::BOTTOM)
                .unwrap(),
            Admission::Queued(_)
        ));
        // The service reaps the abandoned session (logout on the user's
        // behalf); its slot then serves the waiter.
        let abandoned = pids[7];
        svc.logout(&mut k, abandoned).unwrap();
        let admitted = svc.admit_waiting(&mut k);
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].0, "u8");
        assert_eq!(admitted[0].1, abandoned, "the freed slot is the one reused");
    }

    #[test]
    fn crash_recovery_preserves_admission_order_and_billing() {
        let mut k = boot(); // 8 process slots
        let mut svc = AnsweringService::new();
        for i in 0..12 {
            svc.register(
                &mut k,
                &format!("user{i:02}"),
                UserId(10 + i),
                "pw",
                Label::BOTTOM,
            );
        }
        // One completed session before the storm, so a billing record
        // exists to survive the crash.
        let early = svc.login(&mut k, "user00", "pw", Label::BOTTOM).unwrap();
        let charge = svc.logout(&mut k, early).unwrap();
        // Fill every slot and park the overflow.
        for i in 0..12 {
            svc.login_or_queue(&mut k, &format!("user{i:02}"), "pw", Label::BOTTOM)
                .unwrap();
        }
        assert_eq!(svc.active_sessions(), 8);
        let queued_before = svc.pending_names();
        assert_eq!(queued_before, vec!["user08", "user09", "user10", "user11"]);

        // Power fails: core (and every process) is gone. The service is
        // user-domain state and rides it out.
        let killed = svc.crash_recover();
        assert_eq!(killed.len(), 8, "every live session died with core");
        assert_eq!(svc.active_sessions(), 0);
        assert_eq!(
            svc.pending_names(),
            queued_before,
            "the admission queue survives the crash untouched"
        );
        let rec = svc.record("user00").unwrap();
        assert_eq!((rec.sessions, rec.charge_units), (1, charge));

        // Against a recovered kernel (fresh process table here), the
        // parked logins admit in their original FIFO order.
        let mut k2 = boot();
        for i in 0..12 {
            svc.register(
                &mut k2,
                &format!("user{i:02}"),
                UserId(10 + i),
                "pw",
                Label::BOTTOM,
            );
        }
        let admitted = svc.admit_waiting(&mut k2);
        let names: Vec<&str> = admitted.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["user08", "user09", "user10", "user11"],
            "original arrival order, across the crash boundary"
        );
        assert_eq!(svc.queued_logins(), 0);
    }

    #[test]
    fn cleartext_never_crosses_the_gate() {
        // The gate takes a hash; this test just pins the user-space
        // hashing behaviour.
        assert_ne!(password_hash("a"), password_hash("b"));
        assert_eq!(password_hash("cactus"), password_hash("cactus"));
    }

    /// A login's outcome, the cycles it took and the account's record
    /// after it, for a registered name (the borrowed probe hits) and an
    /// unknown one (it misses and files a record), as the owned-key probe
    /// charged them.
    #[test]
    fn a_login_probe_hit_and_miss_charge_what_they_charged() {
        let mut k = boot();
        let mut svc = AnsweringService::new();
        svc.register(&mut k, "saltzer", UserId(1), "cactus", Label::BOTTOM);
        let mut seen = Vec::new();
        for (name, password) in [
            ("saltzer", "cactus"), // hit, admitted
            ("saltzer", "wrong"),  // hit, refused
            ("mallory", "cactus"), // miss: a record is filed
            ("mallory", "cactus"), // hit on the filed record
            ("saltzer", "cactus"), // hit, admitted again
        ] {
            let before = k.machine.clock.now();
            let got = svc.login(&mut k, name, password, Label::BOTTOM).is_ok();
            let took = k.machine.clock.now() - before;
            let attempts = svc.record(name).map(|r| r.failed_attempts);
            seen.push((got, took, attempts, svc.records.len()));
        }
        assert_eq!(
            seen,
            [
                (true, 3526, Some(0), 1),
                (false, 2098, Some(1), 1),
                (false, 2098, Some(1), 2),
                (false, 2098, Some(2), 2),
                (true, 3061, Some(0), 2),
            ]
        );
    }
}
