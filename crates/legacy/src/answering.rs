//! The in-kernel answering service.
//!
//! "The Answering Service: the programs that regulate attempts to log in
//! to the system, including authenticating passwords, and manage system
//! accounting. These programs were the equivalent of 10,000 lines of PL/I
//! code" — all of it trusted. Montgomery's study showed fewer than 1,000
//! of those lines need protection; the restructured version lives in
//! `mx-user` with only a small residue gate in the kernel.
//!
//! Here is the old shape: registration, password authentication, process
//! creation, and accounting all execute as one privileged blob.

use crate::supervisor::Supervisor;
use crate::types::{LegacyError, ProcessId, UserId};
use mx_aim::Label;
use mx_hw::meter::Subsystem;
use mx_hw::Language;

/// Cost of the monolithic login path (10K lines of trusted PL/I do a lot
/// of work per login).
const LOGIN_INSTR: u64 = 900;
const LOGOUT_INSTR: u64 = 250;

/// A registered user account.
#[derive(Debug, Clone)]
pub struct UserAccount {
    /// The user's id.
    pub user: UserId,
    /// Hash of the password (FNV-1a over the cleartext; the experiments
    /// need determinism, not cryptography).
    pub password_hash: u64,
    /// The highest AIM label the user may log in at.
    pub clearance: Label,
    /// Accounting: accumulated charge units across sessions.
    pub charge_units: u64,
    /// Number of completed sessions.
    pub sessions: u64,
}

/// Deterministic FNV-1a used for password comparison.
pub fn password_hash(cleartext: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in cleartext.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl Supervisor {
    /// Registers a user with a password and an AIM clearance.
    pub fn register_user(&mut self, name: &str, user: UserId, password: &str, clearance: Label) {
        self.users.insert(
            name.to_string(),
            UserAccount {
                user,
                password_hash: password_hash(password),
                clearance,
                charge_units: 0,
                sessions: 0,
            },
        );
    }

    /// The monolithic login: authenticate, check the requested label
    /// against the clearance, create the process, open the accounting
    /// record — all inside the kernel.
    ///
    /// # Errors
    ///
    /// [`LegacyError::UnknownUser`], [`LegacyError::BadPassword`],
    /// [`LegacyError::AimViolation`] (label above clearance), or process
    /// creation errors.
    pub fn login(
        &mut self,
        name: &str,
        password: &str,
        label: Label,
    ) -> Result<ProcessId, LegacyError> {
        self.scoped(Subsystem::AnsweringService, |s| {
            s.charge(LOGIN_INSTR, Language::Pli);
            let account = s.users.get(name).ok_or(LegacyError::UnknownUser)?;
            if account.password_hash != password_hash(password) {
                return Err(LegacyError::BadPassword);
            }
            if !account.clearance.dominates(label) {
                return Err(LegacyError::AimViolation);
            }
            let user = account.user;
            s.create_process(user, label)
        })
    }

    /// Logout: finalize accounting and destroy the process.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoSuchProcess`] / [`LegacyError::UnknownUser`].
    pub fn logout(&mut self, name: &str, pid: ProcessId) -> Result<u64, LegacyError> {
        self.scoped(Subsystem::AnsweringService, |s| {
            s.charge(LOGOUT_INSTR, Language::Pli);
            let used = s.cpu_charge(pid)?;
            s.destroy_process(pid)?;
            let account = s.users.get_mut(name).ok_or(LegacyError::UnknownUser)?;
            account.charge_units += used;
            account.sessions += 1;
            Ok(used)
        })
    }

    /// A user's accumulated charge units.
    pub fn account_charge(&self, name: &str) -> Option<u64> {
        self.users.get(name).map(|a| a.charge_units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_aim::{CompartmentSet, Level};

    fn secret() -> Label {
        Label::new(Level(2), CompartmentSet::empty())
    }

    #[test]
    fn login_logout_cycle_bills_the_account() {
        let mut sup = Supervisor::boot_default();
        sup.register_user("saltzer", UserId(1), "cactus", secret());
        let pid = sup.login("saltzer", "cactus", Label::BOTTOM).unwrap();
        sup.dispatch();
        let used = sup.logout("saltzer", pid).unwrap();
        assert!(used > 0, "dispatching accrued charge");
        assert_eq!(sup.account_charge("saltzer"), Some(used));
        assert_eq!(sup.live_processes(), 0);
    }

    #[test]
    fn bad_password_and_unknown_user_rejected() {
        let mut sup = Supervisor::boot_default();
        sup.register_user("clark", UserId(2), "arpa", Label::BOTTOM);
        assert_eq!(
            sup.login("clark", "wrong", Label::BOTTOM).unwrap_err(),
            LegacyError::BadPassword
        );
        assert_eq!(
            sup.login("nobody", "x", Label::BOTTOM).unwrap_err(),
            LegacyError::UnknownUser
        );
    }

    #[test]
    fn login_above_clearance_denied() {
        let mut sup = Supervisor::boot_default();
        sup.register_user("low", UserId(3), "pw", Label::BOTTOM);
        assert_eq!(
            sup.login("low", "pw", secret()).unwrap_err(),
            LegacyError::AimViolation
        );
    }

    #[test]
    fn login_storm_beyond_slots_is_a_typed_refusal_never_a_panic() {
        let mut sup = Supervisor::boot(crate::supervisor::SupervisorConfig {
            max_processes: 3,
            ..Default::default()
        });
        for i in 0..5 {
            sup.register_user(&format!("u{i}"), UserId(10 + i), "pw", Label::BOTTOM);
        }
        let mut live = Vec::new();
        let mut refused = 0;
        for i in 0..5 {
            match sup.login(&format!("u{i}"), "pw", Label::BOTTOM) {
                Ok(pid) => live.push(pid),
                Err(LegacyError::ProcessTableFull) => refused += 1,
                Err(e) => panic!("unexpected refusal {e:?}"),
            }
        }
        assert_eq!(live.len(), 3, "every slot filled");
        assert_eq!(refused, 2, "the old design refuses the overflow");
        // A freed slot serves the next attempt: the caller's retry loop
        // is the old design's only admission policy.
        sup.logout("u0", live[0]).unwrap();
        assert!(sup.login("u3", "pw", Label::BOTTOM).is_ok());
    }

    #[test]
    fn double_logout_is_a_typed_error() {
        let mut sup = Supervisor::boot_default();
        sup.register_user("once", UserId(6), "pw", Label::BOTTOM);
        let pid = sup.login("once", "pw", Label::BOTTOM).unwrap();
        sup.logout("once", pid).unwrap();
        assert_eq!(
            sup.logout("once", pid).unwrap_err(),
            LegacyError::NoSuchProcess
        );
        assert_eq!(sup.users.get("once").unwrap().sessions, 1, "billed once");
    }

    #[test]
    fn logout_of_never_logged_in_user_is_a_typed_error() {
        let mut sup = Supervisor::boot_default();
        sup.register_user("ghost", UserId(7), "pw", Label::BOTTOM);
        assert_eq!(
            sup.logout("ghost", ProcessId(2)).unwrap_err(),
            LegacyError::NoSuchProcess
        );
    }

    #[test]
    fn abandoned_session_slot_is_reused_after_reap() {
        let mut sup = Supervisor::boot(crate::supervisor::SupervisorConfig {
            max_processes: 2,
            ..Default::default()
        });
        sup.register_user("a", UserId(1), "pw", Label::BOTTOM);
        sup.register_user("b", UserId(2), "pw", Label::BOTTOM);
        sup.register_user("c", UserId(3), "pw", Label::BOTTOM);
        let _a = sup.login("a", "pw", Label::BOTTOM).unwrap();
        let b = sup.login("b", "pw", Label::BOTTOM).unwrap();
        // b abandons the terminal; the operator reaps the session.
        sup.logout("b", b).unwrap();
        let c = sup.login("c", "pw", Label::BOTTOM).unwrap();
        assert_eq!(c, b, "the abandoned slot is recycled");
    }

    #[test]
    fn login_at_or_below_clearance_allowed() {
        let mut sup = Supervisor::boot_default();
        sup.register_user("high", UserId(4), "pw", secret());
        assert!(sup.login("high", "pw", Label::BOTTOM).is_ok());
        assert!(sup.login("high", "pw", secret()).is_ok());
    }
}
