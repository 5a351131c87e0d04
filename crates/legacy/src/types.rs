//! The supervisor error type. The identifiers, disk homes and ACLs are
//! declared once in [`mx_hw`] for both designs and re-exported here.

pub use mx_hw::{AccessRight, Acl, DiskHome, ProcessId, SegUid, UserId};
use mx_hw::{DiskError, Fault};

/// Everything the old supervisor can report as going wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LegacyError {
    /// The uniform no-information answer: the object does not exist *or*
    /// the caller lacks access — deliberately indistinguishable.
    NoAccess,
    /// A pathname component was not a directory.
    NotADirectory,
    /// The referenced name already exists in the directory.
    NameDuplicated,
    /// A name the entry codec cannot store: longer than
    /// [`mx_hw::word::NAME_CHARS`] bytes, or holding NUL or non-ASCII.
    BadName,
    /// A label the entry codec cannot store: a level above 7 or a
    /// compartment above 23 ([`mx_aim::Label::stored`]).
    BadLabel,
    /// An ACL the entry codec cannot store: more than four terms, or a
    /// user id above 255 ([`Acl::stored`]).
    BadAcl,
    /// Growing the segment would exceed the controlling quota.
    QuotaExceeded { limit: u32, used: u32 },
    /// No pack in the system has room for the segment.
    AllPacksFull,
    /// The active segment table is full.
    AstFull,
    /// The page-table pool is exhausted.
    PageTablePoolFull,
    /// No such process.
    NoSuchProcess,
    /// Every process slot is taken.
    ProcessTableFull,
    /// The per-process known-segment table is full.
    KstFull,
    /// A quota directory cannot be un-designated while charged, or
    /// designated twice.
    QuotaCellBusy,
    /// Authentication failed (answering service).
    BadPassword,
    /// The named user is unknown (answering service).
    UnknownUser,
    /// Mandatory access (AIM) forbade the flow.
    AimViolation,
    /// An unexpected hardware fault escaped the fault handlers.
    UnhandledFault(Fault),
    /// Segment offset beyond the maximum segment size.
    SegmentTooBig,
    /// An undefined symbol was presented to the linker.
    UndefinedSymbol,
    /// A network handler was given a channel it does not know.
    NoSuchChannel,
    /// A wire frame exceeds the handler's buffer bound.
    FrameTooBig {
        /// Bytes in the offending frame.
        len: usize,
        /// The largest frame the handler accepts.
        max: usize,
    },
    /// An operation needed the segment active but activation failed.
    NotActive,
    /// A disk operation failed past the supervisor's retry budget
    /// (transient read exhausted), or unrecoverably (pack offline, power
    /// failed) — surfaced typed, never a panic.
    Disk(DiskError),
    /// The referenced directory is quarantined by the online salvager
    /// (not yet proven clean after a crash). Transient: retry after the
    /// salvager releases the directory.
    SalvageBusy,
    /// The salvager itself hit an internal inconsistency it cannot
    /// repair in place.
    Salvage(&'static str),
}

impl core::fmt::Display for LegacyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LegacyError::NoAccess => write!(f, "no access"),
            LegacyError::NotADirectory => write!(f, "not a directory"),
            LegacyError::NameDuplicated => write!(f, "name duplicated"),
            LegacyError::BadName => write!(f, "name not storable"),
            LegacyError::BadLabel => write!(f, "label not storable"),
            LegacyError::BadAcl => write!(f, "ACL not storable"),
            LegacyError::QuotaExceeded { limit, used } => {
                write!(f, "quota exceeded ({used}/{limit} pages)")
            }
            LegacyError::AllPacksFull => write!(f, "all packs full"),
            LegacyError::AstFull => write!(f, "active segment table full"),
            LegacyError::PageTablePoolFull => write!(f, "page table pool full"),
            LegacyError::NoSuchProcess => write!(f, "no such process"),
            LegacyError::ProcessTableFull => write!(f, "process table full"),
            LegacyError::KstFull => write!(f, "known segment table full"),
            LegacyError::QuotaCellBusy => write!(f, "quota cell busy"),
            LegacyError::BadPassword => write!(f, "bad password"),
            LegacyError::UnknownUser => write!(f, "unknown user"),
            LegacyError::AimViolation => write!(f, "AIM flow violation"),
            LegacyError::UnhandledFault(fault) => write!(f, "unhandled fault: {fault}"),
            LegacyError::SegmentTooBig => write!(f, "segment too big"),
            LegacyError::UndefinedSymbol => write!(f, "undefined symbol"),
            LegacyError::NoSuchChannel => write!(f, "no such channel"),
            LegacyError::FrameTooBig { len, max } => {
                write!(f, "frame too big ({len} bytes, max {max})")
            }
            LegacyError::NotActive => write!(f, "segment not active"),
            LegacyError::Disk(e) => write!(f, "disk failure: {e}"),
            LegacyError::SalvageBusy => write!(f, "directory quarantined by online salvage"),
            LegacyError::Salvage(why) => write!(f, "salvage error: {why}"),
        }
    }
}

impl std::error::Error for LegacyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acl_grant_permit_revoke() {
        let mut acl = Acl::new();
        let u = UserId(3);
        assert!(!acl.permits(u, AccessRight::Read));
        acl.grant(u, &[AccessRight::Read, AccessRight::Execute]);
        assert!(acl.permits(u, AccessRight::Read));
        assert!(!acl.permits(u, AccessRight::Write));
        acl.grant(u, &[AccessRight::Write]);
        assert!(acl.permits(u, AccessRight::Write), "grants accumulate");
        acl.revoke(u);
        assert!(!acl.permits(u, AccessRight::Read));
    }

    #[test]
    fn owner_acl_has_full_access() {
        let acl = Acl::owner(UserId(1));
        for r in [AccessRight::Read, AccessRight::Write, AccessRight::Execute] {
            assert!(acl.permits(UserId(1), r));
            assert!(!acl.permits(UserId(2), r));
        }
    }

    #[test]
    fn acl_pack_unpack_round_trip() {
        let mut acl = Acl::new();
        acl.grant(UserId(0), &[AccessRight::Read]);
        acl.grant(UserId(7), &[AccessRight::Read, AccessRight::Write]);
        acl.grant(UserId(200), &[AccessRight::Execute]);
        let (u, r) = acl.stored().unwrap();
        let back = Acl::unpack(u, r);
        assert!(back.permits(UserId(0), AccessRight::Read));
        assert!(!back.permits(UserId(0), AccessRight::Write));
        assert!(back.permits(UserId(7), AccessRight::Write));
        assert!(back.permits(UserId(200), AccessRight::Execute));
        assert!(!back.permits(UserId(5), AccessRight::Read));
    }

    #[test]
    fn user_zero_with_rights_survives_packing() {
        // UserId(0) must be distinguishable from an empty slot.
        let mut acl = Acl::new();
        acl.grant(UserId(0), &[AccessRight::Write]);
        let (u, r) = acl.stored().unwrap();
        let back = Acl::unpack(u, r);
        assert!(back.permits(UserId(0), AccessRight::Write));
    }

    #[test]
    fn errors_display() {
        assert_eq!(format!("{}", LegacyError::NoAccess), "no access");
        assert_eq!(
            format!(
                "{}",
                LegacyError::QuotaExceeded {
                    limit: 10,
                    used: 10
                }
            ),
            "quota exceeded (10/10 pages)"
        );
    }
}
