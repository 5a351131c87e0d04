//! Kernel errors and the upward-signal mechanism.
//!
//! The paper's second loop-breaking device is "software that transfers
//! control and arguments to a higher level module without leaving behind
//! any procedure activation records or other unfinished business in
//! expectation of a subsequent return of control". In this implementation
//! that is [`Signal`]: a value that propagates *out* of the dependency
//! structure through ordinary `Result` returns — each frame it unwinds
//! through really does finish (no activation record left waiting) — until
//! the gatekeeper trampoline catches it and invokes the higher-level
//! module (the directory manager) with the saved machine state.

use crate::types::{DiskHome, SegUid};
use mx_hw::{DiskError, Fault};

/// An upward signal: a condition discovered low in the dependency
/// structure that a higher-level module must finish handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// A full pack forced a whole-segment relocation; the directory
    /// manager must record the new home in the directory entry and then
    /// the original reference re-executes. The quota charge and page
    /// creation the reference needed are already done ("control finally
    /// returns … with both the quota and the unsuspected full disk pack
    /// exceptions taken care of").
    SegmentMoved {
        /// The segment that moved.
        uid: SegUid,
        /// Its new pack and table-of-contents index.
        new_home: DiskHome,
    },
}

/// Everything the kernel can report as going wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The uniform no-information answer.
    NoAccess,
    /// The honest "no such name" answer — issued only where the caller
    /// could have discovered the fact anyway (searching a directory it
    /// can read).
    NoEntry,
    /// Growing the segment would exceed its statically bound quota cell.
    QuotaExceeded {
        /// The controlling cell's limit.
        limit: u32,
        /// Pages currently charged.
        used: u32,
    },
    /// No pack in the system can hold the segment.
    AllPacksFull,
    /// A fixed table (AST, page-table pool, cell table, VP table) is out
    /// of slots.
    TableFull(&'static str),
    /// The named object must be active for this operation.
    NotActive,
    /// A name already exists in the target directory.
    NameDuplicated,
    /// A name the entry codec cannot store: longer than
    /// [`mx_hw::word::NAME_CHARS`] bytes, or holding NUL or non-ASCII.
    BadName,
    /// A label the entry codec cannot store: a level above 7 or a
    /// compartment above 23 ([`mx_aim::Label::stored`]).
    BadLabel,
    /// An ACL the entry codec cannot store: more than four terms, or a
    /// user id above 255 ([`crate::Acl::stored`]).
    BadAcl,
    /// The operation requires a directory.
    NotADirectory,
    /// Quota (un)designation rules violated: the directory has children
    /// or is (not) already a quota directory.
    QuotaDesignation(&'static str),
    /// The referenced process does not exist.
    NoSuchProcess,
    /// The per-process KST is full.
    KstFull,
    /// Offset beyond the maximum segment size.
    SegmentTooBig,
    /// Mandatory access control (AIM) forbade the flow.
    AimViolation,
    /// Authentication failed at the login residue gate.
    BadCredentials,
    /// The demultiplexer has no such stream or channel.
    NoSuchChannel,
    /// Another process has claimed the channel.
    ChannelClaimed,
    /// The eventcount id names no eventcount the kernel issued.
    NoSuchEventcount,
    /// A wire frame exceeds the demultiplexer's buffer bound.
    FrameTooBig {
        /// Bytes in the offending frame.
        len: usize,
        /// The largest frame the stream accepts.
        max: usize,
    },
    /// An upward signal is propagating; only the gatekeeper trampoline
    /// should observe and consume this variant.
    Upward(Signal),
    /// A hardware fault no handler claimed.
    UnhandledFault(Fault),
    /// A disk operation failed past the kernel's retry budget (transient
    /// read exhausted), or unrecoverably (pack offline, power failed) —
    /// the typed upward surface of a hardware fault, never a panic.
    Disk(DiskError),
    /// The referenced directory is quarantined by the online salvager
    /// (not yet proven clean after a crash). Transient: retry after the
    /// salvager releases the directory.
    SalvageBusy,
    /// The salvager itself hit an internal inconsistency it cannot
    /// express as a repairable [`crate::salvager::Problem`].
    Salvage(&'static str),
}

impl core::fmt::Display for KernelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelError::NoAccess => write!(f, "no access"),
            KernelError::NoEntry => write!(f, "no such entry"),
            KernelError::QuotaExceeded { limit, used } => {
                write!(f, "quota exceeded ({used}/{limit} pages)")
            }
            KernelError::AllPacksFull => write!(f, "all packs full"),
            KernelError::TableFull(which) => write!(f, "{which} table full"),
            KernelError::NotActive => write!(f, "segment not active"),
            KernelError::NameDuplicated => write!(f, "name duplicated"),
            KernelError::BadName => write!(f, "name not storable"),
            KernelError::BadLabel => write!(f, "label not storable"),
            KernelError::BadAcl => write!(f, "ACL not storable"),
            KernelError::NotADirectory => write!(f, "not a directory"),
            KernelError::QuotaDesignation(why) => write!(f, "quota designation: {why}"),
            KernelError::NoSuchProcess => write!(f, "no such process"),
            KernelError::KstFull => write!(f, "known segment table full"),
            KernelError::SegmentTooBig => write!(f, "segment too big"),
            KernelError::AimViolation => write!(f, "AIM flow violation"),
            KernelError::BadCredentials => write!(f, "bad credentials"),
            KernelError::NoSuchChannel => write!(f, "no such stream or channel"),
            KernelError::ChannelClaimed => write!(f, "channel claimed by another process"),
            KernelError::NoSuchEventcount => write!(f, "no such eventcount"),
            KernelError::FrameTooBig { len, max } => {
                write!(f, "frame too big ({len} bytes, max {max})")
            }
            KernelError::Upward(s) => write!(f, "unconsumed upward signal {s:?}"),
            KernelError::UnhandledFault(fault) => write!(f, "unhandled fault: {fault}"),
            KernelError::Disk(e) => write!(f, "disk failure: {e}"),
            KernelError::SalvageBusy => write!(f, "directory quarantined by online salvage"),
            KernelError::Salvage(why) => write!(f, "salvage error: {why}"),
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert_eq!(format!("{}", KernelError::NoAccess), "no access");
        assert_eq!(
            format!("{}", KernelError::QuotaExceeded { limit: 4, used: 4 }),
            "quota exceeded (4/4 pages)"
        );
        assert_eq!(
            format!("{}", KernelError::SalvageBusy),
            "directory quarantined by online salvage"
        );
        assert_eq!(
            format!("{}", KernelError::Salvage("frontier empty")),
            "salvage error: frontier empty"
        );
        assert!(format!(
            "{}",
            KernelError::Upward(Signal::SegmentMoved {
                uid: SegUid(1),
                new_home: DiskHome {
                    pack: mx_hw::PackId(1),
                    toc: mx_hw::TocIndex(0)
                },
            })
        )
        .contains("SegmentMoved"));
    }
}
