//! The identifiers both designs hand out: segment uids, users and
//! processes. The kernel and the 1974 supervisor name the same objects,
//! so the names are declared once, here, and each design re-exports them
//! at its own paths.

/// A segment's system-wide unique identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegUid(pub u64);

/// A user principal known to the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u32);

/// A user process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u32);
