//! The pre-kernel Multics supervisor, loops and all.
//!
//! This crate is the *baseline* of the paper's engineering study: a
//! working model of the file system, memory management and processor
//! management portions of the 1974 Multics supervisor, implemented the
//! way Figure 3 describes — one monolithic [`Supervisor`] whose modules
//! call each other freely and share writable data bases directly:
//!
//! * **page control** identifies pages with segments by reading the
//!   active segment table (segment control's data base) directly, and
//!   enforces quota by dynamically walking the AST's image of the
//!   directory hierarchy to the nearest superior quota directory;
//! * **segment control** never deactivates a directory with active
//!   inferiors, and threads every active segment to its superior's AST
//!   entry, so its management of the AST is constrained to follow the
//!   shape of the hierarchy that directory control defines;
//! * on a **full disk pack**, page control invokes segment control,
//!   which relocates the whole segment and then *directly updates the
//!   directory entry* it finds through address-space control's data;
//! * on a **missing page**, the handler takes the global lock and
//!   *interpretively retranslates* the faulting virtual address —
//!   rewalking the address translation tables maintained by segment and
//!   address-space control — because the unmodified hardware leaves a
//!   window between the fault and the lock;
//! * the **dynamic linker**, the **answering service**, pathname
//!   resolution, and one handler **per attached network** all live
//!   inside the kernel.
//!
//! Everything runs against the simulated 1974-feature-level hardware of
//! `mx-hw` (no descriptor lock bit, no quota trap, one descriptor base
//! register). The module registry in [`registry`] declares the resulting
//! dependency structure, from which Figures 2 and 3 are generated.

pub mod answering;
pub mod ast;
pub mod directory_control;
pub mod linker;
pub mod network;
pub mod page_control;
pub mod process_control;
pub mod recovery;
pub mod registry;
pub mod segment_control;
pub mod supervisor;
pub mod types;

pub use mx_hw::salvage::OnlineCheat;
pub use recovery::{LegacyOnlineProgress, LegacySalvageReport};
pub use registry::{actual_structure, legacy_runtime_lattice, superficial_structure};
pub use supervisor::{Supervisor, SupervisorConfig};
pub use types::{AccessRight, Acl, LegacyError, ProcessId, SegUid, UserId};
