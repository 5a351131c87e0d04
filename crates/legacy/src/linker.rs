//! The in-kernel dynamic linker.
//!
//! In the pre-kernel system the dynamic linker ran inside ring zero: a
//! linkage fault trapped into the supervisor, which resolved the symbolic
//! reference (pathname search, segment initiation, definition search) and
//! snapped the link, all with full supervisor privilege. Janson's project
//! (the 2K-line / 11%-of-gates reduction in the size table) moved it out;
//! the moved version lives in `mx-user`.
//!
//! The in-kernel version is *fast* — one gate crossing, direct access to
//! every data base — which is why the paper reports the extracted linker
//! ran "somewhat slower". The benchmark pair P1 measures exactly that.

use crate::supervisor::Supervisor;
use crate::types::{LegacyError, ProcessId, SegUid};
use mx_hw::meter::Subsystem;
use mx_hw::Language;

const DEFSEARCH_INSTR_PER_DEF: u64 = 8;
const SNAP_INSTR: u64 = 120;

/// A snapped link: where a symbolic reference now points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnappedLink {
    /// Segment number in the faulting process's address space.
    pub segno: u32,
    /// Word offset of the definition.
    pub offset: u32,
}

impl Supervisor {
    /// Publishes an object segment's definition list (symbol → offset),
    /// as the compiler would have laid it down in the segment's header.
    pub fn publish_definitions(&mut self, uid: SegUid, defs: &[(&str, u32)]) {
        self.definitions
            .insert(uid, defs.iter().map(|(s, o)| (s.to_string(), *o)).collect());
    }

    /// Services a linkage fault entirely inside the kernel: resolves
    /// `path`, initiates it if necessary, searches its definitions for
    /// `symbol`, snaps and caches the link.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoAccess`] if the path does not resolve,
    /// [`LegacyError::UndefinedSymbol`] if the symbol is absent.
    pub fn link(
        &mut self,
        pid: ProcessId,
        path: &str,
        symbol: &str,
    ) -> Result<SnappedLink, LegacyError> {
        self.scoped(Subsystem::Linker, |s| s.link_body(pid, path, symbol))
    }

    fn link_body(
        &mut self,
        pid: ProcessId,
        path: &str,
        symbol: &str,
    ) -> Result<SnappedLink, LegacyError> {
        let cost = self.machine.cost;
        self.machine.clock.charge_gate(&cost);
        // One fast path: the link may already be snapped.
        let (uid, _entry) = self.resolve(pid, path, crate::types::AccessRight::Execute)?;
        if let Some(&(segno, offset)) = self.linkage.get(&(pid, uid, symbol.to_string())) {
            return Ok(SnappedLink { segno, offset });
        }
        self.charge(SNAP_INSTR, Language::Pli);
        // Initiate (or find) the target in this process's address space.
        let segno = match self.segno_of(pid, uid) {
            Some(s) => s,
            None => self.initiate(pid, path)?,
        };
        let defs = self
            .definitions
            .get(&uid)
            .ok_or(LegacyError::UndefinedSymbol)?;
        let mut found = None;
        let mut scanned = 0u64;
        for (name, offset) in defs {
            scanned += 1;
            if name == symbol {
                found = Some(*offset);
                break;
            }
        }
        self.charge(DEFSEARCH_INSTR_PER_DEF * scanned, Language::Pli);
        let offset = found.ok_or(LegacyError::UndefinedSymbol)?;
        self.linkage
            .insert((pid, uid, symbol.to_string()), (segno, offset));
        Ok(SnappedLink { segno, offset })
    }

    /// Finds the segment number a uid is already known by in a process.
    pub(crate) fn segno_of(&self, pid: ProcessId, uid: SegUid) -> Option<u32> {
        let proc = self.processes.get(pid.0 as usize)?.as_ref()?;
        proc.kst.segno_of(uid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Acl, UserId};
    use mx_aim::Label;

    fn setup() -> (Supervisor, ProcessId, SegUid) {
        let mut sup = Supervisor::boot_default();
        let user = UserId(1);
        let pid = sup.create_process(user, Label::BOTTOM).unwrap();
        let lib = sup
            .create_segment_in(sup.root(), "libmath", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        sup.publish_definitions(lib, &[("sin", 100), ("cos", 200), ("sqrt", 300)]);
        (sup, pid, lib)
    }

    #[test]
    fn link_resolves_and_snaps() {
        let (mut sup, pid, lib) = setup();
        let l = sup.link(pid, "libmath", "cos").unwrap();
        assert_eq!(l.offset, 200);
        assert_eq!(sup.segno_of(pid, lib), Some(l.segno), "target initiated");
        // Second link to the same symbol hits the snap cache.
        let gates_before = sup.machine.clock.gate_crossings();
        let again = sup.link(pid, "libmath", "cos").unwrap();
        assert_eq!(again, l);
        assert_eq!(
            sup.machine.clock.gate_crossings(),
            gates_before + 1,
            "one gate, no re-snap"
        );
    }

    #[test]
    fn undefined_symbol_reported() {
        let (mut sup, pid, _lib) = setup();
        assert_eq!(
            sup.link(pid, "libmath", "tan").unwrap_err(),
            LegacyError::UndefinedSymbol
        );
    }

    #[test]
    fn linking_an_inaccessible_target_is_no_access() {
        let (mut sup, _pid, _lib) = setup();
        let other = sup.create_process(UserId(2), Label::BOTTOM).unwrap();
        assert_eq!(
            sup.link(other, "libmath", "sin").unwrap_err(),
            LegacyError::NoAccess
        );
    }
}
