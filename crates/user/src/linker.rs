//! The user-domain dynamic linker (Janson, 1974).
//!
//! The extracted linker resolves a symbolic reference entirely with
//! unprivileged machinery: tree-name expansion through the name space
//! manager, an `initiate` gate, and then ordinary `read_word` gates to
//! scan the **symbol table stored in the object segment itself**. That
//! is more gate crossings and more faulted pages than the old in-kernel
//! linker needed — "the dynamic linker ran somewhat slower when removed
//! from the kernel" — but 2,000 lines and 11% of the user-visible gates
//! left ring zero.
//!
//! Symbol-table format (written by [`publish_library`]): word 0 is the
//! definition count; each definition is 9 words — 8 words of packed
//! name followed by the definition's word offset.

use crate::namespace::NameSpace;
use mx_hw::word::{name_is, pack_name};
use mx_hw::Word;
use mx_kernel::{Kernel, KernelError, ProcessId};
use std::collections::HashMap;

/// Words per symbol-table definition record.
const DEF_WORDS: u32 = 9;

/// Writes a library's symbol table into its segment (what the compiler
/// and binder would have produced).
///
/// # Errors
///
/// Propagates gate errors (access, quota).
pub fn publish_library(
    kernel: &mut Kernel,
    pid: ProcessId,
    segno: u32,
    defs: &[(&str, u32)],
) -> Result<(), KernelError> {
    kernel.write_word(pid, segno, 0, Word::new(defs.len() as u64))?;
    for (i, (name, offset)) in defs.iter().enumerate() {
        let base = 1 + i as u32 * DEF_WORDS;
        for (j, w) in pack_name(name).iter().enumerate() {
            kernel.write_word(pid, segno, base + j as u32, *w)?;
        }
        kernel.write_word(pid, segno, base + 8, Word::new(u64::from(*offset)))?;
    }
    Ok(())
}

/// A snapped link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnappedLink {
    /// Segment number of the target in this process.
    pub segno: u32,
    /// Word offset of the definition.
    pub offset: u32,
}

/// The per-process user-domain linker.
#[derive(Debug)]
pub struct UserLinker {
    pid: ProcessId,
    /// Snapped links: (path, symbol) → target.
    snapped: HashMap<(String, String), SnappedLink>,
    /// Linkage faults taken (cache misses).
    pub faults: u64,
}

impl UserLinker {
    /// A linker for one process.
    pub fn new(pid: ProcessId) -> Self {
        Self {
            pid,
            snapped: HashMap::new(),
            faults: 0,
        }
    }

    /// Resolves `symbol` in the object segment at `path`, snapping the
    /// link for future calls.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`] if the path is unusable;
    /// [`KernelError::NoEntry`] if the symbol is absent.
    pub fn link(
        &mut self,
        kernel: &mut Kernel,
        ns: &mut NameSpace,
        path: &str,
        symbol: &str,
    ) -> Result<SnappedLink, KernelError> {
        if let Some(l) = self.snapped.get(&(path.to_string(), symbol.to_string())) {
            return Ok(*l);
        }
        self.faults += 1;
        // The linking algorithm itself (relocation decoding, definition
        // matching) runs as user-domain PL/I: charge its work. The
        // extracted algorithm was initially bigger than the in-kernel
        // one (the paper: the slowdown's causes were "well understood
        // and curable").
        kernel.charge_user_instructions(140, mx_hw::Language::Pli);
        let segno = ns.initiate(kernel, path)?;
        // Scan the symbol table out of the segment, one ordinary read at
        // a time (each a gate crossing, possibly a page fault).
        let count = kernel.read_word(self.pid, segno, 0)?.raw() as u32;
        for i in 0..count {
            kernel.charge_user_instructions(10, mx_hw::Language::Pli);
            let base = 1 + i * DEF_WORDS;
            let mut name_words = [Word::ZERO; 8];
            for (j, w) in name_words.iter_mut().enumerate() {
                *w = kernel.read_word(self.pid, segno, base + j as u32)?;
            }
            if name_is(&name_words, symbol) {
                let offset = kernel.read_word(self.pid, segno, base + 8)?.raw() as u32;
                let link = SnappedLink { segno, offset };
                self.snapped
                    .insert((path.to_string(), symbol.to_string()), link);
                return Ok(link);
            }
        }
        Err(KernelError::NoEntry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_aim::Label;
    use mx_kernel::{Acl, KernelConfig, UserId};

    fn boot() -> (Kernel, ProcessId) {
        let mut k = Kernel::boot(KernelConfig {
            frames: 128,
            records_per_pack: 256,
            toc_slots_per_pack: 64,
            pt_slots: 24,
            max_processes: 4,
            root_quota: 200,
            ..KernelConfig::default()
        });
        k.register_account("dev", UserId(1), 9, Label::BOTTOM);
        let pid = k.login_residue("dev", 9, Label::BOTTOM).unwrap();
        (k, pid)
    }

    fn setup_lib(k: &mut Kernel, pid: ProcessId) -> NameSpace {
        let root = k.root_token();
        k.create_entry(
            pid,
            root,
            "libmath",
            Acl::owner(UserId(1)),
            Label::BOTTOM,
            false,
        )
        .unwrap();
        let mut ns = NameSpace::new(k, pid);
        let segno = ns.initiate(k, ">libmath").unwrap();
        publish_library(k, pid, segno, &[("sin", 100), ("cos", 200), ("sqrt", 300)]).unwrap();
        ns
    }

    #[test]
    fn link_finds_symbols_in_segment_storage() {
        let (mut k, pid) = boot();
        let mut ns = setup_lib(&mut k, pid);
        let mut linker = UserLinker::new(pid);
        let l = linker.link(&mut k, &mut ns, ">libmath", "cos").unwrap();
        assert_eq!(l.offset, 200);
        let l2 = linker.link(&mut k, &mut ns, ">libmath", "sqrt").unwrap();
        assert_eq!(l2.offset, 300);
        assert_eq!(l.segno, l2.segno, "same initiated segment");
    }

    #[test]
    fn snapped_links_skip_the_gates() {
        let (mut k, pid) = boot();
        let mut ns = setup_lib(&mut k, pid);
        let mut linker = UserLinker::new(pid);
        linker.link(&mut k, &mut ns, ">libmath", "sin").unwrap();
        let gates_before = k.machine.clock.gate_crossings();
        let l = linker.link(&mut k, &mut ns, ">libmath", "sin").unwrap();
        assert_eq!(l.offset, 100);
        assert_eq!(
            k.machine.clock.gate_crossings(),
            gates_before,
            "no gate at all once snapped"
        );
        assert_eq!(linker.faults, 1);
    }

    #[test]
    fn undefined_symbol_and_missing_library() {
        let (mut k, pid) = boot();
        let mut ns = setup_lib(&mut k, pid);
        let mut linker = UserLinker::new(pid);
        assert_eq!(
            linker.link(&mut k, &mut ns, ">libmath", "tan").unwrap_err(),
            KernelError::NoEntry
        );
        assert_eq!(
            linker.link(&mut k, &mut ns, ">libtrig", "sin").unwrap_err(),
            KernelError::NoEntry,
            "missing library surfaces as the honest no-entry in the readable root"
        );
    }
}
