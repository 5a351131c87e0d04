//! The user-domain name space manager (Bratt, 1975).
//!
//! "If the supervisor kernel provides a primitive to search a single,
//! designated directory for a presented name … the program that knows
//! about how to expand tree names need not be in the supervisor."
//!
//! This is that program. It walks `>`-separated tree names by repeated
//! `dir_search` gate calls, keeps a per-process **prefix cache** of
//! resolved directory identifiers (the freedom to cache is why the
//! extracted manager ran *somewhat faster* than the buried kernel
//! search), and — because the kernel hands out mythical identifiers for
//! anything it must not reveal — learns nothing it should not: a failed
//! initiation at the end of an inaccessible path is the uniform
//! "no access".

use mx_kernel::{Kernel, KernelError, ObjToken, ProcessId};
use std::borrow::Cow;
use std::collections::HashMap;

/// A per-process tree-name resolver with a prefix cache.
#[derive(Debug)]
pub struct NameSpace {
    pid: ProcessId,
    root: ObjToken,
    /// Resolved directories by canonical tree name: the components
    /// joined by single `>`s, no leading `>`.
    cache: HashMap<String, ObjToken>,
    /// Gate calls spent on searches (experiment counter).
    pub searches: u64,
    /// Cache hits (experiment counter).
    pub cache_hits: u64,
}

impl NameSpace {
    /// A resolver for one process.
    pub fn new(kernel: &mut Kernel, pid: ProcessId) -> Self {
        Self {
            pid,
            root: kernel.root_token(),
            cache: HashMap::new(),
            searches: 0,
            cache_hits: 0,
        }
    }

    /// Splits a tree name into components.
    fn components(path: &str) -> Vec<&str> {
        path.split('>').filter(|c| !c.is_empty()).collect()
    }

    /// Resolves a tree name to an object identifier, walking one
    /// directory per `dir_search` gate call, reusing cached prefixes.
    ///
    /// The returned token may be mythical; only using it will tell — and
    /// then only "no access".
    ///
    /// # Errors
    ///
    /// [`KernelError::NoEntry`] when a *readable* directory honestly
    /// lacks the name.
    pub fn resolve(&mut self, kernel: &mut Kernel, path: &str) -> Result<ObjToken, KernelError> {
        // Every prefix the cache is probed with is a slice of the
        // canonical name. A name without empty components already holds
        // it; one with them is canonicalized once.
        let trimmed = path.trim_matches('>');
        let canon = if trimmed.contains(">>") {
            Cow::Owned(Self::components(path).join(">"))
        } else {
            Cow::Borrowed(trimmed)
        };
        if canon.is_empty() {
            return Ok(self.root);
        }
        // Longest cached prefix: the whole name, then one component
        // fewer at a time. `start` is where the uncached rest begins.
        let mut start = 0;
        let mut current = self.root;
        let mut prefix = &*canon;
        loop {
            if let Some(tok) = self.cache.get(prefix) {
                kernel.charge_user_instructions(5, mx_hw::Language::Pli);
                self.cache_hits += 1;
                current = *tok;
                start = prefix.len();
                break;
            }
            match prefix.rfind('>') {
                Some(at) => prefix = &prefix[..at],
                None => break,
            }
        }
        while start < canon.len() {
            let from = if start == 0 { 0 } else { start + 1 };
            let end = canon[from..].find('>').map_or(canon.len(), |at| from + at);
            self.searches += 1;
            // Component parsing and cache maintenance are user-domain
            // work.
            kernel.charge_user_instructions(25, mx_hw::Language::Pli);
            current = kernel.dir_search(self.pid, current, &canon[from..end])?;
            self.cache.insert(canon[..end].to_string(), current);
            start = end;
        }
        Ok(current)
    }

    /// Resolves and initiates: the full "make this path usable" flow.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`], uniformly, when the path is forbidden
    /// or fictitious.
    pub fn initiate(&mut self, kernel: &mut Kernel, path: &str) -> Result<u32, KernelError> {
        let token = self.resolve(kernel, path)?;
        kernel.initiate(self.pid, token)
    }

    /// Drops cached prefixes (e.g. after deletions).
    pub fn flush_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_aim::Label;
    use mx_hw::Word;
    use mx_kernel::{Acl, KernelConfig, UserId};

    fn boot() -> (Kernel, ProcessId, ProcessId) {
        let mut k = Kernel::boot(KernelConfig {
            frames: 128,
            records_per_pack: 256,
            toc_slots_per_pack: 64,
            pt_slots: 24,
            max_processes: 6,
            root_quota: 200,
            ..KernelConfig::default()
        });
        k.register_account("alice", UserId(1), 1, Label::BOTTOM);
        k.register_account("bob", UserId(2), 2, Label::BOTTOM);
        let alice = k.login_residue("alice", 1, Label::BOTTOM).unwrap();
        let bob = k.login_residue("bob", 2, Label::BOTTOM).unwrap();
        (k, alice, bob)
    }

    /// Builds >a>b>leaf where only `leaf` grants Bob access.
    fn build_tree(k: &mut Kernel, alice: ProcessId) {
        let root = k.root_token();
        let mut alice_only = Acl::owner(UserId(1));
        let a = k
            .create_entry(alice, root, "a", alice_only.clone(), Label::BOTTOM, true)
            .unwrap();
        let b = k
            .create_entry(alice, a, "b", alice_only.clone(), Label::BOTTOM, true)
            .unwrap();
        alice_only.grant(UserId(2), &[mx_kernel::AccessRight::Read]);
        k.create_entry(alice, b, "leaf", alice_only, Label::BOTTOM, false)
            .unwrap();
    }

    #[test]
    fn resolve_and_initiate_own_tree() {
        let (mut k, alice, _bob) = boot();
        build_tree(&mut k, alice);
        let mut ns = NameSpace::new(&mut k, alice);
        let segno = ns.initiate(&mut k, ">a>b>leaf").unwrap();
        k.write_word(alice, segno, 0, Word::new(5)).unwrap();
        assert_eq!(k.read_word(alice, segno, 0).unwrap(), Word::new(5));
    }

    #[test]
    fn prefix_cache_cuts_gate_calls() {
        let (mut k, alice, _bob) = boot();
        build_tree(&mut k, alice);
        let mut ns = NameSpace::new(&mut k, alice);
        ns.resolve(&mut k, ">a>b>leaf").unwrap();
        assert_eq!(ns.searches, 3);
        ns.resolve(&mut k, ">a>b>leaf").unwrap();
        assert_eq!(ns.searches, 3, "full hit");
        assert!(ns.cache_hits >= 1);
        // Sibling resolution reuses the >a>b prefix.
        let root = k.root_token();
        let a = k.dir_search(alice, root, "a").unwrap();
        let b = k.dir_search(alice, a, "b").unwrap();
        k.create_entry(
            alice,
            b,
            "leaf2",
            Acl::owner(UserId(1)),
            Label::BOTTOM,
            false,
        )
        .unwrap();
        ns.resolve(&mut k, ">a>b>leaf2").unwrap();
        assert_eq!(ns.searches, 4, "one extra search for the last component");
    }

    #[test]
    fn bob_reaches_an_accessible_leaf_through_inaccessible_directories() {
        let (mut k, alice, bob) = boot();
        build_tree(&mut k, alice);
        // Alice stores a word first.
        let mut ns_a = NameSpace::new(&mut k, alice);
        let sa = ns_a.initiate(&mut k, ">a>b>leaf").unwrap();
        k.write_word(alice, sa, 0, Word::new(0o42)).unwrap();
        // Bob cannot read >a or >a>b, but the leaf grants him Read: the
        // intervening identifiers are real and the access succeeds.
        let mut ns_b = NameSpace::new(&mut k, bob);
        let sb = ns_b.initiate(&mut k, ">a>b>leaf").unwrap();
        assert_eq!(k.read_word(bob, sb, 0).unwrap(), Word::new(0o42));
    }

    #[test]
    fn bob_cannot_distinguish_missing_from_forbidden() {
        let (mut k, alice, bob) = boot();
        build_tree(&mut k, alice);
        let mut ns = NameSpace::new(&mut k, bob);
        // ">a>b>secret" does not exist; ">a>b" exists but is forbidden.
        let ghost = ns.resolve(&mut k, ">a>b>ghost").unwrap();
        let real_dir = ns.resolve(&mut k, ">a>b").unwrap();
        let e1 = k.initiate(bob, ghost).unwrap_err();
        let e2 = k.initiate(bob, real_dir).unwrap_err();
        assert_eq!(e1, KernelError::NoAccess);
        assert_eq!(e2, KernelError::NoAccess, "identical answers");
        // A wholly fictitious path below the unreadable directory
        // resolves to a usable-looking chain of mythical identifiers.
        let phantom = ns.resolve(&mut k, ">a>no>such>path").unwrap();
        assert_eq!(k.initiate(bob, phantom).unwrap_err(), KernelError::NoAccess);
        // In the *readable* root, a missing first component is honest.
        assert_eq!(
            ns.resolve(&mut k, ">nothing").unwrap_err(),
            KernelError::NoEntry
        );
    }

    /// The resolver as it was: each probed prefix built with `join`.
    fn resolve_by_join(
        ns: &mut NameSpace,
        kernel: &mut Kernel,
        path: &str,
    ) -> Result<ObjToken, KernelError> {
        let comps = NameSpace::components(path);
        if comps.is_empty() {
            return Ok(ns.root);
        }
        let mut start = 0;
        let mut current = ns.root;
        for i in (1..=comps.len()).rev() {
            if let Some(tok) = ns.cache.get(&comps[..i].join(">")) {
                kernel.charge_user_instructions(5, mx_hw::Language::Pli);
                ns.cache_hits += 1;
                current = *tok;
                start = i;
                break;
            }
        }
        for i in start..comps.len() {
            ns.searches += 1;
            kernel.charge_user_instructions(25, mx_hw::Language::Pli);
            current = kernel.dir_search(ns.pid, current, comps[i])?;
            ns.cache.insert(comps[..=i].join(">"), current);
        }
        Ok(current)
    }

    /// Borrowed prefix probes give every answer, charge and counter the
    /// joined ones gave: hits, misses, failures, mythical chains and
    /// tree names with empty components, for the owner and an outsider,
    /// before and after a cache flush.
    #[test]
    fn borrowed_prefix_probes_charge_and_count_as_joined_ones_did() {
        let world = || {
            let (mut k, alice, bob) = boot();
            build_tree(&mut k, alice);
            let root = k.root_token();
            k.create_entry(
                alice,
                root,
                "lib",
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                false,
            )
            .unwrap();
            (k, alice, bob)
        };
        let (mut k, alice, bob) = world();
        let (mut r, ..) = world();
        let paths = [
            ">a>b>leaf",
            ">a>b>leaf",
            ">a>b",
            ">a",
            ">>lib",
            "lib>",
            ">lib",
            ">a>>b",
            ">>a>>b>>leaf>>",
            "a>b",
            "",
            ">",
            ">>",
            ">a>no>such",
            ">nothing",
            ">a>b>ghost",
            ">a>b>ghost>deeper",
        ];
        let mut hits = 0;
        for pid in [alice, bob] {
            let mut ns = NameSpace::new(&mut k, pid);
            let mut old = NameSpace::new(&mut r, pid);
            for flush in [false, true] {
                if flush {
                    ns.flush_cache();
                    old.flush_cache();
                }
                for path in paths {
                    let (before, old_before) = (k.machine.clock.now(), r.machine.clock.now());
                    let got = ns.resolve(&mut k, path);
                    assert_eq!(got, resolve_by_join(&mut old, &mut r, path), "{path}");
                    assert_eq!(
                        k.machine.clock.now() - before,
                        r.machine.clock.now() - old_before,
                        "{path}"
                    );
                    assert_eq!(
                        (ns.searches, ns.cache_hits),
                        (old.searches, old.cache_hits),
                        "{path}"
                    );
                    assert_eq!(ns.cache, old.cache, "{path}");
                }
            }
            hits += ns.cache_hits;
        }
        assert!(hits > 20, "the sequence hits the cache: {hits}");
    }
}
