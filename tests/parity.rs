//! Semantic parity between the two implementations.
//!
//! The restructuring was meant to keep user-visible semantics (with the
//! two deliberate exceptions the paper discusses: quota-directory
//! designation and the naming interface). These tests run the same
//! logical operations on both systems and require the same outcomes.

use multics::aim::Label;
use multics::hw::{BootConfig, DiskPack, HwFeatures, Machine, Word};
use multics::kernel::{Kernel, KernelConfig, KernelError};
use multics::legacy::{LegacyError, Supervisor, SupervisorConfig};
use multics::user::NameSpace;

struct Pair {
    sup: Supervisor,
    lpid: multics::legacy::ProcessId,
    k: Kernel,
    kpid: multics::kernel::ProcessId,
}

fn boot_pair() -> Pair {
    let mut sup = Supervisor::boot(SupervisorConfig::default());
    let lpid = sup
        .create_process(multics::legacy::UserId(1), Label::BOTTOM)
        .unwrap();
    let mut k = Kernel::boot(KernelConfig::default());
    k.register_account("u", multics::kernel::UserId(1), 1, Label::BOTTOM);
    let kpid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
    Pair { sup, lpid, k, kpid }
}

impl Pair {
    fn mkdir(&mut self, path: &str) {
        let (parent, name) = split(path);
        let puid = self.legacy_resolve_dir(parent);
        self.sup
            .create_directory_in(
                puid,
                name,
                multics::legacy::Acl::owner(multics::legacy::UserId(1)),
                Label::BOTTOM,
            )
            .unwrap();
        let ptok = self.kernel_resolve(parent);
        self.k
            .create_entry(
                self.kpid,
                ptok,
                name,
                multics::kernel::Acl::owner(multics::kernel::UserId(1)),
                Label::BOTTOM,
                true,
            )
            .unwrap();
    }

    fn mkseg(&mut self, path: &str) {
        let (parent, name) = split(path);
        let puid = self.legacy_resolve_dir(parent);
        self.sup
            .create_segment_in(
                puid,
                name,
                multics::legacy::Acl::owner(multics::legacy::UserId(1)),
                Label::BOTTOM,
            )
            .unwrap();
        let ptok = self.kernel_resolve(parent);
        self.k
            .create_entry(
                self.kpid,
                ptok,
                name,
                multics::kernel::Acl::owner(multics::kernel::UserId(1)),
                Label::BOTTOM,
                false,
            )
            .unwrap();
    }

    fn legacy_resolve_dir(&mut self, path: &str) -> multics::legacy::SegUid {
        if path.is_empty() {
            return self.sup.root();
        }
        self.sup
            .resolve(self.lpid, path, multics::legacy::AccessRight::Read)
            .unwrap()
            .0
    }

    fn kernel_resolve(&mut self, path: &str) -> multics::kernel::ObjToken {
        let mut ns = NameSpace::new(&mut self.k, self.kpid);
        ns.resolve(&mut self.k, path).unwrap()
    }

    /// Writes then reads a word through each system's user path.
    fn rw_both(&mut self, path: &str, wordno: u32, value: u64) -> (Word, Word) {
        let segno = self.sup.initiate(self.lpid, path).unwrap();
        self.sup
            .user_write(self.lpid, segno, wordno, Word::new(value))
            .unwrap();
        let lw = self.sup.user_read(self.lpid, segno, wordno).unwrap();

        let tok = self.kernel_resolve(path);
        let ksegno = self.k.initiate(self.kpid, tok).unwrap();
        self.k
            .write_word(self.kpid, ksegno, wordno, Word::new(value))
            .unwrap();
        let kw = self.k.read_word(self.kpid, ksegno, wordno).unwrap();
        (lw, kw)
    }
}

fn split(path: &str) -> (&str, &str) {
    match path.rfind('>') {
        Some(0) => ("", &path[1..]),
        Some(i) => (&path[..i], &path[i + 1..]),
        None => ("", path),
    }
}

#[test]
fn file_contents_agree_across_systems() {
    let mut p = boot_pair();
    p.mkdir(">a");
    p.mkdir(">a>b");
    p.mkseg(">a>b>data");
    for (wordno, value) in [(0u32, 7u64), (1024, 8), (5000, 9)] {
        let (l, k) = p.rw_both(">a>b>data", wordno, value);
        assert_eq!(l, k, "word {wordno}");
        assert_eq!(l, Word::new(value));
    }
}

#[test]
fn sparse_files_charge_the_same_record_counts() {
    let mut p = boot_pair();
    p.mkseg(">sparse");
    // Write two far-apart words: both systems should charge 2 records
    // once the dust settles (zero pages revert on flush).
    let lsegno = p.sup.initiate(p.lpid, "sparse").unwrap();
    p.sup.user_write(p.lpid, lsegno, 0, Word::new(1)).unwrap();
    p.sup
        .user_write(p.lpid, lsegno, 9 * 1024, Word::new(2))
        .unwrap();
    let luid = p
        .sup
        .resolve(p.lpid, "sparse", multics::legacy::AccessRight::Read)
        .unwrap()
        .0;
    let lastx = p.sup.ast.find(luid).unwrap();
    p.sup.flush_segment(lastx).unwrap();
    let lrecords = {
        let home = p.sup.ast.get(lastx).unwrap().home;
        p.sup
            .machine
            .disks
            .pack(home.pack)
            .unwrap()
            .entry(home.toc)
            .unwrap()
            .records_used()
    };

    let tok = p.kernel_resolve(">sparse");
    let ksegno = p.k.initiate(p.kpid, tok).unwrap();
    p.k.write_word(p.kpid, ksegno, 0, Word::new(1)).unwrap();
    p.k.write_word(p.kpid, ksegno, 9 * 1024, Word::new(2))
        .unwrap();
    let uid = p.k.uid_of_token(tok).unwrap();
    let handle = p.k.segm.get(uid).unwrap().handle;
    p.k.pfm
        .flush(&mut p.k.machine, &mut p.k.drm, &mut p.k.qcm, handle)
        .unwrap();
    let (_, krecords) = p.k.segment_meta(p.kpid, ksegno).unwrap();

    assert_eq!(lrecords, 2, "old system: 10 logical pages, 2 stored");
    assert_eq!(krecords, 2, "new system agrees");
}

#[test]
fn forbidden_and_missing_names_answer_identically_on_both() {
    let mut p = boot_pair();
    p.mkdir(">vault");
    // A second user with no rights anywhere.
    let intruder_l = p
        .sup
        .create_process(multics::legacy::UserId(9), Label::BOTTOM)
        .unwrap();
    p.k.register_account("intruder", multics::kernel::UserId(9), 9, Label::BOTTOM);
    let intruder_k = p.k.login_residue("intruder", 9, Label::BOTTOM).unwrap();

    // Old system: resolve answers NoAccess for both cases.
    let e1 = p
        .sup
        .resolve(intruder_l, "vault", multics::legacy::AccessRight::Read)
        .unwrap_err();
    let e2 = p
        .sup
        .resolve(intruder_l, "ghost-dir", multics::legacy::AccessRight::Read)
        .unwrap_err();
    assert_eq!(e1, LegacyError::NoAccess);
    assert_eq!(e1, e2);

    // New system: initiate answers NoAccess for both (resolution itself
    // returns identifiers, real or mythical).
    let mut ns = NameSpace::new(&mut p.k, intruder_k);
    let real = ns.resolve(&mut p.k, ">vault").unwrap();
    let e3 = p.k.initiate(intruder_k, real).unwrap_err();
    // Search inside the unreadable vault for a ghost: a mythical token.
    let ghost = ns.resolve(&mut p.k, ">vault>ghost").unwrap();
    let e4 = p.k.initiate(intruder_k, ghost).unwrap_err();
    assert_eq!(e3, KernelError::NoAccess);
    assert_eq!(e3, e4);
}

#[test]
fn quota_limits_enforce_identically_where_semantics_overlap() {
    // Where the two semantics coincide (designate an *empty* directory,
    // then fill it), the enforced limits agree.
    let mut p = boot_pair();
    p.mkdir(">q");
    p.sup.set_quota_directory(p.lpid, "q", 2).unwrap();
    let qtok = p.kernel_resolve(">q");
    p.k.set_quota(p.kpid, qtok, 2).unwrap();
    p.mkseg(">q>fill");

    let lsegno = p.sup.initiate(p.lpid, "q>fill").unwrap();
    p.sup.user_write(p.lpid, lsegno, 0, Word::new(1)).unwrap();
    p.sup
        .user_write(p.lpid, lsegno, 1024, Word::new(2))
        .unwrap();
    let le = p
        .sup
        .user_write(p.lpid, lsegno, 2048, Word::new(3))
        .unwrap_err();
    assert!(matches!(le, LegacyError::QuotaExceeded { limit: 2, .. }));

    let ftok = p.kernel_resolve(">q>fill");
    let ksegno = p.k.initiate(p.kpid, ftok).unwrap();
    p.k.write_word(p.kpid, ksegno, 0, Word::new(1)).unwrap();
    p.k.write_word(p.kpid, ksegno, 1024, Word::new(2)).unwrap();
    let ke =
        p.k.write_word(p.kpid, ksegno, 2048, Word::new(3))
            .unwrap_err();
    assert!(matches!(
        ke,
        KernelError::QuotaExceeded { limit: 2, used: 2 }
    ));
}

#[test]
fn the_semantics_change_quota_designation_differs_deliberately() {
    // The one place the systems answer differently, by design: the old
    // system designates a *populated* directory (with an expensive
    // sweep); the new one refuses.
    let mut p = boot_pair();
    p.mkdir(">busy");
    p.mkseg(">busy>child");
    assert!(
        p.sup.set_quota_directory(p.lpid, "busy", 50).is_ok(),
        "old: dynamic designation"
    );
    let tok = p.kernel_resolve(">busy");
    assert_eq!(
        p.k.set_quota(p.kpid, tok, 50).unwrap_err(),
        KernelError::QuotaDesignation("directory has children"),
        "new: childless-only"
    );
}

/// The two design names are one type: a kernel configuration is a
/// supervisor configuration without conversion.
fn as_supervisor_config(config: KernelConfig) -> SupervisorConfig {
    config
}

/// Records and TOC slots of each pack, the TOC counted by filling a copy.
fn pack_shapes(m: &Machine) -> Vec<(u32, u32)> {
    let toc_slots = |pack: &DiskPack| {
        let mut p = pack.clone();
        let mut n = p.entries().count() as u32;
        while p.create_entry(u64::MAX - u64::from(n)).is_ok() {
            n += 1;
        }
        n
    };
    m.disks
        .packs()
        .map(|p| (p.capacity(), toc_slots(p)))
        .collect()
}

#[test]
fn one_configuration_boots_both_designs_alike() {
    let config = BootConfig {
        frames: 96,
        packs: 3,
        records_per_pack: 64,
        toc_slots_per_pack: 24,
        pt_slots: 16,
        max_processes: 4,
        root_quota: 200,
    };
    let mut k = Kernel::boot(config.clone());
    let mut sup = Supervisor::boot(as_supervisor_config(config.clone()));

    for m in [&k.machine, &sup.machine] {
        assert_eq!(m.mem.frames(), 96);
        assert_eq!(pack_shapes(m), [(64, 24); 3]);
    }
    assert_eq!(k.machine.features, HwFeatures::KERNEL_PROPOSED);
    assert_eq!(sup.machine.features, HwFeatures::BASE_1974);

    let kernel_root = k.qcm.cell_state(k.dirm.root()).expect("root cell");
    assert_eq!(kernel_root.0, config.root_quota);
    let astx = sup.ast.find(sup.root()).expect("root active");
    let legacy_root = sup.ast.get(astx).and_then(|a| a.quota).expect("root cell");
    assert_eq!(legacy_root.limit, config.root_quota);

    for i in 0..config.max_processes {
        k.create_process(multics::kernel::UserId(i), Label::BOTTOM)
            .expect("kernel process within the table");
        sup.create_process(multics::legacy::UserId(i), Label::BOTTOM)
            .expect("legacy process within the table");
    }
    assert_eq!(
        k.create_process(multics::kernel::UserId(9), Label::BOTTOM),
        Err(KernelError::TableFull("process"))
    );
    assert_eq!(
        sup.create_process(multics::legacy::UserId(9), Label::BOTTOM),
        Err(LegacyError::ProcessTableFull)
    );
}
