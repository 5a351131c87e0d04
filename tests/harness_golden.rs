//! Golden digests of the load harness: one FNV-1a-64 hash per run of
//! the run's full `Debug` rendering — every label, cycle figure,
//! histogram bucket, meter row, edge and violation string. The other
//! harness tests check rerun determinism and cross-design parity; this
//! one pins absolute output, so any change to the engine, the C1/S1
//! epoch machinery, the fleet or the sharded merge that moves a single
//! simulated figure is caught and named here.
//!
//! The constants were generated once and are never edited to follow the
//! code: a mismatch means the harness changed behaviour.

use mx_load::shard::{run_sharded, ShardSpec};
use mx_load::{
    run_both, run_kernel_c1, run_kernel_fleet, run_kernel_s1, run_legacy_c1, run_legacy_fleet,
    run_legacy_s1, C1Policy, C1Spec, FleetSpec, LoadSpec, S1Spec,
};

/// FNV-1a, 64-bit: in-tree and stable across processes and builds,
/// unlike `DefaultHasher`.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn digest(run: &impl std::fmt::Debug) -> u64 {
    fnv1a64(&format!("{run:?}"))
}

const GOLDEN: &[(&str, u64)] = &[
    ("load new(16,7) kernel", 0x1110_08EE_2376_6AE9),
    ("load new(16,7) legacy", 0x3DBA_3B14_99FF_1E9C),
    ("load tight(8,3) kernel", 0x8721_3DEC_3ECD_4F9D),
    ("load tight(8,3) legacy", 0x60AD_A87A_4AD5_EC1B),
    ("c1 kernel fifo", 0xC449_5E75_3C6B_782A),
    ("c1 legacy fifo", 0x8614_A4E5_6D5D_CC32),
    ("s1 kernel fifo", 0x8056_7422_B5E4_EB97),
    ("s1 legacy fifo", 0x448B_84B5_3003_0623),
    ("c1 kernel random:7", 0x2F2D_F1B7_7178_FECB),
    ("c1 kernel pct:7", 0x157C_1624_1EDB_4392),
    ("s1 kernel random:7", 0xCF07_BADF_FAF1_2B49),
    ("s1 kernel pct:7", 0x9E47_092C_9FB3_CC2B),
    ("fleet kernel (2,12,5) migratory", 0x5CA1_4896_0555_4D47),
    ("fleet legacy (2,12,5) migratory", 0xD8DB_60D8_44BF_09A6),
    (
        "fleet kernel (2,12,31) dedicated specialized",
        0x37A4_430F_C6BE_0B82,
    ),
    ("sharded (64,9) kernel merge", 0x1316_F84F_D44F_3B40),
    ("sharded (64,9) legacy merge", 0x2EBC_7878_F21F_4555),
];

fn actual() -> Vec<(String, u64)> {
    let mut named: Vec<(String, u64)> = Vec::new();
    for (tag, spec) in [
        ("new(16,7)", LoadSpec::new(16, 7)),
        ("tight(8,3)", LoadSpec::tight(8, 3)),
    ] {
        let (k, l) = run_both(&spec);
        named.push((format!("load {tag} kernel"), digest(&k)));
        named.push((format!("load {tag} legacy"), digest(&l)));
    }

    let c1 = |p| C1Spec::new(8, 0xC1, 0xFA11, 2, p);
    let s1 = |p| S1Spec::new(8, 0xC1, 0xFA11, 2, p);
    named.push((
        "c1 kernel fifo".into(),
        digest(&run_kernel_c1(&c1(C1Policy::Fifo))),
    ));
    named.push((
        "c1 legacy fifo".into(),
        digest(&run_legacy_c1(&c1(C1Policy::Fifo))),
    ));
    named.push((
        "s1 kernel fifo".into(),
        digest(&run_kernel_s1(&s1(C1Policy::Fifo))),
    ));
    named.push((
        "s1 legacy fifo".into(),
        digest(&run_legacy_s1(&s1(C1Policy::Fifo))),
    ));
    for (tag, p) in [
        ("random:7", C1Policy::Random(7)),
        ("pct:7", C1Policy::Pct(7)),
    ] {
        named.push((format!("c1 kernel {tag}"), digest(&run_kernel_c1(&c1(p)))));
    }
    for (tag, p) in [
        ("random:7", C1Policy::Random(7)),
        ("pct:7", C1Policy::Pct(7)),
    ] {
        named.push((format!("s1 kernel {tag}"), digest(&run_kernel_s1(&s1(p)))));
    }

    let mut mig = FleetSpec::new(2, 12, 5);
    mig.migratory = true;
    named.push((
        "fleet kernel (2,12,5) migratory".into(),
        digest(&run_kernel_fleet(&mig, None)),
    ));
    named.push((
        "fleet legacy (2,12,5) migratory".into(),
        digest(&run_legacy_fleet(&mig, None)),
    ));
    let mut store = FleetSpec::new(2, 12, 31);
    store.dedicated_store = true;
    store.specialized_store = true;
    named.push((
        "fleet kernel (2,12,31) dedicated specialized".into(),
        digest(&run_kernel_fleet(&store, None)),
    ));

    // The merges only: the sharded run's `wall_nanos` is host time.
    let sharded = run_sharded(&ShardSpec::new(64, 9), 1);
    named.push((
        "sharded (64,9) kernel merge".into(),
        digest(&sharded.kernel),
    ));
    named.push((
        "sharded (64,9) legacy merge".into(),
        digest(&sharded.legacy),
    ));

    named
}

#[test]
fn harness_output_matches_the_golden_digests() {
    let got = actual();
    assert_eq!(got.len(), GOLDEN.len(), "every golden entry is exercised");
    let mut moved = Vec::new();
    for (name, d) in &got {
        let (_, want) = GOLDEN
            .iter()
            .find(|(g, _)| g == name)
            .unwrap_or_else(|| panic!("run '{name}' has no golden entry"));
        if d != want {
            moved.push(format!("{name}: digest {d:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        moved.is_empty(),
        "harness output moved for {} run(s):\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn fnv1a64_matches_the_reference_vectors() {
    assert_eq!(fnv1a64(""), 0xCBF2_9CE4_8422_2325);
    assert_eq!(fnv1a64("a"), 0xAF63_DC4C_8601_EC8C);
    assert_eq!(fnv1a64("foobar"), 0x8594_4171_F739_67E8);
}
