//! The sharded load engine: one population, many machines, one stream.
//!
//! L1 proved the harness correct at N = 1024 and then hit the wall the
//! paper never had: the simulator itself is single-threaded, so scaling
//! the population scales wall-clock superlinearly (every directory scan,
//! quota walk, and admission sweep grows with the co-resident
//! population). The fix is structural, in the spirit of the paper's own
//! program: partition the user population into fixed shards, give each
//! shard its *own* simulated machine pair, and drive shards concurrently
//! on the threaded eventcount/sequencer substrate
//! (`mx_sync::threaded`).
//!
//! Determinism is the design constraint, so the partition is a **pure
//! function of seed and session index** — [`shard_of`] never looks at
//! the worker count. `--shards K` chooses only how many OS threads pull
//! shard jobs off a [`Sequencer`]; the shard *set* (and therefore every
//! shard machine's co-population, every latency sample, every label) is
//! identical at K = 1 and K = 8. Workers advance an [`EventCount`] as
//! shards complete; the merge waits at that epoch-style sync barrier and
//! then folds results **in shard order**, so the merged parity stream,
//! histogram, and per-user samples are byte-identical for any K.
//!
//! The oracle battery runs at both levels: per shard (meter + record
//! conservation and label parity via [`LoadRun::check_pair`] on that
//! shard's machine pair) and post-merge (partition coverage, sample
//! conservation, shard-order stability).

use crate::design::kernel::KernelDesign;
use crate::design::legacy::LegacyDesign;
use crate::hist::Histogram;
use crate::run::{run_load, LoadRun, LoadSpec};
use crate::script::{session_script, SessionScript};
use mx_hw::meter::EdgeSet;
use mx_hw::rng::SplitMix64;
use mx_sync::{EventCount, Sequencer};
use std::sync::Mutex;
use std::time::Instant;

/// The same odd constant the script generator mixes indices with; the
/// shard hash must be a *different* pure function of (seed, idx) than
/// the script stream, so it folds the constant in once more.
const SHARD_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// What to shard: the global population, the seed, and the granule.
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    /// Total users across all shards.
    pub sessions: usize,
    /// Seed every script and the shard hash expand from.
    pub seed: u64,
    /// Target users per shard: the number of shards is
    /// `sessions.div_ceil(shard_users)`, a pure function of N — never of
    /// the worker count.
    pub shard_users: usize,
}

impl ShardSpec {
    /// The default granule: 1024 users per shard, the population L1
    /// certified a single machine pair at.
    pub fn new(sessions: usize, seed: u64) -> Self {
        Self {
            sessions,
            seed,
            shard_users: 1024,
        }
    }

    /// How many shards this spec partitions into (≥ 1).
    pub fn n_shards(&self) -> usize {
        self.sessions.div_ceil(self.shard_users.max(1)).max(1)
    }

    /// The membership lists, shard by shard, each in ascending global
    /// session index — entirely determined by (seed, sessions,
    /// shard_users).
    pub fn members(&self) -> Vec<Vec<usize>> {
        let n = self.n_shards();
        let mut out = vec![Vec::new(); n];
        for idx in 0..self.sessions {
            out[shard_of(self.seed, idx, n)].push(idx);
        }
        out
    }
}

/// Which shard session `idx` belongs to: a pure hash of (seed, idx)
/// reduced mod `n_shards`. Deliberately *not* the script-stream
/// generator (one extra mix of the same odd constant), so shard
/// membership and scripted behaviour stay statistically independent.
pub fn shard_of(seed: u64, idx: usize, n_shards: usize) -> usize {
    let mut rng = SplitMix64::new(
        seed ^ (idx as u64 + 1)
            .wrapping_mul(SHARD_MIX)
            .wrapping_add(SHARD_MIX),
    );
    (rng.next_u64() % n_shards.max(1) as u64) as usize
}

/// One shard's complete result: its member list, both designs' runs on
/// its private machine pair, and that pair's oracle verdict.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Global session indices this shard ran, ascending.
    pub members: Vec<usize>,
    /// The kernel design's run on this shard's machine.
    pub kernel: LoadRun,
    /// The 1974 supervisor's run on this shard's machine.
    pub legacy: LoadRun,
    /// `LoadRun::check_pair` for this shard — oracle battery plus label
    /// parity, on this shard alone. Empty = clean.
    pub violations: Vec<String>,
}

/// One design's results folded across all shards, in shard order.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignMerge {
    /// `"kernel"` or `"legacy"`.
    pub design: &'static str,
    /// Operations retired, summed across shards.
    pub ops: u64,
    /// Simulated load-phase cycles, summed across shard machines.
    pub cycles: u64,
    /// Sessions driven to completion (the full global population).
    pub sessions: usize,
    /// Abandoned-and-reaped sessions, summed.
    pub abandoned: usize,
    /// The user-visible labels: shard 0's stream, then shard 1's, … —
    /// the canonical merged stream that must be identical for every
    /// worker count.
    pub parity: Vec<String>,
    /// All shards' latency histograms folded via [`Histogram::merge`].
    pub hist: Histogram,
    /// `(global session index, that session's latency samples)` in
    /// shard order then member order — sample-for-sample identical for
    /// every worker count.
    pub user_samples: Vec<(usize, Vec<u64>)>,
    /// All shards' observed edge ledgers folded via [`EdgeSet::merge`]
    /// — commutative, so identical for every worker count.
    pub edges: EdgeSet,
}

/// The whole sharded run: per-shard results, per-design merges, the
/// post-merge oracle verdict, and the wall clock the concurrent region
/// actually took.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The partition that was run.
    pub sessions: usize,
    /// Shards in the partition.
    pub n_shards: usize,
    /// OS worker threads that drove them.
    pub workers: usize,
    /// Per-shard results, in shard order.
    pub shards: Vec<ShardRun>,
    /// The kernel design, merged.
    pub kernel: DesignMerge,
    /// The legacy design, merged.
    pub legacy: DesignMerge,
    /// Per-shard violations (prefixed `shard i:`) plus post-merge
    /// partition/conservation checks. Empty = clean.
    pub violations: Vec<String>,
    /// Wall-clock nanoseconds of the concurrent region (shard execution
    /// through the merge barrier).
    pub wall_nanos: u128,
}

impl ShardedRun {
    /// Simulator throughput: operations retired across both designs per
    /// wall-clock second. Both machines of every shard run inside the
    /// measured region, so this is the honest "how fast does the
    /// simulator simulate" figure the bench reports next to simulated
    /// cycles.
    pub fn wall_ops_per_sec(&self) -> f64 {
        let ops = (self.kernel.ops + self.legacy.ops) as f64;
        ops * 1e9 / (self.wall_nanos.max(1) as f64)
    }
}

/// Runs one shard on a fresh machine pair: a private [`LoadSpec`] sized
/// to the member count, with each member's *global* script driven under
/// its local index.
fn run_shard(spec: &ShardSpec, members: &[usize]) -> ShardRun {
    let local = LoadSpec::new(members.len(), spec.seed);
    let scripts: Vec<SessionScript> = members
        .iter()
        .map(|&g| session_script(spec.seed, g, local.shard_count()))
        .collect();
    let kernel = run_load::<KernelDesign>(&local, &scripts, None);
    let legacy = run_load::<LegacyDesign>(&local, &scripts, None);
    let violations = LoadRun::check_pair(&kernel, &legacy);
    ShardRun {
        members: members.to_vec(),
        kernel,
        legacy,
        violations,
    }
}

fn merge_design(
    shards: &[ShardRun],
    pick: fn(&ShardRun) -> &LoadRun,
    design: &'static str,
) -> DesignMerge {
    let mut m = DesignMerge {
        design,
        ops: 0,
        cycles: 0,
        sessions: 0,
        abandoned: 0,
        parity: Vec::new(),
        hist: Histogram::new(),
        user_samples: Vec::new(),
        edges: EdgeSet::new(),
    };
    for shard in shards {
        let r = pick(shard);
        m.edges.merge(&r.edges);
        m.ops += r.ops;
        m.cycles += r.cycles;
        m.sessions += r.sessions;
        m.abandoned += r.abandoned;
        m.parity.extend(r.parity.iter().cloned());
        m.hist
            .merge(&r.hist)
            .expect("every shard histogram shares the 64-bucket grid");
        for (local, samples) in r.user_samples.iter().enumerate() {
            m.user_samples.push((shard.members[local], samples.clone()));
        }
    }
    m
}

/// Drives the whole partition with `workers` OS threads and merges in
/// shard order.
///
/// Workers pull shard indices from a [`Sequencer`] (dynamic assignment
/// is order-free because results land in per-shard slots) and advance
/// an [`EventCount`] per completed shard; the merge waits at
/// `await_value(n_shards)` — the epoch-style sync barrier — before
/// folding anything, so no partial state is ever observed.
pub fn run_sharded(spec: &ShardSpec, workers: usize) -> ShardedRun {
    let members = spec.members();
    let n_shards = members.len();
    let workers = workers.clamp(1, n_shards);

    let tickets = Sequencer::new();
    let done = EventCount::new();
    let slots: Vec<Mutex<Option<ShardRun>>> = (0..n_shards).map(|_| Mutex::new(None)).collect();

    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let t = tickets.ticket() as usize;
                if t >= n_shards {
                    break;
                }
                let run = run_shard(spec, &members[t]);
                *slots[t].lock().expect("shard slot") = Some(run);
                done.advance();
            });
        }
        // The merge barrier: every shard accounted for before anything
        // is folded. Thread join below is the OS-level cleanup; this is
        // the logical synchronisation point.
        done.await_value(n_shards as u64);
    });
    let wall_nanos = started.elapsed().as_nanos();

    let shards: Vec<ShardRun> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("shard slot")
                .expect("barrier passed, every slot filled")
        })
        .collect();

    let mut violations = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        violations.extend(shard.violations.iter().map(|v| format!("shard {i}: {v}")));
    }

    let kernel = merge_design(&shards, |s| &s.kernel, "kernel");
    let legacy = merge_design(&shards, |s| &s.legacy, "legacy");

    // Post-merge oracle: the shard partition must cover every session
    // exactly once …
    let mut seen = vec![0usize; spec.sessions];
    for shard in &shards {
        for &g in &shard.members {
            seen[g] += 1;
        }
    }
    for (g, &count) in seen.iter().enumerate() {
        if count != 1 {
            violations.push(format!("merge: session {g} appears in {count} shards"));
        }
    }
    // … and each design's merged stream must conserve its samples.
    for m in [&kernel, &legacy] {
        if m.sessions != spec.sessions {
            violations.push(format!(
                "merge: {} completed {} sessions of {}",
                m.design, m.sessions, spec.sessions
            ));
        }
        if m.hist.samples() != m.ops {
            violations.push(format!(
                "merge: {} histogram holds {} samples for {} ops",
                m.design,
                m.hist.samples(),
                m.ops
            ));
        }
        let direct: u64 = m.user_samples.iter().map(|(_, s)| s.len() as u64).sum();
        if direct != m.ops {
            violations.push(format!(
                "merge: {} per-user samples hold {direct} entries for {} ops",
                m.design, m.ops
            ));
        }
    }

    ShardedRun {
        sessions: spec.sessions,
        n_shards,
        workers,
        shards,
        kernel,
        legacy,
        violations,
        wall_nanos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_a_pure_function_of_seed_and_index() {
        let spec = ShardSpec {
            sessions: 500,
            seed: 1977,
            shard_users: 64,
        };
        let a = spec.members();
        let b = spec.members();
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.n_shards());
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 500);
        // The hash actually spreads: no shard holds everyone.
        assert!(a.iter().all(|m| m.len() < 500));
    }

    #[test]
    fn shard_hash_differs_from_the_script_stream() {
        // If shard_of reused the script generator verbatim, membership
        // and behaviour would correlate; one extra mix decorrelates them.
        let by_hash: Vec<usize> = (0..32).map(|i| shard_of(7, i, 4)).collect();
        let by_script: Vec<usize> = (0..32)
            .map(|i| {
                let mut rng = SplitMix64::new(7 ^ (i as u64 + 1).wrapping_mul(SHARD_MIX));
                (rng.next_u64() % 4) as usize
            })
            .collect();
        assert_ne!(by_hash, by_script);
    }

    #[test]
    fn worker_count_never_changes_the_merged_stream() {
        // Small enough for a debug-build test, large enough for 3 shards.
        let spec = ShardSpec {
            sessions: 48,
            seed: 1977,
            shard_users: 16,
        };
        let base = run_sharded(&spec, 1);
        assert!(base.violations.is_empty(), "{:?}", base.violations);
        assert_eq!(base.n_shards, 3);
        for workers in [2, 3] {
            let run = run_sharded(&spec, workers);
            assert!(run.violations.is_empty(), "{:?}", run.violations);
            assert_eq!(run.kernel, base.kernel, "K={workers} kernel merge");
            assert_eq!(run.legacy, base.legacy, "K={workers} legacy merge");
        }
    }

    #[test]
    fn single_shard_matches_the_unsharded_engine() {
        // A population inside one granule must produce exactly the
        // classic run: same labels, same cycles, same samples.
        let spec = ShardSpec::new(12, 42);
        let run = run_sharded(&spec, 4);
        assert_eq!(run.n_shards, 1);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        let (k, l) = crate::run::run_both(&LoadSpec::new(12, 42));
        assert_eq!(run.kernel.parity, k.parity);
        assert_eq!(run.kernel.cycles, k.cycles);
        assert_eq!(run.legacy.parity, l.parity);
        assert_eq!(run.legacy.cycles, l.cycles);
        assert_eq!(
            run.kernel.user_samples,
            k.user_samples.into_iter().enumerate().collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_population_runs_clean() {
        let run = run_sharded(&ShardSpec::new(0, 1), 2);
        assert_eq!(run.n_shards, 1);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.kernel.ops, 0);
    }
}
