//! Metric definitions: the names `BENCHMARK.json` declares and how each
//! is computed from a run's units.
//!
//! Host figures are medians over units of per-unit values, each in
//! reference seconds: the unit's raw host seconds divided by the host's
//! slowdown around it (`speed`). Tails are printed beside them.
//! Simulated (`sim_*`, `sim.*`) figures are exact sums over the first
//! `Workload::sim_units` units, which every run completes: the same code
//! and seed give the same bits on any host. A layer a workload never
//! enters, or one its entry point does not report, reads 0.

use crate::stats::{median, percentile, ratio, tail_percentile};
use crate::workload::{Call, Design, Own, Phase, Unit, Workload};
use mx_hw::meter::{EdgeKind, Subsystem};

/// One named, unit-tagged figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("ops_per_s.kernel", "1/s"),
    ("ops_per_s.legacy", "1/s"),
    ("unit_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_kcycles_per_op.kernel", "kcycles"),
    ("sim_kcycles_per_op.legacy", "kcycles"),
];

/// Per-layer metrics, reported by traced runs, in declaration order.
///
/// A host time is declared only if every workload measures it: a time
/// that reads 0 on every run of a workload that never enters its layer
/// would look like a constant, not a measurement. The times only some
/// workloads reach (`kernel.pre_dispatch_ms`, `sync.dispatch_gap_us.*`,
/// `epoch.*.host_us_per_op.*`, `fleet.wire_gap_us.*`) are computed and
/// printed all the same.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for d in Design::ALL {
        let d = d.name();
        add(format!("{d}.host_us_per_op"), "us");
        add(format!("{d}.host_ns_per_kcycle"), "ns/kcycle");
    }
    add("sync.dispatch_choices".into(), "count");
    for own in Own::ALL {
        add(format!("load.{}_us", own.name()), "us");
    }
    for d in Design::ALL {
        let d = d.name();
        for s in Subsystem::ALL {
            add(format!("sim.{d}.{}.kcycles_per_op", s.name()), "kcycles");
            add(format!("sim.{d}.{}.entries_per_op", s.name()), "count");
        }
        add(format!("sim.{d}.edges.invoke_per_op"), "count");
        add(format!("sim.{d}.edges.shared_data_per_op"), "count");
        add(format!("sim.{d}.queued_peak"), "count");
        add(format!("sim.{d}.recovery_mcycles_per_crash"), "Mcycles");
        add(format!("sim.{d}.salvage_repairs"), "count");
        add(format!("sim.s1.{d}.retries_per_blocked"), "count");
        add(format!("sim.fleet.{d}.wall_mcycles"), "Mcycles");
    }
    add("sim.kernel.queue_delay".into(), "intervals");
    add("sim.kernel.event_queue_hwm".into(), "count");
    add("sim.fleet.frames_per_op".into(), "count");
    out
}

/// What one run of one workload produced.
pub struct Run {
    pub workload: Workload,
    /// Timed units, in order.
    pub units: Vec<Unit>,
    /// Seconds from process start to the first timed unit, one sample per
    /// fresh process that set the workload up.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
}

impl Run {
    /// Units that did not panic.
    fn ran(&self) -> impl Iterator<Item = &Unit> {
        self.units.iter().filter(|u| !u.calls.is_empty())
    }

    /// Calls of the units the simulated figures are taken over.
    fn sim_calls(&self) -> impl Iterator<Item = &Call> {
        let n = self.workload.sim_units();
        self.ran()
            .filter(move |u| u.index < n)
            .flat_map(|u| u.calls.iter())
    }

    /// Median over units of a per-unit figure, skipping units where `f` is
    /// `None`.
    fn per_unit(&self, f: impl Fn(&Unit) -> Option<f64>) -> f64 {
        median(&self.ran().filter_map(f).collect::<Vec<_>>())
    }

    pub fn failed(&self) -> usize {
        self.units.iter().filter(|u| !u.failures.is_empty()).count()
    }
}

/// Sums the ops and the host time, in reference seconds, of the calls of
/// `unit` that match `keep`; `None` when no call matches.
fn sum_calls(unit: &Unit, keep: impl Fn(&Call) -> bool) -> Option<(f64, f64)> {
    let calls: Vec<&Call> = unit.calls.iter().filter(|c| keep(c)).collect();
    if calls.is_empty() {
        return None;
    }
    let ops: u64 = calls.iter().map(|c| c.ops).sum();
    let host: f64 = calls.iter().map(|c| c.host_s).sum();
    Some((ops as f64, unit.ref_s(host)))
}

/// Every metric the run supports: the end-to-end and per-layer lists,
/// plus `fail_frac`, `units`, and the unit-time tail where the unit count
/// supports one.
pub fn compute(run: &Run) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });

    // ---- end to end ----
    put(
        "ops_per_s".into(),
        run.per_unit(|u| {
            let ops: u64 = u.calls.iter().map(|c| c.ops).sum();
            Some(ratio(ops as f64, u.ref_s(u.wall_s)))
        }),
        "1/s",
    );
    for d in Design::ALL {
        put(
            format!("ops_per_s.{}", d.name()),
            run.per_unit(|u| sum_calls(u, |c| c.design == d).map(|(ops, s)| ratio(ops, s))),
            "1/s",
        );
    }
    let walls: Vec<f64> = run.ran().map(|u| u.ref_s(u.wall_s)).collect();
    put("unit_s.p50".into(), median(&walls), "s");
    let raw: Vec<f64> = run.ran().map(|u| u.wall_s).collect();
    put("unit_s.p50.raw".into(), median(&raw), "s");
    let slowdowns: Vec<f64> = run.ran().map(|u| u.slowdown).collect();
    put("host.slowdown".into(), median(&slowdowns), "ratio");
    if let Some(p) = tail_percentile(walls.len()) {
        let v = percentile(&walls, p).unwrap_or(0.0);
        put(format!("unit_s.p{p}"), v, "s");
    }
    put("setup_s".into(), median(&run.setup_s), "s");
    put("peak_rss_mb".into(), run.peak_rss_mb, "MB");
    for d in Design::ALL {
        let (cycles, ops) = run
            .sim_calls()
            .filter(|c| c.design == d)
            .fold((0u64, 0u64), |(cy, op), c| (cy + c.op_cycles, op + c.ops));
        put(
            format!("sim_kcycles_per_op.{}", d.name()),
            ratio(cycles as f64 / 1e3, ops as f64),
            "kcycles",
        );
    }
    let attempted = run.units.len();
    put(
        "fail_frac".into(),
        ratio(run.failed() as f64, attempted as f64),
        "ratio",
    );
    put("units".into(), attempted as f64, "count");

    // ---- per layer: host ----
    for d in Design::ALL {
        put(
            format!("{}.host_us_per_op", d.name()),
            run.per_unit(|u| sum_calls(u, |c| c.design == d).map(|(ops, s)| ratio(s * 1e6, ops))),
            "us",
        );
        put(
            format!("{}.host_ns_per_kcycle", d.name()),
            run.per_unit(|u| {
                let calls = u.calls.iter().filter(|c| c.design == d);
                let (s, cycles) = calls.fold((0.0, 0u64), |(s, cy), c| {
                    (s + c.host_s, cy + c.clock_cycles)
                });
                (cycles > 0).then(|| u.ref_s(s) * 1e9 / (cycles as f64 / 1e3))
            }),
            "ns/kcycle",
        );
    }
    let kernel_load = |c: &Call| c.design == Design::Kernel && c.phase == Phase::Load;
    put(
        "kernel.pre_dispatch_ms".into(),
        run.per_unit(|u| {
            u.calls
                .iter()
                .find(|c| kernel_load(c))
                .and_then(|c| c.first_choice_s)
                .map(|s| u.ref_s(s) * 1e3)
        }),
        "ms",
    );
    let gaps_us = |phase: Phase| -> Vec<f64> {
        run.ran()
            .flat_map(|u| {
                let calls = u.calls.iter().filter(move |c| c.phase == phase);
                calls.flat_map(move |c| c.gaps_ns.iter().map(move |&g| u.ref_s(g as f64 / 1e3)))
            })
            .collect()
    };
    let dispatch = gaps_us(Phase::Load);
    put(
        "sync.dispatch_gap_us.p50".into(),
        percentile(&dispatch, 50.0).unwrap_or(0.0),
        "us",
    );
    put(
        "sync.dispatch_gap_us.p99".into(),
        percentile(&dispatch, 99.0).unwrap_or(0.0),
        "us",
    );
    // A count the simulation fixes per unit, so a plain median.
    let choices: Vec<f64> = run
        .ran()
        .map(|u| {
            let calls = u.calls.iter().filter(|c| kernel_load(c));
            calls.map(|c| c.choices).sum::<u64>() as f64
        })
        .collect();
    put("sync.dispatch_choices".into(), median(&choices), "count");
    for p in [Phase::C1, Phase::S1] {
        for d in Design::ALL {
            put(
                format!("epoch.{}.host_us_per_op.{}", p.name(), d.name()),
                run.per_unit(|u| {
                    sum_calls(u, |c| c.phase == p && c.design == d)
                        .map(|(ops, s)| ratio(s * 1e6, ops))
                }),
                "us",
            );
        }
    }
    let wire = gaps_us(Phase::Fleet);
    put(
        "fleet.wire_gap_us.p50".into(),
        percentile(&wire, 50.0).unwrap_or(0.0),
        "us",
    );
    put(
        "fleet.wire_gap_us.p99".into(),
        percentile(&wire, 99.0).unwrap_or(0.0),
        "us",
    );
    for own in Own::ALL {
        put(
            format!("load.{}_us", own.name()),
            run.per_unit(|u| Some(u.ref_s(u.own_s(own)) * 1e6)),
            "us",
        );
    }

    // ---- per layer: simulated ----
    for d in Design::ALL {
        let dn = d.name();
        let calls: Vec<&Call> = run.sim_calls().filter(|c| c.design == d).collect();
        let sum =
            |f: &dyn Fn(&Call) -> u64| -> f64 { calls.iter().map(|c| f(c)).sum::<u64>() as f64 };
        let metered: Vec<_> = calls
            .iter()
            .filter_map(|c| c.meter.map(|m| (m, c.ops)))
            .collect();
        let metered_ops = metered.iter().map(|(_, ops)| ops).sum::<u64>() as f64;
        for s in Subsystem::ALL {
            let cycles: u64 = metered.iter().map(|(m, _)| m.attributed_to(s)).sum();
            let entries: u64 = metered.iter().map(|(m, _)| m.entries_for(s)).sum();
            put(
                format!("sim.{dn}.{}.kcycles_per_op", s.name()),
                ratio(cycles as f64 / 1e3, metered_ops),
                "kcycles",
            );
            put(
                format!("sim.{dn}.{}.entries_per_op", s.name()),
                ratio(entries as f64, metered_ops),
                "count",
            );
        }
        let all_ops = sum(&|c| c.ops);
        for (kind, label) in [
            (EdgeKind::Invoke, "invoke"),
            (EdgeKind::SharedData, "shared_data"),
        ] {
            put(
                format!("sim.{dn}.edges.{label}_per_op"),
                ratio(sum(&|c| c.edges.total_of(kind)), all_ops),
                "count",
            );
        }
        put(
            format!("sim.{dn}.queued_peak"),
            calls.iter().map(|c| c.queued_peak).max().unwrap_or(0) as f64,
            "count",
        );
        // C1's stop-the-world recovery: bootload, two salvage passes and
        // the reconcile. S1's figure stops at the stream resuming, so the
        // two do not average into one meaningful number.
        let c1 = |f: &dyn Fn(&Call) -> u64| sum(&|c| if c.phase == Phase::C1 { f(c) } else { 0 });
        put(
            format!("sim.{dn}.recovery_mcycles_per_crash"),
            ratio(c1(&|c| c.recovery_cycles) / 1e6, c1(&|c| c.crashes)),
            "Mcycles",
        );
        let sim_units = run
            .ran()
            .filter(|u| u.index < run.workload.sim_units())
            .count();
        put(
            format!("sim.{dn}.salvage_repairs"),
            ratio(sum(&|c| c.salvage_repairs), sim_units as f64),
            "count",
        );
        put(
            format!("sim.s1.{dn}.retries_per_blocked"),
            ratio(sum(&|c| c.retries), sum(&|c| c.blocked_ops)),
            "count",
        );
        let fleet: Vec<f64> = calls
            .iter()
            .filter(|c| c.phase == Phase::Fleet)
            .map(|c| c.wall_cycles as f64 / 1e6)
            .collect();
        put(
            format!("sim.fleet.{dn}.wall_mcycles"),
            ratio(fleet.iter().sum(), fleet.len() as f64),
            "Mcycles",
        );
    }
    let kernel: Vec<&Call> = run.sim_calls().filter(|c| kernel_load(c)).collect();
    let (wait, samples) = kernel.iter().fold((0u64, 0u64), |(w, s), c| {
        (w + c.queue_delay.0, s + c.queue_delay.1)
    });
    put(
        "sim.kernel.queue_delay".into(),
        ratio(wait as f64, samples as f64),
        "intervals",
    );
    put(
        "sim.kernel.event_queue_hwm".into(),
        kernel.iter().map(|c| c.event_queue_hwm).max().unwrap_or(0) as f64,
        "count",
    );
    let (frames, ops) = run
        .sim_calls()
        .filter(|c| c.phase == Phase::Fleet)
        .fold((0u64, 0u64), |(f, o), c| (f + c.frames_sent, o + c.ops));
    put(
        "sim.fleet.frames_per_op".into(),
        ratio(frames as f64, ops as f64),
        "count",
    );
    out
}

/// The metrics named in `names`, in that order. A name `compute` did not
/// produce is a defect in this file, so it panics.
pub fn select(all: &[Metric], names: &[(String, &'static str)]) -> Vec<Metric> {
    names
        .iter()
        .map(|(name, unit)| {
            let m = all
                .iter()
                .find(|m| &m.name == name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            assert_eq!(m.unit, *unit, "unit of {name}");
            m.clone()
        })
        .collect()
}

pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workload::Seg;

    fn unit_with(index: u64, wall_s: f64, calls: Vec<(Design, u64, f64)>) -> Unit {
        Unit {
            index,
            seed: index,
            start_s: 0.0,
            wall_s,
            calls: calls
                .into_iter()
                .map(|(design, ops, host_s)| Call::stub(design, Phase::Load, ops, host_s))
                .collect(),
            segs: vec![Seg {
                own: Own::Oracle,
                start_s: 0.0,
                dur_s: 1e-6,
            }],
            failures: Vec::new(),
            fingerprint: None,
            slowdown: 1.0,
        }
    }

    fn value(all: &[Metric], name: &str) -> f64 {
        all.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn host_figures_are_medians_of_per_unit_values_in_reference_seconds() {
        // Unit 2 ran on a host twice as slow as the reference: its kernel
        // second is half a reference second. Kernel rates are then 100,
        // 200, 600, 400 and 1000 ops per reference second; walls 1, 2, 1.5,
        // 4 and 5 reference seconds.
        let units = [(100, 1.0), (200, 1.0), (300, 2.0), (400, 1.0), (1000, 1.0)]
            .into_iter()
            .enumerate()
            .map(|(i, (ops, slowdown))| {
                let mut u = unit_with(
                    i as u64,
                    1.0 + i as f64,
                    vec![(Design::Kernel, ops, 1.0), (Design::Legacy, 10, 1.0)],
                );
                u.slowdown = slowdown;
                u
            })
            .collect();
        let run = Run {
            workload: Workload::Steady,
            units,
            setup_s: vec![0.3, 0.1, 0.2],
            peak_rss_mb: 12.0,
        };
        let all = compute(&run);
        assert_eq!(value(&all, "ops_per_s.kernel"), 400.0);
        assert_eq!(value(&all, "kernel.host_us_per_op"), 1e6 / 400.0);
        assert_eq!(value(&all, "unit_s.p50"), 2.0);
        assert_eq!(value(&all, "setup_s"), 0.2);
        assert_eq!(value(&all, "fail_frac"), 0.0);
    }

    #[test]
    fn failed_units_count_against_attempted() {
        let mut bad = unit_with(1, 1.0, vec![(Design::Kernel, 1, 1.0)]);
        bad.failures.push("parity".into());
        let run = Run {
            workload: Workload::Fleet,
            units: vec![unit_with(0, 1.0, vec![(Design::Kernel, 1, 1.0)]), bad],
            setup_s: vec![0.1],
            peak_rss_mb: 1.0,
        };
        assert_eq!(value(&compute(&run), "fail_frac"), 0.5);
    }

    /// The names `BENCHMARK.json` declares, by list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(list)
            .expect("list present")
            .as_arr()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(json::Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn output_and_benchmark_json_name_the_same_metrics() {
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), own(end_to_end()));
        assert_eq!(declared("per_layer"), own(per_layer()));
        let doc = json::parse(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap(),
        )
        .unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(json::Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn every_declared_metric_is_computed_on_every_workload() {
        for w in Workload::ALL {
            let run = Run {
                workload: w,
                units: vec![unit_with(
                    0,
                    1.0,
                    vec![(Design::Kernel, 5, 0.1), (Design::Legacy, 5, 0.2)],
                )],
                setup_s: vec![0.1],
                peak_rss_mb: 1.0,
            };
            let all = compute(&run);
            assert_eq!(select(&all, &end_to_end()).len(), END_TO_END.len());
            assert_eq!(select(&all, &per_layer()).len(), per_layer().len());
            let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), all.len(), "{w:?}: a metric is computed twice");
        }
    }
}
