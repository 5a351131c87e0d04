//! mxbench: the simulator's wall-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path mxbench/Cargo.toml -- \
//!     [--workload steady|crowd|recovery|fleet] [--seed S] [--seconds N] \
//!     [--trace 0|1] [--json PATH] [--spans PATH] [--unit N]
//! ```
//!
//! With `--workload`, runs that workload's units as a closed loop on one
//! thread, checks every unit with the repository's own oracles, prints
//! every metric by name and unit, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the same units with pass-through
//! probes installed, writes spans, and reports the per-layer metrics.
//! Without `--workload`, runs every workload in its own child process, one
//! after another, and prints a summary (with `--trace 1`, each workload runs
//! untraced and then traced, and the difference is the tracing overhead).
//! Every run measures for `--seconds N` (default 20, `BENCHMARK.json`'s
//! `run_seconds`), after the units the simulated figures need. Host times
//! are reported in reference seconds, corrected for the host's speed at
//! the time (`speed`).
//! `--unit N` replays one unit, as printed beside a failure.

mod json;
mod probe;
mod report;
mod speed;
mod stats;
mod workload;

use json::Json;
use report::{compute, end_to_end, per_layer, select, Metric, Run};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{run_unit, Unit, Workload};

const USAGE: &str = "usage: mxbench [--workload steady|crowd|recovery|fleet] [--seed S] \
                     [--seconds N] [--trace 0|1] [--json PATH] [--spans PATH] [--unit N]";

const DEFAULT_SEED: u64 = 1977;

/// Seconds a run measures unless told otherwise: `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Processes whose set-up is timed for `setup_s`: this one and fresh
/// copies. A fresh process pays every one-time cost again, so work moved
/// out of the units into set-up shows in the median. The copies run at
/// even steps through the time budget, not back to back, so that one
/// stretch of host interference slows at most one or two of them.
const SETUP_SAMPLES: usize = 5;

/// Failures printed per unit; the replay string reproduces the rest.
const FAILURES_SHOWN: usize = 5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
    unit: Option<u64>,
    /// Internal: set up, print the set-up seconds, exit.
    setup_only: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
        spans: None,
        unit: None,
        setup_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--json" => args.json = Some(PathBuf::from(value)),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            "--unit" => args.unit = Some(parse_u64(value).ok_or_else(bad)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_none() && (args.spans.is_some() || args.unit.is_some() || args.setup_only) {
        return Err("--spans, --unit and --setup-only need --workload".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mxbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        None => all_workloads(&args),
        Some(w) if args.setup_only => {
            let (_, setup_s, _) = set_up(w, args.seed, false, epoch);
            println!("{setup_s}");
            Ok(true)
        }
        Some(w) => match args.unit {
            Some(u) => Ok(replay(w, &args, u, epoch)),
            None => one_workload(w, &args, epoch),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mxbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where traced runs write spans and the all-workloads run writes its
/// children's reports, unless told otherwise.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn replay_string(w: Workload, seed: u64, unit: u64) -> String {
    format!(
        "mxbench --workload {} --seed {seed} --unit {unit}",
        w.name()
    )
}

/// Each failure of `unit`, with the string that replays it.
fn failure_lines(w: Workload, seed: u64, unit: &Unit) -> Vec<String> {
    let replay = replay_string(w, seed, unit.index);
    let mut out: Vec<String> = unit
        .failures
        .iter()
        .take(FAILURES_SHOWN)
        .map(|f| {
            format!(
                "FAIL {} unit {} (unit seed {:#x}): {f} [replay: {replay}]",
                w.name(),
                unit.index,
                unit.seed
            )
        })
        .collect();
    if unit.failures.len() > FAILURES_SHOWN {
        out.push(format!(
            "FAIL {} unit {}: {} more [replay: {replay}]",
            w.name(),
            unit.index,
            unit.failures.len() - FAILURES_SHOWN
        ));
    }
    out
}

/// Sets up in a fresh copy of this process and returns its set-up time in
/// reference seconds.
fn setup_in_fresh_process(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .output()
        .map_err(|e| format!("spawning set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    match (out.status.success(), last.trim().parse::<f64>()) {
        (true, Ok(s)) => Ok(s),
        _ => Err(format!("set-up probe failed ({}): {last}", out.status)),
    }
}

/// Peak resident set (VmHWM) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn metric_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        )
    }))
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Set-up: the untimed warm-up, units `0..warm_units`, untraced. It lets
/// allocator and caches fill before timing. Returns unit 0, whose digest
/// (kept with `fingerprint`) is what the passive-probe guard compares the
/// traced unit 0 against; the set-up time in reference seconds; and the
/// slowdown that converted it, from slices run once set-up is over so that
/// they cannot warm what set-up must fill. The timed units run the warm-up
/// units again.
fn set_up(w: Workload, seed: u64, fingerprint: bool, epoch: Instant) -> (Unit, f64, f64) {
    let first = run_unit(w, seed, 0, false, fingerprint, epoch);
    for i in 1..w.warm_units() {
        run_unit(w, seed, i, false, false, epoch);
    }
    let host_s = epoch.elapsed().as_secs_f64();
    let slowdown = speed::group(speed::due(host_s));
    (first, host_s / slowdown, slowdown)
}

fn one_workload(w: Workload, args: &Args, epoch: Instant) -> Result<bool, String> {
    let (warm, own_setup_s, slowdown) = set_up(w, args.seed, args.trace, epoch);
    let mut setup_s = vec![own_setup_s];
    let mut groups = vec![speed::Group { next: 0, slowdown }];
    let mut since_group = Instant::now();
    let probes = if args.trace { 0 } else { SETUP_SAMPLES - 1 };

    // The budget counts units and the slices between them; set-up probes
    // pause it.
    let start = Instant::now();
    let mut paused = 0.0;
    let measured = |paused: f64| start.elapsed().as_secs_f64() - paused;
    let mut units: Vec<Unit> = Vec::new();
    let mut peak_rss = None;
    for i in 0.. {
        // Probe k (1-based) is due once k / SETUP_SAMPLES of the budget is
        // spent; all are due by the time the budget runs out.
        while setup_s.len() <= probes
            && measured(paused) >= args.seconds * setup_s.len() as f64 / SETUP_SAMPLES as f64
        {
            let t = Instant::now();
            setup_s.push(setup_in_fresh_process(w, args.seed)?);
            paused += t.elapsed().as_secs_f64();
        }
        if i >= w.sim_units() && measured(paused) >= args.seconds {
            break;
        }
        let due = speed::due(since_group.elapsed().as_secs_f64());
        if due > 0 {
            let slowdown = speed::group(due);
            groups.push(speed::Group { next: i, slowdown });
            since_group = Instant::now();
        }
        let guard = args.trace && i == 0;
        let mut unit = run_unit(w, args.seed, i, args.trace, guard, epoch);
        if guard && unit.fingerprint != warm.fingerprint {
            unit.failures.push(
                "passive probe changed the simulation: traced and untraced unit 0 differ \
                 in labels, cycles, meter or samples"
                    .to_string(),
            );
        }
        units.push(unit);
        // Read after a fixed amount of work: the high-water mark creeps up
        // with the unit count, which depends on the host's speed.
        if i + 1 == w.sim_units() {
            peak_rss = Some(peak_rss_mb()?);
        }
    }
    let slowdown = speed::group(speed::due(since_group.elapsed().as_secs_f64()));
    groups.push(speed::Group {
        next: units.len() as u64,
        slowdown,
    });
    for u in &mut units {
        u.slowdown = speed::slowdown_of(&groups, u.index);
    }

    let run = Run {
        workload: w,
        units,
        setup_s,
        peak_rss_mb: peak_rss.expect("every run completes its sim_units units"),
    };
    let all = compute(&run);
    let declared = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    let reported = select(&all, &declared);
    let failed = run.failed();

    println!(
        "mxbench {} seed={} trace={} units={} failed={} (sim figures over units 0..{})",
        w.name(),
        args.seed,
        u8::from(args.trace),
        run.units.len(),
        failed,
        w.sim_units()
    );
    print_metrics(&reported);
    // What neither list declares: fail_frac, units, the unit-time tail,
    // the raw unit time, the host's slowdown, and the layer times only
    // some workloads reach.
    let declared_anywhere = [end_to_end(), per_layer()].concat();
    let extra: Vec<Metric> = all
        .iter()
        .filter(|m| !declared_anywhere.iter().any(|(n, _)| *n == m.name))
        .cloned()
        .collect();
    print_metrics(&extra);
    let failures: Vec<String> = run
        .units
        .iter()
        .flat_map(|u| failure_lines(w, args.seed, u))
        .collect();
    for f in &failures {
        println!("{f}");
    }

    if args.trace {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| out_dir().join(format!("{}.spans.jsonl", w.name())));
        write_spans(&path, &run, epoch)?;
        println!("  spans written to {}", path.display());
    }
    let correct = failed == 0;
    if let Some(path) = &args.json {
        let report = Json::obj([
            ("workload", Json::Str(w.name().to_string())),
            ("seed", Json::Num(args.seed as f64)),
            ("trace", Json::Bool(args.trace)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(run.units.len() as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metric_json(&all)),
            (
                "failures",
                Json::Arr(failures.into_iter().map(Json::Str).collect()),
            ),
        ]);
        write_file(path, &format!("{report}\n"))?;
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(run.units.len() as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metric_json(&reported)),
    ]);
    println!("{line}");
    Ok(correct)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Writes the traced run as JSON lines, one span each: the workload, its
/// set-up, each unit, each design call inside a unit (with the stretch
/// before its first dispatch or wire choice), and the benchmark's own
/// oracle, script and histogram work. `self_us` is a span's duration less
/// the part its children cover.
fn write_spans(path: &Path, run: &Run, epoch: Instant) -> Result<(), String> {
    let us = |s: f64| Json::Num(s * 1e6);
    let mut lines: Vec<Json> = Vec::new();
    let mut next_id = 0u64;
    let mut span = |parent: Option<u64>,
                    name: String,
                    start: f64,
                    dur: f64,
                    self_s: f64,
                    attrs: Vec<(&str, Json)>| {
        let id = next_id;
        next_id += 1;
        lines.push(Json::obj([
            ("id", Json::Num(id as f64)),
            ("parent", parent.map_or(Json::Null, |p| Json::Num(p as f64))),
            ("name", Json::Str(name)),
            ("start_us", us(start)),
            ("dur_us", us(dur)),
            ("self_us", us(self_s)),
            ("attrs", Json::obj(attrs)),
        ]));
        id
    };

    let total = epoch.elapsed().as_secs_f64();
    let in_units: f64 = run.units.iter().map(|u| u.wall_s).sum();
    let root = span(
        None,
        format!("workload {}", run.workload.name()),
        0.0,
        total,
        total - in_units,
        vec![("units", Json::Num(run.units.len() as f64))],
    );
    let setup = run.setup_s.first().copied().unwrap_or(0.0);
    span(Some(root), "setup".into(), 0.0, setup, setup, vec![]);
    for u in &run.units {
        let children: f64 = u.calls.iter().map(|c| c.host_s).sum::<f64>()
            + u.segs.iter().map(|s| s.dur_s).sum::<f64>();
        let uid = span(
            Some(root),
            format!("unit {}", u.index),
            u.start_s,
            u.wall_s,
            u.wall_s - children,
            vec![
                ("seed", Json::Str(format!("{:#x}", u.seed))),
                ("failures", Json::Num(u.failures.len() as f64)),
            ],
        );
        for c in &u.calls {
            let pre = c.first_choice_s.unwrap_or(0.0);
            let gaps: Vec<f64> = c.gaps_ns.iter().map(|&g| g as f64 / 1e3).collect();
            let gap = |p| stats::percentile(&gaps, p).map_or(Json::Null, Json::Num);
            let cid = span(
                Some(uid),
                format!("{}.{}", c.design.name(), c.phase.name()),
                c.start_s,
                c.host_s,
                c.host_s - pre,
                vec![
                    ("ops", Json::Num(c.ops as f64)),
                    ("sim_cycles", Json::Num(c.op_cycles as f64)),
                    ("choices", Json::Num(c.choices as f64)),
                    ("gap_us_p50", gap(50.0)),
                    ("gap_us_p99", gap(99.0)),
                ],
            );
            if let Some(pre) = c.first_choice_s {
                let name = match c.phase {
                    workload::Phase::Fleet => "before_first_wire_choice",
                    _ => "before_first_dispatch",
                };
                span(Some(cid), name.into(), c.start_s, pre, pre, vec![]);
            }
        }
        for s in &u.segs {
            span(
                Some(uid),
                s.own.name().into(),
                s.start_s,
                s.dur_s,
                s.dur_s,
                vec![],
            );
        }
    }
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    write_file(path, &text)
}

/// Runs one unit alone and prints what it did and any failures.
fn replay(w: Workload, args: &Args, index: u64, epoch: Instant) -> bool {
    let unit = run_unit(w, args.seed, index, args.trace, false, epoch);
    println!(
        "mxbench {} seed={} unit={} unit_seed={:#x} wall_s={:.6}",
        w.name(),
        args.seed,
        index,
        unit.seed,
        unit.wall_s
    );
    for c in &unit.calls {
        println!(
            "  {}.{}: {} ops, {} simulated cycles, {:.6} s",
            c.design.name(),
            c.phase.name(),
            c.ops,
            c.op_cycles,
            c.host_s
        );
    }
    for f in failure_lines(w, args.seed, &unit) {
        println!("{f}");
    }
    unit.failures.is_empty()
}

/// Runs every workload in its own child process, one after another, and
/// prints a summary of their end-to-end metrics.
fn all_workloads(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut ok = true;
    let mut combined: Vec<(String, Json)> = Vec::new();
    let mut summary: Vec<String> = Vec::new();
    for w in Workload::ALL {
        let mut reports: Vec<(&str, Json)> = Vec::new();
        let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &traced in modes {
            let mode = if traced { "traced" } else { "untraced" };
            let path = out_dir().join(format!("{}.{mode}.json", w.name()));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--json")
                .arg(&path);
            let status = cmd
                .status()
                .map_err(|e| format!("spawning {}: {e}", w.name()))?;
            ok &= status.success();
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{} {mode} wrote no report ({status}): {e}", w.name()))?;
            reports.push((mode, json::parse(&text)?));
        }
        let value = |mode: &str, name: &str| -> Option<f64> {
            let report = &reports.iter().find(|(m, _)| *m == mode)?.1;
            report.get("metrics")?.get(name)?.get("value")?.as_f64()
        };
        summary.push(format!("{}:", w.name()));
        for name in END_TO_END_SUMMARY {
            if let Some(v) = value("untraced", name) {
                summary.push(format!("  {name:<28} {v:>16.6}"));
            }
        }
        if let (Some(plain), Some(traced)) = (
            value("untraced", "unit_s.p50"),
            value("traced", "unit_s.p50"),
        ) {
            summary.push(format!(
                "  {:<28} {:>15.2}%",
                "tracing overhead (unit_s.p50)",
                stats::ratio(traced - plain, plain) * 100.0
            ));
        }
        combined.push((w.name().to_string(), Json::obj(reports)));
    }
    println!("mxbench summary, seed={}", args.seed);
    for line in summary {
        println!("{line}");
    }
    if let Some(path) = &args.json {
        write_file(path, &format!("{}\n", Json::Obj(combined)))?;
    }
    Ok(ok)
}

/// The figures the all-workloads summary shows per workload.
const END_TO_END_SUMMARY: [&str; 9] = [
    "ops_per_s",
    "ops_per_s.kernel",
    "ops_per_s.legacy",
    "unit_s.p50",
    "unit_s.p90",
    "setup_s",
    "peak_rss_mb",
    "fail_frac",
    "units",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = args(&[
            "--workload",
            "crowd",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Crowd));
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 15.0);
        assert!(a.trace);
        assert_eq!(args(&["--seed", "0xC11977"]).unwrap().seed, 0xC1_1977);
    }

    #[test]
    fn default_budget_is_the_declared_run_length() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(declared, Some(DEFAULT_SECONDS));
        assert_eq!(args(&[]).unwrap().seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--unit", "3"]).is_err(), "--unit needs --workload");
        assert!(args(&["--frobnicate", "1"]).is_err());
    }
}
