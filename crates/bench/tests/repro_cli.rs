//! The `repro` binary's argument handling: bad arguments exit 2 before
//! any experiment runs, an unwritable trace path exits 1, and `--list`
//! names every experiment.

use std::path::Path;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn assert_exit(args: &[&str], code: i32) -> Output {
    let out = repro(args);
    assert_eq!(
        out.status.code(),
        Some(code),
        "repro {args:?}: stderr {:?}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn positive_integer_flags_refuse_zero_and_non_numbers() {
    for flag in [
        "--stride", "--l1-max", "--c1-max", "--s1-max", "--m1-max", "--shards", "--f1-max",
    ] {
        for value in ["0", "x"] {
            let out = assert_exit(&[flag, value], 2);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("{flag} requires a positive integer")),
                "{flag} {value}: {stderr}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_2() {
    assert_exit(&["--machines", "0"], 2);
    assert_exit(&["--machines", "101"], 2);
    assert_exit(&["--trace"], 2);
    assert_exit(&["--no-such-flag"], 2);
    assert_exit(&["--only", "bogus"], 2);
}

#[test]
fn an_unwritable_trace_path_exits_1() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("repro-cli-missing-dir")
        .join("t.json");
    assert!(!path.parent().unwrap().exists());
    assert_exit(&["--only", "t2", "--trace", path.to_str().unwrap()], 1);
}

#[test]
fn list_prints_the_27_experiment_ids() {
    let out = assert_exit(&["--list"], 0);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let mut ids: Vec<&str> = stdout.lines().collect();
    assert_eq!(ids.len(), 27, "{stdout}");
    assert_eq!((ids[0], ids[26]), ("f1", "g1"));
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 27, "ids are distinct");
}
