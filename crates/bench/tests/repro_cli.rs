//! `repro`'s command line: names come from `EXPERIMENTS`, and a name that
//! is not there fails the whole invocation before anything runs.

use aio_bench::experiments::EXPERIMENTS;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn known_names_run_and_exit_zero() {
    let out = repro(&["table1", "table2", "table3"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["table1", "table2", "table3"] {
        assert!(stdout.contains(&format!("[{name} done in")), "{stdout}");
    }
}

#[test]
fn removed_or_unknown_experiment_exits_2_before_running_anything() {
    for gone in ["scaling", "wcoj", "trace_overhead"] {
        let out = repro(&["table1", gone]);
        assert_eq!(out.status.code(), Some(2), "{gone}: {out:?}");
        assert!(out.stdout.is_empty(), "{gone} ran something: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown experiment: {gone}")),
            "{stderr}"
        );
    }
}

#[test]
fn help_lists_exactly_the_table() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let listed = stderr
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .expect("list line");
    let mut want: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    want.push("all");
    assert_eq!(listed.split_whitespace().collect::<Vec<_>>(), want);
}
