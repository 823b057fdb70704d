//! Flag handling of the `experiments` binary, run as a process.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn soak_refuses_the_cpu_exec_mode_and_unknown_flags() {
    // The CPU exec mode has no device to fault; the soak's iteration count
    // is fixed. Both are refused before any experiment runs.
    for args in [
        &["soak", "--exec-mode", "cpu", "--no-telemetry"][..],
        &["soak", "--iterations", "8", "--no-telemetry"][..],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
    }
}

#[test]
fn host_jobs_is_refused_for_the_one_jobs_budget() {
    // `--jobs` is the driver's one thread knob: `--host-jobs` is unknown.
    let out = experiments(&["fig9", "--quick", "--host-jobs", "1", "--no-telemetry"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran an experiment");
}
