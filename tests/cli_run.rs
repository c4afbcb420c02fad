//! The `greencell run` report, driven through the `greencell` binary's
//! command line.

use std::process::Command;

#[test]
fn run_prints_the_watchdog_verdict() {
    let out = Command::new(env!("CARGO_BIN_EXE_greencell"))
        .args(["run", "--tiny", "--horizon", "20"])
        .output()
        .expect("greencell runs");
    assert!(out.status.success(), "exit status {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("watchdog:"))
        .unwrap_or_else(|| panic!("no watchdog line in:\n{stdout}"));
    assert!(line.contains("20 slots"), "{line}");
    assert!(line.contains("trailing slope"), "{line}");
    assert!(
        line.ends_with(", stable") || line.ends_with(", divergent"),
        "{line}"
    );
}
