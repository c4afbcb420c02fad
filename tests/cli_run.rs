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

/// Runs `greencell run --tiny --horizon 13 <flag> <value>` and asserts it
/// fails as a parse error — exit code 2 with an `error:` line — not as a
/// panic deep in the controller.
fn assert_rejected(flag: &str, value: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_greencell"))
        .args(["run", "--tiny", "--horizon", "13", flag, value])
        .output()
        .expect("greencell runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
    assert!(stderr.starts_with("error: "), "{flag} {value}: {stderr}");
    assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
}

#[test]
fn negative_v_is_a_parse_error() {
    assert_rejected("--v", "-1");
}

#[test]
fn nan_v_is_a_parse_error() {
    assert_rejected("--v", "NaN");
}

#[test]
fn infinite_v_is_a_parse_error() {
    assert_rejected("--v", "inf");
}

#[test]
fn negative_lambda_is_a_parse_error() {
    assert_rejected("--lambda", "-1");
}

#[test]
fn negative_tou_is_a_parse_error() {
    assert_rejected("--tou", "-1");
}

#[test]
fn nan_tou_is_a_parse_error() {
    assert_rejected("--tou", "NaN");
}

#[test]
fn tou_overflowing_the_price_bracket_is_a_parse_error() {
    assert_rejected("--tou", "1e306");
}

#[test]
fn serve_rejects_a_price_that_overflows_the_price_bracket() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_greencell"))
        .args(["serve", "--tiny", "--users", "4", "--sessions", "2"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("greencell serve starts");
    {
        use std::io::Write;
        let mut stdin = child.stdin.take().expect("piped stdin");
        writeln!(
            stdin,
            r#"{{"renewable_w":[1,1,1,1,1],"grid":[true,true,true,true,true],"demand":[1,1],"price":1e305}}"#
        )
        .expect("line written");
    }
    let out = child.wait_with_output().expect("serve exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit status {:?}", out.status);
    assert!(
        stdout.contains(r#""event":"reject","line":1"#),
        "no reject event in:\n{stdout}"
    );
    assert!(
        stdout.contains(r#""slot":0,"reason":"input-closed""#),
        "{stdout}"
    );
}
