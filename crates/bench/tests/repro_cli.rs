//! `repro` rejects command-line mistakes loudly: an unknown exhibit or
//! flag exits 2 and prints the valid exhibits and flags, instead of
//! silently running nothing or ignoring the flag.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn assert_usage_error(args: &[&str], complaint: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    // The valid exhibits and flags are listed.
    for valid in [
        "fig1",
        "table2",
        "fleet",
        "scaleout",
        "--quick",
        "--threads N",
    ] {
        assert!(stderr.contains(valid), "{args:?} omits {valid}: {stderr}");
    }
}

#[test]
fn unknown_exhibit_exits_2_with_the_valid_list() {
    assert_usage_error(&["nosuchexhibit"], "unknown exhibit \"nosuchexhibit\"");
}

#[test]
fn unknown_flag_exits_2_with_the_valid_list() {
    assert_usage_error(&["fig1", "--bogus-flag"], "unknown flag \"--bogus-flag\"");
}

#[test]
fn malformed_flag_values_exit_2() {
    assert_usage_error(&["fig1", "--threads"], "--threads needs a value");
    assert_usage_error(
        &["fig1", "--trials", "many"],
        "--trials needs a whole number",
    );
}

#[test]
fn valid_command_lines_still_run() {
    for args in [&["fig1", "--threads", "1"][..], &["--threads=1", "fig1"]] {
        let out = repro(args);
        assert!(out.status.success(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("FIGURE 1"));
    }
}
