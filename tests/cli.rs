//! The `limit-repro` front end on malformed and hostile input. Every case
//! must fail cleanly — exit status 1 with an `error:` line — never with a
//! panic (101) or a stack-overflow abort (134). Parse errors also print the
//! usage text. Every case fails before a simulation starts, so the suite
//! stays fast.

use std::process::Command;

const USAGE: &str = "usage: limit-repro <command>";

/// Runs the binary and returns its stderr after checking the exit status
/// and the leading `error:` line; `usage` says whether the usage text must
/// follow.
fn fails_cleanly(args: &[&str], usage: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_limit-repro"))
        .args(args)
        .output()
        .expect("spawn limit-repro");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?} exited with {}; stderr:\n{stderr}",
        out.status
    );
    assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    assert_eq!(stderr.contains(USAGE), usage, "{args:?}: {stderr}");
    stderr
}

fn parse_error(args: &[&str]) -> String {
    fails_cleanly(args, true)
}

#[test]
fn unknown_or_missing_command_is_a_parse_error() {
    parse_error(&[]);
    parse_error(&["bogus"]);
}

#[test]
fn missing_positional_is_a_parse_error() {
    for cmd in [
        "run",
        "stat",
        "monitor",
        "fleet",
        "whatif",
        "check-telemetry",
        "trace",
        "check-trace",
    ] {
        let err = parse_error(&[cmd]);
        assert!(err.contains(&format!("{cmd} needs")), "{err}");
    }
}

#[test]
fn unknown_flag_is_a_parse_error() {
    for args in [
        &["list", "--bogus", "1"][..],
        &["run", "e1", "--bogus", "1"],
        &["stat", "mysqld", "--bogus", "1"],
        &["bench", "--bogus", "1"],
        &["monitor", "mysqld", "--bogus", "1"],
        &["fleet", "mysqld", "--bogus", "1"],
        &["whatif", "mysqld", "--bogus", "1"],
        &["check-telemetry", "x.json", "--bogus", "1"],
        &["torture", "--bogus", "1"],
        &["trust", "--bogus", "1"],
        &["trace", "mysqld", "--bogus", "1"],
        &["check-trace", "x.ndjson", "--bogus", "1"],
    ] {
        let err = parse_error(args);
        assert!(err.contains("unknown flag --bogus"), "{args:?}: {err}");
    }
}

#[test]
fn flag_without_value_is_a_parse_error() {
    for args in [
        &["list", "--jobs"][..],
        &["run", "e1", "--jobs"],
        &["stat", "mysqld", "--jobs"],
        &["bench", "--queries"],
        &["monitor", "mysqld", "--threads"],
        &["fleet", "mysqld", "--instances"],
        &["whatif", "mysqld", "--scale"],
        &["check-telemetry", "x.json", "--jobs"],
        &["torture", "--schedules"],
        &["trust", "--schedules"],
        &["trace", "mysqld", "--buf-slots"],
        &["check-trace", "x.ndjson", "--jobs"],
    ] {
        let err = parse_error(args);
        assert!(err.contains("needs a value"), "{args:?}: {err}");
    }
}

#[test]
fn bad_numeric_value_is_a_parse_error() {
    for args in [
        &["run", "e1", "--jobs", "x"][..],
        &["bench", "--queries", "x"],
        &["monitor", "mysqld", "--threads", "-1"],
        &["fleet", "mysqld", "--instances", "x"],
        &["whatif", "mysqld", "--scale", "x"],
        &["whatif", "mysqld", "--stripes=1e3"],
        &["torture", "--schedules", "x"],
        &["trust", "--schedules", "x"],
        &["trace", "mysqld", "--buf-slots", "99999999999999999999"],
    ] {
        let err = parse_error(args);
        assert!(err.contains("invalid --"), "{args:?}: {err}");
    }
}

#[test]
fn deeply_nested_json_is_rejected_without_overflowing_the_stack() {
    let path = std::env::temp_dir().join(format!("limit-cli-deep-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(400_000)).unwrap();
    let file = path.to_str().unwrap();
    for cmd in ["check-telemetry", "check-trace"] {
        let err = fails_cleanly(&[cmd, file], false);
        assert!(err.contains("nesting deeper"), "{cmd}: {err}");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn huge_buf_slots_is_rejected_before_allocating() {
    let err = fails_cleanly(
        &["trace", "mysqld", "--buf-slots", "4611686018427387904"],
        false,
    );
    assert!(err.contains("--buf-slots must be at most"), "{err}");
}
