//! `paperbench`'s JSON and trace sinks on the unhappy path: a sink that
//! cannot be written is reported on stderr with exit 1, not a panic; a flag
//! without its value prints the usage with exit 2; a writable sink is
//! written and leaves stdout as it is without one.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn paperbench(args: &[&str], sinks: &[(&str, &Path)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_paperbench"));
    cmd.args(args);
    for (flag, path) in sinks {
        cmd.arg(flag).arg(path);
    }
    cmd.output().expect("paperbench runs")
}

/// A fresh directory of this test's own under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paperbench-sinks-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn unwritable_sink_exits_1_with_the_path() {
    let dir = scratch_dir("unwritable");
    // A regular file where the sink directory should be: nothing can be
    // created under it.
    let blocker = dir.join("a-file");
    std::fs::write(&blocker, b"").expect("create blocker");
    let bad = blocker.join("sink");
    // `--trace` is written by fig4 only, `--json` by every experiment.
    for (id, flag) in [("table1", "--json"), ("fig4", "--trace")] {
        let out = paperbench(&[id], &[(flag, &bad)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: stderr {stderr}");
        assert!(
            stderr.contains("paperbench: cannot write") && stderr.contains(&*bad.to_string_lossy()),
            "{flag}: the error names the path: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag}: no panic: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn flag_without_a_value_exits_2_with_usage() {
    for flag in ["--json", "--trace"] {
        let out = paperbench(&["table1", flag], &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr {stderr}");
        assert!(stderr.contains("usage: paperbench"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: nothing runs");
    }
}

#[test]
fn writable_sinks_are_written_and_stdout_is_unchanged() {
    let dir = scratch_dir("writable");
    let plain = paperbench(&["table1"], &[]);
    assert!(plain.status.success());
    let json_dir = dir.join("json");
    let out = paperbench(&["table1"], &[("--json", &json_dir)]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, plain.stdout, "a sink leaves stdout as it is");
    let json = std::fs::read_to_string(json_dir.join("table1.json")).expect("table1.json");
    assert!(serde_json::from_str(&json).is_ok());

    let trace_dir = dir.join("trace");
    let out = paperbench(&["fig4"], &[("--trace", &trace_dir)]);
    assert!(out.status.success());
    let trace = std::fs::read_to_string(trace_dir.join("fig4_trace.json")).expect("fig4 trace");
    assert!(serde_json::from_str(&trace).is_ok());
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
