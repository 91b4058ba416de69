//! `shtrain`'s telemetry and trace sinks on the unhappy path: a sink path
//! that cannot be written is reported on stderr with a non-zero exit, not a
//! panic; a writable one is written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A small cost-model run of one method with the given sink flags.
fn shtrain(sinks: &[(&str, &Path)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_shtrain"));
    cmd.args([
        "-m",
        "stronghold",
        "-l",
        "2",
        "-d",
        "64",
        "-n",
        "2",
        "-s",
        "16",
        "-b",
        "1",
    ]);
    for (flag, path) in sinks {
        cmd.arg(flag).arg(path);
    }
    cmd.output().expect("shtrain runs")
}

/// A fresh directory of this test's own under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shtrain-sinks-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn sink_in_a_missing_directory_exits_non_zero_with_the_path() {
    let dir = scratch_dir("missing");
    let missing = dir.join("no-such-dir");
    for flag in ["--telemetry", "--trace"] {
        let path = missing.join("out.json");
        let out = shtrain(&[(flag, &path)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: stderr {stderr}");
        assert!(
            stderr.contains("shtrain: cannot write") && stderr.contains(&*path.to_string_lossy()),
            "{flag}: the error names the path: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag}: no panic: {stderr}");
    }
    assert!(!missing.exists(), "nothing creates the missing directory");

    let (tel, trace) = (dir.join("tel.json"), dir.join("trace.json"));
    let out = shtrain(&[("--telemetry", &tel), ("--trace", &trace)]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::metadata(&tel).is_ok_and(|m| m.len() > 0));
    assert!(std::fs::metadata(&trace).is_ok_and(|m| m.len() > 0));
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
