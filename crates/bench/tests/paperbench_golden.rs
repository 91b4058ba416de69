//! `paperbench all` is deterministic: its stdout must equal the checked-in
//! `golden/paperbench_all.txt` byte for byte. A change that means to move a
//! figure regenerates the file in its own diff with
//! `cargo run --release -p stronghold-bench --bin paperbench -- all >
//! crates/bench/tests/golden/paperbench_all.txt`.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/paperbench_all.txt");

#[test]
fn paperbench_all_matches_the_golden_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_paperbench"))
        .arg("all")
        .output()
        .expect("paperbench runs");
    assert!(
        out.status.success(),
        "paperbench all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if got == GOLDEN {
        return;
    }
    let (mut got_lines, mut want_lines) = (got.lines(), GOLDEN.lines());
    for line in 1.. {
        let (g, w) = (got_lines.next(), want_lines.next());
        assert_eq!(
            g, w,
            "first differing line of `paperbench all`: line {line} (left: output, right: golden)"
        );
        if g.is_none() {
            break;
        }
    }
    panic!("`paperbench all` differs from the golden file only in line endings");
}
