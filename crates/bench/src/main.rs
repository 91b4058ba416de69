//! `paperbench` — regenerates the STRONGHOLD paper's tables and figures.
//!
//! ```text
//! paperbench <experiment-id>|all [--json <dir>] [--trace <dir>]
//! ```
//!
//! A flag without its value prints the usage and exits 2; a sink that
//! cannot be written prints `paperbench: cannot write PATH: ERROR` and
//! exits 1.

use std::path::Path;

fn usage(code: i32) -> ! {
    eprintln!("usage: paperbench <id>|all [--json <dir>] [--trace <dir>]");
    eprintln!(
        "experiments: {}",
        stronghold_bench::ALL_EXPERIMENTS.join(", ")
    );
    std::process::exit(code);
}

/// The value after `flag`, if the flag is given.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a Path> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) => Some(Path::new(v)),
        None => usage(2),
    }
}

/// Writes `contents` to `dir/file`, creating `dir`; a failure is reported
/// with the path and ends the process.
fn write_sink(dir: &Path, file: &str, contents: &str) {
    let path = dir.join(file);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents));
    if let Err(e) = written {
        eprintln!("paperbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        usage(if args.is_empty() { 2 } else { 0 });
    }
    let json_dir = flag_value(&args, "--json");
    let trace_dir = flag_value(&args, "--trace");

    let ids: Vec<&str> = if args[0] == "all" {
        stronghold_bench::ALL_EXPERIMENTS.to_vec()
    } else {
        vec![args[0].as_str()]
    };

    for id in ids {
        let Some(exp) = stronghold_bench::run(id) else {
            eprintln!("unknown experiment '{id}'");
            usage(2);
        };
        println!("{}", exp.render());
        if let (Some(dir), "fig4") = (trace_dir, id) {
            let trace = stronghold_bench::experiments::fig4::chrome_trace();
            write_sink(dir, "fig4_trace.json", &trace);
        }
        if let Some(dir) = json_dir {
            let json = serde_json::to_string_pretty(&exp.to_json()).unwrap();
            write_sink(dir, &format!("{id}.json"), &format!("{json}\n"));
        }
    }
}
