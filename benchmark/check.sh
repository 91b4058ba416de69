#!/usr/bin/env bash
# Smoke check of the benchmark itself (whole thing well under a minute):
#   1. unit tests of strongbench;
#   2. two `run --quick` invocations (same workloads, tiny shapes);
#   3. every workload and metric named in BENCHMARK.json appears in the output
#      with its unit, names use only letters, digits, `_`, `.` and `-`, and
#      no operation failed;
#   4. `compare` on the two quick runs parses both and applies the bounds.
# Run from anywhere; reads BENCHMARK.json from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/strongbench"
out="$(dirname "$bin")/strongbench-check"
rm -rf "$out" && mkdir -p "$out"

"$bin" run --quick --seed 1 --out "$out/a.json" > "$out/a.txt"
"$bin" run --quick --seed 1 --out "$out/b.json" > "$out/b.txt"

python3 - "$out/a.json" "$out/a.txt" <<'PY'
import json, re, sys
bench = json.load(open("BENCHMARK.json"))
run = json.load(open(sys.argv[1]))["runs"][-1]
text = open(sys.argv[2]).read()
name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
assert isinstance(run["seed"], int) and run["cores"] >= 1
for w in bench["workloads"]:
    assert name_ok.match(w["name"]), w["name"]
    got = run["workloads"][w["name"]]
    assert got["attempted"] >= 1 and got["failed"] == 0, (w["name"], got["attempted"], got["failed"])
    assert got["notes"]["inputs_hash"], w["name"]
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            assert name_ok.match(m["name"]), m["name"]
            entry = got[section][m["name"]]
            assert entry["unit"] == m["unit"], (w["name"], m["name"], entry)
            assert isinstance(entry["value"], (int, float)) and entry["n"] >= 0
            assert re.search(r"^\s+%s\s+\S+\s+%s\s+n=\d+" % (re.escape(m["name"]), re.escape(m["unit"])), text, re.M), m["name"]
        assert len(got[section]) == len(bench[section]), (w["name"], section)
    for m in bench["end_to_end"]:
        assert got["end_to_end"][m["name"]]["value"] > 0, (w["name"], m["name"])
print("check: every workload and metric of BENCHMARK.json is reported with its unit")
PY

# A file compared with itself must pass. Two quick runs last half a second per
# workload, so their timings are not held to the bounds: exit 1 (a regression
# verdict) is accepted there, exit 2 (unreadable input) is not.
"$bin" compare "$out/a.json" "$out/a.json" > /dev/null
rc=0
"$bin" compare "$out/a.json" "$out/b.json" || rc=$?
[ "$rc" -le 1 ] || exit "$rc"
echo "check: ok"
