#!/bin/sh
# Repository health check: what CI runs, runnable locally.
#   sh scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

# Build artifacts must never be committed (.gitignore covers _build/ and
# out/; this catches force-adds).
tracked=$(git ls-files -- '_build/*' 'out/*' '*.install')
if [ -n "$tracked" ]; then
  echo "error: build artifacts tracked in git:" >&2
  echo "$tracked" >&2
  exit 1
fi

# Zero-byte tracked files are stray editor/alias leftovers, never
# intentional in this repo.
empty=$(git ls-files | while read -r f; do
  [ -f "$f" ] && [ ! -s "$f" ] && echo "$f" || true
done)
if [ -n "$empty" ]; then
  echo "error: zero-byte files tracked in git:" >&2
  echo "$empty" >&2
  exit 1
fi

dune build @all
dune runtest

# Link guard: the daemon binary links only what it serves.  No OCaml
# compiler (the analyzer's compiler-libs are linked with -linkall, so
# any library of bin/tilesched.exe that depends on lib/lint pulls the
# whole type checker into every daemon start), no benchmark harness
# (Bechamel, lib/microbench), no load generator and no test oracle
# (DESIGN.md section 10).
daemon=_build/default/bin/tilesched.exe
symbols=$(nm "$daemon")
for prefix in camlTypemod camlBechamel camlMicrobench camlServer__Loadgen camlOracle; do
  linked=$(printf '%s\n' "$symbols" | grep -c "$prefix" || true)
  if [ "$linked" -ne 0 ]; then
    echo "error: $daemon links $prefix ($linked symbols)" >&2
    exit 1
  fi
done

# Project-invariant static analysis (DESIGN.md sections 10 and 15):
# the syntactic rules (determinism, forbidden constructs, Parallel task
# purity, fsync-before-rename, interface coverage) plus the typedtree
# dataflow layer (interprocedural determinism taint, lock discipline,
# resource lifetime).  Exits nonzero on any finding.
dune exec bin/lint/tilesched_lint.exe

# The SARIF emitter must stay schema-valid: emit the same scan as SARIF
# and structurally check the 2.1.0 essentials (CI uploads this file as
# an artifact).
sarif_out=/tmp/tilesched-lint.sarif
dune exec bin/lint/tilesched_lint.exe -- --format sarif > "$sarif_out"
python3 - "$sarif_out" <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
assert doc["version"] == "2.1.0", "version"
assert doc["$schema"].endswith("sarif-2.1.0.json"), "schema ref"
runs = doc["runs"]
assert isinstance(runs, list) and runs, "runs"
driver = runs[0]["tool"]["driver"]
assert driver["name"] == "tilesched-lint", "driver name"
rules = {r["id"] for r in driver["rules"]}
for rid in ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "P0", "A0", "B0"]:
    assert rid in rules, "missing rule descriptor " + rid
for res in runs[0]["results"]:
    assert res["ruleId"] in rules, "result ruleId not declared"
    assert res["message"]["text"], "message text"
    loc = res["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"], "artifact uri"
    assert loc["region"]["startLine"] >= 1, "startLine"
    assert loc["region"]["startColumn"] >= 1, "startColumn"
print("sarif ok (%d results)" % len(runs[0]["results"]))
PY
rm -f "$sarif_out"

# Every benchmark suite must stay machine-readable end to end: a
# tiny-quota run writes its artifact, and the validator re-reads it
# (schema, the suite's required rows and units, its gates).  The server
# suite spawns bin/tilesched.exe (built above) as its daemon; its
# open-loop leg holds 10k client sockets in the bench process and 10k
# accepted ones in the daemon, so raise the fd soft limit where the
# hard limit allows.
ulimit -n 20000 2>/dev/null || true
for suite in core skew lifetime corpus server; do
  smoke=/tmp/tilesched-bench-$suite-smoke.json
  dune exec bench/main.exe -- suite "$suite" --json "$smoke" --quota 0.02 > /dev/null
  dune exec bench/main.exe -- suite --validate "$smoke"
  rm -f "$smoke"
done

# Every committed BENCH_*.json names its suite and must pass that
# suite's checks, so a stale or regressed in-repo artifact fails fast.
for artifact in $(git ls-files 'BENCH_*.json'); do
  dune exec bench/main.exe -- suite --validate "$artifact"
done

# Corpus pipeline smoke: a tiny campaign must build, report the exact
# n<=5 class counts, and survive full offline verification (CRCs, index
# reachability, certificate re-proofs).
corpus_dir=/tmp/tilesched-corpus-smoke
rm -rf "$corpus_dir"
dune exec bin/tilesched.exe -- corpus build -d "$corpus_dir" -n 5 > /dev/null
dune exec bin/tilesched.exe -- corpus stats -d "$corpus_dir" | grep -q 'total classes=21 exact=18 non-exact=3'
dune exec bin/tilesched.exe -- corpus verify -d "$corpus_dir" | grep -q 'ok (21 records'
rm -rf "$corpus_dir"

echo "all checks passed"
