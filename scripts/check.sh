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

# Project-invariant static analysis (DESIGN.md sections 10 and 15):
# the syntactic rules (determinism, forbidden constructs, Parallel task
# purity, fsync-before-rename, interface coverage) plus the typedtree
# dataflow layer (interprocedural determinism taint, lock discipline,
# resource lifetime).  Exits nonzero on any finding.
dune exec bin/tilesched.exe -- lint

# The SARIF emitter must stay schema-valid: emit the same scan as SARIF
# and structurally check the 2.1.0 essentials (CI uploads this file as
# an artifact).
sarif_out=/tmp/tilesched-lint.sarif
dune exec bin/tilesched.exe -- lint --format sarif > "$sarif_out"
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

# The BENCH_5.json pipeline must stay machine-readable end to end: a
# tiny-quota run writes the artifact, the strict validator re-reads it
# (schema + the three required torus-engine rows).
bench_json=/tmp/tilesched-bench5-smoke.json
dune exec bin/tilesched.exe -- bench --json "$bench_json" --quota 0.02 > /dev/null
dune exec bin/tilesched.exe -- bench --validate "$bench_json"
rm -f "$bench_json"

# Same contract for BENCH_6.json, the EXP-P3 scheduler suite (skewed
# instance, sequential vs steal-j4).  Only the schema and required rows
# are asserted here: a speedup needs real cores and is read off the
# multi-core CI artifact instead.
bench6_json=/tmp/tilesched-bench6-smoke.json
dune exec bin/tilesched.exe -- bench --skew --json "$bench6_json" --quota 0.02 > /dev/null
dune exec bin/tilesched.exe -- bench --skew --validate "$bench6_json"
rm -f "$bench6_json"

# And for BENCH_7.json, the EXP-L1 lifetime suite (static vs rotating
# first-death slots, repair-solver timings).
bench7_json=/tmp/tilesched-bench7-smoke.json
dune exec bin/tilesched.exe -- bench --lifetime --json "$bench7_json" --quota 0.02 > /dev/null
dune exec bin/tilesched.exe -- bench --lifetime --validate "$bench7_json"
rm -f "$bench7_json"

# And for BENCH_8.json, the EXP-CORPUS corpus suite (mmap snapshot vs
# certificate store, warm and cold-start lookups).
bench8_json=/tmp/tilesched-bench8-smoke.json
dune exec bin/tilesched.exe -- bench --corpus --json "$bench8_json" --quota 0.02 > /dev/null
dune exec bin/tilesched.exe -- bench --corpus --validate "$bench8_json"
rm -f "$bench8_json"

# And for BENCH_10.json, the EXP-SRV2 wire-protocol suite (binary vs
# text throughput through the epoll daemon, 10k-connection open-loop
# percentiles).  The open-loop leg holds 10k client sockets in the
# bench process and 10k accepted ones in the daemon, so raise the fd
# soft limit where the hard limit allows.
ulimit -n 20000 2>/dev/null || true
bench10_json=/tmp/tilesched-bench10-smoke.json
dune exec bin/tilesched.exe -- bench --server --json "$bench10_json" --quota 0.02 > /dev/null
dune exec bin/tilesched.exe -- bench --server --validate "$bench10_json"
rm -f "$bench10_json"

# Every committed BENCH_*.json must validate against its own suite's
# schema, so a stale in-repo artifact fails fast.  The suffix picks the
# suite; an artifact this map doesn't know is itself an error.
for artifact in $(git ls-files 'BENCH_*.json'); do
  case "$artifact" in
    BENCH_5.json) flag="" ;;
    BENCH_6.json) flag="--skew" ;;
    BENCH_7.json) flag="--lifetime" ;;
    BENCH_8.json) flag="--corpus" ;;
    BENCH_10.json) flag="--server" ;;
    *)
      echo "error: $artifact: no validation suite mapped for this artifact" >&2
      exit 1
      ;;
  esac
  # shellcheck disable=SC2086
  dune exec bin/tilesched.exe -- bench $flag --validate "$artifact"
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

# The committed BENCH_8.json must show the mmap snapshot beating the
# replay-the-log store where it matters: cold start.  (Warm lookups are
# a hashtable-vs-mmap-binary-search race the store can win; the
# cold-start gap is the tier's reason to exist.)
awk '
  /corpus-mmap-coldstart-find/  { if (match($0, /"ns_per_call": [0-9.eE+-]+/)) mmap  = substr($0, RSTART + 15, RLENGTH - 15) }
  /corpus-store-coldstart-find/ { if (match($0, /"ns_per_call": [0-9.eE+-]+/)) store = substr($0, RSTART + 15, RLENGTH - 15) }
  END {
    if (mmap == "" || store == "") { print "error: BENCH_8.json: missing cold-start rows" > "/dev/stderr"; exit 1 }
    if (mmap + 0 > store + 0) {
      printf "error: BENCH_8.json: mmap cold start (%s ns) slower than store (%s ns)\n", mmap, store > "/dev/stderr"
      exit 1
    }
  }
' BENCH_8.json

# The committed BENCH_10.json must show the binary wire protocol
# earning its keep: at least 5x the text dialect's throughput on warm
# corpus hits, and a 10k-connection open-loop run that dropped nothing.
awk '
  /server-binary-vs-text-speedup/ { if (match($0, /"ns_per_call": [0-9.eE+-]+/)) speedup = substr($0, RSTART + 15, RLENGTH - 15) }
  /server-open-10k-dropped/       { if (match($0, /"ns_per_call": [0-9.eE+-]+/)) dropped = substr($0, RSTART + 15, RLENGTH - 15) }
  END {
    if (speedup == "" || dropped == "") { print "error: BENCH_10.json: missing speedup or dropped rows" > "/dev/stderr"; exit 1 }
    if (speedup + 0 < 5.0) {
      printf "error: BENCH_10.json: binary/text speedup %s below the 5x gate\n", speedup > "/dev/stderr"
      exit 1
    }
    if (dropped + 0 != 0) {
      printf "error: BENCH_10.json: open-loop run dropped %s frames\n", dropped > "/dev/stderr"
      exit 1
    }
  }
' BENCH_10.json

echo "all checks passed"
