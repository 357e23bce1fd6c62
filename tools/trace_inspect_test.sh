#!/bin/sh
# End-to-end test of `trace_inspect`: `fig2` writes the three Figure 2
# scenario exports, `dump` reads one back and `diff --node 2` finds the
# pivotal node B's transcripts identical in scenarios (a) and (b); each
# exits 0. A copy of an export whose first `wire_bytes` is edited must
# make `dump` exit 1 with the reader's typed error on stderr.
# Usage: trace_inspect_test.sh <trace_inspect-binary>
set -eu

BIN=${1:?usage: trace_inspect_test.sh <trace_inspect-binary>}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/trace_inspect.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

"$BIN" fig2 --out "$TMP" >/dev/null
"$BIN" dump "$TMP/scenario_a.jsonl" >/dev/null
"$BIN" diff "$TMP/scenario_a.jsonl" "$TMP/scenario_b.jsonl" --node 2 \
  >"$TMP/diff.out"
grep -q '^node 2: IDENTICAL' "$TMP/diff.out" || {
  cat "$TMP/diff.out" >&2
  exit 1
}

sed '1s/"wire_bytes":[0-9]*/"wire_bytes":999/' "$TMP/scenario_a.jsonl" \
  >"$TMP/edited.jsonl"
if cmp -s "$TMP/scenario_a.jsonl" "$TMP/edited.jsonl"; then
  echo "the edit did not change the export" >&2
  exit 1
fi
if "$BIN" dump "$TMP/edited.jsonl" >/dev/null 2>"$TMP/dump.err"; then
  echo "dump accepted an edited wire_bytes" >&2
  exit 1
else
  code=$?
fi
[ "$code" -eq 1 ] || { echo "dump exited $code, want 1" >&2; exit 1; }
grep -q 'line 1, column 1: inconsistent: wire_bytes' "$TMP/dump.err" || {
  cat "$TMP/dump.err" >&2
  exit 1
}
echo "trace_inspect: OK"
