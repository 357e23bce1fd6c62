#!/bin/sh
# Every numeric flag and positional of the command-line binaries is read
# by da::ArgReader (src/util/parse.hpp). Each value below is outside its
# flag's kind or range, so each run must exit 2 with the flag named on
# stderr: never 0, never an abort (134), never a timeout (124). Every run
# sits under `timeout 10`.
#
# The tables hold only values the flag refuses. A large value that a flag
# accepts is never passed: `--offered 99999999999` is a valid u64 and
# would start a huge service run, so the u64 flags get 2^64 instead.
#
# Usage: cli_args_test.sh DA_CLI SERVICE_DEMO SEARCH_RESUME TRACE_INSPECT
#                         SPAN_INSPECT INJECT_REPLAY BENCH...
# (each BENCH is a bench binary; BenchReporter reads their --jobs).
set -u

if [ $# -lt 7 ]; then
  echo "usage: cli_args_test.sh DA_CLI SERVICE_DEMO SEARCH_RESUME" \
    "TRACE_INSPECT SPAN_INSPECT INJECT_REPLAY BENCH..." >&2
  exit 2
fi
DA_CLI=$1 SERVICE_DEMO=$2 SEARCH_RESUME=$3 TRACE_INSPECT=$4
SPAN_INSPECT=$5 INJECT_REPLAY=$6
shift 6
BENCHES=$*
TMP=$(mktemp -d "${TMPDIR:-/tmp}/cli_args.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM
runs=0
failures=0

# Value sets; `''` stands for the empty string.
INT="abc 1e3 99999999999 ''"        # plus each flag's below-minimum value
REAL="abc nan inf 0 ''"             # 1e3 is a valid rate
BIG_INT="abc 1e3 '' 18446744073709551616"  # flags that accept 99999999999
JOBS="$INT -1 257"                  # 257 = da::kMaxJobs + 1

# refused NAME VALUES COMMAND...: runs COMMAND once per value in VALUES,
# with the `@` in its words replaced by the value.
refused() {
  name=$1
  values=$2
  shift 2
  for value in $values; do
    [ "$value" = "''" ] && value=
    run_one "$name" "$value" "$@"
  done
}

run_one() {
  name=$1
  value=$2
  shift 2
  count=$#
  while [ "$count" -gt 0 ]; do
    word=$1
    shift
    case $word in *@*) word=${word%%@*}$value${word#*@} ;; esac
    set -- "$@" "$word"
    count=$((count - 1))
  done
  runs=$((runs + 1))
  timeout 10 "$@" >/dev/null 2>"$TMP/err"
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL ($code, want 2): $*"
    failures=$((failures + 1))
  elif ! grep -qF -- "$name" "$TMP/err"; then
    echo "FAIL (stderr does not name $name): $*"
    cat "$TMP/err"
    failures=$((failures + 1))
  fi
}

# da_cli: node counts 2..64, m up to Path::kMaxLen - 1, ids 0..n-1.
refused --n "$INT 1 65" "$DA_CLI" --n @
refused --m "$INT -1 12" "$DA_CLI" --m @
refused --u "$INT -1 64" "$DA_CLI" --u @
refused --sender "$INT -1 7 99" "$DA_CLI" --sender @
refused --value "abc 1e3 '' 12abc -9223372036854775804 9223372036854775807" \
  "$DA_CLI" --value @
refused --faulty "abc 1e3 99999999999 -1 99 1,1 2,x , 1,,2" \
  "$DA_CLI" --faulty @

# service_demo.
for flag in --rate --period --deadline --sample-every; do
  refused "$flag" "$REAL" "$SERVICE_DEMO" "$flag" @
done
refused --offered "$BIG_INT 0" "$SERVICE_DEMO" --offered @
refused --cap "$INT 0" "$SERVICE_DEMO" --cap @
refused --queue "$BIG_INT 0" "$SERVICE_DEMO" --queue @
refused --seed "$BIG_INT -1" "$SERVICE_DEMO" --seed @
refused --jobs "$JOBS" "$SERVICE_DEMO" --jobs @
refused --shards "$INT 0" "$SERVICE_DEMO" --shards @
refused --inject-every "$BIG_INT 0" "$SERVICE_DEMO" --inject-every @

# search_resume: the flags are read before any file is touched.
init="$SEARCH_RESUME init --out $TMP/f"
refused --n "$INT 1" $init --n @
refused --m "$INT -1" $init --m @
refused --u "$INT -1" $init --u @
refused --max-f "$INT -2" $init --max-f @
refused --seed "$BIG_INT -1" $init --seed @
refused --jobs "$JOBS" "$SEARCH_RESUME" run --frontier "$TMP/f" --jobs @
refused --max-shards "$INT -2" \
  "$SEARCH_RESUME" run --frontier "$TMP/f" --max-shards @
refused --parts "$INT 0" \
  "$SEARCH_RESUME" split --frontier "$TMP/f" --out-prefix "$TMP/p" --parts @

# trace_inspect: Figure 2 needs 4..64 nodes; node ids are 0..63.
refused --n "$INT 3 65" "$TRACE_INSPECT" fig2 --out "$TMP/fig2" --n @
refused --node "$INT -1 x" "$TRACE_INSPECT" dump "$TMP/none" --node @

# span_inspect: job ids are non-negative int64 values.
refused --job "abc 1e3 '' -1 9223372036854775808" \
  "$SPAN_INSPECT" timeline "$TMP/none" --job @

# inject_replay positionals: seeds and ordinals are u64, CASES >= 1.
SEED="$BIG_INT -1"
refused --case "$SEED" "$INJECT_REPLAY" --case @ 0
refused --case "$SEED" "$INJECT_REPLAY" --case 0 @
refused --sweep "$SEED" "$INJECT_REPLAY" --sweep @ 3
refused --sweep "$BIG_INT 0" "$INJECT_REPLAY" --sweep 7 @
refused --sweep "$JOBS" "$INJECT_REPLAY" --sweep 7 3 @

# The benches' --jobs, in both spellings.
for bench in $BENCHES; do
  refused --jobs "$JOBS" "$bench" --jobs @
  refused --jobs "$JOBS" "$bench" --jobs=@
done

if [ "$failures" -ne 0 ]; then
  echo "cli_args_test: $failures of $runs runs not refused"
  exit 1
fi
echo "cli_args_test: OK ($runs refusals)"
