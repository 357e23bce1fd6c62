#!/bin/sh
# Golden-output test for `search_resume status`. The status report is a
# pure function of the frontier bytes (frontiers store no wall times), so
# its exact text is pinned here: percent-complete over the plan, the
# weighted-of-space total, the plan (quotient) line and the eta line.
# Usage: search_resume_status_test.sh <search_resume-binary>
set -eu

BIN=${1:?usage: search_resume_status_test.sh <search_resume-binary>}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/sr_status.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

# expect_refusal <stderr pattern> <command...>: the command must exit 2
# with the pattern on stderr — a typed refusal, never an abort.
expect_refusal() {
  want=$1
  shift
  if "$@" >/dev/null 2>"$TMP/refused.err"; then
    echo "accepted: $*" >&2
    exit 1
  else
    code=$?
  fi
  [ "$code" -eq 2 ] || { echo "$* exited $code, want 2" >&2; exit 1; }
  grep -q "$want" "$TMP/refused.err" || {
    cat "$TMP/refused.err" >&2
    exit 1
  }
}

# 1. Fresh quotiented frontier: init prints the v2 plan line, 0.0%
#    progress and an "unknown" eta carrying the remaining-shard count.
"$BIN" init --out "$TMP/f" --n 4 --m 1 --u 1 >"$TMP/fresh.out"
cat >"$TMP/fresh.golden" <<'EOF'
config        n=4 m=1 u=1 max_f=1 seed=1
space         112 ordinals, 2 shards (full plan)
plan          subset-quotiented, 2 conjugacy classes (da-frontier v2)
progress      0/2 shards settled, 0 ordinals scanned (0.0% of plan)
executions    0 representatives, 0 orbit-weighted (0.0% of space)
eta           unknown (2 shards remaining; run prints a live estimate)
verdict       no hit yet
EOF
diff -u "$TMP/fresh.golden" "$TMP/fresh.out"

# 2. `status` re-reads the file and must reproduce init's report exactly.
"$BIN" status --frontier "$TMP/f" >"$TMP/status.out"
diff -u "$TMP/fresh.golden" "$TMP/status.out"

# 3. Settled clean sweep: 100.0% of plan, orbit-weighted executions
#    reconciling to 100.0% of the unreduced space, eta "settled".
"$BIN" run --frontier "$TMP/f" --jobs 2 >/dev/null
"$BIN" status --frontier "$TMP/f" >"$TMP/settled.out"
cat >"$TMP/settled.golden" <<'EOF'
config        n=4 m=1 u=1 max_f=1 seed=1
space         112 ordinals, 2 shards (full plan)
plan          subset-quotiented, 2 conjugacy classes (da-frontier v2)
progress      2/2 shards settled, 80 ordinals scanned (100.0% of plan)
executions    30 representatives, 112 orbit-weighted (100.0% of space)
eta           settled
verdict       clean (settled)
EOF
diff -u "$TMP/settled.golden" "$TMP/settled.out"

# 4. v2 is the only format init writes, and a v1 file — the unquotiented
#    format of earlier releases — is refused on its header line.
head -n 1 "$TMP/f" | grep -q '^da-frontier v2$'
printf 'da-frontier v1\nconfig 4 1 1 1 1 112\nshard 0 64 0 0 0 -\nend 1\n' \
  >"$TMP/v1"
expect_refusal 'line 1, column 13: unknown-name: unsupported frontier version: v1' \
  "$BIN" status --frontier "$TMP/v1"
expect_refusal 'unknown-name: unsupported frontier version: v1' \
  "$BIN" run --frontier "$TMP/v1"

# 5. A partially-run violating frontier stays deterministic too: the hit
#    at ordinal 129 settles the verdict while a cancelled shard remains.
"$BIN" init --out "$TMP/hit" --n 4 --m 1 --u 2 >/dev/null
"$BIN" run --frontier "$TMP/hit" --jobs 2 >/dev/null
"$BIN" status --frontier "$TMP/hit" >"$TMP/hit.out"
cat >"$TMP/hit.golden" <<'EOF'
config        n=4 m=1 u=2 max_f=2 seed=1
space         3952 ordinals, 4 shards (full plan)
plan          subset-quotiented, 4 conjugacy classes (da-frontier v2)
progress      3/4 shards settled, 1104 ordinals scanned (81.2% of plan)
executions    42 representatives, 172 orbit-weighted (4.4% of space)
eta           settled
verdict       violation at ordinal 129 (settled)
EOF
diff -u "$TMP/hit.golden" "$TMP/hit.out"

# 6. A torn file with a record appended after the `end` trailer must not
#    resume: status exits 2 and names the line and the error kind.
cp "$TMP/f" "$TMP/torn"
echo "shard 0 64 64 20 64 -" >>"$TMP/torn"
torn_lines=$(($(wc -l <"$TMP/torn")))
if "$BIN" status --frontier "$TMP/torn" >/dev/null 2>"$TMP/torn.err"; then
  echo "status accepted a record after end" >&2
  exit 1
else
  code=$?
fi
[ "$code" -eq 2 ] || { echo "status exited $code, want 2" >&2; exit 1; }
grep -q "line $torn_lines, column 1: not-canonical:" "$TMP/torn.err" || {
  cat "$TMP/torn.err" >&2
  exit 1
}

# 7. Inputs that parse but that the behaviour search cannot run are
#    refused with exit 2 and a typed message on stderr, never an abort.
expect_refusal 'controls 13 slots, past the cap of 12' \
  "$BIN" init --out "$TMP/big" --n 6 --m 1 --u 3
expect_refusal 'fault limit exceeds n' \
  "$BIN" init --out "$TMP/big" --n 5 --m 1 --u 2 --max-f 9
expect_refusal 'n >= 2m+1' "$BIN" init --out "$TMP/big" --n 2 --m 1 --u 1
# A frontier past the slot cap: status reads it, run and artifact
# refuse it.
printf 'da-frontier v2\nconfig 6 1 3 3 1 840829184\nclass 0 840829184 1\nshard 0 1 0 0 0 -\nend 1\n' \
  >"$TMP/big"
"$BIN" status --frontier "$TMP/big" >/dev/null
expect_refusal 'frontier: a faulty subset controls 13 slots' \
  "$BIN" run --frontier "$TMP/big"
expect_refusal 'frontier: a faulty subset controls 13 slots' \
  "$BIN" artifact --frontier "$TMP/big"
# A fault limit above n is a bad value on the config line.
sed 's/^config 4 1 2 2 1 3952$/config 4 1 2 9 1 3952/' "$TMP/hit" >"$TMP/maxf"
expect_refusal 'line 2, column 1: bad-value: fault limit exceeds n' \
  "$BIN" status --frontier "$TMP/maxf"
expect_refusal 'line 2, column 1: bad-value: fault limit exceeds n' \
  "$BIN" run --frontier "$TMP/maxf"

# 8. Numeric flags are read whole into their own types and ranges; a
#    value that does not fit is a usage error naming the flag, never a
#    wrapped number. (No in-range huge --jobs here: that would start
#    that many threads.)
expect_refusal '^search_resume: --n expects' \
  "$BIN" init --out "$TMP/num" --n 4294967300
expect_refusal '^search_resume: --seed expects' \
  "$BIN" init --out "$TMP/num" --seed -1
expect_refusal '^search_resume: --seed expects' \
  "$BIN" init --out "$TMP/num" --seed 18446744073709551616
expect_refusal '^search_resume: --max-f expects' \
  "$BIN" init --out "$TMP/num" --max-f -2
expect_refusal '^search_resume: --parts expects' \
  "$BIN" split --frontier "$TMP/f" --parts 4294967297 --out-prefix "$TMP/p"
expect_refusal '^search_resume: --parts expects' \
  "$BIN" split --frontier "$TMP/f" --parts 0 --out-prefix "$TMP/p"
expect_refusal '^search_resume: --jobs expects' \
  "$BIN" run --frontier "$TMP/f" --jobs -3
expect_refusal '^search_resume: --jobs expects' \
  "$BIN" run --frontier "$TMP/f" --jobs 99999999999
expect_refusal '^search_resume: --max-shards expects' \
  "$BIN" run --frontier "$TMP/f" --max-shards -2
# A seed past 32 bits is stored whole.
"$BIN" init --out "$TMP/seed" --seed 99999999999 >"$TMP/seed.out"
grep -q '^config        n=4 m=1 u=1 max_f=1 seed=99999999999$' "$TMP/seed.out"
grep -q '^config 4 1 1 1 99999999999 112$' "$TMP/seed"

echo "search_resume status golden: OK"
