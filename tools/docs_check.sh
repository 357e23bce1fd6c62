#!/bin/sh
# docs-check: fail when the docs reference things that no longer exist.
#
# Wired into the test suite as the `docs_check` ctest entry. Checks, over
# README.md and docs/*.md:
#
#   1. every backticked repo path (src/..., bench/..., tests/...,
#      examples/..., docs/..., tools/...) exists (also trying the src/
#      prefix, for include-style paths like `da/da.hpp`);
#   2. every backticked `bench_*` / `test_*` name has a matching source
#      file under bench/ or tests/;
#   3. every backticked `build/examples/<name>` has examples/<name>.cpp;
#   4. every example source is mentioned in README.md (no undocumented
#      entry points);
#   5. the README Quickstart fence is byte-identical to the code part of
#      examples/readme_quickstart.cpp (so the snippet can never rot —
#      it is compiled by the regular build);
#   6. with --bench-json FILE (a real `bench --json` report; ctest feeds
#      the bench_perf_smoke output via a fixture), every key named in the
#      docs/OBSERVABILITY.md schema example is present in FILE, so the
#      documented schema cannot drift from what benches actually emit;
#   7. with --plan-check BIN (the built examples/inject_replay.cpp), the
#      ```plan fence in docs/INJECTION.md is fed to the real FaultPlan
#      parser via `BIN --check-plan`, so the documented example plan
#      cannot drift from the grammar the parser accepts;
#   8. with --service-demo BIN (the built examples/service_demo.cpp),
#      every non-comment line of the ```demo fence in docs/SERVICE.md is
#      run as arguments to BIN, so the documented walkthrough commands
#      cannot drift from the flags the demo accepts;
#   9. with --span-check BIN (the built examples/span_inspect.cpp), the
#      demo run is executed, its spans.jsonl must pass `BIN check`,
#      every span field named in the ```spans fence of
#      docs/OBSERVABILITY.md must occur in the emitted JSONL, and the
#      span names drawn in the ```spantree fence (the lifecycle tree)
#      must be exactly the names the demo emits, so neither the
#      documented schema nor the documented tree can drift from what the
#      service records.
#  10. with --frontier-check BIN (the built examples/search_resume.cpp),
#      every ```frontier fence in docs/SEARCH.md is written to its own
#      file and fed to `BIN status --frontier` individually, so each
#      documented frontier example (§5's suspended search and §6's
#      settled one) must parse with the real parser on its own.
#
# Usage: docs_check.sh [--bench-json FILE] [--plan-check BIN]
#                      [--service-demo BIN] [--span-check BIN]
#                      [--frontier-check BIN] [repo-root]
#        (repo-root defaults to the script's parent dir)

set -u
bench_json=
plan_check=
service_demo=
span_check=
frontier_check=
while :; do
  case ${1:-} in
    --bench-json) bench_json=$2; shift 2 ;;
    --plan-check) plan_check=$2; shift 2 ;;
    --service-demo) service_demo=$2; shift 2 ;;
    --span-check) span_check=$2; shift 2 ;;
    --frontier-check) frontier_check=$2; shift 2 ;;
    *) break ;;
  esac
done
root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
cd "$root" || exit 2

tmpdir=$(mktemp -d) || exit 2
trap 'rm -rf "$tmpdir"' EXIT INT TERM

status=0
fail() {
  echo "docs-check: $1" >&2
  status=1
}

docs="README.md"
for f in docs/*.md; do
  [ -e "$f" ] && docs="$docs $f"
done

# Every backticked token, one per line, with its source doc prefixed.
tokens=$(
  for doc in $docs; do
    grep -o '`[^`]*`' "$doc" | sed -e 's/^`//' -e 's/`$//' \
      -e "s|^|$doc:|"
  done
)

echo "$tokens" | while IFS=: read -r doc tok; do
  case $tok in
    *'*'* | *' '* | '') continue ;;  # globs, phrases
  esac
  case $tok in
    src/* | bench/* | tests/* | examples/* | docs/* | tools/*)
      if [ ! -e "$tok" ] && [ ! -e "src/$tok" ]; then
        echo "$doc: stale path \`$tok\`"
      fi
      ;;
    build/examples/*)
      name=${tok#build/examples/}
      [ -e "examples/$name.cpp" ] || \
        echo "$doc: stale example reference \`$tok\` (no examples/$name.cpp)"
      ;;
    bench_*)
      [ -e "bench/$tok.cpp" ] || \
        echo "$doc: stale bench name \`$tok\` (no bench/$tok.cpp)"
      ;;
    test_*)
      [ -e "tests/$tok.cpp" ] || \
        echo "$doc: stale test name \`$tok\` (no tests/$tok.cpp)"
      ;;
  esac
done > "$tmpdir/stale"
if [ -s "$tmpdir/stale" ]; then
  cat "$tmpdir/stale" >&2
  fail "stale references found"
fi

# 4. Every example must be mentioned in the README.
for src in examples/*.cpp; do
  name=$(basename "$src" .cpp)
  grep -q "$name" README.md || \
    fail "examples/$name.cpp is not mentioned in README.md"
done

# 5. README Quickstart fence == examples/readme_quickstart.cpp body.
awk '/^```cpp$/{grab=1; next} /^```$/{if (grab) exit} grab' README.md \
  > "$tmpdir/readme"
sed -n '/^#include/,$p' examples/readme_quickstart.cpp \
  > "$tmpdir/example"
if ! diff -u "$tmpdir/readme" "$tmpdir/example" > "$tmpdir/diff" 2>&1; then
  cat "$tmpdir/diff" >&2
  fail "README Quickstart snippet != examples/readme_quickstart.cpp"
fi

# 6. The OBSERVABILITY.md schema example vs a real bench report: every
#    JSON key the example documents must occur in the real file.
if [ -n "$bench_json" ]; then
  if [ ! -e "$bench_json" ]; then
    fail "--bench-json: $bench_json does not exist"
  elif [ ! -e docs/OBSERVABILITY.md ]; then
    fail "--bench-json given but docs/OBSERVABILITY.md is missing"
  else
    awk '/^```json$/{grab=1; next} /^```$/{grab=0} grab' \
        docs/OBSERVABILITY.md \
      | grep -o '"[A-Za-z_][A-Za-z0-9_.]*" *:' \
      | sed -e 's/^"//' -e 's/" *:$//' | sort -u > "$tmpdir/schema_keys"
    if [ ! -s "$tmpdir/schema_keys" ]; then
      fail "no json fence with keys found in docs/OBSERVABILITY.md"
    fi
    while IFS= read -r key; do
      grep -q "\"$key\"" "$bench_json" || \
        fail "schema example key \`$key\` absent from $bench_json"
    done < "$tmpdir/schema_keys"
  fi
fi

# 7. The INJECTION.md example plan must parse with the real parser.
if [ -n "$plan_check" ]; then
  if [ ! -x "$plan_check" ]; then
    fail "--plan-check: $plan_check is not executable"
  elif [ ! -e docs/INJECTION.md ]; then
    fail "--plan-check given but docs/INJECTION.md is missing"
  else
    awk '/^```plan$/{grab=1; next} /^```$/{grab=0} grab' docs/INJECTION.md \
      > "$tmpdir/plan"
    if [ ! -s "$tmpdir/plan" ]; then
      fail "no \`\`\`plan fence found in docs/INJECTION.md"
    elif ! "$plan_check" --check-plan "$tmpdir/plan" \
           > /dev/null 2> "$tmpdir/plan_err"; then
      cat "$tmpdir/plan_err" >&2
      fail "docs/INJECTION.md example plan rejected by the parser"
    fi
  fi
fi

# 8. Every command line in the SERVICE.md walkthrough fence must run
#    cleanly against the real demo binary. Lines are the demo's argument
#    lists (the leading "service_demo" word is optional); '#' comments and
#    blank lines are skipped.
if [ -n "$service_demo" ]; then
  if [ ! -x "$service_demo" ]; then
    fail "--service-demo: $service_demo is not executable"
  elif [ ! -e docs/SERVICE.md ]; then
    fail "--service-demo given but docs/SERVICE.md is missing"
  else
    awk '/^```demo$/{grab=1; next} /^```$/{grab=0} grab' docs/SERVICE.md \
      > "$tmpdir/demo"
    if [ ! -s "$tmpdir/demo" ]; then
      fail "no \`\`\`demo fence found in docs/SERVICE.md"
    else
      ran=0
      while IFS= read -r line; do
        case $line in
          '#'* | '') continue ;;
        esac
        args=${line#service_demo}
        # shellcheck disable=SC2086  # word splitting is the point
        if ! "$service_demo" $args > /dev/null 2> "$tmpdir/demo_err"; then
          cat "$tmpdir/demo_err" >&2
          fail "docs/SERVICE.md demo line failed: $line"
        fi
        ran=$((ran + 1))
      done < "$tmpdir/demo"
      [ "$ran" -gt 0 ] || \
        fail "docs/SERVICE.md demo fence contains no runnable lines"
    fi
  fi
fi

# 9. The OBSERVABILITY.md span schema vs real span_inspect output: the
#    demo run must produce a spans.jsonl that passes the structural
#    checker, and every field the ```spans fence documents must occur in
#    the emitted JSONL.
if [ -n "$span_check" ]; then
  if [ ! -x "$span_check" ]; then
    fail "--span-check: $span_check is not executable"
  elif [ ! -e docs/OBSERVABILITY.md ]; then
    fail "--span-check given but docs/OBSERVABILITY.md is missing"
  else
    if ! "$span_check" demo "$tmpdir/spandemo" \
         > /dev/null 2> "$tmpdir/span_err"; then
      cat "$tmpdir/span_err" >&2
      fail "span_inspect demo run failed"
    elif ! "$span_check" check "$tmpdir/spandemo/spans.jsonl" \
           > /dev/null 2> "$tmpdir/span_err"; then
      cat "$tmpdir/span_err" >&2
      fail "span_inspect demo spans fail the structural check"
    else
      awk '/^```spans$/{grab=1; next} /^```$/{grab=0} grab' \
          docs/OBSERVABILITY.md \
        | grep -o '"[A-Za-z_][A-Za-z0-9_]*":' \
        | sed -e 's/^"//' -e 's/":$//' | sort -u > "$tmpdir/span_keys"
      if [ ! -s "$tmpdir/span_keys" ]; then
        fail "no \`\`\`spans fence with fields found in docs/OBSERVABILITY.md"
      fi
      while IFS= read -r key; do
        grep -q "\"$key\"" "$tmpdir/spandemo/spans.jsonl" || \
          fail "span schema field \`$key\` absent from the demo spans.jsonl"
      done < "$tmpdir/span_keys"
      # The tree draws one span per line as `name:job...` or `name#r`
      # after the box-drawing prefix.
      awk '/^```spantree$/{grab=1; next} /^```$/{grab=0} grab' \
          docs/OBSERVABILITY.md \
        | LC_ALL=C sed -n 's/^[^a-z]*\([a-z][a-z]*\)[:#].*/\1/p' \
        | sort -u > "$tmpdir/tree_names"
      LC_ALL=C grep -o '"name":"[a-z]*"' "$tmpdir/spandemo/spans.jsonl" \
        | sed -e 's/^"name":"//' -e 's/"$//' | sort -u > "$tmpdir/demo_names"
      if [ ! -s "$tmpdir/tree_names" ]; then
        fail "no \`\`\`spantree fence with span names in docs/OBSERVABILITY.md"
      fi
      for name in $(comm -23 "$tmpdir/tree_names" "$tmpdir/demo_names"); do
        fail "span tree draws \`$name\`, absent from the demo spans.jsonl"
      done
      for name in $(comm -13 "$tmpdir/tree_names" "$tmpdir/demo_names"); do
        fail "demo spans.jsonl emits \`$name\`, not drawn in the span tree"
      done
    fi
  fi
fi

# 10. Every SEARCH.md example frontier must parse with the real parser —
# each ```frontier fence is validated on its own, not concatenated.
if [ -n "$frontier_check" ]; then
  if [ ! -x "$frontier_check" ]; then
    fail "--frontier-check: $frontier_check is not executable"
  elif [ ! -e docs/SEARCH.md ]; then
    fail "--frontier-check given but docs/SEARCH.md is missing"
  else
    fence_count=$(awk -v dir="$tmpdir" '
      /^```frontier$/ { grab = 1; ++n; next }
      /^```$/         { grab = 0 }
      grab            { print > (dir "/frontier." n) }
      END             { print n }' docs/SEARCH.md)
    if [ "${fence_count:-0}" -eq 0 ]; then
      fail "no \`\`\`frontier fence found in docs/SEARCH.md"
    else
      i=1
      while [ "$i" -le "$fence_count" ]; do
        if [ ! -s "$tmpdir/frontier.$i" ]; then
          fail "docs/SEARCH.md \`\`\`frontier fence #$i is empty"
        elif ! "$frontier_check" status --frontier "$tmpdir/frontier.$i" \
               > /dev/null 2> "$tmpdir/frontier_err"; then
          cat "$tmpdir/frontier_err" >&2
          fail "docs/SEARCH.md \`\`\`frontier fence #$i rejected by the parser"
        fi
        i=$((i + 1))
      done
    fi
  fi
fi

[ $status -eq 0 ] && echo "docs-check: OK"
exit $status
