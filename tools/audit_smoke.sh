#!/usr/bin/env bash
# Audit identity smoke, two parts.
# 1. CSV ingest: one generated hiring CSV is rewritten four ways (CRLF
#    line endings, every field quoted, final newline stripped, blank
#    lines interleaved). fairlaw_audit --json must print byte-identical
#    reports for all five files at --threads=1 and --threads=4, and the
#    --streaming reports of all five must match each other.
# 2. Risk suite: one generated promotion CSV audited with strata,
#    subgroups and proxies at --threads=1/4 x --chunk-rows=0/1000/65536;
#    every report must be byte-identical to the first.
# Driven by ctest (tools_audit_identity) and by the CI bench job with a
# larger --n.
#
# Usage: audit_smoke.sh <fairlaw_generate> <fairlaw_audit> <n> <workdir>
set -euo pipefail

gen="$1"
audit="$2"
n="$3"
dir="$4"

mkdir -p "$dir"
"$gen" hiring --n="$n" --out="$dir/plain.csv" >/dev/null
if [ -n "$(tail -c 1 "$dir/plain.csv")" ]; then
  echo "expected $dir/plain.csv to end with a newline" >&2
  exit 1
fi

sed 's/$/\r/' "$dir/plain.csv" >"$dir/crlf.csv"
awk -F, -v OFS=, '{ for (i = 1; i <= NF; i++) $i = "\"" $i "\""; print }' \
    "$dir/plain.csv" >"$dir/quoted.csv"
head -c -1 "$dir/plain.csv" >"$dir/no_final_newline.csv"
awk '{ print; if (NR % 3 == 0) print "" }' "$dir/plain.csv" \
    >"$dir/blank_lines.csv"
variants=(plain crlf quoted no_final_newline blank_lines)

# Exit 2 means the audit found violations, which is a valid report.
run_audit() {
  local out="$1"
  shift
  local rc=0
  "$audit" "$@" --protected=gender --pred=hired --label=merit --json \
      >"$out" || rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
    echo "fairlaw_audit $* exited $rc" >&2
    exit 1
  fi
}

for v in "${variants[@]}"; do
  run_audit "$dir/$v.t1.json" "$dir/$v.csv" --threads=1
  run_audit "$dir/$v.t4.json" "$dir/$v.csv" --threads=4
  run_audit "$dir/$v.stream.json" "$dir/$v.csv" --streaming
  cmp "$dir/plain.t1.json" "$dir/$v.t1.json"
  cmp "$dir/plain.t1.json" "$dir/$v.t4.json"
  cmp "$dir/plain.stream.json" "$dir/$v.stream.json"
done

if ! grep -q "\"count\":" "$dir/plain.t1.json"; then
  echo "expected group counts in $dir/plain.t1.json" >&2
  exit 1
fi
echo "audit identity ok: ${#variants[@]} CSV framings byte-identical"

"$gen" promotion --n="$n" --out="$dir/promotion.csv" >/dev/null
suite=(--protected=gender --pred=promoted --label=merit --strata=race
       --subgroups=gender,race --proxies=performance,tenure --json)
first=""
for t in 1 4; do
  for c in 0 1000 65536; do
    out="$dir/promotion.t$t.c$c.json"
    rc=0
    "$audit" "$dir/promotion.csv" "${suite[@]}" --threads="$t" \
        --chunk-rows="$c" >"$out" || rc=$?
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
      echo "fairlaw_audit promotion --threads=$t --chunk-rows=$c exited $rc" >&2
      exit 1
    fi
    if [ -z "$first" ]; then
      first="$out"
    else
      cmp "$first" "$out"
    fi
  done
done
for section in '"subgroups":' '"proxies":'; do
  if ! grep -q "$section" "$first"; then
    echo "expected $section in $first" >&2
    exit 1
  fi
done
echo "audit identity ok: risk suite byte-identical across 6 thread/chunk runs"
