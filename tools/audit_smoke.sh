#!/usr/bin/env bash
# Audit identity smoke, two parts.
# 1. CSV ingest: one generated hiring CSV is rewritten six ways (CRLF
#    line endings, every field quoted, final newline stripped, blank
#    lines interleaved, only the audited columns kept, and an unused
#    column added whose cells hold quoted delimiters, embedded newlines
#    and "" escapes). fairlaw_audit --json must print byte-identical
#    reports for all seven files at --threads=1 and --threads=4, and the
#    --streaming reports of all seven must match each other. A ragged
#    row in the wide file must fail both paths with the reader's error
#    text and exit code 1.
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
# The audit reads gender, merit and hired; "memo" is read by nothing.
cut -d, -f1,5,6 "$dir/plain.csv" >"$dir/narrow.csv"
wide_csv() {  # <data line that loses its memo field, or 0>
  awk -v ragged="$1" '
    NR == 1 { print $0 ",memo"; next }
    NR == ragged { print; next }
    NR % 3 == 0 { print $0 ",\"x, \"\"y\"\"\nz,\""; next }
    { print $0 ",\"a,b\"" }' "$dir/plain.csv"
}
wide_csv 0 >"$dir/wide.csv"
variants=(plain crlf quoted no_final_newline blank_lines narrow wide)

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

# Line 3 of the file is CSV row 2 (the header is row 0).
wide_csv 3 >"$dir/wide_ragged.csv"
ragged="invalid argument: CSV: row 2 has 6 fields, expected 7"
expect_error() {  # <expected stderr> <fairlaw_audit args...>
  local want="$1"
  shift
  local rc=0
  "$audit" "$@" --protected=gender --pred=hired --label=merit --json \
      >"$dir/err.out" 2>"$dir/err.txt" || rc=$?
  if [ "$rc" -ne 1 ] || [ -s "$dir/err.out" ] ||
      [ "$(cat "$dir/err.txt")" != "$want" ]; then
    echo "fairlaw_audit $* exited $rc with: $(cat "$dir/err.txt")" >&2
    echo "expected exit 1 with: $want" >&2
    exit 1
  fi
}
for t in 1 4; do
  expect_error "error reading '$dir/wide_ragged.csv': $ragged" \
      "$dir/wide_ragged.csv" --threads="$t"
  expect_error "audit error: $ragged" "$dir/wide_ragged.csv" --streaming \
      --threads="$t"
done
echo "audit identity ok: ragged row in the wide file fails as before"

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
