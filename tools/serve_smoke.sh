#!/usr/bin/env bash
# Serve determinism smoke: replay one generated event stream at two
# ingest batch sizes, several thread counts, and two stdin framings
# (CRLF line endings; no final newline); every '"op":"query"' response
# line must be byte-identical (ingest acks and stats dumps legitimately
# vary and are filtered out). Driven by ctest
# (tools_serve_identity) and by the CI serve job with a larger --n.
#
# Usage: serve_smoke.sh <fairlaw_generate> <fairlaw_serve> <n> <workdir>
set -euo pipefail

gen="$1"
serve="$2"
n="$3"
dir="$4"

mkdir -p "$dir"
query_every=$((n / 4))

# Same seed, different batching: the event sequence and the query
# positions (after every query_every events) are identical by
# construction; only the ingest line boundaries differ.
"$gen" events --events-jsonl --n="$n" --batch=64 \
    --query-every="$query_every" --with-strata --out="$dir/stream_a.jsonl"
"$gen" events --events-jsonl --n="$n" --batch=977 \
    --query-every="$query_every" --with-strata --out="$dir/stream_b.jsonl"

"$serve" --with-strata <"$dir/stream_a.jsonl" \
    | grep '"op":"query"' >"$dir/resp_batch64.jsonl"
"$serve" --with-strata --threads=4 <"$dir/stream_b.jsonl" \
    | grep '"op":"query"' >"$dir/resp_batch977_t4.jsonl"
"$serve" --with-strata --threads=0 <"$dir/stream_a.jsonl" \
    | grep '"op":"query"' >"$dir/resp_batch64_t0.jsonl"

cmp "$dir/resp_batch64.jsonl" "$dir/resp_batch977_t4.jsonl"
cmp "$dir/resp_batch64.jsonl" "$dir/resp_batch64_t0.jsonl"

# Input framing: the same stream with CRLF line endings, and with its
# final newline stripped, must answer every query identically.
if [ -n "$(tail -c 1 "$dir/stream_a.jsonl")" ]; then
  echo "expected $dir/stream_a.jsonl to end with a newline" >&2
  exit 1
fi
sed 's/$/\r/' "$dir/stream_a.jsonl" >"$dir/stream_a_crlf.jsonl"
head -c -1 "$dir/stream_a.jsonl" >"$dir/stream_a_no_final_newline.jsonl"
"$serve" --with-strata <"$dir/stream_a_crlf.jsonl" \
    | grep '"op":"query"' >"$dir/resp_crlf.jsonl"
"$serve" --with-strata --threads=4 <"$dir/stream_a_no_final_newline.jsonl" \
    | grep '"op":"query"' >"$dir/resp_no_final_newline_t4.jsonl"
cmp "$dir/resp_batch64.jsonl" "$dir/resp_crlf.jsonl"
cmp "$dir/resp_batch64.jsonl" "$dir/resp_no_final_newline_t4.jsonl"

count=$(wc -l <"$dir/resp_batch64.jsonl")
if [ "$count" -lt 4 ]; then
  echo "expected at least one full query suite, got $count lines" >&2
  exit 1
fi
echo "serve identity ok: $count query responses byte-identical"
