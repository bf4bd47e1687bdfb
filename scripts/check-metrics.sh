#!/usr/bin/env bash
# check-metrics.sh — assert a scraped /metrics exposition is sane.
#
# usage: scripts/check-metrics.sh <exposition.txt> <required-series-regex>...
#
# example:
#   curl -sf localhost:8096/metrics > /tmp/metrics.txt
#   scripts/check-metrics.sh /tmp/metrics.txt \
#     '^bestring_query_stage_seconds_count' \
#     '^bestring_scorer_cache_bypassed_total' \
#     '^bestring_label_dict_labels [1-9]' \
#     '^bestring_wal_fsync_seconds_count' \
#     '^bestring_repl_follower_lag_lsn'
#
# Checks, in order:
#   1. every required regex matches at least one non-comment series line;
#   2. exactly one "# TYPE" line per metric family;
#   3. no duplicate series (same name + label set emitted twice).
# Exits non-zero with a named failure on the first violation.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 <exposition.txt> <required-series-regex>..." >&2
  exit 2
fi
file=$1
shift

if [ ! -s "$file" ]; then
  echo "check-metrics: $file is missing or empty" >&2
  exit 1
fi

# Series lines: everything that is not a comment or blank.
series=$(grep -v '^#' "$file" | grep -v '^$' || true)
if [ -z "$series" ]; then
  echo "check-metrics: $file has no series lines" >&2
  exit 1
fi

fail=0
for re in "$@"; do
  if ! echo "$series" | grep -Eq "$re"; then
    echo "check-metrics: required series /$re/ not found in $file" >&2
    fail=1
  fi
done

# One TYPE line per family.
dup_types=$(awk '/^# TYPE /{print $3}' "$file" | sort | uniq -d)
if [ -n "$dup_types" ]; then
  echo "check-metrics: duplicate # TYPE lines for: $dup_types" >&2
  fail=1
fi

# No duplicate series: the key is the full name{labels} token before the
# value (first whitespace-separated field).
dup_series=$(echo "$series" | awk '{print $1}' | sort | uniq -d)
if [ -n "$dup_series" ]; then
  echo "check-metrics: duplicate series: $dup_series" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check-metrics: $file ok ($(echo "$series" | wc -l | tr -d ' ') series, $# required patterns present)"
