#!/usr/bin/env bash
# Count the non-test lines under crates/*/src: each .rs file up to its
# first `#[cfg(test)]` line, with every file named tests.rs left out.
# Prints one line per crate, then the total.
#
#   scripts/src_lines.sh
#
# Counts the checkout it sits in, whatever the caller's directory.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
  crate="${dir#crates/}"
  crate="${crate%/src}"
  n=0
  while IFS= read -r -d '' file; do
    lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    n=$((n + lines))
  done < <(find "$dir" -name '*.rs' ! -name tests.rs -print0)
  printf '%-12s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
