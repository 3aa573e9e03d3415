#!/bin/sh
# Non-test line count of the stream engine, the number every simplicity
# ledger in CHANGES.md quotes: per file under crates/stream/src, the
# lines before the first `#[cfg(test)]` (the whole file when it has
# none), then the total.
#
#   scripts/nontest-lines.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"
find crates/stream/src -name '*.rs' | LC_ALL=C sort | while read -r f; do
    printf '%6d %s\n' "$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")" "$f"
done | awk '{print; total += $1} END{printf "%6d total\n", total}'
