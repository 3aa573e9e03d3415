#!/bin/sh
# Non-test line counts, the numbers every simplicity ledger in
# CHANGES.md quotes: per file under crates/stream/src, the lines before
# the first `#[cfg(test)]` (the whole file when it has none), then the
# stream engine's total, then the same total for the columnar shim
# (crates/shims/columnar/src).
#
#   scripts/nontest-lines.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"
nontest() {
    find "$1" -name '*.rs' | LC_ALL=C sort | while read -r f; do
        printf '%6d %s\n' "$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")" "$f"
    done
}
nontest crates/stream/src | awk '{print; total += $1} END{printf "%6d total\n", total}'
nontest crates/shims/columnar/src | awk '{total += $1} END{printf "%6d total crates/shims/columnar/src\n", total}'
