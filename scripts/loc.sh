#!/usr/bin/env bash
# Non-test Rust lines per crate: for every `.rs` file under a crate's
# `src/`, the lines before the file's first top-level `#[cfg(test)]` (the
# whole file when it has none). Reports only; gates nothing.
#
#     scripts/loc.sh            # every crate under crates/, then the total
#     scripts/loc.sh ctrl mna   # just these crates

set -euo pipefail

cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi

total=0
for crate in "$@"; do
    lines=$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { counting = 1 }
                      /^#\[cfg\(test\)\]/ { counting = 0 }
                      counting { n++ }
                      END { print n + 0 }' |
        awk '{ sum += $1 } END { print sum + 0 }')
    printf '%-8s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-8s %6d\n' total "$total"
