#!/usr/bin/env bash
# Census of library functions with no library caller: every `pub fn` and
# `pub(crate) fn` in the non-test part of `crates/*/src` (the lines before a
# file's first top-level `#[cfg(test)]`, as in scripts/loc.sh) whose name
# appears in no other file's non-test code. Comment lines do not count as
# callers. Matching is by name, so a function that shares its name with a
# called one escapes the census; a function with a library caller is never
# listed.
#
# Every listed name must be in scripts/census-allow.txt, which holds the API
# that perfbench, the examples and the tests consume. The gate fails on
#   - a top-level item after a file's first top-level `#[cfg(test)]` without
#     a `#[cfg(test)]` of its own: library code there would escape both this
#     census and scripts/loc.sh (move it above the file's test items);
#   - a listed name missing from the allow-list (delete the function, make
#     it private, or give it a library caller);
#   - an allow-list name the census no longer lists, or that no consumer
#     names: perfbench, examples/, tests/, crates/*/tests/, or the test
#     module of another file under crates/*/src.
#
#     scripts/census.sh

set -euo pipefail

cd "$(dirname "$0")/.."

allow=scripts/census-allow.txt
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Prints the identifiers of stdin's non-comment lines, one per line, sorted
# and unique, without the names that `fn` declares.
words() {
    { grep -vE '^[[:space:]]*//' || true; } \
        | sed -E 's|[[:space:]]//.*$||; s/\bfn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*//g' \
        | { grep -oE '[A-Za-z_][A-Za-z0-9_]*' || true; } | sort -u
}

# Top-level items start in column 0; attribute, comment and blank lines
# between a `#[cfg(test)]` and its item keep the item gated.
find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { testing = 0; gated = 0 }
    /^#\[cfg\(test\)\]/ { testing = 1; gated = 1; next }
    !testing || /^(#\[|\/\/|[[:space:]]*$)/ { next }
    /^[A-Za-z]/ {
        if (!gated) printf "%s:%d: %s\n", FILENAME, FNR, $0
        gated = 0
    }' > "$tmp/misplaced"
if [ -s "$tmp/misplaced" ]; then
    echo "    FAIL: library items after a test item (move them above the file's first #[cfg(test)]):"
    sed 's/^/        /' "$tmp/misplaced"
    exit 1
fi

touch "$tmp/decls" "$tmp/uses" "$tmp/consumers"
while IFS= read -r -d '' file; do
    awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$file" > "$tmp/code"
    awk 'testing { print } /^#\[cfg\(test\)\]/ { testing = 1 }' "$file" > "$tmp/test"
    { grep -vE '^[[:space:]]*//' "$tmp/code" || true; } \
        | { grep -oE '^[[:space:]]*pub(\(crate\))?[[:space:]]+(const[[:space:]]+)?(unsafe[[:space:]]+)?fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*' || true; } \
        | sed -E 's/.*fn[[:space:]]+//' | sort -u | sed "s|\$|	$file|" >> "$tmp/decls"
    words < "$tmp/code" | sed "s|\$|	$file|" >> "$tmp/uses"
    words < "$tmp/test" | sed "s|\$|	$file|" >> "$tmp/consumers"
done < <(find crates/*/src -name '*.rs' -print0 | sort -z)
find perfbench/src perfbench/tests examples tests crates/*/tests -name '*.rs' -print0 \
    | sort -z | xargs -0 cat | words | sed 's|$|	outside|' >> "$tmp/consumers"
sed -E 's/#.*//; s/[[:space:]]+//g; /^$/d' "$allow" | sort -u > "$tmp/allow"

awk -F'\t' -v allow_file="$tmp/allow" '
    FILENAME == ARGV[1] { uses[$1]++; here[$1 FS $2] = 1; next }
    FILENAME == ARGV[2] { consumers[$1]++; mine[$1 FS $2] = 1; next }
    uses[$1] - (($1 FS $2) in here) == 0 {
        listed[$1] = 1
        if (consumers[$1] - (($1 FS $2) in mine) == 0) unconsumed[$1] = $2
        if (!($1 in first)) first[$1] = $2
    }
    END {
        while ((getline name < allow_file) > 0) allowed[name] = 1
        failed = 0
        for (name in listed) {
            count++
            if (!(name in allowed)) {
                printf "    FAIL: %s (%s) has no library caller and is not in the allow-list\n", name, first[name]
                failed = 1
            } else if (name in unconsumed) {
                printf "    FAIL: allow-listed %s (%s) has no consumer outside its file\n", name, unconsumed[name]
                failed = 1
            }
        }
        for (name in allowed) {
            if (!(name in listed)) {
                printf "    FAIL: allow-listed %s is no longer caller-less; drop it from the allow-list\n", name
                failed = 1
            }
        }
        if (!failed) printf "    %d caller-less names, all allow-listed\n", count
        exit failed
    }' "$tmp/uses" "$tmp/consumers" "$tmp/decls"
