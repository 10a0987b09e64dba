#!/usr/bin/env sh
# Net non-test Rust line count, per crate and in total.
#
#   ./scripts/loc.sh
#
# Counts the non-blank lines of every tracked `.rs` file outside `tests/`
# directories and `ttpbench/`, stopping each file at the `#[cfg(test)]`
# that opens a module (a `#[cfg(test)]` on a field, function or block does
# not stop the count). Files under `crates/<name>/` count toward
# `crates/<name>`; the root crate's `src/` and `examples/` count toward
# `iotlan`. A report, not a gate: compare its total before and after a
# change.
set -eu

cd "$(dirname "$0")/.."

git ls-files -- '*.rs' | grep -v -e '^ttpbench/' -e '^tests/' -e '/tests/' |
    while IFS= read -r file; do
        case "$file" in
        crates/*) crate=$(printf '%s\n' "$file" | cut -d/ -f1-2) ;;
        *) crate=iotlan ;;
        esac
        awk -v crate="$crate" '
            held && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { exit }
            held { count++; held = 0 }
            /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
            NF { count++ }
            END { print crate, count + 0 }
        ' "$file"
    done |
    awk '
        { lines[$1] += $2; total += $2 }
        END {
            for (crate in lines) printf "%-18s %6d\n", crate, lines[crate] | "sort"
            close("sort")
            printf "%-18s %6d\n", "total", total
        }
    '
