#!/usr/bin/env bash
# testcover.sh — which tests of a package earn their place by coverage. It
# builds PKG's test binary once with set-mode coverage over the whole module,
# runs each top-level Test, Fuzz (seed corpus only) and Example function alone,
# and prints one line per function: the blocks it covers and how many of them
# no other function of PKG covers ("unique"). Two tests with 0 unique blocks
# may be the only two that cover a block, so the last column is a greedy
# pass: Test functions are dropped one at a time, fewest blocks first, and a
# test is marked "fold" when every block it covers is still covered by a
# function that has not been dropped (Fuzz and Example functions are never
# dropped). The "fold" set passes the coverage test as a whole; before deleting
# one, check that every mutant of scripts/mutants.txt still has a killer with
# it skipped (mutants.sh) and name the test that checks its assertion.
# Only runs that passed count: a failed or skipped run's coverage is left out,
# and any failed run is named on stderr and makes the script exit 1.
# A report, not a gate; it runs no test in short mode.
#
# Usage: scripts/testcover.sh PKG [regexp]
#   PKG     a package path as go test takes it, e.g. ./internal/spath or .
#   regexp  only report functions whose name matches (all run regardless)
# Output: "unique covered seconds status greedy name", sorted by unique count.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
pkg=${1:?usage: scripts/testcover.sh PKG [regexp]}
only=${2:-.}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$root"
module=$(go list -m)
go test -c -covermode=set -coverpkg="$module/..." -o "$work/pkg.test" "$pkg"
if [ ! -x "$work/pkg.test" ]; then
    echo "testcover: $pkg has no tests" >&2
    exit 1
fi
dir=$(go list -f '{{.Dir}}' "$pkg")

"$work/pkg.test" -test.list '.' 2>/dev/null | grep -E '^(Test|Fuzz|Example)' > "$work/names" || true
: > "$work/runs"
while read -r name; do
    start=$EPOCHREALTIME
    status=ok
    (cd "$dir" && "$work/pkg.test" -test.v -test.count=1 -test.timeout=10m -test.run "^${name}\$" \
        -test.coverprofile "$work/$name.cov") > "$work/$name.log" 2>&1 || status=FAIL
    grep -q -- "^--- SKIP: $name " "$work/$name.log" && [ "$status" = ok ] && status=skip
    echo "$name $start $EPOCHREALTIME $status" >> "$work/runs"
done < "$work/names"

# A block is "file:start,end"; a function covers it when its count is > 0.
# The runs file is read first, so each .cov file is known to be from a
# passing run or not.
awk -v only="$only" '
    FILENAME ~ /\/runs$/ { secs[$1] = sprintf("%.1f", $3 - $2); status[$1] = $4; order[++n] = $1; next }
    FNR == 1 { name = FILENAME; sub(/.*\//, "", name); sub(/\.cov$/, "", name); next }
    status[name] != "ok" { next }
    $NF > 0 && !((name, $1) in seen) {
        seen[name, $1] = 1
        blocks[name] = blocks[name] SUBSEP $1
        covered[name]++
        cnt[$1]++
        if (!($1 in owner)) owner[$1] = name
        else if (owner[$1] != name) shared[$1] = 1
    }
    END {
        for (b in owner) if (!(b in shared)) unique[owner[b]]++
        # Greedy fold: fewest covered blocks first (insertion sort of the Tests).
        m = 0
        for (i = 1; i <= n; i++) {
            f = order[i]
            if (f !~ /^Test/ || status[f] != "ok") continue
            for (j = ++m; j > 1 && covered[byc[j-1]] > covered[f]; j--) byc[j] = byc[j-1]
            byc[j] = f
        }
        for (i = 1; i <= m; i++) {
            f = byc[i]; k = split(substr(blocks[f], 2), bs, SUBSEP); ok = 1
            for (j = 1; j <= k; j++) if (cnt[bs[j]] < 2) { ok = 0; break }
            if (!ok) continue
            fold[f] = 1
            for (j = 1; j <= k; j++) cnt[bs[j]]--
        }
        for (i = 1; i <= n; i++) if (order[i] ~ only)
            printf "%6d %6d %6s %-4s %-4s %s\n", unique[order[i]], covered[order[i]], secs[order[i]], status[order[i]], (order[i] in fold) ? "fold" : "keep", order[i]
    }' "$work/runs" "$work"/*.cov | sort -n -k1,1 -k2,2
if grep -q ' FAIL$' "$work/runs"; then
    echo "testcover: failed runs, left out of the counts:" $(awk '$4 == "FAIL" { print $1 }' "$work/runs") >&2
    exit 1
fi
