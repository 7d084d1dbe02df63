#!/usr/bin/env bash
# mutants.sh — the gauge of the correctness net: applies each mutant of
# scripts/mutants.txt alone to a copy of the tree and runs the tests it names,
# which must fail. A mutant whose tests still pass survived: the net misses
# that defect. A mutant whose source line is not found exactly once, or whose
# package or tests no longer compile, is an error, not a kill: the list has
# gone stale and must be mended.
#
# Usage: scripts/mutants.sh [mutants file]   (default scripts/mutants.txt)
#
# mutants.txt holds one mutant a line, six tab-separated fields:
#   name  file  line  replacement  package  run-pattern
# `line` is matched against each source line with its indentation trimmed,
# and the replacement keeps the original's indentation. Blank lines and lines
# starting with # are comments. Needs only bash, awk and the Go toolchain;
# exits non-zero if any mutant survives or errs.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
list=${1:-$root/scripts/mutants.txt}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tree=$work/tree
mkdir "$tree"
tar -C "$root" --exclude=./.git --exclude=./bench/out -cf - . | tar -C "$tree" -xf -

killed=0 survived=0 errors=0
start=$SECONDS
while IFS=$'\t' read -r name file line repl pkg run; do
    case "$name" in '' | '#'*) continue ;; esac
    if [ -z "$run" ]; then
        echo "ERROR    $name: want six tab-separated fields" >&2
        errors=$((errors + 1))
        continue
    fi
    src=$tree/$file
    if [ ! -f "$src" ]; then
        echo "ERROR    $name: no file $file" >&2
        errors=$((errors + 1))
        continue
    fi
    hits=$(LINE=$line awk '{ t = $0; sub(/^[ \t]+/, "", t); sub(/[ \t]+$/, "", t); if (t == ENVIRON["LINE"]) n++ } END { print n + 0 }' "$src")
    if [ "$hits" -ne 1 ]; then
        echo "ERROR    $name: line found $hits times in $file: $line" >&2
        errors=$((errors + 1))
        continue
    fi
    cp "$src" "$work/orig"
    LINE=$line REPL=$repl awk '{
        t = $0; sub(/^[ \t]+/, "", t); sub(/[ \t]+$/, "", t)
        if (t == ENVIRON["LINE"]) { match($0, /^[ \t]*/); print substr($0, 1, RLENGTH) ENVIRON["REPL"] } else print
    }' "$work/orig" > "$src"
    if ! (cd "$tree" && go test -c -o "$work/pkg.test" "./$pkg") > "$work/build.log" 2>&1; then
        echo "ERROR    $name: the mutant does not compile:" >&2
        sed 's/^/    /' "$work/build.log" >&2
        errors=$((errors + 1))
    elif [ ! -x "$work/pkg.test" ]; then
        echo "ERROR    $name: $pkg has no tests" >&2
        errors=$((errors + 1))
    elif (cd "$tree/$pkg" && "$work/pkg.test" -test.count=1 -test.timeout=120s -test.run "$run") > "$work/test.log" 2>&1; then
        if grep -q '^testing: warning: no tests to run' "$work/test.log"; then
            echo "ERROR    $name: -run '$run' matches no test of $pkg" >&2
            errors=$((errors + 1))
        else
            echo "SURVIVED $name: $file, $pkg -run '$run' passes"
            survived=$((survived + 1))
        fi
    else
        echo "killed   $name"
        killed=$((killed + 1))
    fi
    cp "$work/orig" "$src"
    rm -f "$work/pkg.test"
done < "$list"

echo "mutants: $killed killed, $survived survived, $errors errors in $((SECONDS - start)) s"
[ "$survived" -eq 0 ] && [ "$errors" -eq 0 ] && [ "$killed" -gt 0 ]
