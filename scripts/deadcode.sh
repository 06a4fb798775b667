#!/usr/bin/env sh
# Dead-code report: lists every non-test function outside bench/ that no
# program of the repository links. Run from anywhere in the repository:
#
#   ./scripts/deadcode.sh
#
# It builds every main under cmd/ and examples/, and the bench binary, with
# inlining off (-gcflags=all=-l, so small functions keep their own symbol)
# into a temporary directory. It then compares the text symbols that
# `go tool nm` prints, with generic [...] type arguments stripped, against the
# `^func` declarations of the non-test files that the default build compiles
# (files behind a build tag such as faultinject are not in that set).
#
# The report is advisory: a listed function may still be public root-package
# API, a reference that tests compare against, or test infrastructure. It
# exits 0 whatever it finds and is not part of scripts/check.sh.
set -eu

cd "$(dirname "$0")/.."
ROOT=$(pwd)
MOD=$(go list -m)

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Build each program; main-package symbols are renamed from "main." to the
# program's import path so that they match its declarations below.
for dir in cmd/*/ examples/*/ bench/; do
    dir=${dir%/}
    name=$(echo "$dir" | tr / _)
    if [ "$dir" = bench ]; then
        (cd bench && go build -gcflags=all=-l -o "$TMP/$name" .)
        pkg=$MOD/bench
    else
        go build -gcflags=all=-l -o "$TMP/$name" "./$dir"
        pkg=$MOD/$dir
    fi
    go tool nm "$TMP/$name" |
        sed -n -e 's/^ *[0-9a-f]* [Tt] //p' |
        sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' -e 's/\.abi0$//' -e "s#^main\\.#$pkg.#"
done | sort -u >"$TMP/linked"

# One line per declaration: "<symbol> <file>:<line>", symbol in nm's form
# (pkg.Func, pkg.Type.Method or pkg.(*Type).Method).
go list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./... |
    while read -r pkg file; do
        rel=${file#"$ROOT"/}
        grep -n '^func ' "$file" | sed -E \
            -e 's/^([0-9]+):func \(([A-Za-z_][A-Za-z0-9_]* +)?\*([A-Za-z_][A-Za-z0-9_]*)(\[[^]]*\])?\) *([A-Za-z_][A-Za-z0-9_]*).*/\1 (*\3).\5/' \
            -e 's/^([0-9]+):func \(([A-Za-z_][A-Za-z0-9_]* +)?([A-Za-z_][A-Za-z0-9_]*)(\[[^]]*\])?\) *([A-Za-z_][A-Za-z0-9_]*).*/\1 \3.\5/' \
            -e 's/^([0-9]+):func ([A-Za-z_][A-Za-z0-9_]*).*/\1 \2/' |
            awk -v pkg="$pkg" -v f="$rel" '$2 != "init" { print pkg "." $2, f ":" $1 }'
    done | sort >"$TMP/declared"

# Declarations whose symbol no binary links.
awk 'NR == FNR { linked[$1] = 1; next } !($1 in linked) { print $2 ": " $1 }' \
    "$TMP/linked" "$TMP/declared" | sort >"$TMP/dead"

n=$(wc -l <"$TMP/dead" | tr -d ' ')
echo "$n non-test functions that no program links:"
cat "$TMP/dead"
