#!/bin/sh
# Rust lines per crate, split into code and test, as a markdown table —
# the tracked number behind ROADMAP aim 2 ("the least code"). No gate.
#
# Test lines are: every file under a `tests/` or `benches/` directory,
# every file a `#[cfg(test)] mod NAME;` declares, and every top-level
# `#[cfg(test)]` item inside other files (rustfmt closes those at column
# 0). Everything else, comments and blanks included, is code.
# `crates/vendor` and build output are excluded.
set -eu
cd "$(dirname "$0")/.."

rust_files() {
    find "$@" -name '*.rs' -not -path '*/target/*' -not -path 'crates/vendor/*' | sort
}

# "DIR/NAME.rs" for every `#[cfg(test)] mod NAME;`.
test_modules=$(rust_files . | xargs awk '
    FNR == 1 { pending = 0 }
    pending && /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/ {
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        name = $0; sub(/;.*/, "", name); sub(/.*mod /, "", name)
        print dir "/" name ".rs"
    }
    { pending = /^#\[cfg\(test\)\]/ }
')

count() { # NAME PATH...
    name=$1
    shift
    rust_files "$@" | xargs awk -v name="$name" -v test_modules="$test_modules" '
        BEGIN { n = split(test_modules, m, "\n"); for (i = 1; i <= n; i++) whole[m[i]] = 1 }
        FNR == 1 {
            pending = 0; inside = 0
            all = (FILENAME in whole) || FILENAME ~ /\/(tests|benches)\//
        }
        all || inside { test++; if (inside && /^}/) inside = 0; next }
        pending {
            test++
            if (/\{[[:space:]]*$/) { pending = 0; inside = 1 }
            else if (!/^#\[/) pending = 0
            next
        }
        /^#\[cfg\(test\)\]/ { pending = 1; test++; next }
        { code++ }
        END { printf "| %s | %d | %d | %d |\n", name, code, test, code + test }
    '
}

echo "| crate | code | test | total |"
echo "|---|---|---|---|"
for dir in crates/*/; do
    [ "$dir" = "crates/vendor/" ] || count "$(basename "$dir")" "./$dir"
done
count "gdprbench-repro (root)" ./src ./tests ./examples
count "benchmark (e2e)" ./benchmark
