#!/bin/sh
# Every `pub fn` under crates/*/src and src/ whose name occurs nowhere in
# non-test code except at its definition: reached only from `#[cfg(test)]`
# modules, `tests/` and `benches/`, or from nothing. Comments are not
# callers. Test code is recognised as in scripts/loc.sh. Reported in CI's
# job summary, never gated — a name shared by two definitions, or one only
# a macro spells, is missed or misreported.
set -eu
cd "$(dirname "$0")/.."

files=$(find crates src examples benchmark -name '*.rs' -not -path '*/target/*' \
    -not -path 'crates/vendor/*' -not -path '*/tests/*' -not -path '*/benches/*' | sort)

# "DIR/NAME.rs" for every `#[cfg(test)] mod NAME;`.
test_modules=$(echo "$files" | xargs awk '
    FNR == 1 { pending = 0 }
    pending && /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/ {
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        name = $0; sub(/;.*/, "", name); sub(/.*mod /, "", name)
        print dir "/" name ".rs"
    }
    { pending = /^#\[cfg\(test\)\]/ }
')

echo "$files" | xargs awk -v test_modules="$test_modules" '
    BEGIN { n = split(test_modules, m, "\n"); for (i = 1; i <= n; i++) skip[m[i]] = 1 }
    FNR == 1 { pending = 0; inside = 0 }
    FILENAME in skip || /^[[:space:]]*\/\// { next }
    inside { if (/^}/) inside = 0; next }
    pending { if (/\{[[:space:]]*$/) inside = 1; if (!/^#\[/) pending = 0; next }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    FILENAME !~ /^(examples|benchmark)\// && match($0, /pub fn [a-z_0-9]+/) {
        def[substr($0, RSTART + 7, RLENGTH - 7)] = FILENAME ":" FNR
    }
    {
        n = split($0, word, /[^A-Za-z0-9_]+/); split("", once)
        for (i = 1; i <= n; i++) if (!(word[i] in once)) { once[word[i]]; lines[word[i]]++ }
    }
    END { for (name in def) if (lines[name] == 1) print def[name] ": " name }
' | sort
