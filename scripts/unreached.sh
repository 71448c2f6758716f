#!/bin/sh
# Every `pub fn` under crates/*/src and src/ whose name occurs nowhere in
# non-test code except at its definition: reached only from `#[cfg(test)]`
# modules, `tests/` and `benches/`, or from nothing. Comments and string
# literals are not callers: a name in an error message does not hide an
# unreached function. Test code is recognised as in scripts/loc.sh.
# Reported in CI's
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
    # `line` without its string literals and its trailing comment. A
    # string still open at the end of the line goes on into the next
    # (`instr`: 1 in "…", 2 in r#"…"#). A char literal, a quoted double
    # quote included, opens nothing; a lifetime is kept.
    function code(line,    out, n, i, c, j) {
        out = ""; n = length(line)
        for (i = 1; i <= n; i++) {
            c = substr(line, i, 1)
            if (instr == 1) {
                if (c == "\\") i++
                else if (c == "\"") instr = 0
                continue
            }
            if (instr == 2) {
                if (substr(line, i, 2) == "\"#") { instr = 0; i++ }
                continue
            }
            if (substr(line, i, 2) == "//") break
            if (c == "\"") { instr = 1; out = out " "; continue }
            if (substr(line, i, 3) == "r#\"") { instr = 2; i += 2; out = out " "; continue }
            if (c == "\047") {
                if (substr(line, i + 1, 1) == "\\") {
                    j = index(substr(line, i + 3), "\047")
                    if (j) { i += 2 + j; continue }
                } else if (substr(line, i + 2, 1) == "\047") { i += 2; continue }
            }
            out = out c
        }
        return out
    }
    BEGIN { n = split(test_modules, m, "\n"); for (i = 1; i <= n; i++) skip[m[i]] = 1 }
    FNR == 1 { pending = 0; inside = 0; instr = 0 }
    FILENAME in skip || /^[[:space:]]*\/\// { next }
    inside { if (/^}/) inside = 0; next }
    pending { if (/\{[[:space:]]*$/) inside = 1; if (!/^#\[/) pending = 0; next }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    FILENAME !~ /^(examples|benchmark)\// && match($0, /pub fn [a-z_0-9]+/) {
        def[substr($0, RSTART + 7, RLENGTH - 7)] = FILENAME ":" FNR
    }
    {
        n = split(code($0), word, /[^A-Za-z0-9_]+/); split("", once)
        for (i = 1; i <= n; i++) if (!(word[i] in once)) { once[word[i]]; lines[word[i]]++ }
    }
    END { for (name in def) if (lines[name] == 1) print def[name] ": " name }
' | sort
