#!/usr/bin/env bash
# Prints each crate's non-test `src/` line count, then the workspace total.
#
# The rule: every `.rs` file under `crates/<name>/src` is counted line by line, leaving out
# test-only code, i.e. everything an attribute line `#[cfg(test)]` (at any indentation)
# gates:
# - a column-0 `#[cfg(test)]` that (after any further attribute lines) opens a `mod`, e.g.
#   `#[cfg(test)]` + `mod tests {`, ends the file's count: the rest of the file is tests;
# - any other `#[cfg(test)]` item (a `use`, a helper fn, a struct, an `impl` block, an
#   indented `mod`) is left out from the attribute line through the `;` or the matching
#   closing brace that ends the item.  Brackets inside strings, char literals and
#   comments are skipped when matching.
# `tests/` and `benches/` are never counted.
#
# Usage: scripts/nontest_lines.sh          (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

count_file() {
    awk '
        BEGIN { charlit = "^\047(\\\\[^\047]*|[^\047\\\\]|[\200-\377]+)\047" }
        # Scans one line for brackets outside strings, char literals and comments, keeping
        # the string and block-comment state across lines.  While an item is skipped,
        # `ended` is set by the `;` at bracket depth 0 or the `}` that closes depth 0.
        function scan(line,    i, n, c, rest) {
            n = length(line); i = 1
            while (i <= n) {
                c = substr(line, i, 1)
                if (blk > 0) {
                    if (substr(line, i, 2) == "*/") { blk--; i += 2; continue }
                    if (substr(line, i, 2) == "/*") { blk++; i += 2; continue }
                    i++; continue
                }
                if (str == 1) {
                    if (c == "\\") { i += 2; continue }
                    if (c == "\"") str = 0
                    i++; continue
                }
                if (str == 2) {
                    if (substr(line, i, length(rawend)) == rawend) { str = 0; i += length(rawend); continue }
                    i++; continue
                }
                if (substr(line, i, 2) == "//") break
                if (substr(line, i, 2) == "/*") { blk = 1; i += 2; continue }
                if (c == "\"") { str = 1; i++; continue }
                if (c == "r" && substr(line, 1, i - 1) ~ /(^|[^A-Za-z0-9_])b?$/) {
                    rest = substr(line, i + 1)
                    if (match(rest, /^#*"/)) {
                        rawend = "\"" substr(rest, 1, RLENGTH - 1); str = 2; i += RLENGTH + 1; continue
                    }
                }
                if (c == "\047") {
                    if (match(substr(line, i), charlit)) { i += RLENGTH; continue }
                    i++; continue
                }
                if (c == "{" || c == "(" || c == "[") depth++
                else if (c == ")" || c == "]") depth--
                else if (c == "}") { depth--; if (depth == 0) ended = 1 }
                else if (c == ";" && depth == 0) ended = 1
                i++
            }
        }
        done { next }
        mode == "attrs" && /^[[:space:]]*#\[/ { scan($0); next }
        mode == "attrs" && col0 && /^(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { done = 1; next }
        mode == "attrs" { mode = "item"; depth = 0; ended = 0 }
        mode == "item" { scan($0); if (ended) mode = ""; next }
        !blk && !str && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { mode = "attrs"; col0 = /^#/; next }
        { scan($0); lines++ }
        END { print lines + 0 }
    ' "$1"
}

total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    lines=0
    while IFS= read -r -d '' file; do
        lines=$((lines + $(count_file "$file")))
    done < <(find "$crate/src" -name '*.rs' -print0)
    printf '%-16s %6d\n' "crn-$name" "$lines"
    total=$((total + lines))
done
printf '%-16s %6d\n' "total" "$total"
