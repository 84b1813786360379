#!/usr/bin/env bash
# Public-API inventory check.
#
# Dumps every `pub` item declared in the facade (src/lib.rs) and in every
# library crate of the workspace (crates/*/src/*.rs, one glob, so a new
# crate cannot be left out) and diffs the inventory against the blessed
# snapshot in scripts/public_api.txt. CI runs this so a PR cannot silently
# add, remove, or rename public surface: an intentional change is
# re-blessed with `scripts/public_api.sh --bless` and shows up in review as
# a snapshot diff.
#
# The dump is a convention-based inventory (item kind + name per source
# file), not a full signature diff: it relies on this workspace's style of
# one `#[cfg(test)] mod tests` at the *bottom* of each file (everything
# after it is ignored) and rustfmt-formatted `pub` items starting on their
# own line.

set -euo pipefail
cd "$(dirname "$0")/.."
SNAPSHOT=scripts/public_api.txt

dump() {
  for f in src/lib.rs crates/*/src/*.rs; do
    awk -v file="$f" '
      function emit(line) {
        sub(/^[ \t]+/, "", line)
        if (line ~ /^pub use /) {
          sub(/;[ \t]*$/, "", line)
          gsub(/[ \t]+/, " ", line)     # collapse joined multi-line groups
        } else {
          sub(/[({;=<].*$/, "", line)
        }
        sub(/[ \t]+$/, "", line)
        print file ": " line
      }
      /^#\[cfg\(test\)\]/ { exit }        # test module ends the file
      inuse {                              # continuation of a multi-line pub use
        acc = acc " " $0
        if ($0 ~ /;[ \t]*$/) { inuse = 0; emit(acc) }
        next
      }
      /^[ \t]*pub use / && $0 !~ /;[ \t]*$/ {
        # rustfmt wraps long use groups across lines; join until the `;`
        # so every re-exported name lands in the inventory.
        inuse = 1; acc = $0; next
      }
      /^[ \t]*pub (fn|struct|enum|trait|type|mod|use|const) / { emit($0) }
    ' "$f"
  done | LC_ALL=C sort -u
}

case "${1:-}" in
  --bless)
    dump > "$SNAPSHOT"
    echo "blessed $(wc -l < "$SNAPSHOT" | tr -d ' ') public items into $SNAPSHOT"
    ;;
  "")
    if diff -u "$SNAPSHOT" <(dump); then
      echo "public API matches $SNAPSHOT ($(wc -l < "$SNAPSHOT" | tr -d ' ') items)"
    else
      echo
      echo "public API changed. If intentional, re-bless with: scripts/public_api.sh --bless" >&2
      exit 1
    fi
    ;;
  *)
    echo "usage: $0 [--bless]" >&2
    exit 2
    ;;
esac
