#!/usr/bin/env bash
# Surface scan: fail if a public value of lib/ is referenced by nothing
# outside its own module.
#
# Usage: bash scripts/surface_scan.sh        (from the repository root)
#
# On a temporary copy of the tree, every top-level `val v` of every
# lib/**/*.mli gets a custom alert, [@@alert zzscan "ZZSCAN <file> <v>"].
# The compiler prints an alert at each use of v that goes through the
# interface: from other lib/ modules, bin/, bench/, examples/, test/ and
# benchmark/, but not from v's own .ml. One `dune build @all` therefore
# lists every referenced value, including those reached through `open`,
# a local module alias or a functor argument. Every scanned value that
# no alert names, and that the allowlist below does not hold, is
# reported, and the script exits 1. Any build error also exits 1, so the
# scan never passes on a tree it could not build.

set -euo pipefail

# Values kept with no caller, one "<mli path> <value>" a line; a bare
# path keeps a whole module.
allowlist=$(cat <<'EOF'
lib/ipstack/stripe_layer.mli crash_restart_sender
lib/ipstack/stripe_layer.mli crash_restart_receiver
lib/obs/check.mli
EOF
)

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Copy the working tree, without build outputs or history.
(cd "$root" && tar --exclude=./_build --exclude=./.git -cf - .) |
  (cd "$tmp" && tar -xf -)
cd "$tmp"

# Tag each top-level val. Its item ends at the last non-blank line before
# the next line that starts in column 0; the attribute goes there.
declared="$tmp/declared.txt"
: > "$declared"
while IFS= read -r mli; do
  awk -v file="$mli" -v out="$declared" '
    { line[NR] = $0 }
    END {
      n = NR
      for (i = 1; i <= n; i++) {
        if (line[i] !~ /^val +[a-z_][A-Za-z0-9_'\'']*/) continue
        name = line[i]; sub(/^val +/, "", name); sub(/[^A-Za-z0-9_'\''].*$/, "", name)
        j = i + 1
        while (j <= n && line[j] !~ /^[^ \t]/) j++
        k = j - 1
        while (k > i && line[k] ~ /^[ \t]*$/) k--
        tag[k] = tag[k] " [@@alert zzscan \"ZZSCAN " file " " name "\"]"
        print file " " name >> out
      }
      for (i = 1; i <= n; i++) print line[i] tag[i]
    }' "$mli" > "$mli.tagged"
  mv "$mli.tagged" "$mli"
done < <(find lib -name '*.mli' | sort)

# A fresh build with the cache off, so that every file is compiled and
# every alert printed.
log="$tmp/build.log"
if ! DUNE_CACHE=disabled dune build @all > "$log" 2>&1; then
  grep -B 4 -A 6 'Error' "$log" | head -n 60 >&2
  echo "surface scan: the tagged tree does not build" >&2
  exit 1
fi

referenced="$tmp/referenced.txt"
grep -o 'ZZSCAN [^ "]* [^ "]*' "$log" | sed 's/^ZZSCAN //' | sort -u > "$referenced" || true
if [ ! -s "$referenced" ]; then
  echo "surface scan: no alert was printed; the scan did not run" >&2
  exit 1
fi

unreferenced=$(sort -u "$declared" | comm -23 - "$referenced" |
  while read -r file name; do
    if printf '%s\n' "$allowlist" | grep -qx -e "$file $name" -e "$file"; then
      continue
    fi
    echo "$file $name"
  done)

total=$(sort -u "$declared" | wc -l)
if [ -n "$unreferenced" ]; then
  echo "surface scan: values of lib/ that nothing outside their module references:" >&2
  printf '  %s\n' $(printf '%s\n' "$unreferenced" | tr ' ' ':') >&2
  exit 1
fi
echo "surface scan: all $total scanned lib/ values are referenced (allowlist aside)"
