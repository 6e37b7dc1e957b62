#!/usr/bin/env sh
# Stale-doc guard: every `sf-*` tool and `bench_*` driver named in the
# given markdown files must exist as an executable in the build
# directory, so the docs can never advertise a binary that no longer
# builds (or was renamed without a doc pass).
#
# Usage: scripts/check_doc_binaries.sh BUILD_DIR DOC.md [DOC2.md ...]
set -eu

if [ "$#" -lt 2 ]; then
  echo "error: usage: $0 BUILD_DIR DOC.md [DOC2.md ...]" >&2
  exit 2
fi
build=$1
shift

# Documented names that are deliberately not executables.
allowlist="bench_smoke"

status=0
for doc in "$@"; do
  # `name*` is a glob shorthand ("the bench_table* drivers"), not a
  # binary name: capture the optional `*` and drop those tokens.
  for name in $(grep -ohE '(sf-[a-z]+|bench_[a-z0-9_]+)\*?' "$doc" | sort -u); do
    case $name in *\*) continue ;; esac
    skip=0
    for allowed in $allowlist; do
      [ "$name" = "$allowed" ] && skip=1
    done
    [ "$skip" = 1 ] && continue
    if [ ! -x "$build/$name" ]; then
      echo "stale doc: $doc names '$name' but $build/$name is not an executable" >&2
      status=1
    fi
  done
done
if [ "$status" = 0 ]; then
  echo "doc binary check passed: every sf-*/bench_* name in $* exists in $build"
fi
exit $status
