#!/usr/bin/env bash
# Lines per file: total / non-test / test, where "test" is everything from
# the first top-level `#[cfg(test)]` to the end of the file (this repo keeps
# a file's unit tests in one trailing module). Usage: scripts/loc.sh <files...>
set -euo pipefail
printf '%7s %9s %7s  %s\n' total non-test test file
for f in "$@"; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ && !cut { cut = NR - 1 }
    END { if (!cut) cut = NR; printf "%7d %9d %7d  %s\n", NR, cut, NR - cut, f }' "$f"
done
