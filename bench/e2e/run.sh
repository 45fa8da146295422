#!/usr/bin/env bash
# Build cedarbench (Release, in build-bench/ at the repository root) and
# run it:
#
#   bench/e2e/run.sh [--workload W[,W...]|all] [--seed S] [--seconds T]
#                    [--trace 0|1|DIR] [--repeat N] [--out FILE]
#
# Prints every metric as `workload metric value unit`; the last line of
# standard output is one JSON result object. --trace 1 writes the layer
# spans as Chrome traces into build-bench/traces, --trace DIR into DIR.
# Build output goes to standard error. Exits non-zero when the build
# fails or any output is wrong.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-bench"

args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --trace)
            if [ $# -lt 2 ]; then
                echo "run.sh: --trace needs 0, 1 or a directory" >&2
                exit 2
            fi
            case "$2" in
                0) ;;
                1) args+=(--trace "$build/traces") ;;
                *) args+=(--trace "$2") ;;
            esac
            shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done

if [ ! -f "$build/Makefile" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target cedarbench -j 4 >&2

sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/cedarbench" run --git-sha "$sha" "${args[@]}"
