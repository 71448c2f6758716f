#!/usr/bin/env bash
# A/A check: run the benchmark command twice on this commit and compare every
# end-to-end metric against its bound (wider-than-bound is reported as
# unresolved) and the counts that must repeat exactly (which must be equal).
#
#   benchmark/aa.sh [seed]          A/A on one seed (default 1)
#   benchmark/aa.sh spread [runs]   quartile spread over that many seeds (default 10)
#
# Markdown goes to standard output, progress to standard error. The store
# directories the runs use live under target/e2e/ and are removed by each run.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "${1:-}" = spread ]; then
    exec python3 benchmark/report.py spread --runs "${2:-10}"
fi
exec python3 benchmark/report.py aa --seed "${1:-1}"
