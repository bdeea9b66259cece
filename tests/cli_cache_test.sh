#!/usr/bin/env bash
# ctest integration test for the pipeline cache CLI surface: a second
# `powergear gen` into the same --cache-dir must hit the cache (visible in
# the --metrics JSON), produce byte-identical output at jobs 1 and 4, and
# `powergear cache stats|clear`, `powergear --version`, the generated usage
# and the unknown-command suggestion must behave as documented. Registered
# by tools/CMakeLists.txt with the built CLI as $1.
set -euo pipefail

CLI=${1:?usage: cli_cache_test.sh <path-to-powergear-cli>}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

echo "--- cold gen populates the cache"
"$CLI" gen --kernel gemm --samples 5 --size 8 --cache-dir cache \
    --metrics cold.json > cold.txt
grep -qF '"stores"' cold.json ||
    { echo "FAIL: cold run stored nothing"; cat cold.json; exit 1; }
test -d cache/sample || { echo "FAIL: no sample stage directory"; exit 1; }
test -d cache/sim || { echo "FAIL: no sim stage directory"; exit 1; }

echo "--- warm gen hits the cache and is byte-identical"
"$CLI" gen --kernel gemm --samples 5 --size 8 --cache-dir cache \
    --metrics warm.json > warm.txt
cmp cold.txt warm.txt || { echo "FAIL: warm output differs"; exit 1; }
python3 - <<'EOF'
import json
rep = json.load(open("warm.json"))
cache = rep["phases"].get("cache", {})
hits = cache.get("counters", {}).get("hits", 0)
assert hits > 0, f"warm run reported no cache hits: {cache}"
EOF

echo "--- warm gen at --jobs 4 is still byte-identical"
"$CLI" gen --kernel gemm --samples 5 --size 8 --cache-dir cache \
    --jobs 4 > warm4.txt
cmp cold.txt warm4.txt || { echo "FAIL: jobs=4 output differs"; exit 1; }

echo "--- POWERGEAR_CACHE env fallback"
POWERGEAR_CACHE=envcache "$CLI" gen --kernel atax --samples 3 --size 8 \
    >/dev/null
test -d envcache/sample || { echo "FAIL: POWERGEAR_CACHE ignored"; exit 1; }

echo "--- cache stats / clear"
"$CLI" cache stats --cache-dir cache > stats.txt
grep -q 'sample' stats.txt || { echo "FAIL: stats lack sample stage"; exit 1; }
grep -q 'sim' stats.txt || { echo "FAIL: stats lack sim stage"; exit 1; }
"$CLI" cache clear --cache-dir cache | grep -q 'removed' ||
    { echo "FAIL: clear reported nothing"; exit 1; }
find cache -name '*.art' | grep -q . && { echo "FAIL: clear left artifacts"; exit 1; }

echo "--- cache without a directory fails with guidance"
if "$CLI" cache stats 2>err.txt; then
    echo "FAIL: cache stats without a dir should fail"; exit 1
fi
grep -q 'POWERGEAR_CACHE' err.txt || { echo "FAIL: unhelpful error"; exit 1; }

echo "--- version reports the on-disk formats"
"$CLI" --version > version.txt
grep -qF 'powergear-art-v1' version.txt ||
    { echo "FAIL: --version lacks artifact format"; exit 1; }
grep -qF 'powergear-obs-v1' version.txt ||
    { echo "FAIL: --version lacks metrics format"; exit 1; }
cmp version.txt <("$CLI" version) ||
    { echo "FAIL: 'version' and '--version' disagree"; exit 1; }

echo "--- version honours --metrics like every other command"
"$CLI" version --metrics version_metrics.json > /dev/null
python3 -c 'import json; json.load(open("version_metrics.json"))' ||
    { echo "FAIL: version --metrics wrote no report"; exit 1; }

echo "--- bare powergear prints the generated usage and exits 0"
"$CLI" > usage.txt || { echo "FAIL: bare powergear exited non-zero"; exit 1; }
for cmd in gen train estimate dse serve lint cache version; do
    grep -q "^  $cmd " usage.txt ||
        { echo "FAIL: usage does not name '$cmd'"; cat usage.txt; exit 1; }
done

echo "--- a mistyped command exits 1 with a suggestion"
rc=0
"$CLI" gne > /dev/null 2> gne.txt || rc=$?
test "$rc" -eq 1 || { echo "FAIL: 'powergear gne' exited $rc, not 1"; exit 1; }
grep -qF "did you mean 'gen'" gne.txt ||
    { echo "FAIL: no 'gen' suggestion"; cat gne.txt; exit 1; }

echo "cli_cache_test: ok"
