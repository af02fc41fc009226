#!/usr/bin/env bash
# Tier-1 verification: build + full test suite, then the same suite under
# AddressSanitizer + UndefinedBehaviorSanitizer (SARATHI_SANITIZE=ON) in a
# separate build directory. Pass --no-sanitize to skip the sanitizer stage.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=1
if [ "${1:-}" = "--no-sanitize" ]; then
  SANITIZE=0
fi

echo "== tier-1: build + ctest =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure

echo
echo "== fuzz smoke: invariant checker over 100 seeds =="
build/tools/sarathi_fuzz --seeds=100 --repro-out=build/fuzz-repro

echo
echo "== cascade smoke: correlated faults, partitions, metastable recovery =="
build/tools/sarathi_fuzz --seeds=100 --force-cascade --repro-out=build/fuzz-repro
# Parallel seeds must be byte-identical to serial ones, plain, with the
# cascade dimension forced (the only one that reaches the race code), with
# the prefix cache forced (its eviction index), and with autoscaling forced
# (its provision windows).
for force in "" --force-cascade --force-prefix --force-autoscale; do
  build/tools/sarathi_fuzz --seeds=40 --jobs=1 $force \
    --fingerprint-out=build/fuzz-fp-serial.csv > build/fuzz-log-serial.txt
  build/tools/sarathi_fuzz --seeds=40 --jobs=2 $force \
    --fingerprint-out=build/fuzz-fp-parallel.csv > build/fuzz-log-parallel.txt
  cmp build/fuzz-fp-serial.csv build/fuzz-fp-parallel.csv
  cmp build/fuzz-log-serial.txt build/fuzz-log-parallel.txt
done
cmake --build build -j --target bench_ext_cascade
build/bench/bench_ext_cascade --quick --selfcheck --jobs=2

echo
echo "== autoscale smoke: provisioned floor with scale out/in around faults =="
build/tools/sarathi_fuzz --seeds=100 --force-autoscale --repro-out=build/fuzz-repro

echo
echo "== prefix-cache smoke: radix cache in the allocator matrix, capacity + ledger =="
build/tools/sarathi_fuzz --seeds=100 --force-prefix --repro-out=build/fuzz-repro
cmake --build build -j --target bench_ext_prefix_cache
build/bench/bench_ext_prefix_cache --quick --selfcheck --jobs=2

echo
echo "== cluster-scale smoke: sharded parallel engine + autoscaled megafleet =="
cmake --build build -j --target bench_ext_cluster_scale
build/bench/bench_ext_cluster_scale --quick --selfcheck --out=build/BENCH_cluster_scale.json

echo
echo "== perfbench smoke: standalone Release build with -Werror, replay equivalence =="
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j --target perfbench perfbench_test
build-perfbench/perfbench_test

if [ "$SANITIZE" = "1" ]; then
  echo
  echo "== tier-1 under ASan + UBSan =="
  cmake -B build-asan -S . -DSARATHI_SANITIZE=ON
  cmake --build build-asan -j
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-asan --output-on-failure
fi

echo "All checks passed."
