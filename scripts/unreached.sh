#!/usr/bin/env bash
# Unreached-code report: every strong (nm type T) tilelink:: function in
# libtilelink.a that no bench, example or perfbench binary reaches.
#
# Everything is compiled at -O0 -ffunction-sections -fdata-sections, so a
# function that an optimized build would only ever inline still has its
# own section. Each binary is relinked with the library whole-archive and
# --gc-sections, which drops every function section nothing reachable
# refers to; a library function is reached by a binary iff that binary
# still defines it. perfbench/*.cc is compiled here directly, so nothing
# under perfbench/ is touched. For each unreached function the report names
# the test binaries that do reach it ("-" for none), then ends with
#   unreached_functions: N
# The report is informational: the script exits nonzero only when a build
# or link step fails, never because of N.
#
# Usage: scripts/unreached.sh [build-dir]   (default: build-unreached)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build-unreached}
FLAGS="-O0 -ffunction-sections -fdata-sections"
JOBS=$(nproc)

mkdir -p "$BUILD"
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="$FLAGS" > "$BUILD/configure.log" \
    || { cat "$BUILD/configure.log"; exit 1; }
cmake --build "$BUILD" -j"$JOBS" > "$BUILD/build.log" \
    || { tail -n 60 "$BUILD/build.log"; exit 1; }

OUT="$BUILD/unreached"
rm -rf "$OUT"
mkdir -p "$OUT/perfbench.o" "$OUT/syms"
LIB="$BUILD/libtilelink.a"

# relink <binary> <objects...> [-- <extra libs...>]
relink() {
  local out=$1
  shift
  local objs=() libs=()
  while (($#)) && [[ "$1" != "--" ]]; do objs+=("$1"); shift; done
  (($#)) && shift
  libs=("$@")
  g++ -o "$OUT/$out" "${objs[@]}" -Wl,--whole-archive "$LIB" \
      -Wl,--no-whole-archive -Wl,--gc-sections "${libs[@]}" -pthread
  nm --defined-only "$OUT/$out" | awk '{print $NF}' | sort -u \
      > "$OUT/syms/$out"
}

target_objs() {
  find "$BUILD/CMakeFiles/$1.dir" -name '*.o' | sort
}

pids=()
for src in perfbench/*.cc; do
  g++ -std=c++20 $FLAGS -Isrc -c "$src" \
      -o "$OUT/perfbench.o/$(basename "$src" .cc).o" &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done
relink perfbench "$OUT"/perfbench.o/*.o

reach_bins=(perfbench)
for src in bench/*.cc examples/*.cc; do
  name=$(basename "$src" .cc)
  # shellcheck disable=SC2046
  relink "$name" $(target_objs "$name")
  reach_bins+=("$name")
done
test_bins=()
for src in tests/*.cc; do
  name=$(basename "$src" .cc)
  # shellcheck disable=SC2046
  relink "$name" $(target_objs "$name") -- -lgtest_main -lgtest
  test_bins+=("$name")
done

# Strong tilelink:: functions the library defines: "<mangled> <demangled>".
nm --defined-only "$LIB" | awk '$2 == "T" {print $3}' | sort -u \
    > "$OUT/lib.mangled"
c++filt < "$OUT/lib.mangled" | paste -d '\t' "$OUT/lib.mangled" - \
    | awk -F '\t' 'index($2, "tilelink::") == 1' > "$OUT/lib.funcs"

for bin in "${reach_bins[@]}"; do cat "$OUT/syms/$bin"; done | sort -u \
    > "$OUT/reached"

count=0
while IFS=$'\t' read -r mangled demangled; do
  if grep -qxF -- "$mangled" "$OUT/reached"; then continue; fi
  count=$((count + 1))
  tests=()
  for bin in "${test_bins[@]}"; do
    grep -qxF -- "$mangled" "$OUT/syms/$bin" && tests+=("$bin")
  done
  echo "$demangled"
  echo "    tests: ${tests[*]:--}"
done < <(sort -t $'\t' -k2 "$OUT/lib.funcs")

echo "unreached_functions: $count"
