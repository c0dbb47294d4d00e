#!/usr/bin/env bash
# Regenerates tests/golden/<binary>.txt, the committed stdout of every
# figure, table and ablation binary at the golden scale (DPAUDIT_THREADS=4
# DPAUDIT_REPS=4 DPAUDIT_MNIST_N=8 DPAUDIT_PURCHASE_N=8 DPAUDIT_EPOCHS=3).
#
# usage: scripts/refresh_goldens.sh [build-dir]   (default: build)
#
# It runs the `golden` ctest label, which writes each binary's filtered
# stdout to <build-dir>/golden/, and copies those files over the goldens.
# The list of binaries, the environment and the banner filter all live in
# tests/CMakeLists.txt and tests/check_golden.cmake, so a refresh and the
# gate cannot disagree about what is compared.
#
# The goldens hold only on libstdc++: the synthetic data and the DPSGD
# noise draw through std::normal_distribution, whose algorithm the C++
# standard leaves to the library. A build against libc++ or MSVC's library
# prints different numbers and fails the gate; that is a known limitation,
# not a reason to refresh.
#
# A refresh is a numerics change. Review `git diff tests/golden` and explain
# every changed line in CHANGES.md.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-${repo}/build}"

cmake --build "${build}" -j "$(nproc)"
# The gate fails on every golden that changed; that is expected here.
ctest --test-dir "${build}" -L golden -j "$(nproc)" > /dev/null 2>&1 || true

mkdir -p "${repo}/tests/golden"
count=0
for name in $(ctest --test-dir "${build}" -L golden -N |
              sed -n 's/^ *Test *#[0-9]*: golden_//p'); do
  actual="${build}/golden/${name}.txt"
  if [[ ! -s "${actual}" ]]; then
    echo "refresh_goldens: ${name} produced no output; see" \
         "ctest --test-dir ${build} -R golden_${name} --output-on-failure" >&2
    exit 1
  fi
  cp "${actual}" "${repo}/tests/golden/${name}.txt"
  count=$((count + 1))
done
echo "refreshed ${count} goldens under tests/golden/"
