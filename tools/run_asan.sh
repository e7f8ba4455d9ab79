#!/usr/bin/env bash
# Build the tree with AddressSanitizer + UBSan and run the tier-1 test suite
# under it. Usage: tools/run_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DASPE_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error turns any report into a test failure; detect_leaks catches
# view-era lifetime bugs (a kernel writing through a dangling view usually
# shows up as heap-buffer-overflow first).
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"

# Fast-fail pre-pass over the obs layer first: per-thread span buffers and
# the recording lifecycle are the newest lifetime-sensitive code, and the
# suite runs in well under a second.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -R "Obs\."

# Second pre-pass over the optimizer suites: the warm-start machinery
# (basis snapshots, trail rewinds, eta updates through row views), the
# sparse structural columns and the row-pointer LU reinversion are the
# pointer-heaviest code in the tree, so surface their reports in seconds
# before paying for the full run.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "WarmStart|SimplexStress|Simplex\.|Mip|Lu\."

# Third pre-pass over the truncated-SVD / warm-NNLS path: blocked QR panels,
# the packed GEMM's tile ranges, workspace Cholesky up/downdates and
# per-column factor buffers are raw-pointer code. The QR row loops, the
# GEMM packing, the NNLS factor refresh and triangular solves read through
# bare row pointers with no view bounds checks, so this pass is their only
# bounds check. `Nnls\.` includes the Table III bit pin
# (Nnls.PaperCellSelectionPinnedBitwise), which drives the NNLS code through
# 72,000 warm solves; `Gemm\.` and `Qr\.` include the pins of the
# clone-free baseline kernel. The suites run in a few seconds.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "Svd\.|Nnls\.|Qr\.|Gemm\."

# Fourth pre-pass over the io::v2 / mmap layer: envelope decoding walks
# attacker-controlled offsets, the mutation tests feed deliberately
# malformed containers, and MappedCorpus reads straight off mapped pages —
# exactly where an out-of-bounds read would hide. Runs in under a second.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "Codec\.|IoV2\.|MappedCorpus|Shard\.|Serialization\."

# Fifth pre-pass over the incremental sessions: score-matrix bands grown in
# place, SVD row/column updates against cached factors and NMF warm seeds
# handed across attack() calls are the newest stateful code (PR 7); the
# snapshot round-trips also re-read freshly written session files.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "CoaSession|LepSession|IncrementalSvd|NmfResume|CorpusRefresh"

# Sixth pre-pass over the branch-and-bound solver: the bound trail rewound
# on backtrack, shared basis snapshots restored across dives, and presolve
# tightening bounds in place, surfaced in seconds.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "MipBudget|Mip\.|Presolve"

# Seventh pre-pass over the warm-state store, dispatch's warm paths and
# the svc daemon: the store hands type-erased shared_ptrs out and frees
# evicted values while jobs may still hold others, framed protocol decoding
# walks attacker-controlled length prefixes, connection handlers hand
# shared_ptr connections to worker-thread delivery lambdas, and the server
# teardown shuts sockets down before joining. The suites include
# deliberately malformed frames.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "WarmStore|DispatchStore|Svc"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
