#!/usr/bin/env bash
# Build the tree with ThreadSanitizer and run the tier-1 test suite under it.
# Usage: tools/run_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DASPE_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error makes a data race fail the ctest invocation instead of just
# printing a report; second_deadlock_stack improves lock-order diagnostics.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

# Fast-fail pre-pass over the obs layer first: counter merges and span
# buffers are written from every pool worker, so races surface here in
# seconds before the full run pays for itself.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -R "Obs\."

# Second pre-pass: the MIP attack drives the (serial) warm-started solver
# from inside parallel heuristic probes, and LEP shares one const
# LuDecomposition across pool workers; check those suites first.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "WarmStart|MipAttack|Par\.|Lu\."

# Third pre-pass: the truncated SVD fans gemm/QR panels over the pool and
# the ANLS warm path keeps per-column workspaces that must stay disjoint
# across workers; check the PR 5 suites before the full run.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "Svd\.|Nnls\.|Qr\."

# Fourth pre-pass: sharded execution fans gemm tiles and restart groups
# over the pool while every worker reads the same mapped pages; the Shard
# suites sweep budgets x thread counts, so tile races surface here first.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "Codec\.|IoV2\.|MappedCorpus|Shard\."

# Fifth pre-pass: the incremental sessions grow the score matrix by gemm
# bands fanned over the pool and the append-equivalence properties run at
# 1 and 8 threads against the same session state — the exact shape where a
# band race would break the bitwise guarantee.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "CoaSession|LepSession|IncrementalSvd|NmfResume|CorpusRefresh"

# Sixth pre-pass: branch and bound is serial by design, and the budget
# suite asserts bit-identical truncated attacks at 1 vs 8 threads — the
# exact property a racing counter would break under TSan first.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "MipBudget"

# Seventh pre-pass: the warm-state store — building markers that park
# concurrent misses, refcount pins checked by eviction, per-kind byte
# accounting — dispatch's warm paths over it (corpora, sessions, bases,
# score matrices and rank estimates), and the daemon suites that share it
# across workers: CoA sessions and MIP bases mutated under per-entry locks,
# and the 8-worker budget soak whose outputs must match an unbudgeted
# daemon's bit for bit.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "WarmStore|DispatchStore|SvcWarmState|SvcScheduler"

# Eighth pre-pass: the rest of the svc daemon — worker threads against the
# bounded queue, per-connection handler threads delivering results under
# per-connection write locks, warm caches shared across jobs, and a
# shutdown path that races accept/recv against teardown.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R "Svc"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
