// ExecContext — the uniform execution-policy parameter of the attack entry
// points (run_lep_attack / run_mip_attack / run_snmf_attack).
//
// One struct carries everything that is about *how* an attack runs rather
// than *what* it computes: the thread budget, the RNG seed, the memory
// budget, and the telemetry sink. All attacks guarantee bit-identical
// results across thread counts for a fixed seed — and with or without a
// sink attached (telemetry fields excluded); see README "Parallelism" and
// "Observability" for how that is achieved.
#pragma once

#include <cstddef>
#include <cstdint>

#include "par/thread_pool.hpp"

namespace aspe::obs {
class Sink;
}  // namespace aspe::obs

namespace aspe::core {

struct ExecContext {
  /// Thread budget for the attack's parallel sections. 0 = the process-wide
  /// default (par::set_default_threads / hardware_concurrency); 1 = serial.
  std::size_t threads = 1;

  /// Root seed for every randomized component of the attack.
  std::uint64_t seed = 2017;

  /// Approximate working-set budget in bytes for shardable stages: the
  /// score-matrix build tiles its output rows and the SNMF driver groups its
  /// restarts so the in-flight working set stays near the budget (out-of-core
  /// runs over io::MappedCorpus views let the kernel pages be evicted between
  /// tiles). 0 — the default — means unsharded: one tile, one group. The
  /// budget shapes execution order only; attack outputs are bit-identical at
  /// any budget, as they are at any thread count.
  std::size_t memory_budget_bytes = 0;

  /// Telemetry sink for this run (see src/obs/). Null — the default — means
  /// no recording: the instrumented paths reduce to an inert branch and the
  /// attack result's telemetry carries only the driver's own counters.
  /// Telemetry is observational: attaching a sink never changes attack
  /// output. The sink must outlive the attack call; the caller owns it.
  obs::Sink* sink = nullptr;

  /// The width parallel sections should use (resolves the 0 default).
  [[nodiscard]] std::size_t resolved_threads() const {
    return threads == 0 ? par::default_threads() : threads;
  }
};

}  // namespace aspe::core
