// FNV-1a digests over the bit patterns of doubles (or over raw bytes), for
// tests that pin an answer bit for bit: a single flipped ulp anywhere changes
// the digest.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace aspe::pinning {

struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add_bytes(std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  void add(const linalg::Matrix& m) {
    add(std::uint64_t{m.rows()});
    add(std::uint64_t{m.cols()});
    for (double v : m.data()) add(v);
  }
};

/// The pinned digest for the gemm micro-kernel clone this machine runs.
/// The baseline clone (level 0, also every sanitizer build) multiplies and
/// adds separately; the AVX-512 clone (level 2) fuses them into FMAs and so
/// rounds differently. No digest was recorded for the AVX2 clone (level 1):
/// nullopt there, and the caller checks thread invariance only.
inline std::optional<std::uint64_t> pinned_for_gemm_clone(
    std::uint64_t baseline, std::uint64_t avx512) {
  switch (linalg::gemm_dispatch_arch_level()) {
    case 0:
      return baseline;
    case 2:
      return avx512;
    default:
      return std::nullopt;
  }
}

}  // namespace aspe::pinning
