// Error handling primitives shared across the library.
//
// The library reports contract violations and unrecoverable numerical
// conditions via exceptions derived from `aspe::Error`, so callers can
// distinguish library failures from standard-library ones.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace aspe {

/// Base class for all errors thrown by the aspe library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller violates a documented precondition
/// (dimension mismatch, empty input, out-of-range parameter, ...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when a numerical routine cannot proceed
/// (singular matrix, rank-deficient system, non-SPD matrix, ...).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

/// Require `cond`; throw InvalidArgument with `msg` otherwise. A passing
/// check allocates nothing: the message is copied into a std::string only
/// on the throw path, so bounds checks in hot kernels stay free. (A message
/// built with `+` at the call site is still built on every call.)
inline void require(bool cond, std::string_view msg) {
  if (!cond) [[unlikely]] throw InvalidArgument(std::string(msg));
}

}  // namespace aspe
