// Error handling primitives shared by every casa library.
//
// Invariant violations inside the library throw casa::Error; the CASA_CHECK
// macro is the single choke point so callers can set a breakpoint on
// casa::detail::raise_check_failure.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace casa {

/// Base exception for all casa library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public Error {
 public:
  explicit PreconditionError(const std::string& what) : Error(what) {}
};

/// Thrown when a solver fails to produce a result (infeasible, unbounded...).
class SolveError : public Error {
 public:
  explicit SolveError(const std::string& what) : Error(what) {}
};

/// `value` narrowed to unsigned. Throws PreconditionError naming `key`
/// when it does not fit, so an input boundary (the serve protocol, the
/// artifact readers, the CLIs) never wraps 2^32 + 2 into 2.
unsigned checked_unsigned(std::uint64_t value, const std::string& key);

namespace detail {
[[noreturn]] void raise_check_failure(const char* expr, const char* file,
                                      int line, const std::string& msg);
}  // namespace detail

}  // namespace casa

/// Precondition / invariant check that is always on (cheap checks only).
#define CASA_CHECK(expr, msg)                                              \
  do {                                                                     \
    if (!(expr)) {                                                         \
      ::casa::detail::raise_check_failure(#expr, __FILE__, __LINE__, msg); \
    }                                                                      \
  } while (false)
