// Typed error hierarchy for input validation.
//
// Each class refines the std exception callers already caught before the
// types existed (parse failures were runtime_error, structural misuse was
// invalid_argument / out_of_range), so existing catch sites keep working
// while new callers can discriminate precisely.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace wasp {

// Defined in support/cancel.hpp; forward-declared here so errors.hpp stays
// free of atomics headers (it is included by layers that never link the
// verify shim).
enum class CancelReason : std::uint32_t;

/// Malformed, truncated, or oversized graph input (edge list, Matrix
/// Market, binary CSR, GAP .wsg). Messages carry the byte/line position and
/// expected-vs-actual quantities where applicable.
class GraphFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Structurally inconsistent CSR arrays (non-monotone offsets, adjacency
/// size mismatch, destination id out of range).
class InvalidGraphError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A source vertex outside [0, num_vertices).
class InvalidSourceError : public std::out_of_range {
 public:
  using std::out_of_range::out_of_range;
};

/// An invalid option combination passed to the SSSP front-end.
class InvalidOptionsError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A solve unwound early because its CancelToken fired (explicit request,
/// deadline expiry, or watchdog trip). The partial distance state is left
/// behind and refilled by the next solve before use, so the Solver stays
/// reusable. reason() discriminates why.
class SolveCancelledError : public std::runtime_error {
 public:
  SolveCancelledError(const std::string& msg, CancelReason reason)
      : std::runtime_error(msg), reason_(reason) {}
  [[nodiscard]] CancelReason reason() const noexcept { return reason_; }

 private:
  CancelReason reason_;
};

/// A second solve() was attempted on a Solver whose previous solve is
/// still running. Concurrent solves on one Solver would race on the
/// distance pool, the metrics registry, and the thread team; use one
/// Solver per in-flight query (QueryService does exactly this).
class SolverBusyError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// The QueryService admission queue is past its high-watermark and the
/// incoming query outranks nothing it could shed. Callers should back off
/// and retry, lower their offered rate, or mark queries allow_stale.
class ServiceOverloadedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace wasp
