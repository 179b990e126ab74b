// wasp::Answer — one exact distance array, shared by reference from the
// Solver that published it to every client that reads it.
//
// An Answer is an immutable buffer behind a shared_ptr. Copying one shares
// the buffer and never copies the distances, so the answer the versioned
// Solver::solve() returns, the QueryService cache and QueryResult::dist
// can all hold the same array, and the next solve() can repair from it.
// Nothing writes a buffer while any Answer holds it. When the last holder
// drops it, the buffer's deleter decides what happens next: a plain
// buffer is freed, and a buffer a Solver's repair published goes back to
// that Solver, which may rewrite it into a later answer
// (sssp/incremental.hpp).
//
// The read-only std::vector API (size, operator[], begin/end, data), a
// span view and operator== against a std::vector<Distance> let readers
// treat it as the distance vector it wraps. An empty Answer reads as an
// empty vector.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace wasp {

class Answer {
 public:
  using value_type = Distance;
  using size_type = std::size_t;
  using const_iterator = std::vector<Distance>::const_iterator;
  using iterator = const_iterator;

  Answer() = default;
  /// Shares `buffer`; its deleter runs when the last holder drops it.
  explicit Answer(std::shared_ptr<const std::vector<Distance>> buffer)
      : buffer_(std::move(buffer)) {}
  /// Takes `dist` into a new buffer of its own (no copy of the entries).
  explicit Answer(std::vector<Distance>&& dist)
      : buffer_(
            std::make_shared<const std::vector<Distance>>(std::move(dist))) {}

  [[nodiscard]] std::size_t size() const {
    return buffer_ != nullptr ? buffer_->size() : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Unchecked, as std::vector's: `v` must be below size().
  [[nodiscard]] Distance operator[](std::size_t v) const {
    return (*buffer_)[v];
  }
  [[nodiscard]] const Distance* data() const {
    return buffer_ != nullptr ? buffer_->data() : nullptr;
  }
  [[nodiscard]] const_iterator begin() const { return vec().begin(); }
  [[nodiscard]] const_iterator end() const { return vec().end(); }
  /// A view of the distances, valid while this Answer is held.
  operator std::span<const Distance>() const { return vec(); }

  /// Equal distances; two holders of one buffer compare equal at once.
  friend bool operator==(const Answer& a, const Answer& b) {
    return a.buffer_ == b.buffer_ || a.vec() == b.vec();
  }
  friend bool operator==(const Answer& a, const std::vector<Distance>& b) {
    return a.vec() == b;
  }

 private:
  [[nodiscard]] const std::vector<Distance>& vec() const {
    static const std::vector<Distance> kEmpty;
    return buffer_ != nullptr ? *buffer_ : kEmpty;
  }

  std::shared_ptr<const std::vector<Distance>> buffer_;
};

}  // namespace wasp
