// In-memory span recorder for the traced runs.
//
// Spans are recorded around calls into the library's public functions from
// the benchmark's own code: a Scope opens a span on construction and closes
// it on destruction, parented to the innermost open Scope of the same
// thread. Derived spans (a request's queue wait, reconstructed from
// timestamps) go in through add(). Nothing is written until the run ends;
// a disabled tracer never reads the clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Microseconds from the tracer's epoch to `t`.
  [[nodiscard]] double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Records a finished span; returns its index (the parent handle of
  /// further spans), or -1 when tracing is off.
  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent = -1,
                   std::uint64_t request = 0);

  /// Opens a span now and closes it when destroyed.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  /// Snapshot of everything recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes the spans as a Chrome trace-event file (load it in
  /// chrome://tracing or Perfetto).
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench
