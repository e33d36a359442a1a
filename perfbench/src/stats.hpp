// Statistics the benchmark reports: nearest-rank percentiles, the
// "highest percentile with at least ten samples beyond it" rule, goodput
// counting and span self time. Kept free of the library so the self-tests
// can pin them down exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the sample at 1-based rank ceil(p/100 * n) of
/// the sorted samples. `p` in (0, 100]; an empty sample gives 0.
double percentile(std::vector<double> samples, double p);

/// A tail percentile together with the evidence behind it.
struct Tail {
  double percentile = 50.0;  ///< which percentile `value` is
  double value = 0.0;
  std::size_t samples = 0;   ///< sample count
  std::size_t beyond = 0;    ///< samples strictly above its rank
  bool supported = false;    ///< beyond >= the required minimum
};

/// Percentiles the tail is chosen from, highest last.
inline constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};

/// The highest ladder percentile whose nearest rank leaves at least
/// `min_beyond` samples beyond it. When even the median does not, the
/// median is returned with `supported = false`.
Tail supported_tail(std::vector<double> samples, std::size_t min_beyond = 10);

/// How one operation ended, as the goodput count sees it.
enum class Outcome : std::uint8_t {
  kOk,        ///< completed with the oracle's exact bytes
  kRejected,  ///< refused by admission control
  kError,     ///< the library returned an error
  kMismatch,  ///< completed, but the bytes differ from the oracle's
};

/// Operations that completed correctly within `limit_ms`. Rejects, errors,
/// mismatches and late replies are all misses.
std::size_t count_good(std::span<const Outcome> outcomes,
                       std::span<const double> latency_ms, double limit_ms);

/// One recorded span. `parent` is the index of the enclosing span in the
/// same vector, or -1 for a root. Times are microseconds on one clock.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;  ///< shared by the spans of one request
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the parent).
std::vector<double> self_times_us(std::span<const Span> spans);

/// The layer a span belongs to: its name up to the first '.'.
std::string layer_of(const std::string& span_name);

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> values);

}  // namespace perfbench
