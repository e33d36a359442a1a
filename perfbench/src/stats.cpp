#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {
namespace {

/// 1-based nearest rank of percentile `p` among `n` samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard against 0.999...*n rounding just above an integer.
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

Tail supported_tail(std::vector<double> samples, std::size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  for (double p : kTailLadder) {
    if (samples.empty()) {
      break;
    }
    const std::size_t rank = nearest_rank(samples.size(), p);
    const std::size_t beyond = samples.size() - rank;
    if (beyond < min_beyond && p != kTailLadder[0]) {
      break;
    }
    tail.percentile = p;
    tail.value = samples[rank - 1];
    tail.beyond = beyond;
    tail.supported = beyond >= min_beyond;
    if (!tail.supported) {
      break;
    }
  }
  return tail;
}

std::size_t count_good(std::span<const Outcome> outcomes,
                       std::span<const double> latency_ms, double limit_ms) {
  std::size_t good = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    good += outcomes[i] == Outcome::kOk && i < latency_ms.size() &&
            latency_ms[i] <= limit_ms;
  }
  return good;
}

std::vector<double> self_times_us(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size()) {
      const Span& parent = spans[static_cast<std::size_t>(span.parent)];
      const double lo = std::max(span.start_us, parent.start_us);
      const double hi = std::min(span.end_us, parent.end_us);
      if (hi > lo) {
        children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
      }
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) {
        covered += run_hi - run_lo;
      }
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) {
      covered += run_hi - run_lo;
    }
    self[i] = std::max(0.0, (spans[i].end_us - spans[i].start_us) - covered);
  }
  return self;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

double mean(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace perfbench
