// Shared pieces of the three workloads: the run configuration, the report
// every workload fills in, seeded inputs, the oracle gate and the process
// probes (CPU time, peak RSS).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "nn/network.hpp"
#include "nn/numeric.hpp"
#include "nn/weights.hpp"
#include "stats.hpp"
#include "tensor/tensor.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required on the command line
  bool trace = false;
};

/// A named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main.
struct Report {
  /// The workload's own end-to-end metrics, by the names the workload
  /// defines (printed and kept in the result record).
  std::vector<Metric> end_to_end;
  /// The cross-workload gated metrics (see BENCHMARK.json): p50_ms and
  /// throughput_per_s. main adds setup_s and peak_rss_mb.
  std::map<std::string, double> gated;
  /// Per-layer metrics of a traced run, by name.
  std::map<std::string, double> layer;
  std::uint64_t attempted = 0;
  /// Errors, outputs that differ from the oracle, and refusals where none
  /// are expected. Any failure makes the run not correct and exit 1.
  std::uint64_t failed = 0;
  bool valid = true;  ///< false when the measurement is unusable
  std::vector<std::string> notes;
  /// Durations of each repeated set-up, in seconds.
  std::vector<double> setup_seconds;
};

/// Unwraps a library result or throws with `what` and the status message.
template <typename T>
T must(condor::Result<T> result, const std::string& what) {
  if (!result.is_ok()) {
    throw std::runtime_error(what + ": " + result.status().to_string());
  }
  return std::move(result.value());
}
void must(const condor::Status& status, const std::string& what);

/// `count` distinct images of `shape`, uniform in [-1, 1), from `seed`.
std::vector<condor::Tensor> make_images(const condor::Shape& shape,
                                        std::size_t count, std::uint64_t seed);

/// Oracle outputs of `inputs` under `type`: nn::ReferenceEngine for float32,
/// nn::QuantizedEngine for the fixed-point types. Runs on `threads` threads;
/// `img_per_s_per_thread` receives the median per-thread rate.
std::vector<condor::Tensor> oracle_outputs(
    const condor::nn::Network& network, const condor::nn::WeightStore& weights,
    condor::nn::DataType type, std::span<const condor::Tensor> inputs,
    std::size_t threads, double* img_per_s_per_thread = nullptr);

/// Byte-for-byte equality of shape and data.
bool same_bytes(const condor::Tensor& got, const condor::Tensor& want);

/// The oracle gate for one reply: kOk only for the oracle's exact bytes;
/// an admission refusal (kUnavailable) is kRejected, any other error kError.
Outcome classify(const condor::Result<condor::Tensor>& reply,
                 const condor::Tensor& expected);
/// The same, against an expected output given as its shape and values.
Outcome classify(const condor::Result<condor::Tensor>& reply,
                 const condor::Shape& shape, std::span<const float> expected);

/// Counts one checked reply into `report`: errors and mismatches fail, and
/// so do refusals unless `refusal_expected` (an overloading rate).
void tally(Report& report, Outcome outcome, bool refusal_expected);

/// The result line's `correct`: nothing failed and the run is valid.
bool correct(const Report& report);

/// Process CPU time (user + system), seconds.
double process_cpu_seconds();

/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// Seconds between two clock readings.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Per-layer self time per unit of work (ms) from the recorded spans:
/// "<layer>.self_ms" for every layer that has spans, excluding `skip_layer`.
std::map<std::string, double> layer_self_ms(std::span<const Span> spans,
                                            double units,
                                            const std::string& skip_layer);

/// Runs `setup` `times` times, keeps the last result and records each
/// duration in `seconds`.
template <typename Setup>
auto repeat_setup(std::size_t times, std::vector<double>& seconds,
                  Setup&& setup) {
  auto start = Clock::now();
  auto state = setup();
  seconds.push_back(seconds_between(start, Clock::now()));
  for (std::size_t i = 1; i < times; ++i) {
    state.reset();
    start = Clock::now();
    state = setup();
    seconds.push_back(seconds_between(start, Clock::now()));
  }
  return state;
}

}  // namespace perfbench
