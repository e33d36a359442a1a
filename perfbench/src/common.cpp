#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "nn/quantization.hpp"
#include "nn/reference.hpp"

namespace perfbench {

using namespace condor;

void must(const Status& status, const std::string& what) {
  if (!status.is_ok()) {
    throw std::runtime_error(what + ": " + status.to_string());
  }
}

std::vector<Tensor> make_images(const Shape& shape, std::size_t count,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Tensor image(shape);
    for (float& v : image.data()) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    images.push_back(std::move(image));
  }
  return images;
}

std::vector<Tensor> oracle_outputs(const nn::Network& network,
                                   const nn::WeightStore& weights,
                                   nn::DataType type,
                                   std::span<const Tensor> inputs,
                                   std::size_t threads,
                                   double* img_per_s_per_thread) {
  std::optional<nn::ReferenceEngine> reference;
  std::optional<nn::QuantizedEngine> quantized;
  if (type == nn::DataType::kFloat32) {
    reference.emplace(
        must(nn::ReferenceEngine::create(network, weights), "reference engine"));
  } else {
    quantized.emplace(must(nn::QuantizedEngine::create(network, weights, type),
                           "quantized engine"));
  }
  auto forward = [&](const Tensor& input) {
    return reference.has_value() ? reference->forward(input)
                                 : quantized->forward(input);
  };

  threads = std::clamp<std::size_t>(threads, 1, std::max<std::size_t>(1, inputs.size()));
  std::vector<Tensor> outputs(inputs.size());
  std::vector<double> rates(threads, 0.0);
  std::vector<std::string> errors(threads);
  auto work = [&](std::size_t t) {
    const std::size_t begin = inputs.size() * t / threads;
    const std::size_t end = inputs.size() * (t + 1) / threads;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      Result<Tensor> out = forward(inputs[i]);
      if (!out.is_ok()) {
        errors[t] = out.status().to_string();
        return;
      }
      outputs[i] = std::move(out.value());
    }
    const double elapsed = seconds_between(start, Clock::now());
    rates[t] = elapsed > 0.0 ? static_cast<double>(end - begin) / elapsed : 0.0;
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) {
    pool.emplace_back(work, t);
  }
  work(0);
  for (std::thread& thread : pool) {
    thread.join();
  }
  for (const std::string& error : errors) {
    if (!error.empty()) {
      throw std::runtime_error("oracle forward: " + error);
    }
  }
  if (img_per_s_per_thread != nullptr) {
    *img_per_s_per_thread = percentile(rates, 50.0);
  }
  return outputs;
}

bool same_bytes(const Tensor& got, const Tensor& want) {
  return got.shape() == want.shape() && got.size() == want.size() &&
         std::memcmp(got.raw(), want.raw(), want.size() * sizeof(float)) == 0;
}

Outcome classify(const Result<Tensor>& reply, const Tensor& expected) {
  return classify(reply, expected.shape(), expected.data());
}

Outcome classify(const Result<Tensor>& reply, const Shape& shape,
                 std::span<const float> expected) {
  if (reply.is_ok()) {
    const Tensor& got = reply.value();
    return got.shape() == shape && got.size() == expected.size() &&
                   std::memcmp(got.raw(), expected.data(), expected.size_bytes()) == 0
               ? Outcome::kOk
               : Outcome::kMismatch;
  }
  return reply.status().code() == StatusCode::kUnavailable ? Outcome::kRejected
                                                           : Outcome::kError;
}

void tally(Report& report, Outcome outcome, bool refusal_expected) {
  ++report.attempted;
  report.failed += outcome == Outcome::kError || outcome == Outcome::kMismatch ||
                   (outcome == Outcome::kRejected && !refusal_expected);
}

bool correct(const Report& report) { return report.failed == 0 && report.valid; }

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::map<std::string, double> layer_self_ms(std::span<const Span> spans,
                                            double units,
                                            const std::string& skip_layer) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = layer_of(spans[i].name);
    if (layer != skip_layer) {
      totals[layer + ".self_ms"] += self[i] / 1e3 / std::max(units, 1.0);
    }
  }
  return totals;
}

}  // namespace perfbench
