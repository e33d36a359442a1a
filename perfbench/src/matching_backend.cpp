#include "matching_backend.hpp"

#include <cstring>
#include <stdexcept>

namespace perfbench {
namespace {

std::uint64_t fnv1a(const condor::Tensor& image) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(image.raw());
  for (std::size_t i = 0; i < image.size() * sizeof(float); ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ULL;
  }
  return hash;
}

bool equal_bytes(const condor::Tensor& a, const condor::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

}  // namespace

InputIndex::InputIndex(std::span<const condor::Tensor> inputs)
    : inputs_(inputs) {
  by_hash_.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (find(inputs[i]) >= 0) {
      throw std::runtime_error("request inputs are not distinct");
    }
    by_hash_.emplace(fnv1a(inputs[i]), i);
  }
}

std::int64_t InputIndex::find(const condor::Tensor& image) const {
  const auto [first, last] = by_hash_.equal_range(fnv1a(image));
  for (auto it = first; it != last; ++it) {
    if (equal_bytes(inputs_[it->second], image)) {
      return static_cast<std::int64_t>(it->second);
    }
  }
  return -1;
}

MatchingBackend::MatchingBackend(condor::serve::Backend& inner,
                                 const InputIndex& index, std::size_t requests)
    : inner_(inner), index_(index), call_of_(requests, -1) {}

condor::Result<std::vector<condor::Tensor>> MatchingBackend::run_batch(
    std::span<const condor::Tensor> inputs) {
  // Match first, so the timed interval holds the inner call alone.
  std::vector<std::int64_t> requests;
  requests.reserve(inputs.size());
  for (const condor::Tensor& image : inputs) {
    requests.push_back(index_.find(image));
  }
  BackendCall call;
  call.batch = inputs.size();
  call.start = Clock::now();
  condor::Result<std::vector<condor::Tensor>> outputs = inner_.run_batch(inputs);
  call.end = Clock::now();
  call.ok = outputs.is_ok();

  std::lock_guard<std::mutex> lock(mutex_);
  const auto call_index = static_cast<std::int64_t>(calls_.size());
  calls_.push_back(call);
  for (const std::int64_t request : requests) {
    if (request < 0 || static_cast<std::size_t>(request) >= call_of_.size()) {
      ++unmatched_;
    } else {
      call_of_[static_cast<std::size_t>(request)] = call_index;
    }
  }
  return outputs;
}

std::vector<BackendCall> MatchingBackend::calls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return calls_;
}

std::int64_t MatchingBackend::call_of(std::size_t request) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return request < call_of_.size() ? call_of_[request] : -1;
}

std::size_t MatchingBackend::unmatched() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return unmatched_;
}

}  // namespace perfbench
