// A serve::Backend wrapper that times every batch and matches each image in
// it back to the request that carried it, by the image's bytes. Every
// request of a run carries a distinct image, so the match is exact; this is
// how the traced serve run splits a request's latency into queue wait,
// backend time and demux without touching the server.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "serve/server.hpp"
#include "tensor/tensor.hpp"
#include "trace.hpp"

namespace perfbench {

/// Exact-bytes lookup from an image to its index in `inputs`. The inputs
/// must outlive the index and be pairwise distinct (checked).
class InputIndex {
 public:
  explicit InputIndex(std::span<const condor::Tensor> inputs);

  /// Index of the input with exactly these bytes, or -1.
  [[nodiscard]] std::int64_t find(const condor::Tensor& image) const;

 private:
  std::span<const condor::Tensor> inputs_;
  std::unordered_multimap<std::uint64_t, std::size_t> by_hash_;
};

/// One backend call as the wrapper saw it.
struct BackendCall {
  Clock::time_point start;
  Clock::time_point end;
  std::size_t batch = 0;
  bool ok = false;
};

class MatchingBackend : public condor::serve::Backend {
 public:
  /// `requests` is the number of indexable inputs (the size of the index).
  MatchingBackend(condor::serve::Backend& inner, const InputIndex& index,
                  std::size_t requests);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "matching";
  }
  condor::Result<std::vector<condor::Tensor>> run_batch(
      std::span<const condor::Tensor> inputs) override;

  /// Calls so far, in order.
  [[nodiscard]] std::vector<BackendCall> calls() const;
  /// The call that carried request `request`, or -1 if none did.
  [[nodiscard]] std::int64_t call_of(std::size_t request) const;
  /// Images that matched no request.
  [[nodiscard]] std::size_t unmatched() const;

 private:
  condor::serve::Backend& inner_;
  const InputIndex& index_;
  mutable std::mutex mutex_;  // guards the three members below
  std::vector<BackendCall> calls_;
  std::vector<std::int64_t> call_of_;
  std::size_t unmatched_ = 0;
};

}  // namespace perfbench
