// Self-tests of the benchmark's own statistics and gates: the nearest-rank
// percentile and the ten-beyond tail rule, goodput counting, span self
// time, the request-matching backend wrapper, and that a corrupted output
// or a backend error is counted as a failure.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common.hpp"
#include "matching_backend.hpp"
#include "serve/server.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using condor::Result;
using condor::Shape;
using condor::Tensor;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 50.0), 50.0);
  EXPECT_EQ(percentile(one_to(100), 99.0), 99.0);
  EXPECT_EQ(percentile(one_to(100), 100.0), 100.0);
  EXPECT_EQ(percentile(one_to(10), 90.0), 9.0);
  EXPECT_EQ(percentile(one_to(10), 91.0), 10.0);  // rank ceil(9.1) = 10
  EXPECT_EQ(percentile({7.0}, 99.9), 7.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  // Order of the input does not matter.
  EXPECT_EQ(percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 50.0), 3.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  Tail t = supported_tail(one_to(100));
  EXPECT_EQ(t.percentile, 90.0);  // p95 would leave only 5 beyond
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10U);
  EXPECT_TRUE(t.supported);

  t = supported_tail(one_to(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);

  t = supported_tail(one_to(999));  // p99 rank 990 leaves 9 beyond
  EXPECT_EQ(t.percentile, 95.0);

  t = supported_tail(one_to(20));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.beyond, 10U);
  EXPECT_TRUE(t.supported);

  t = supported_tail(one_to(19));  // not even the median has ten beyond
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 10.0);
  EXPECT_FALSE(t.supported);
  EXPECT_EQ(t.samples, 19U);
}

TEST(Goodput, RejectsAndLateRepliesAreMisses) {
  const std::vector<Outcome> outcomes = {Outcome::kOk,       Outcome::kOk,
                                         Outcome::kRejected, Outcome::kError,
                                         Outcome::kMismatch, Outcome::kOk};
  const std::vector<double> latency = {10.0, 60.0, 0.1, 1.0, 1.0, 50.0};
  // Good: the 10 ms reply and the one exactly at the limit.
  EXPECT_EQ(count_good(outcomes, latency, 50.0), 2U);
  EXPECT_EQ(count_good(outcomes, latency, 100.0), 3U);
  EXPECT_EQ(count_good(outcomes, latency, 5.0), 0U);
}

TEST(SelfTime, ParentMinusUnionOfChildren) {
  const std::vector<Span> spans = {
      {"serve.request", 0.0, 100.0, -1, 1},
      {"serve.queue_wait", 10.0, 30.0, 0, 1},
      {"pool.run_batch", 20.0, 40.0, 0, 1},   // overlaps the first child
      {"serve.demux", 90.0, 120.0, 0, 1},     // clipped to the parent
      {"dataflow.inner", 12.0, 15.0, 1, 1},   // grandchild of the root
  };
  const std::vector<double> self = self_times_us(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 30.0 - 10.0);  // union [10,40] + [90,100]
  EXPECT_DOUBLE_EQ(self[1], 20.0 - 3.0);
  EXPECT_DOUBLE_EQ(self[2], 20.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
  EXPECT_EQ(layer_of("serve.queue_wait"), "serve");
  EXPECT_EQ(layer_of("bench"), "bench");

  const auto per_layer = layer_self_ms(spans, 2.0, "");
  EXPECT_DOUBLE_EQ(per_layer.at("serve.self_ms"), (60.0 + 17.0 + 30.0) / 1e3 / 2.0);
  EXPECT_DOUBLE_EQ(per_layer.at("pool.self_ms"), 20.0 / 1e3 / 2.0);
}

TEST(SelfTime, TracerScopesNestPerThread) {
  Tracer tracer(true);
  {
    Tracer::Scope outer(tracer, "bench.round", 7);
    Tracer::Scope inner(tracer, "dataflow.run_batch", 7);
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7U);
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_GE(spans[0].end_us, spans[1].end_us);

  Tracer off(false);
  { Tracer::Scope scope(off, "bench.round"); }
  EXPECT_TRUE(off.spans().empty());
}

/// Echoes every input, except that the output of an input equal to
/// `corrupt` (when given) is off by one step in its first value. With
/// `fail` set, every batch is an error instead.
class EchoBackend : public condor::serve::Backend {
 public:
  explicit EchoBackend(const Tensor* corrupt = nullptr, bool fail = false)
      : corrupt_(corrupt), fail_(fail) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "echo"; }
  Result<std::vector<Tensor>> run_batch(std::span<const Tensor> inputs) override {
    if (fail_) {
      return condor::internal_error("echo backend failed");
    }
    std::vector<Tensor> out(inputs.begin(), inputs.end());
    for (Tensor& t : out) {
      if (corrupt_ != nullptr && same_bytes(t, *corrupt_)) {
        t.data()[0] = std::nextafter(t.data()[0], 2.0F);
      }
    }
    return out;
  }

 private:
  const Tensor* corrupt_;
  bool fail_;
};

/// Serves `images` through a one-tenant server over `backend` and checks
/// each reply against the image itself (the oracle of an echo).
std::vector<Outcome> serve_echo(condor::serve::Backend& backend,
                                const std::vector<Tensor>& images) {
  condor::serve::ServerOptions options;
  options.batcher.max_batch = 8;
  options.batcher.preferred_batch = 8;
  auto server = condor::serve::Server::create(
      options, {{"interactive", condor::serve::QosClass::kInteractive, 0, 64}},
      {&backend});
  EXPECT_TRUE(server.is_ok());
  auto replies = server.value().submit_many(0, images);
  std::vector<Outcome> outcomes;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    outcomes.push_back(classify(replies[i].get(), images[i]));
  }
  server.value().shutdown();
  return outcomes;
}

TEST(MatchingBackend, MatchesEveryImageToItsRequest) {
  const std::vector<Tensor> images = make_images(Shape({1, 4, 4}), 8, 3);
  const InputIndex index(images);
  EchoBackend echo;
  MatchingBackend matching(echo, index, images.size());

  const std::vector<Tensor> first = {images[5], images[2], images[7]};
  const std::vector<Tensor> second = {images[0], make_images(Shape({1, 4, 4}), 1, 99)[0]};
  ASSERT_TRUE(matching.run_batch(first).is_ok());
  ASSERT_TRUE(matching.run_batch(second).is_ok());

  const std::vector<BackendCall> calls = matching.calls();
  ASSERT_EQ(calls.size(), 2U);
  EXPECT_EQ(calls[0].batch, 3U);
  EXPECT_EQ(calls[1].batch, 2U);
  EXPECT_LE(calls[0].start, calls[0].end);
  EXPECT_LE(calls[0].end, calls[1].start);
  EXPECT_EQ(matching.call_of(5), 0);
  EXPECT_EQ(matching.call_of(2), 0);
  EXPECT_EQ(matching.call_of(7), 0);
  EXPECT_EQ(matching.call_of(0), 1);
  EXPECT_EQ(matching.call_of(1), -1);   // never sent
  EXPECT_EQ(matching.unmatched(), 1U);  // the foreign image
}

TEST(MatchingBackend, RejectsDuplicateInputs) {
  std::vector<Tensor> images = make_images(Shape({1, 2, 2}), 3, 5);
  images.push_back(images[1]);
  EXPECT_THROW(InputIndex index(images), std::runtime_error);
}

TEST(OracleGate, CorruptedOutputIsAFailure) {
  const std::vector<Tensor> images = make_images(Shape({1, 4, 4}), 6, 11);
  // The oracle of an echo is the input itself; image 3 comes back wrong.
  EchoBackend corrupting(&images[3]);
  const std::vector<Outcome> outcomes = serve_echo(corrupting, images);
  Report report;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i], i == 3 ? Outcome::kMismatch : Outcome::kOk) << i;
    tally(report, outcomes[i], true);
  }
  EXPECT_EQ(report.attempted, outcomes.size());
  EXPECT_EQ(report.failed, 1U);
  EXPECT_FALSE(correct(report));
  const std::vector<double> latency(outcomes.size(), 0.0);
  EXPECT_EQ(count_good(outcomes, latency, 1e9), outcomes.size() - 1);

  EXPECT_EQ(classify(Result<Tensor>(images[0]), images[0]), Outcome::kOk);
  EXPECT_EQ(classify(Result<Tensor>(condor::unavailable("queue full")), images[0]),
            Outcome::kRejected);
  EXPECT_EQ(classify(Result<Tensor>(condor::internal_error("boom")), images[0]),
            Outcome::kError);
  Tensor wrong_shape(Shape({1, 2, 8}));
  std::copy(images[0].data().begin(), images[0].data().end(), wrong_shape.data().begin());
  EXPECT_EQ(classify(Result<Tensor>(wrong_shape), images[0]), Outcome::kMismatch);
}

TEST(OracleGate, BackendErrorMakesTheRunNotCorrect) {
  const std::vector<Tensor> images = make_images(Shape({1, 4, 4}), 5, 13);
  EchoBackend failing(nullptr, true);
  Report report;
  for (const Outcome outcome : serve_echo(failing, images)) {
    EXPECT_EQ(outcome, Outcome::kError);
    tally(report, outcome, true);  // errors fail even where refusals may not
  }
  EXPECT_EQ(report.attempted, images.size());
  EXPECT_EQ(report.failed, images.size());
  EXPECT_FALSE(correct(report));
}

TEST(OracleGate, RefusalsFailOnlyWhereNotExpected) {
  Report report;
  tally(report, Outcome::kOk, false);
  tally(report, Outcome::kRejected, true);
  EXPECT_EQ(report.failed, 0U);
  EXPECT_TRUE(correct(report));
  tally(report, Outcome::kRejected, false);
  EXPECT_EQ(report.attempted, 3U);
  EXPECT_EQ(report.failed, 1U);
  EXPECT_FALSE(correct(report));

  Report invalid;
  invalid.valid = false;
  EXPECT_FALSE(correct(invalid));
}

}  // namespace
}  // namespace perfbench
