// serve_mixed: an open loop of Poisson arrivals from one generator thread
// into a real serve::Server over a PoolBackend (an ExecutorPool of LeNet
// float32 opened through serve::PlanCache). Two tenants share the server:
// `interactive` submits single images, `bulk` submits 16-image bursts
// through submit_many. Every request carries a distinct seeded image, so
// every output is checked against its own oracle output, and the traced
// run can match each image back to its request inside the backend.
//
// Phases run one after another, each on a fresh Server over the same pool
// and each starting once the previous one has drained:
//   untraced run: low (25% of capacity), then nominal (60%) windows
//                 interleaved with overload (150%) windows;
//   traced run:   nominal untraced, nominal traced (the overhead pair),
//                 a ladder of rates around the knee, overload.
// A phase's images are made from the seed just before it runs and freed
// after it; the whole run keeps only their oracle outputs.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "matching_backend.hpp"
#include "nn/models.hpp"
#include "serve/plan_cache.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace condor;

/// Absolute capacity anchor of the rates, images per second: the most this
/// mix completes on a 4-instance LeNet float32 pool on a 4-vCPU x86 host
/// (AVX-512), measured as the steady completion rate under overload (about
/// 2350-2650 img/s, with full 32-image batches). At `overload` admission
/// control sheds the excess, so the completion rate there is the pool's
/// throughput.
constexpr double kCapacity = 2400.0;
constexpr double kLowRate = 0.25 * kCapacity;
constexpr double kNominalRate = 0.60 * kCapacity;
constexpr double kOverloadRate = 1.50 * kCapacity;
/// Ladder steps around the knee, as shares of kCapacity.
constexpr double kLadder[] = {0.7, 0.8, 0.9, 1.0, 1.1, 1.2};
/// Share of the offered images the interactive tenant sends.
constexpr double kInteractiveShare = 0.5;
constexpr std::size_t kBurst = 16;
/// Latency limit of an interactive request.
constexpr double kLimitMs = 50.0;
constexpr std::size_t kInteractive = 0;
constexpr std::size_t kBulk = 1;
constexpr double kInf = std::numeric_limits<double>::infinity();

serve::ServerOptions server_options() {
  serve::ServerOptions options;
  options.batcher.max_batch = 32;
  options.batcher.preferred_batch = 4;
  options.batcher.max_delay_seconds = 2e-3;
  options.batcher.max_inflight = 1024;
  return options;
}

std::vector<serve::TenantConfig> tenants() {
  return {{"interactive", serve::QosClass::kInteractive, 0, 64},
          {"bulk", serve::QosClass::kBulk, 0, 256}};
}

struct Event {
  double offset_s = 0.0;
  std::size_t tenant = kInteractive;
  std::size_t first = 0;  ///< first request (image) index
  std::size_t count = 1;
};

struct PhaseSpec {
  std::string name;
  double rate = 0.0;  ///< offered images per second, both tenants
  double seconds = 0.0;
  bool traced = false;
};

struct Phase {
  PhaseSpec spec;
  std::vector<Event> events;
  std::size_t first_request = 0;
  std::size_t requests = 0;
};

/// Poisson arrivals per tenant, merged in time order; request indices are
/// handed out in send order.
std::vector<Phase> make_schedule(const std::vector<PhaseSpec>& specs,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Phase> phases;
  std::size_t next = 0;
  for (const PhaseSpec& spec : specs) {
    Phase phase;
    phase.spec = spec;
    const double rates[] = {spec.rate * kInteractiveShare,
                            spec.rate * (1.0 - kInteractiveShare) / kBurst};
    for (std::size_t tenant : {kInteractive, kBulk}) {
      auto gap = [&] { return -std::log(1.0 - rng.next_double()) / rates[tenant]; };
      for (double t = gap(); t < spec.seconds; t += gap()) {
        phase.events.push_back(
            Event{t, tenant, 0, tenant == kBulk ? kBurst : std::size_t{1}});
      }
    }
    std::sort(phase.events.begin(), phase.events.end(),
              [](const Event& a, const Event& b) { return a.offset_s < b.offset_s; });
    phase.first_request = next;
    for (Event& event : phase.events) {
      event.first = next;
      next += event.count;
    }
    phase.requests = next - phase.first_request;
    phases.push_back(std::move(phase));
  }
  return phases;
}

/// Oracle outputs of every request of the run, stored flat: one output
/// shape, `size` values per request.
struct Expected {
  Shape shape;
  std::size_t size = 0;
  std::vector<float> values;

  [[nodiscard]] std::size_t requests() const { return size > 0 ? values.size() / size : 0; }
  [[nodiscard]] Outcome classify(const Result<Tensor>& reply, std::size_t request) const {
    return perfbench::classify(
        reply, shape, std::span<const float>(values).subspan(request * size, size));
  }
};

struct RequestRecord {
  Clock::time_point due;
  Clock::time_point ready;
  std::size_t tenant = kInteractive;
  Outcome outcome = Outcome::kError;
};

/// Waits on one tenant's futures in send order and timestamps each reply.
/// A tenant's replies complete in send order (one backend, per-tenant FIFO
/// queues), so waiting in order does not delay any timestamp.
class Collector {
 public:
  Collector(std::vector<RequestRecord>& records, const Expected& expected)
      : records_(records), expected_(expected), thread_([this] { loop(); }) {}
  ~Collector() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(std::size_t request, std::future<Result<Tensor>> reply) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back(request, std::move(reply));
      ++pushed_;
    }
    cv_.notify_all();
  }

  void wait_drained() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return done_ == pushed_; });
  }

 private:
  void loop() {
    for (;;) {
      std::pair<std::size_t, std::future<Result<Tensor>>> item;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;
        }
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      item.second.wait();
      RequestRecord& record = records_[item.first];
      record.ready = Clock::now();
      record.outcome = expected_.classify(item.second.get(), item.first);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++done_;
      }
      cv_.notify_all();
    }
  }

  std::vector<RequestRecord>& records_;
  const Expected& expected_;
  std::mutex mutex_;  // guards the queue and the counters
  std::condition_variable cv_;
  std::deque<std::pair<std::size_t, std::future<Result<Tensor>>>> queue_;
  std::size_t pushed_ = 0;
  std::size_t done_ = 0;
  bool closed_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

struct State {
  nn::Network network;
  Shape input_shape;
  std::uint64_t image_seed = 0;
  std::unique_ptr<serve::PlanCache> cache;
  std::shared_ptr<serve::PlanCache::Entry> entry;
  std::vector<Phase> phases;
  Expected expected;
  double plan_cache_miss_ms = 0.0;
  double oracle_img_per_s = 0.0;
};

/// The images of phase `p`, one per request, the same on every call.
std::vector<Tensor> phase_images(const State& state, std::size_t p) {
  return make_images(state.input_shape, state.phases[p].requests,
                     state.image_seed + 7919 * p);
}

std::unique_ptr<State> set_up(const RunConfig& config,
                              const std::vector<PhaseSpec>& specs) {
  auto state = std::make_unique<State>();
  state->network = nn::make_lenet();
  nn::WeightStore weights =
      must(nn::initialize_weights(state->network, config.seed), "weights");
  const std::size_t instances =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  state->cache = std::make_unique<serve::PlanCache>();
  const Clock::time_point start = Clock::now();
  state->entry = must(state->cache->get_or_create(state->network, weights,
                                                  nn::DataType::kFloat32, instances),
                      "plan cache miss");
  state->plan_cache_miss_ms = seconds_between(start, Clock::now()) * 1e3;
  auto again = must(state->cache->get_or_create(state->network, weights,
                                                nn::DataType::kFloat32, instances),
                    "plan cache hit");
  if (again != state->entry || state->cache->stats().hits != 1) {
    throw std::runtime_error("plan cache did not return the warm entry");
  }

  state->phases = make_schedule(specs, config.seed * 7919 + 2);
  state->input_shape = must(state->network.input_shape(), "input shape");
  state->image_seed = config.seed * 1000003 + 1;
  std::vector<double> oracle_rates;
  for (std::size_t p = 0; p < state->phases.size(); ++p) {
    const std::vector<Tensor> images = phase_images(*state, p);
    double rate = 0.0;
    for (const Tensor& output : oracle_outputs(state->network, weights,
                                               nn::DataType::kFloat32, images,
                                               thread_budget(), &rate)) {
      state->expected.shape = output.shape();
      state->expected.size = output.size();
      state->expected.values.insert(state->expected.values.end(), output.data().begin(),
                                    output.data().end());
    }
    oracle_rates.push_back(rate);
  }
  state->oracle_img_per_s = percentile(oracle_rates, 50.0);

  // Warm-up: every instance builds its design and latches its weights.
  const std::vector<Tensor> warm =
      make_images(state->input_shape, 16 * instances, config.seed * 31 + 3);
  for (int i = 0; i < 3; ++i) {
    must(state->entry->pool->run_batch(warm), "warm-up");
  }
  return state;
}

struct PhaseResult {
  serve::ServerStats stats;
  Clock::time_point t0;  ///< the phase's time zero (offset 0 of its events)
  std::vector<double> late_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<dataflow::InstanceUtilization> util_before;
  std::vector<dataflow::InstanceUtilization> util_after;
  std::vector<BackendCall> calls;
  std::vector<std::int64_t> call_of;  ///< per request of the phase, in order
  std::size_t unmatched = 0;
};

PhaseResult run_phase(std::size_t p, State& state,
                      std::vector<RequestRecord>& records) {
  const Phase& phase = state.phases[p];
  const std::vector<Tensor> images = phase_images(state, p);
  PhaseResult result;
  serve::PoolBackend pool_backend(state.entry->pool);
  std::optional<InputIndex> index;
  std::optional<MatchingBackend> matching;
  if (phase.spec.traced) {
    index.emplace(images);
    matching.emplace(pool_backend, *index, images.size());
  }
  serve::Backend* backend =
      matching.has_value() ? static_cast<serve::Backend*>(&*matching)
                           : &pool_backend;
  serve::Server server =
      must(serve::Server::create(server_options(), tenants(), {backend}),
           "server");
  result.util_before = state.entry->pool->utilization();
  {
    Collector interactive(records, state.expected);
    Collector bulk(records, state.expected);
    Collector* collectors[] = {&interactive, &bulk};
    result.late_ms.reserve(phase.events.size());
    const double cpu_start = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    result.t0 = t0;
    for (const Event& event : phase.events) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(event.offset_s));
      std::this_thread::sleep_until(due);
      result.late_ms.push_back(seconds_between(due, Clock::now()) * 1e3);
      for (std::size_t i = event.first; i < event.first + event.count; ++i) {
        records[i].due = due;
        records[i].tenant = event.tenant;
      }
      const auto image = images.begin() + static_cast<std::ptrdiff_t>(
                                              event.first - phase.first_request);
      if (event.count == 1) {
        collectors[event.tenant]->push(event.first, server.submit(event.tenant, *image));
      } else {
        std::vector<Tensor> burst(image, image + static_cast<std::ptrdiff_t>(event.count));
        auto replies = server.submit_many(event.tenant, std::move(burst));
        for (std::size_t k = 0; k < replies.size(); ++k) {
          collectors[event.tenant]->push(event.first + k, std::move(replies[k]));
        }
      }
    }
    interactive.wait_drained();
    bulk.wait_drained();
    result.wall_s = seconds_between(t0, Clock::now());
    result.cpu_s = process_cpu_seconds() - cpu_start;
  }
  result.stats = server.stats();
  server.shutdown();
  result.util_after = state.entry->pool->utilization();
  if (matching.has_value()) {
    result.calls = matching->calls();
    result.unmatched = matching->unmatched();
    for (std::size_t k = 0; k < phase.requests; ++k) {
      result.call_of.push_back(matching->call_of(k));
    }
  }
  return result;
}

/// Latencies (ms) of one tenant's requests in a phase; a request that did
/// not complete correctly counts as infinitely late.
std::vector<double> latencies_ms(const Phase& phase,
                                 const std::vector<RequestRecord>& records,
                                 std::size_t tenant) {
  std::vector<double> out;
  for (std::size_t i = phase.first_request;
       i < phase.first_request + phase.requests; ++i) {
    if (records[i].tenant != tenant) {
      continue;
    }
    out.push_back(records[i].outcome == Outcome::kOk
                      ? seconds_between(records[i].due, records[i].ready) * 1e3
                      : kInf);
  }
  return out;
}

std::size_t count_outcome(const Phase& phase,
                          const std::vector<RequestRecord>& records,
                          Outcome outcome, std::optional<std::size_t> tenant = {}) {
  std::size_t n = 0;
  for (std::size_t i = phase.first_request;
       i < phase.first_request + phase.requests; ++i) {
    n += records[i].outcome == outcome &&
         (!tenant.has_value() || records[i].tenant == *tenant);
  }
  return n;
}

/// Interactive requests completed correctly within the limit.
std::size_t good_interactive(const Phase& phase,
                             const std::vector<RequestRecord>& records) {
  std::vector<Outcome> outcomes;
  std::vector<double> latency;
  for (std::size_t i = phase.first_request;
       i < phase.first_request + phase.requests; ++i) {
    if (records[i].tenant == kInteractive) {
      outcomes.push_back(records[i].outcome);
      latency.push_back(seconds_between(records[i].due, records[i].ready) * 1e3);
    }
  }
  return count_good(outcomes, latency, kLimitMs);
}

/// Images completed correctly per second in the steady state of a phase:
/// replies ready between 20% of its sending time and its end, so neither
/// the start (empty queues, idle pool) nor the drain counts.
double steady_completion_rate(const Phase& phase, const PhaseResult& result,
                              const std::vector<RequestRecord>& records) {
  const auto at = [&](double share) {
    return result.t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(share * phase.spec.seconds));
  };
  const Clock::time_point from = at(0.2);
  const Clock::time_point to = at(1.0);
  std::size_t n = 0;
  for (std::size_t i = phase.first_request; i < phase.first_request + phase.requests; ++i) {
    n += records[i].outcome == Outcome::kOk && records[i].ready >= from &&
         records[i].ready < to;
  }
  return static_cast<double>(n) / seconds_between(from, to);
}

/// Busy share and imbalance of the pool's instances over one phase.
void pool_metrics(const PhaseResult& result, std::map<std::string, double>& layer) {
  double busy = 0.0;
  std::vector<double> images;
  for (std::size_t i = 0; i < result.util_after.size(); ++i) {
    busy += result.util_after[i].busy_seconds - result.util_before[i].busy_seconds;
    images.push_back(static_cast<double>(result.util_after[i].images -
                                         result.util_before[i].images));
  }
  const double instances = static_cast<double>(result.util_after.size());
  layer["pool.busy_share"] = busy / (instances * result.wall_s);
  const double mean_images = mean(images);
  layer["pool.imbalance"] =
      mean_images > 0.0
          ? *std::max_element(images.begin(), images.end()) / mean_images - 1.0
          : 0.0;
}

/// Request spans of a traced phase, rebuilt from the reply timestamps and
/// the matched backend calls, plus the per-request latency split.
void trace_requests(const Phase& phase, const PhaseResult& result,
                    const std::vector<RequestRecord>& records, Tracer& tracer,
                    std::map<std::string, double>& layer) {
  std::vector<double> queue_ms;
  std::vector<double> backend_ms;
  std::vector<double> demux_ms;
  std::size_t matched = 0;
  std::size_t completed = 0;
  for (std::size_t k = 0; k < phase.requests; ++k) {
    const std::size_t i = phase.first_request + k;
    const RequestRecord& record = records[i];
    if (record.outcome == Outcome::kRejected) {
      continue;
    }
    ++completed;
    const std::int64_t call = result.call_of[k];
    if (call < 0) {
      continue;
    }
    ++matched;
    const BackendCall& c = result.calls[static_cast<std::size_t>(call)];
    const std::uint64_t request = i + 1;
    const std::int64_t root =
        tracer.add("serve.request", record.due, record.ready, -1, request);
    tracer.add("serve.queue_wait", record.due, c.start, root, request);
    tracer.add("pool.run_batch", c.start, c.end, root, request);
    tracer.add("serve.demux", c.end, record.ready, root, request);
    if (record.tenant == kInteractive) {
      queue_ms.push_back(seconds_between(record.due, c.start) * 1e3);
      backend_ms.push_back(seconds_between(c.start, c.end) * 1e3);
      demux_ms.push_back(seconds_between(c.end, record.ready) * 1e3);
    }
  }
  layer["serve.queue_wait_p50_ms"] = percentile(queue_ms, 50.0);
  layer["serve.queue_wait_p99_ms"] = percentile(queue_ms, 99.0);
  layer["serve.backend_ms_p50"] = percentile(backend_ms, 50.0);
  layer["serve.demux_p50_ms"] = percentile(demux_ms, 50.0);
  layer["serve.matched_share"] =
      completed > 0 ? static_cast<double>(matched) / static_cast<double>(completed)
                    : 0.0;
  double busy = 0.0;
  for (const BackendCall& c : result.calls) {
    busy += seconds_between(c.start, c.end);
  }
  layer["serve.backend_busy_share"] = busy / result.wall_s;
}

}  // namespace

Report run_serve_mixed(const RunConfig& config, Tracer& tracer) {
  // The untraced run interleaves eight short `nominal` windows with eight
  // `overload` windows. On a shared host, stalls (CPU steal) come and go on
  // a scale of seconds and only ever make a window worse, so the run
  // reports each gated figure from its best window.
  const double t = config.seconds;
  std::vector<PhaseSpec> specs;
  if (!config.trace) {
    specs.push_back({"low", kLowRate, 0.1 * t, false});
    for (int block = 0; block < 8; ++block) {
      specs.push_back({"nominal", kNominalRate, 0.09 * t, false});
      specs.push_back({"overload", kOverloadRate, 0.0225 * t, false});
    }
  } else {
    specs = {{"nominal", kNominalRate, 0.2 * t, false},
             {"nominal_traced", kNominalRate, 0.2 * t, true}};
    for (double step : kLadder) {
      specs.push_back({"ladder", step * kCapacity, 0.4 * t / std::size(kLadder), false});
    }
    specs.push_back({"overload", kOverloadRate, 0.2 * t, false});
  }

  Report report;
  std::unique_ptr<State> state = repeat_setup(
      3, report.setup_seconds, [&] { return set_up(config, specs); });
  const std::vector<Phase>& phases = state->phases;
  std::vector<RequestRecord> records(state->expected.requests());
  std::vector<PhaseResult> results;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    results.push_back(run_phase(p, *state, records));
  }

  // Failures: errors and mismatches anywhere; refusals only at the rates
  // meant to stay below capacity (overload and the ladder steps above the
  // knee refuse by design).
  double worst_late_p99 = 0.0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const Phase& phase = phases[p];
    const bool overload = phase.spec.name == "overload";
    const bool refusals_expected = overload || phase.spec.name == "ladder";
    for (std::size_t i = phase.first_request; i < phase.first_request + phase.requests; ++i) {
      tally(report, records[i].outcome, refusals_expected);
    }
    if (overload) {
      report.layer["serve.rejected_overload"] +=
          static_cast<double>(count_outcome(phase, records, Outcome::kRejected));
    }
    worst_late_p99 = std::max(worst_late_p99, percentile(results[p].late_ms, 99.0));
  }
  report.layer["serve.gen_late_p99_ms"] = worst_late_p99;
  if (worst_late_p99 > kLimitMs) {
    report.valid = false;
    report.notes.push_back("generator fell behind its schedule by more than the latency limit");
  }
  report.layer["serve.plan_cache_miss_ms"] = state->plan_cache_miss_ms;
  report.layer["nn.reference_img_per_s"] = state->oracle_img_per_s;

  auto all_of = [&](const std::string& name) {
    std::vector<std::size_t> found;
    for (std::size_t p = 0; p < phases.size(); ++p) {
      if (phases[p].spec.name == name) {
        found.push_back(p);
      }
    }
    if (found.empty()) {
      throw std::runtime_error("no phase " + name);
    }
    return found;
  };
  // Latency per `nominal` window and completion rate per `overload` window;
  // the gated values are the best window's. Goodput at `overload` is pooled
  // over its windows.
  std::vector<double> window_p50;
  std::vector<double> window_tail;
  double tail_pct = kTailLadder[std::size(kTailLadder) - 1];
  std::vector<double> pooled;
  double nominal_s = 0.0;
  double bulk_ok = 0.0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  for (std::size_t p : all_of("nominal")) {
    const std::vector<double> latency = latencies_ms(phases[p], records, kInteractive);
    window_p50.push_back(percentile(latency, 50.0));
    const Tail tail = supported_tail(latency);
    window_tail.push_back(tail.value);
    tail_pct = std::min(tail_pct, tail.percentile);
    pooled.insert(pooled.end(), latency.begin(), latency.end());
    nominal_s += phases[p].spec.seconds;
    bulk_ok += static_cast<double>(count_outcome(phases[p], records, Outcome::kOk, kBulk));
    cpu_s += results[p].cpu_s;
    wall_s += results[p].wall_s;
  }
  double overload_s = 0.0;
  double overload_good = 0.0;
  std::vector<double> window_served;
  for (std::size_t p : all_of("overload")) {
    overload_s += phases[p].spec.seconds;
    overload_good += static_cast<double>(good_interactive(phases[p], records));
    window_served.push_back(steady_completion_rate(phases[p], results[p], records));
  }
  const double p50 = *std::min_element(window_p50.begin(), window_p50.end());
  const double tail = *std::min_element(window_tail.begin(), window_tail.end());
  const double served = *std::max_element(window_served.begin(), window_served.end());
  report.gated["p50_ms"] = p50;
  report.gated["throughput_per_s"] = served;
  report.end_to_end = {
      {"serve_p50_ms", p50, "ms"},
      {"serve_tail_ms", tail, "ms"},
      {"serve_tail_pct", tail_pct, "%"},
      {"serve_windows", static_cast<double>(window_p50.size()), "count"},
      {"serve_p50_pooled_ms", percentile(pooled, 50.0), "ms"},
      {"serve_p99_pooled_ms", percentile(pooled, 99.0), "ms"},
      {"serve_latency_samples", static_cast<double>(pooled.size()), "count"},
      {"serve_overload_img_per_s", served, "1/s"},
      {"serve_goodput_rps", overload_good / overload_s, "1/s"},
      {"bulk_img_per_s", bulk_ok / nominal_s, "1/s"},
  };
  report.layer["dataflow.cpu_per_wall"] = cpu_s / wall_s;
  if (!config.trace) {
    report.end_to_end.push_back(
        {"serve_low_p50_ms",
         percentile(latencies_ms(phases[all_of("low")[0]], records, kInteractive), 50.0),
         "ms"});
    return report;
  }

  // Traced run: per-layer split of the traced nominal phase, the tracing
  // overhead against the untraced nominal phase, and the rate ladder.
  const std::size_t traced = all_of("nominal_traced")[0];
  const PhaseResult& tr = results[traced];
  trace_requests(phases[traced], tr, records, tracer, report.layer);
  pool_metrics(tr, report.layer);
  const double traced_p50 =
      percentile(latencies_ms(phases[traced], records, kInteractive), 50.0);
  report.layer["trace.overhead_frac"] = traced_p50 / p50 - 1.0;
  const auto& batcher = tr.stats.batcher;
  report.layer["serve.batch_size_mean"] =
      batcher.batches_formed > 0 ? static_cast<double>(batcher.requests_batched) /
                                       static_cast<double>(batcher.batches_formed)
                                 : 0.0;
  report.layer["serve.deadline_batch_share"] =
      batcher.batches_formed > 0 ? static_cast<double>(batcher.deadline_batches) /
                                       static_cast<double>(batcher.batches_formed)
                                 : 0.0;
  report.layer["serve.rejected.interactive"] =
      static_cast<double>(tr.stats.tenants[kInteractive].rejected);
  report.layer["serve.rejected.bulk"] =
      static_cast<double>(tr.stats.tenants[kBulk].rejected);
  report.layer["serve.unmatched_images"] = static_cast<double>(tr.unmatched);

  // Highest ladder rate whose interactive tail stays within the limit, with
  // nothing refused and the queue drained within the limit after the last
  // send (no growing backlog).
  double max_rps = 0.0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    if (phases[p].spec.name != "ladder") {
      continue;
    }
    const Tail step = supported_tail(latencies_ms(phases[p], records, kInteractive));
    const bool drained =
        (results[p].wall_s - phases[p].spec.seconds) * 1e3 <= kLimitMs;
    if (step.value <= kLimitMs && drained &&
        count_outcome(phases[p], records, Outcome::kRejected) == 0) {
      max_rps = std::max(max_rps, phases[p].spec.rate);
    }
  }
  report.layer["serve.max_rps"] = max_rps;
  const std::vector<Span> spans = tracer.spans();
  for (const auto& [name, value] :
       layer_self_ms(spans, static_cast<double>(phases[traced].requests), "")) {
    report.layer[name] = value;
  }
  return report;
}

}  // namespace perfbench
