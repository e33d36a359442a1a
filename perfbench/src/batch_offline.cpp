// batch_offline: the resident-accelerator throughput case. One caller runs
// rounds; a round is one 32-image run_batch on each of four resident
// single-instance executors at the default worker count:
//   lenet_f32    LeNet, float32 datapath
//   lenet_fixed8 LeNet, fixed8 datapath (integer MAC kernels, requantization)
//   resnet_f32   tiny_resnet, float32 (DAG joins and broadcasts)
//   lenet_fused  LeNet with its whole feature stage fused onto one PE (the
//                PE-local fused-pass path)
// The four use the same layer in different ways, so a gain on one that costs
// another shows up.
#include <algorithm>
#include <numeric>

#include "common/thread_pool.hpp"
#include "dataflow/executor.hpp"
#include "hw/accel_plan.hpp"
#include "hw/hw_ir.hpp"
#include "nn/models.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace condor;

constexpr std::size_t kBatch = 32;
/// Distinct batches per configuration; rounds cycle through them.
constexpr std::size_t kDistinctBatches = 4;

struct Config {
  std::string name;
  nn::Network network;
  nn::DataType type = nn::DataType::kFloat32;
  bool fuse_features = false;
};

std::vector<Config> configs() {
  return {{"lenet_f32", nn::make_lenet(), nn::DataType::kFloat32, false},
          {"lenet_fixed8", nn::make_lenet(), nn::DataType::kFixed8, false},
          {"resnet_f32", nn::make_tiny_resnet(), nn::DataType::kFloat32, false},
          {"lenet_fused", nn::make_lenet(), nn::DataType::kFloat32, true}};
}

struct Resident {
  std::string name;
  std::unique_ptr<dataflow::AcceleratorExecutor> executor;
  std::vector<std::vector<Tensor>> batches;
  std::vector<std::vector<Tensor>> expected;
  double oracle_img_per_s = 0.0;
};

struct State {
  std::vector<Resident> residents;
};

std::unique_ptr<State> set_up(const RunConfig& config) {
  auto state = std::make_unique<State>();
  std::uint64_t salt = 0;
  for (Config& c : configs()) {
    ++salt;
    Resident resident;
    resident.name = c.name;
    nn::WeightStore weights =
        must(nn::initialize_weights(c.network, config.seed + salt), "weights");
    hw::HwNetwork hw_net = hw::with_default_annotations(c.network);
    hw_net.hw.data_type = c.type;
    if (c.fuse_features) {
      for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
        if (!c.network.layers()[i].is_feature_extraction()) {
          break;
        }
        hw_net.hw.layers[i].pe_group = 0;
      }
    }
    hw::AcceleratorPlan plan = must(hw::plan_accelerator(hw_net), "plan " + c.name);
    resident.executor = std::make_unique<dataflow::AcceleratorExecutor>(
        must(dataflow::AcceleratorExecutor::create(std::move(plan), weights),
             "executor " + c.name));

    const Shape shape = must(c.network.input_shape(), "input shape");
    const std::vector<Tensor> images = make_images(
        shape, kBatch * kDistinctBatches, config.seed * 1000003 + 17 * salt);
    // The oracle's per-thread rate bounds what the executor should reach.
    const std::vector<Tensor> outputs = oracle_outputs(
        c.network, weights, c.type, images, thread_budget(), &resident.oracle_img_per_s);
    for (std::size_t b = 0; b < kDistinctBatches; ++b) {
      resident.batches.emplace_back(images.begin() + b * kBatch,
                                    images.begin() + (b + 1) * kBatch);
      resident.expected.emplace_back(outputs.begin() + b * kBatch,
                                     outputs.begin() + (b + 1) * kBatch);
    }
    // Warm-up: builds the design and latches the resident weights.
    for (int i = 0; i < 2; ++i) {
      must(resident.executor->run_batch(resident.batches[0]), "warm-up " + c.name);
    }
    state->residents.push_back(std::move(resident));
  }
  return state;
}

/// Counters of the executors' most recent runs, summed over a loop.
struct Counters {
  double fires = 0.0;
  double suspensions = 0.0;
  double fifo_blocked = 0.0;
  double weight_bytes = 0.0;
  double hwm = 0.0;
  double fused_local_passes = 0.0;
  double workers = 0.0;
  double images = 0.0;

  void add(const dataflow::RunStats& stats, std::size_t batch) {
    for (const auto& m : stats.module_stats) {
      fires += static_cast<double>(m.fires);
      suspensions += static_cast<double>(m.blocked);
    }
    for (const auto& s : stats.stream_stats) {
      fifo_blocked += static_cast<double>(s.blocked_reads + s.blocked_writes);
    }
    weight_bytes += static_cast<double>(stats.weight_bytes_streamed);
    hwm = std::max(hwm, static_cast<double>(stats.images_in_flight_hwm));
    fused_local_passes =
        std::max(fused_local_passes, static_cast<double>(stats.fused_local_passes));
    workers = std::max(workers, static_cast<double>(stats.workers));
    images += static_cast<double>(batch);
  }
};

struct LoopResult {
  std::vector<double> round_ms;
  std::vector<std::vector<double>> call_ms;  ///< per configuration
  double cpu_s = 0.0;
  double busy_s = 0.0;
  Counters counters;
  std::uint64_t attempted = 0;
  std::uint64_t mismatches = 0;
};

/// Runs rounds for `seconds`. With `tracer` on, each round and call is a span.
LoopResult run_rounds(State& state, double seconds, Tracer& tracer) {
  LoopResult result;
  result.call_ms.resize(state.residents.size());
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t round = 0; Clock::now() < stop || round < 2; ++round) {
    const std::size_t b = round % kDistinctBatches;
    Tracer::Scope round_span(tracer, "bench.round", round + 1);
    double round_ms = 0.0;
    std::vector<std::vector<Tensor>> outputs;
    for (std::size_t r = 0; r < state.residents.size(); ++r) {
      Resident& resident = state.residents[r];
      const double cpu_start = process_cpu_seconds();
      const Clock::time_point start = Clock::now();
      Result<std::vector<Tensor>> out = [&] {
        Tracer::Scope span(tracer, "dataflow.run_batch." + resident.name, round + 1);
        return resident.executor->run_batch(resident.batches[b]);
      }();
      const double ms = seconds_between(start, Clock::now()) * 1e3;
      result.cpu_s += process_cpu_seconds() - cpu_start;
      result.busy_s += ms / 1e3;
      round_ms += ms;
      result.call_ms[r].push_back(ms);
      must(out.status(), "run_batch " + resident.name);
      result.counters.add(resident.executor->last_run_stats(), kBatch);
      outputs.push_back(std::move(out.value()));
    }
    result.round_ms.push_back(round_ms);
    // The oracle gate sits outside the timed calls.
    Tracer::Scope check(tracer, "bench.check", round + 1);
    for (std::size_t r = 0; r < state.residents.size(); ++r) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        ++result.attempted;
        result.mismatches += i >= outputs[r].size() ||
                             !same_bytes(outputs[r][i], state.residents[r].expected[b][i]);
      }
    }
  }
  return result;
}

}  // namespace

Report run_batch_offline(const RunConfig& config, Tracer& tracer) {
  Report report;
  std::unique_ptr<State> state =
      repeat_setup(3, report.setup_seconds, [&] { return set_up(config); });

  Tracer off(false);
  const LoopResult main =
      run_rounds(*state, config.trace ? config.seconds / 2 : config.seconds, off);
  report.attempted = main.attempted;
  report.failed = main.mismatches;

  const Tail tail = supported_tail(main.round_ms);
  const double p50 = percentile(main.round_ms, 50.0);
  double images = 0.0;
  for (std::size_t r = 0; r < state->residents.size(); ++r) {
    const double total_ms = std::accumulate(main.call_ms[r].begin(), main.call_ms[r].end(), 0.0);
    const double img_per_s =
        static_cast<double>(main.call_ms[r].size() * kBatch) / (total_ms / 1e3);
    report.end_to_end.push_back({state->residents[r].name + "_img_per_s", img_per_s, "1/s"});
    report.layer["dataflow.run_batch_p50_ms." + state->residents[r].name] =
        percentile(main.call_ms[r], 50.0);
    images += static_cast<double>(main.call_ms[r].size() * kBatch);
  }
  report.gated["p50_ms"] = p50;
  report.gated["throughput_per_s"] = images / main.busy_s;
  report.end_to_end.push_back({"batch_round_p50_ms", p50, "ms"});
  report.end_to_end.push_back({"batch_round_tail_ms", tail.value, "ms"});
  report.end_to_end.push_back({"batch_round_tail_pct", tail.percentile, "%"});
  report.end_to_end.push_back({"batch_rounds", static_cast<double>(tail.samples), "count"});

  const Counters& c = main.counters;
  report.layer["dataflow.fires_per_image"] = c.fires / c.images;
  report.layer["dataflow.suspensions_per_image"] = c.suspensions / c.images;
  report.layer["dataflow.fifo_blocked_per_image"] = c.fifo_blocked / c.images;
  report.layer["dataflow.workers"] = c.workers;
  report.layer["dataflow.cpu_per_wall"] = main.cpu_s / main.busy_s;
  report.layer["dataflow.images_in_flight_hwm"] = c.hwm;
  report.layer["dataflow.fused_local_passes"] = c.fused_local_passes;
  report.layer["dataflow.weight_bytes_warm"] = c.weight_bytes;
  report.layer["nn.reference_img_per_s"] = state->residents[0].oracle_img_per_s;
  report.layer["nn.quantized_img_per_s"] = state->residents[1].oracle_img_per_s;
  report.layer["dataflow.vs_reference"] =
      report.end_to_end[0].value / state->residents[0].oracle_img_per_s;
  if (!config.trace) {
    return report;
  }

  const LoopResult traced = run_rounds(*state, config.seconds / 2, tracer);
  report.attempted += traced.attempted;
  report.failed += traced.mismatches;
  report.layer["trace.overhead_frac"] = percentile(traced.round_ms, 50.0) / p50 - 1.0;
  const std::vector<Span> spans = tracer.spans();
  for (const auto& [name, value] :
       layer_self_ms(spans, static_cast<double>(traced.round_ms.size()), "bench")) {
    report.layer[name] = value;
  }
  return report;
}

}  // namespace perfbench
