// compile_cold: time from a model file to a first correct result. One
// caller runs rounds; a round compiles four models from in-memory bytes
// with the automated DSE (max_fused 3):
//   lenet_caffe   LeNet from Caffe, on-premise
//   resnet_onnx   tiny_resnet from ONNX, on-premise
//   vgg16_caffe   VGG-16 features from Caffe, on-premise
//   lenet_cloud   LeNet from Caffe as a cloud deployment: S3 staging, AFI
//                 creation and polling, then an F1 slot
// LeNet and tiny_resnet then load the xclbin (runtime::LoadedKernel), load
// the weights and run one image, checked against the oracle; VGG-16 stops
// at a successful load, since one image would take seconds.
//
// The untraced rounds call condorflow::Flow::run. The traced rounds call
// the public stage functions Flow::run calls, in the same order, each in its
// own span, and check that the artifacts they produce are byte-for-byte
// those Flow::run produced in set-up, so the replica cannot drift unseen.
#include <algorithm>
#include <filesystem>
#include <numeric>
#include <optional>
#include <unistd.h>

#include "caffe/export.hpp"
#include "cloud/afi.hpp"
#include "cloud/f1.hpp"
#include "cloud/s3.hpp"
#include "condor/flow.hpp"
#include "condor/host_codegen.hpp"
#include "hls/codegen.hpp"
#include "hls/synthesis.hpp"
#include "hw/accel_plan.hpp"
#include "hw/dse.hpp"
#include "json/json.hpp"
#include "nn/models.hpp"
#include "onnx/export.hpp"
#include "runtime/kernel_runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace condor;

/// Distinct images per runnable model; rounds cycle through them.
constexpr std::size_t kDistinctImages = 8;
constexpr std::size_t kMaxFused = 3;
constexpr int kIngestionPolls = 2;
constexpr int kMaxAfiPolls = 100;

/// What the flow hands to the user: the xclbin, the weight file and the
/// host program.
struct Artifacts {
  std::vector<std::byte> xclbin_bytes;
  std::vector<std::byte> weight_file_bytes;
  std::string host_code;
};

struct Model {
  std::string name;
  condorflow::FrontendInput input;
  bool cloud = false;
  bool run = true;  ///< run one image after loading
  std::vector<Tensor> images;
  std::vector<Tensor> expected;
  /// Flow::run's artifacts, kept by the set-up of a traced run.
  std::optional<Artifacts> flow_artifacts;
};

struct State {
  std::vector<Model> models;
  std::string store_root;
  std::unique_ptr<cloud::ObjectStore> store;
  std::unique_ptr<cloud::AfiService> afi;
  double oracle_img_per_s = 0.0;

  State() = default;
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() {
    std::error_code ec;
    std::filesystem::remove_all(store_root, ec);
  }
};

condorflow::FrontendInput caffe_input(const nn::Network& network,
                                      const nn::WeightStore& weights) {
  condorflow::FrontendInput input;
  input.prototxt_text = must(caffe::to_prototxt(network), "prototxt");
  input.caffemodel_bytes = must(caffe::to_caffemodel(network, weights), "caffemodel");
  return input;
}

condorflow::FlowOptions flow_options(const Model& model) {
  condorflow::FlowOptions options;
  options.run_dse = true;
  options.dse.max_fused = kMaxFused;
  options.deployment = model.cloud ? condorflow::Deployment::kCloud
                                   : condorflow::Deployment::kOnPremise;
  options.s3_bucket = "perfbench-artifacts";
  return options;
}

/// Per-round counts and stage times the traced rounds collect.
struct StageTotals {
  std::map<std::string, double> ms;  ///< by per-layer metric name
  double dse_points = 0.0;
  double dse_clusterings = 0.0;
  double best_gflops = 0.0;  ///< of VGG-16 features
  double source_bytes = 0.0;
  double afi_polls = 0.0;
};

/// Adds the wall time of `fn` to `totals[metric]` inside a span `span`.
template <typename Fn>
auto staged(Tracer& tracer, StageTotals& totals, const std::string& span,
            const std::string& metric, std::uint64_t request, Fn&& fn) {
  Tracer::Scope scope(tracer, span, request);
  const Clock::time_point start = Clock::now();
  auto result = fn();
  totals.ms[metric] += seconds_between(start, Clock::now()) * 1e3;
  return result;
}

/// Flow::run's stage sequence, one span per public call.
condorflow::FlowResult traced_flow(const Model& model, State& state,
                                   Tracer& tracer, StageTotals& totals,
                                   std::uint64_t request) {
  const condorflow::FlowOptions options = flow_options(model);
  condorflow::FlowResult result;
  auto analyzed = staged(tracer, totals, "frontend.analyze_input", "frontend.import_ms",
                         request, [&] { return must(condorflow::analyze_input(model.input),
                                                    "analyze_input"); });
  result.network = std::move(analyzed.first);
  result.weights = std::move(analyzed.second);

  hw::DseOptions dse_options = options.dse;
  hls::SynthesisOptions synthesis_options = options.synthesis;
  if (nn::is_fixed_point(result.network.hw.data_type)) {
    dse_options.cost = hw::cost_model_for(result.network.hw.data_type);
    dse_options.timing = hw::timing_model_for(result.network.hw.data_type);
    synthesis_options.cost = dse_options.cost;
    synthesis_options.timing = dse_options.timing;
  }
  hw::DseResult dse = staged(tracer, totals, "hw.explore", "hw.dse_ms", request, [&] {
    return must(hw::explore(result.network, dse_options), "explore");
  });
  totals.dse_points += static_cast<double>(dse.points_evaluated);
  totals.dse_clusterings += static_cast<double>(dse.clusterings_explored);
  if (model.name == "vgg16_caffe") {
    totals.best_gflops = dse.best.gflops();
  }
  result.network = std::move(dse.best.config);

  result.plan = staged(tracer, totals, "hw.plan_accelerator", "hw.plan_ms", request, [&] {
    return must(hw::plan_accelerator(result.network), "plan");
  });
  result.sources = staged(tracer, totals, "hls.generate_all_sources", "hls.codegen_ms",
                          request, [&] {
                            return must(hls::generate_all_sources(result.plan), "codegen");
                          });
  for (const hls::GeneratedSource& source : result.sources) {
    totals.source_bytes += static_cast<double>(source.code.size());
  }
  result.synthesis = staged(tracer, totals, "hls.synthesize", "hls.synth_ms", request, [&] {
    return must(hls::synthesize(result.plan, synthesis_options), "synthesize");
  });

  result.kernel_name = result.network.net.name() + "_top";
  staged(tracer, totals, "runtime.package_xclbin", "runtime.package_ms", request, [&] {
    result.xclbin.set_text_section("network.json", hw::to_json_text(result.network));
    result.xclbin.set_text_section("kernel.xml",
                                   runtime::generate_kernel_xml(result.kernel_name));
    result.xclbin.set_text_section("synth.rpt",
                                   result.synthesis.to_string(result.plan.board));
    json::Object meta;
    meta.set("generator", "condor");
    meta.set("network", result.network.net.name());
    meta.set("board", result.network.hw.board_id);
    meta.set("kernel", result.kernel_name);
    meta.set("target_mhz", result.network.hw.target_frequency_mhz);
    meta.set("achieved_mhz", result.synthesis.achieved_clock_mhz);
    meta.set("data_type", std::string(nn::to_string(result.network.hw.data_type)));
    result.xclbin.set_text_section("meta.json", json::dump(json::Value(std::move(meta))));
    for (const hls::GeneratedSource& source : result.sources) {
      result.xclbin.set_text_section("src/" + source.file_name, source.code);
    }
    result.xclbin_bytes = result.xclbin.serialize();
    return 0;
  });
  result.weight_file_bytes =
      staged(tracer, totals, "nn.serialize_weights", "nn.serialize_ms", request,
             [&] { return result.weights.serialize(); });
  result.host_code = staged(tracer, totals, "condor.host_codegen", "condor.host_codegen_ms",
                            request, [&] {
                              return condorflow::generate_host_code(result.network,
                                                                    result.kernel_name);
                            });
  if (model.cloud) {
    const std::string key = result.network.net.name() + "/accelerator.xclbin";
    staged(tracer, totals, "cloud.s3_put", "cloud.s3_put_ms", request, [&] {
      must(state.store->create_bucket(options.s3_bucket), "create bucket");
      must(state.store->put_object(options.s3_bucket, key, result.xclbin_bytes), "put");
      return 0;
    });
    result.afi = staged(tracer, totals, "cloud.create_fpga_image", "cloud.afi_ready_ms",
                        request, [&] {
                          return must(state.afi->create_fpga_image(
                                          result.network.net.name(),
                                          "Condor-generated CNN accelerator for " +
                                              result.network.net.name(),
                                          options.s3_bucket, key),
                                      "create_fpga_image");
                        });
  }
  return result;
}

struct RoundResult {
  std::vector<double> model_ms;
  std::uint64_t attempted = 0;
  std::uint64_t mismatches = 0;
};

/// One round. With tracing off the flow is Flow::run; with it on, the
/// stage-by-stage replica above, whose artifacts must equal the kept ones.
/// `keep_artifacts` keeps this round's (Flow::run's) artifacts instead.
RoundResult run_round(State& state, std::size_t round, Tracer& tracer,
                      StageTotals& totals, bool keep_artifacts = false) {
  RoundResult result;
  const std::uint64_t request = round + 1;
  Tracer::Scope round_span(tracer, "bench.round", request);
  for (Model& model : state.models) {
    const Clock::time_point start = Clock::now();
    condorflow::FlowResult flow;
    {
      Tracer::Scope flow_span(tracer, "condor.flow." + model.name, request);
      flow = tracer.enabled()
                 ? traced_flow(model, state, tracer, totals, request)
                 : must(condorflow::Flow::run(model.input, flow_options(model),
                                              state.store.get(), state.afi.get()),
                        "Flow::run " + model.name);
    }
    runtime::LoadedKernel* kernel = nullptr;
    std::optional<runtime::LoadedKernel> local;
    std::optional<cloud::F1Instance> instance;
    if (model.cloud) {
      // Poll the AFI as `aws ec2 describe-fpga-images` would, then program
      // slot 0 of an f1.2xlarge.
      const cloud::AfiRecord afi = staged(
          tracer, totals, "cloud.describe_fpga_image", "cloud.afi_ready_ms", request, [&] {
            for (int poll = 0; poll < kMaxAfiPolls; ++poll) {
              totals.afi_polls += 1.0;
              cloud::AfiRecord record =
                  must(state.afi->describe_fpga_image(flow.afi->afi_id), "describe");
              if (record.state != cloud::AfiState::kPending) {
                return record;
              }
            }
            throw std::runtime_error("AFI " + flow.afi->afi_id + " still pending");
          });
      if (afi.state != cloud::AfiState::kAvailable) {
        throw std::runtime_error("AFI " + afi.afi_id + " failed");
      }
      instance.emplace(cloud::F1InstanceType::k2xlarge, *state.afi);
      kernel = staged(tracer, totals, "cloud.load_afi", "runtime.load_ms", request, [&] {
        must(instance->load_afi(0, afi.agfi_id), "load_afi");
        return must(instance->slot_kernel(0), "slot_kernel");
      });
    } else {
      local.emplace(staged(tracer, totals, "runtime.from_xclbin", "runtime.load_ms",
                           request, [&] {
                             return must(runtime::LoadedKernel::from_xclbin(flow.xclbin),
                                         "from_xclbin");
                           }));
      kernel = &*local;
    }
    if (model.run) {
      staged(tracer, totals, "runtime.load_weights", "runtime.load_ms", request, [&] {
        must(kernel->load_weights(flow.weight_file_bytes), "load_weights");
        return 0;
      });
      const std::size_t i = round % model.images.size();
      std::vector<Tensor> outputs =
          staged(tracer, totals, "dataflow.first_run", "dataflow.first_run_ms", request,
                 [&] {
                   return must(kernel->run(std::span<const Tensor>(&model.images[i], 1)),
                               "run " + model.name);
                 });
      ++result.attempted;
      result.mismatches += outputs.size() != 1 || !same_bytes(outputs[0], model.expected[i]);
    } else {
      ++result.attempted;  // the load itself is the checked outcome
    }
    if (keep_artifacts) {
      model.flow_artifacts = Artifacts{std::move(flow.xclbin_bytes),
                                       std::move(flow.weight_file_bytes),
                                       std::move(flow.host_code)};
    } else if (tracer.enabled()) {
      Tracer::Scope check(tracer, "bench.check", request);
      ++result.attempted;
      result.mismatches += !model.flow_artifacts.has_value() ||
                           flow.xclbin_bytes != model.flow_artifacts->xclbin_bytes ||
                           flow.weight_file_bytes != model.flow_artifacts->weight_file_bytes ||
                           flow.host_code != model.flow_artifacts->host_code;
      flow.weight_file_bytes = {};  // freed inside the check span
      flow.xclbin_bytes = {};
    }
    result.model_ms.push_back(seconds_between(start, Clock::now()) * 1e3);
  }
  return result;
}

std::unique_ptr<State> set_up(const RunConfig& config) {
  auto state = std::make_unique<State>();
  state->store_root = ".bench_out/s3-" + std::to_string(::getpid());
  state->store = std::make_unique<cloud::ObjectStore>(state->store_root);
  state->afi = std::make_unique<cloud::AfiService>(*state->store, kIngestionPolls);

  const nn::Network lenet = nn::make_lenet();
  const nn::Network resnet = nn::make_tiny_resnet();
  const nn::Network vgg = nn::make_vgg16().feature_extraction_prefix();
  const nn::WeightStore lenet_w = must(nn::initialize_weights(lenet, config.seed), "weights");
  const nn::WeightStore resnet_w =
      must(nn::initialize_weights(resnet, config.seed + 1), "weights");
  const nn::WeightStore vgg_w = must(nn::initialize_weights(vgg, config.seed + 2), "weights");

  auto runnable = [&](std::string name, condorflow::FrontendInput input,
                      const nn::Network& network, const nn::WeightStore& weights,
                      bool cloud, std::uint64_t salt) {
    Model model{std::move(name), std::move(input), cloud, true, {}, {}, {}};
    model.images = make_images(must(network.input_shape(), "shape"), kDistinctImages,
                               config.seed * 1000003 + salt);
    model.expected = oracle_outputs(network, weights, nn::DataType::kFloat32,
                                    model.images, 1, &state->oracle_img_per_s);
    return model;
  };
  condorflow::FrontendInput resnet_input;
  resnet_input.onnx_bytes = must(onnx::to_onnx(resnet, resnet_w), "onnx export");
  state->models.push_back(
      runnable("lenet_caffe", caffe_input(lenet, lenet_w), lenet, lenet_w, false, 1));
  state->models.push_back(
      runnable("resnet_onnx", std::move(resnet_input), resnet, resnet_w, false, 2));
  state->models.push_back(Model{"vgg16_caffe", caffe_input(vgg, vgg_w), false, false, {}, {}, {}});
  state->models.push_back(
      runnable("lenet_cloud", caffe_input(lenet, lenet_w), lenet, lenet_w, true, 3));

  // Warm-up round: first-touch page faults and lazy statics, not compiles
  // (every round compiles from scratch). A traced run keeps its artifacts.
  Tracer off(false);
  StageTotals ignored;
  const RoundResult warm = run_round(*state, 0, off, ignored, config.trace);
  if (warm.mismatches != 0) {
    throw std::runtime_error("compile_cold warm-up round does not match the oracle");
  }
  return state;
}

struct LoopResult {
  std::vector<double> round_ms;
  std::vector<std::vector<double>> model_ms;
  std::uint64_t attempted = 0;
  std::uint64_t mismatches = 0;
  StageTotals totals;
};

LoopResult run_rounds(State& state, double seconds, Tracer& tracer) {
  LoopResult result;
  result.model_ms.resize(state.models.size());
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t round = 1; Clock::now() < stop || round <= 2; ++round) {
    const Clock::time_point start = Clock::now();
    RoundResult r = run_round(state, round, tracer, result.totals);
    result.round_ms.push_back(seconds_between(start, Clock::now()) * 1e3);
    for (std::size_t m = 0; m < r.model_ms.size(); ++m) {
      result.model_ms[m].push_back(r.model_ms[m]);
    }
    result.attempted += r.attempted;
    result.mismatches += r.mismatches;
  }
  return result;
}

}  // namespace

Report run_compile_cold(const RunConfig& config, Tracer& tracer) {
  Report report;
  std::unique_ptr<State> state =
      repeat_setup(3, report.setup_seconds, [&] { return set_up(config); });

  Tracer off(false);
  const LoopResult main =
      run_rounds(*state, config.trace ? config.seconds / 2 : config.seconds, off);
  report.attempted = main.attempted;
  report.failed = main.mismatches;

  const double p50 = percentile(main.round_ms, 50.0);
  const Tail tail = supported_tail(main.round_ms);
  const double total_ms = std::accumulate(main.round_ms.begin(), main.round_ms.end(), 0.0);
  report.gated["p50_ms"] = p50;
  report.gated["throughput_per_s"] =
      static_cast<double>(main.round_ms.size() * state->models.size()) / (total_ms / 1e3);
  report.end_to_end.push_back({"compile_p50_ms", p50, "ms"});
  report.end_to_end.push_back({"compile_tail_ms", tail.value, "ms"});
  report.end_to_end.push_back({"compile_tail_pct", tail.percentile, "%"});
  report.end_to_end.push_back({"compile_rounds", static_cast<double>(tail.samples), "count"});
  for (std::size_t m = 0; m < state->models.size(); ++m) {
    report.end_to_end.push_back({"compile_" + state->models[m].name + "_p50_ms",
                                 percentile(main.model_ms[m], 50.0), "ms"});
  }
  if (!config.trace) {
    return report;
  }

  const LoopResult traced = run_rounds(*state, config.seconds / 2, tracer);
  report.attempted += traced.attempted;
  report.failed += traced.mismatches;
  const double rounds = static_cast<double>(traced.round_ms.size());
  for (const auto& [name, ms] : traced.totals.ms) {
    report.layer[name] = ms / rounds;
  }
  report.layer["hw.dse_points"] = traced.totals.dse_points / rounds;
  report.layer["hw.dse_clusterings"] = traced.totals.dse_clusterings / rounds;
  report.layer["hw.best_gflops"] = traced.totals.best_gflops;
  report.layer["hls.source_bytes"] = traced.totals.source_bytes / rounds;
  report.layer["cloud.afi_polls"] = traced.totals.afi_polls / rounds;
  report.layer["nn.reference_img_per_s"] = state->oracle_img_per_s;
  report.layer["trace.overhead_frac"] = percentile(traced.round_ms, 50.0) / p50 - 1.0;

  // Coverage: the share of the traced rounds' wall time inside stage spans,
  // i.e. not in the self time of the round or of a flow span. The artifact
  // check is the benchmark's own work and counts on neither side.
  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = self_times_us(spans);
  double round_us = 0.0;
  double uncovered_us = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "bench.round") {
      round_us += spans[i].end_us - spans[i].start_us;
      uncovered_us += self[i];
    } else if (spans[i].name == "bench.check") {
      round_us -= spans[i].end_us - spans[i].start_us;
    } else if (spans[i].name.rfind("condor.flow.", 0) == 0) {
      uncovered_us += self[i];
    }
  }
  report.layer["trace.round_coverage"] = round_us > 0.0 ? 1.0 - uncovered_us / round_us : 0.0;
  for (const auto& [name, value] : layer_self_ms(spans, rounds, "bench")) {
    report.layer[name] = value;
  }
  return report;
}

}  // namespace perfbench
