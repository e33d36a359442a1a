// perfbench: the repository benchmark program.
//
//   perfbench --workload <serve_mixed|batch_offline|compile_cold>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints the workload's own metrics by name with units, then one detail
// record ({"perfbench": {...}}: host context, every metric, set-up times),
// then, as the last line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the gated end-to-end set with --trace 0 and the
// per-layer set with --trace 1 (see BENCHMARK.json). A traced run writes
// its Chrome trace to .bench_out/trace-<workload>-<seed>.json. Exits 1 when
// an operation failed (see Report::failed), 2 on a usage or set-up error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "nn/kernels_simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Gated end-to-end metrics, identical on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics of the traced runs; a layer a workload does not enter
/// reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.backend_ms_p50", "ms"},
    {"serve.demux_p50_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.deadline_batch_share", "ratio"},
    {"serve.backend_busy_share", "ratio"},
    {"serve.rejected.interactive", "count"},
    {"serve.rejected.bulk", "count"},
    {"serve.rejected_overload", "count"},
    {"serve.plan_cache_miss_ms", "ms"},
    {"serve.gen_late_p99_ms", "ms"},
    {"serve.max_rps", "1/s"},
    {"serve.matched_share", "ratio"},
    {"serve.unmatched_images", "count"},
    {"pool.busy_share", "ratio"},
    {"pool.imbalance", "ratio"},
    {"dataflow.run_batch_p50_ms.lenet_f32", "ms"},
    {"dataflow.run_batch_p50_ms.lenet_fixed8", "ms"},
    {"dataflow.run_batch_p50_ms.resnet_f32", "ms"},
    {"dataflow.run_batch_p50_ms.lenet_fused", "ms"},
    {"dataflow.fires_per_image", "count"},
    {"dataflow.suspensions_per_image", "count"},
    {"dataflow.fifo_blocked_per_image", "count"},
    {"dataflow.workers", "count"},
    {"dataflow.cpu_per_wall", "ratio"},
    {"dataflow.images_in_flight_hwm", "count"},
    {"dataflow.fused_local_passes", "count"},
    {"dataflow.weight_bytes_warm", "bytes"},
    {"dataflow.first_run_ms", "ms"},
    {"dataflow.vs_reference", "ratio"},
    {"nn.reference_img_per_s", "1/s"},
    {"nn.quantized_img_per_s", "1/s"},
    {"nn.serialize_ms", "ms"},
    {"frontend.import_ms", "ms"},
    {"hw.dse_ms", "ms"},
    {"hw.dse_points", "count"},
    {"hw.dse_clusterings", "count"},
    {"hw.best_gflops", "GFLOPS"},
    {"hw.plan_ms", "ms"},
    {"hls.codegen_ms", "ms"},
    {"hls.synth_ms", "ms"},
    {"hls.source_bytes", "bytes"},
    {"runtime.package_ms", "ms"},
    {"runtime.load_ms", "ms"},
    {"cloud.s3_put_ms", "ms"},
    {"cloud.afi_ready_ms", "ms"},
    {"cloud.afi_polls", "count"},
    {"condor.host_codegen_ms", "ms"},
    {"frontend.self_ms", "ms"},
    {"condor.self_ms", "ms"},
    {"hw.self_ms", "ms"},
    {"hls.self_ms", "ms"},
    {"runtime.self_ms", "ms"},
    {"cloud.self_ms", "ms"},
    {"dataflow.self_ms", "ms"},
    {"pool.self_ms", "ms"},
    {"nn.self_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.round_coverage", "ratio"},
};

/// JSON has no infinity: a value that is not finite (a tail made of failed
/// requests) is written as 1e9.
std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 1e9);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metric_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string context_object(const RunConfig& config) {
  const char* threads = std::getenv("CONDOR_THREADS");
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"CONDOR_THREADS\": " + json_string(threads != nullptr ? threads : "unset");
  out += ", \"thread_budget\": " + std::to_string(condor::thread_budget());
  out += ", \"simd_level\": " +
         json_string(std::string(condor::nn::kernels::to_string(condor::nn::kernels::active_simd_level())));
  out += ", \"cpu_features\": " + json_string(condor::nn::kernels::cpu_feature_string());
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + json_string(__VERSION__);
  out += ", \"seed\": " + std::to_string(config.seed);
  return out + "}";
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_mixed|batch_offline|compile_cold> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

int run(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0 || !(config.seconds > 0.0)) {
    return usage("bad arguments");
  }
  Report (*workload)(const RunConfig&, Tracer&) = nullptr;
  if (config.workload == "serve_mixed") {
    workload = run_serve_mixed;
  } else if (config.workload == "batch_offline") {
    workload = run_batch_offline;
  } else if (config.workload == "compile_cold") {
    workload = run_compile_cold;
  } else {
    return usage(("unknown workload '" + config.workload + "'").c_str());
  }
  const std::string trace_path = ".bench_out/trace-" + config.workload + "-" +
                                 std::to_string(config.seed) + ".json";

  Tracer tracer(config.trace);
  Report report = workload(config, tracer);
  report.gated["setup_s"] = percentile(report.setup_seconds, 50.0);
  report.gated["peak_rss_mb"] = peak_rss_mb();
  if (config.trace) {
    std::filesystem::create_directories(".bench_out");
    if (!tracer.write_chrome_trace(trace_path)) {
      report.notes.push_back("could not write " + trace_path);
    }
  }

  std::vector<Metric> gated;
  for (const MetricSpec& spec : kEndToEnd) {
    gated.push_back({spec.name, report.gated.at(spec.name), spec.unit});
  }
  std::vector<Metric> layer;
  for (const MetricSpec& spec : kPerLayer) {
    auto it = report.layer.find(spec.name);
    layer.push_back({spec.name, it != report.layer.end() ? it->second : 0.0, spec.unit});
  }
  for (const auto& [name, value] : report.layer) {
    bool known = false;
    for (const MetricSpec& spec : kPerLayer) {
      known = known || name == spec.name;
    }
    if (!known) {
      report.notes.push_back("unlisted per-layer metric " + name);
    }
  }

  const double fail_frac =
      report.attempted > 0
          ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
          : 0.0;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const Metric& m : report.end_to_end) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : gated) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-34s %14.6f (%llu of %llu)\n", "fail_frac", fail_frac,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  if (config.trace) {
    for (const Metric& m : layer) {
      std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("  trace: %s\n", trace_path.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("  note: %s\n", note.c_str());
  }

  std::string setups = "[";
  for (std::size_t i = 0; i < report.setup_seconds.size(); ++i) {
    setups += (i == 0 ? "" : ", ") + number(report.setup_seconds[i]);
  }
  setups += "]";
  std::vector<Metric> detail = report.end_to_end;
  detail.push_back({"fail_frac", fail_frac, "ratio"});
  std::printf(
      "{\"perfbench\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"context\": %s, \"valid\": %s, \"setup_seconds\": %s, \"end_to_end\": %s, "
      "\"gated\": %s, \"per_layer\": %s}}\n",
      json_string(config.workload).c_str(), static_cast<unsigned long long>(config.seed),
      number(config.seconds).c_str(), config.trace ? 1 : 0, context_object(config).c_str(),
      report.valid ? "true" : "false", setups.c_str(), metric_object(detail).c_str(),
      metric_object(gated).c_str(), config.trace ? metric_object(layer).c_str() : "{}");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct(report) ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metric_object(config.trace ? layer : gated).c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
