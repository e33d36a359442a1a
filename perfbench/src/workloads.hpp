// The three benchmark workloads. Each drives the library's public API from
// one process, checks every output against the golden oracle and fills in
// a Report; the traced variants also record spans into `tracer`.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Open-loop Poisson arrivals into a serve::Server over an ExecutorPool:
/// an interactive tenant sending single images and a bulk tenant sending
/// 16-image bursts, at fixed low / nominal / overload rates.
Report run_serve_mixed(const RunConfig& config, Tracer& tracer);

/// Closed loop, one caller: rounds of one 32-image run_batch on each of four
/// resident executors (LeNet float32, LeNet fixed8, tiny_resnet float32,
/// LeNet with its feature stage fused onto one PE).
Report run_batch_offline(const RunConfig& config, Tracer& tracer);

/// Closed loop: rounds of compiling models from in-memory bytes with the
/// automated DSE, loading the result and running one image on it.
Report run_compile_cold(const RunConfig& config, Tracer& tracer);

}  // namespace perfbench
