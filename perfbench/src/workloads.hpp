// The benchmark's workloads and the per-layer probes of the traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "harness.hpp"
#include "infer/engine.hpp"
#include "serve/pipeline.hpp"
#include "serve/registry.hpp"
#include "yield/campaign.hpp"

namespace pncb {

/// Workload parameters. See perfbench/README.md for why each value.
inline constexpr double kEpsilon = 0.1;          ///< printing variation, train and test
inline constexpr int kNTrain = 20;               ///< MC draws per training epoch
inline constexpr int kTrainEpochs = 60;          ///< epochs per train_va operation
/// train_va holds the split and the initial weights fixed (the `pnc train`
/// defaults) and takes its Monte-Carlo draws from the run's seed: a seed-
/// dependent split or start point changes the work per epoch by up to 8%.
inline constexpr std::uint64_t kTrainSplitSeed = 99;
inline constexpr std::uint64_t kTrainInitSeed = 1;
inline constexpr std::uint64_t kYieldSamples = 20000;  ///< samples per yield_mc operation
inline constexpr double kYieldSpec = 0.8;        ///< accuracy a printed copy must reach
inline constexpr int kYieldCrossCheckSamples = 256;
inline constexpr std::size_t kServeBatch = 32;
inline constexpr double kServeDeadlineMs = 2.0;
inline constexpr double kServeRate = 25000.0;      ///< serve probe: batches fill
/// Room for about 0.3 s of arrivals. At the default 1024
/// (41 ms), a hypervisor stall on a 4-vCPU Intel Xeon VM shed requests in
/// 2 of 10 runs.
inline constexpr std::size_t kServeQueueCapacity = 8192;
inline constexpr double kServeWarmupS = 0.25;      ///< arrivals before this are not measured
inline constexpr int kSetupRepsPerOp = 5;          ///< set-ups before each operation

/// A fixed-mode campaign: the exact budget `n`, bit-identical to
/// pnn::estimate_yield at the same (spec, eps, n, seed).
pnc::yield::YieldCampaignOptions campaign_options(std::uint64_t n, std::uint64_t seed);

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string fixtures_dir;
    std::string trace_out;  ///< where the traced run writes its spans ("" = nowhere)
};

bool known_workload(const std::string& name);

/// Run one workload for `config.seconds` and report its end-to-end metrics
/// (untraced) or its per-layer metrics (traced).
Outcome run_workload(const RunConfig& config);

/// The fixture model as `yield_mc` and the serve probe use it: loaded,
/// with its dataset split, and installed (compiled) in a model registry.
struct DeployedModel {
    std::unique_ptr<LoadedSurrogates> surrogates;
    data::SplitDataset split;
    std::unique_ptr<pnc::pnn::Pnn> net;
    std::unique_ptr<pnc::serve::ModelRegistry> registry;
};
/// The set-up of `yield_mc`. Spans: surrogate.load,
/// data.split, pnn.load, serve.install.
DeployedModel load_deployed_model(const Fixtures& fixtures);

/// One request of an open-loop run, as the collector saw it.
struct RequestRecord {
    double latency_ms = 0.0;  ///< completion - due (a failed request: the window length)
    double lag_ms = 0.0;      ///< how late the generator submitted it
    double submit_us = 0.0;   ///< time spent inside ServePipeline::submit
    std::uint64_t batch_seq = 0;
    std::size_t batch_rows = 0;
    bool ok = false;          ///< served, and bitwise equal to Pnn::predict
    bool shed = false;        ///< refused with kQueueFull
};

/// Poisson arrivals at `rate` for kServeWarmupS + `seconds` into a timed-
/// mode pipeline: one generator thread submits each request at its due
/// time, one collector thread waits for the results in order. Latency runs
/// from the due time. Only requests due after the warm-up are returned.
/// With the tracer on, each request records spans (serve.request and its
/// child serve.submit).
std::vector<RequestRecord> run_open_loop(const DeployedModel& model, double rate, double seconds,
                                         std::uint64_t seed);

/// Per-layer metrics shared by every traced run: each layer's public
/// entry points called directly, inside spans, on inputs made from `seed`.
void probe_layers(const Fixtures& fixtures, std::uint64_t seed, Outcome& out);

}  // namespace pncb
