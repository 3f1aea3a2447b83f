// Per-layer probes of the traced run. Each probe calls one layer's public
// entry points directly, inside spans, on inputs made from the run's seed;
// the metrics are read back from those spans plus exact counts taken from
// prof::AllocGuard and a walk of the autodiff graph. Every traced run makes
// the same probes, so every per-layer metric exists for every workload.
#include <algorithm>
#include <array>
#include <set>
#include <unordered_set>

#include "autodiff/optimizer.hpp"
#include "circuit/variation.hpp"
#include "data/registry.hpp"
#include "fit/ptanh_fit.hpp"
#include "pnn/training.hpp"
#include "prof/alloc_hooks.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads.hpp"
#include "yield/campaign.hpp"

namespace pncb {

namespace ad = pnc::ad;
namespace pnn = pnc::pnn;
using pnc::circuit::NonlinearCircuitKind;
using pnc::math::Matrix;

namespace {

constexpr int kRepeats = 9;             ///< set-up style calls, reported as a median
constexpr int kCircuitsPerKind = 32;    ///< circuit sweeps + curve fits per kind
constexpr int kAutodiffSteps = 8;       ///< hand-driven training steps
constexpr int kTrainProbeEpochs = 50;   ///< train_pnn call counted for allocations
constexpr int kInferSamples = 1000;     ///< Monte-Carlo samples through the compiled plan
constexpr int kPredictCalls = 2000;     ///< nominal 32-row batches
constexpr std::uint64_t kOneThreadSamples = 8192;
constexpr double kServeProbeSeconds = 1.0;

/// Distinct nodes reachable from `root` through ad::Node::parents.
std::size_t count_nodes(const ad::Var& root) {
    std::unordered_set<const ad::Node*> seen;
    std::vector<const ad::Node*> stack{root.node().get()};
    while (!stack.empty()) {
        const ad::Node* node = stack.back();
        stack.pop_back();
        if (!seen.insert(node).second) continue;
        for (const auto& parent : node->parents) stack.push_back(parent.get());
    }
    return seen.size();
}

/// Spans of the probe window only (set-up and workload spans excluded).
class Window {
public:
    Window() : start_ns_(Tracer::global().to_ns(Clock::now())) {}

    std::vector<Span> spans() const {
        std::vector<Span> inside;
        for (const Span& s : Tracer::global().collect())
            if (s.start_ns >= start_ns_) inside.push_back(s);
        return inside;
    }

private:
    std::int64_t start_ns_;
};

}  // namespace

void probe_layers(const Fixtures& fixtures, std::uint64_t seed, Outcome& out) {
    const Window window;
    const pnc::circuit::VariationModel variation(kEpsilon);

    // data, surrogate load: set-up calls, repeated.
    for (int i = 0; i < kRepeats; ++i) {
        SpanScope span("data.split");
        pnc::data::split_and_normalize(pnc::data::make_dataset("tictactoe_endgame"), seed);
    }
    for (int i = 0; i < kRepeats; ++i) load_surrogates(fixtures);

    // circuit + fit: the two stages of one surrogate-dataset sample.
    const auto space = surrogate::DesignSpace::table1();
    const SurrogateConfig& sconfig = fixtures.surrogate_config();
    pnc::math::Rng design_rng(seed);
    int converged = 0;
    for (int i = 0; i < kCircuitsPerKind; ++i) {
        for (auto kind : {NonlinearCircuitKind::kPtanh, NonlinearCircuitKind::kNegativeWeight}) {
            std::array<double, surrogate::DesignSpace::kDimension> unit{};
            for (double& u : unit) u = design_rng.uniform();
            const auto omega = space.sample(unit);
            pnc::circuit::CharacteristicCurve curve;
            {
                SpanScope span("circuit.simulate_characteristic");
                curve = pnc::circuit::simulate_characteristic(omega, kind, sconfig.sweep_points);
            }
            SpanScope span("fit.fit_ptanh");
            converged += pnc::fit::fit_ptanh(curve, kind).converged ? 1 : 0;
        }
    }

    // surrogate: one full build of both kinds.
    pnc::prof::AllocStats surrogate_allocs;
    const SurrogatePair pair = fit_surrogates(sconfig, seed, &surrogate_allocs);
    out.check(surrogates_ok(pair));
    double r2_min = 1.0;
    for (const auto* m : {&pair.act_metrics, &pair.neg_metrics})
        for (double r2 : m->test_r2) r2_min = std::min(r2_min, r2);
    const int surrogate_epochs = pair.act_metrics.epochs_run + pair.neg_metrics.epochs_run;

    // pnn + autodiff: the train_va epoch step driven by hand, phase by phase.
    const auto surrogates = load_surrogates(fixtures);
    const auto split = pnc::data::split_and_normalize(
        pnc::data::make_dataset("tictactoe_endgame"), kTrainSplitSeed);
    const std::vector<std::size_t> topology{split.n_features(), 3,
                                            static_cast<std::size_t>(split.n_classes)};
    const pnn::TrainOptions defaults;
    std::size_t nodes_per_step = 0;
    {
        pnc::math::Rng init(kTrainInitSeed);
        pnn::Pnn net(topology, &surrogates->act, &surrogates->neg, space, init);
        ad::Adam adam({{net.theta_params(), defaults.lr_theta},
                       {net.omega_params(), defaults.lr_omega}});
        const ad::Var x = ad::constant(split.x_train);
        pnc::math::Rng rng(seed);
        for (int step = 0; step < kAutodiffSteps; ++step) {
            adam.zero_grad();
            std::vector<pnc::math::Rng> streams = rng.split_n(kNTrain);
            std::vector<pnn::NetworkVariation> factors(kNTrain);
            for (int s = 0; s < kNTrain; ++s) {
                SpanScope span("pnn.sample_variation");
                factors[s] = net.sample_variation(variation, streams[s]);
            }
            ad::Var loss;
            {
                SpanScope span("ad.forward");
                std::vector<ad::Var> losses(kNTrain);
                pnc::runtime::parallel_for(kNTrain, [&](std::size_t s) {
                    losses[s] = pnn::classification_loss(net.forward(x, &factors[s]),
                                                         split.y_train, defaults.loss,
                                                         defaults.margin);
                });
                ad::Var total = losses[0];
                for (int s = 1; s < kNTrain; ++s) total = ad::add(total, losses[s]);
                loss = ad::mul_scalar(total, 1.0 / kNTrain);
            }
            if (step == 0) nodes_per_step = count_nodes(loss);
            {
                SpanScope span("ad.backward");
                ad::backward(loss);
            }
            SpanScope span("ad.adam_step");
            adam.step();
        }
    }

    // pnn: a shortened train_va operation, for allocation and system-time counts.
    pnc::prof::AllocStats train_allocs;
    double train_sys_s = 0.0;
    {
        pnc::math::Rng init(kTrainInitSeed);
        pnn::Pnn net(topology, &surrogates->act, &surrogates->neg, space, init);
        const auto options = fixed_training(kEpsilon, kNTrain, kTrainProbeEpochs, seed);
        const double sys_start = cpu_sys_seconds();
        const pnc::prof::AllocGuard guard;
        {
            SpanScope span("pnn.train_pnn");
            pnn::train_pnn(net, split, options);
        }
        train_allocs = guard.delta();
        train_sys_s = cpu_sys_seconds() - sys_start;
    }

    // infer: plan compilation, perturbed samples, nominal batches.
    const DeployedModel model = load_deployed_model(fixtures);
    const Matrix& x_test = model.split.x_test;
    const std::vector<int>& y_test = model.split.y_test;
    for (int i = 0; i < kRepeats; ++i) {
        SpanScope span("infer.compile");
        const pnc::infer::CompiledPnn compiled(*model.net);
    }
    const pnc::infer::CompiledPnn engine(*model.net);
    const std::size_t n_out = engine.plan().n_outputs();
    pnc::math::Rng sample_rng(seed);
    std::vector<pnn::NetworkVariation> samples;
    for (int i = 0; i < kInferSamples; ++i)
        samples.push_back(engine.sample_variation(variation, sample_rng));
    std::size_t correct = 0;
    {
        Matrix scratch(x_test.rows(), n_out);
        SpanScope span("infer.correct_count.all_rows");
        for (const auto& v : samples)
            correct += engine.correct_count(x_test, y_test, &v, nullptr, scratch);
    }
    Matrix one_row(1, x_test.cols());
    for (std::size_t c = 0; c < x_test.cols(); ++c) one_row(0, c) = x_test(0, c);
    const std::vector<int> one_label{y_test.front()};
    {
        Matrix scratch(1, n_out);
        SpanScope span("infer.correct_count.one_row");
        for (const auto& v : samples)
            correct += engine.correct_count(one_row, one_label, &v, nullptr, scratch);
    }
    pnc::prof::AllocStats sample_allocs;
    {
        Matrix scratch(x_test.rows(), n_out);
        pnc::math::Rng rng(seed);
        const pnc::prof::AllocGuard guard;
        for (int i = 0; i < kInferSamples; ++i) {
            const auto v = engine.sample_variation(variation, rng);
            correct += engine.correct_count(x_test, y_test, &v, nullptr, scratch);
        }
        sample_allocs = guard.delta();
    }
    out.check(correct > 0);
    Matrix batch32(kServeBatch, x_test.cols());
    for (std::size_t r = 0; r < kServeBatch; ++r)
        for (std::size_t c = 0; c < x_test.cols(); ++c)
            batch32(r, c) = x_test(r % x_test.rows(), c);
    {
        SpanScope span("infer.predict_batch32");
        for (int i = 0; i < kPredictCalls; ++i) engine.predict(batch32);
    }

    // yield + runtime: the yield_mc campaign on the pool, and on one thread.
    pnc::yield::YieldCampaignResult pooled, single;
    {
        SpanScope span("yield.campaign.pool");
        pooled = pnc::yield::run_yield_campaign(engine, x_test, y_test,
                                                campaign_options(kYieldSamples, seed));
    }
    const std::size_t threads = pnc::runtime::global_thread_count();
    pnc::runtime::set_global_threads(1);
    {
        SpanScope span("yield.campaign.one_thread");
        single = pnc::yield::run_yield_campaign(engine, x_test, y_test,
                                                campaign_options(kOneThreadSamples, seed));
    }
    pnc::runtime::set_global_threads(threads);
    out.check(pooled.estimate.n_samples == kYieldSamples &&
              single.estimate.n_samples == kOneThreadSamples);

    // serve: a short open-loop run at the high rate.
    const auto requests = run_open_loop(model, kServeRate, kServeProbeSeconds, seed);
    std::vector<double> submit_us, lag_ms, latency_ms;
    std::set<std::uint64_t> batches;
    double batch_rows = 0.0;
    std::uint64_t shed = 0;
    for (const RequestRecord& r : requests) {
        out.check(r.ok);
        submit_us.push_back(r.submit_us);
        lag_ms.push_back(r.lag_ms);
        latency_ms.push_back(r.latency_ms);
        shed += r.shed ? 1 : 0;
        if (r.ok && batches.insert(r.batch_seq).second)
            batch_rows += static_cast<double>(r.batch_rows);
    }

    const auto spans = window.spans();
    auto ms_median = [&](const char* name) { return span_stats(spans, name).median_s * 1e3; };
    auto mean_of = [&](const char* name) { return span_stats(spans, name).mean_s(); };
    auto total_of = [&](const char* name) { return span_stats(spans, name).total_s; };
    const double pooled_rate = kYieldSamples / total_of("yield.campaign.pool");
    const double single_rate = kOneThreadSamples / total_of("yield.campaign.one_thread");

    out.add("data.split_ms", ms_median("data.split"), "ms");
    out.add("surrogate.load_ms", ms_median("surrogate.load"), "ms");
    out.add("circuit.sweep_ms", mean_of("circuit.simulate_characteristic") * 1e3, "ms");
    out.add("fit.ptanh_ms", mean_of("fit.fit_ptanh") * 1e3, "ms");
    out.add("fit.converged_frac", converged / (2.0 * kCircuitsPerKind), "ratio");
    out.add("surrogate.dataset_s", total_of("surrogate.build_dataset"), "s");
    out.add("surrogate.mlp_epoch_ms", total_of("surrogate.train") * 1e3 / surrogate_epochs, "ms");
    out.add("surrogate.allocs_per_epoch",
            static_cast<double>(surrogate_allocs.allocations) / surrogate_epochs, "count");
    out.add("surrogate.test_r2_min", r2_min, "ratio");
    out.add("pnn.sample_variation_us", mean_of("pnn.sample_variation") * 1e6, "us");
    out.add("ad.forward_ms", ms_median("ad.forward"), "ms");
    out.add("ad.backward_ms", ms_median("ad.backward"), "ms");
    out.add("ad.adam_step_us", span_stats(spans, "ad.adam_step").median_s * 1e6, "us");
    out.add("ad.nodes_per_step", static_cast<double>(nodes_per_step), "count");
    out.add("train.allocs_per_epoch",
            static_cast<double>(train_allocs.allocations) / kTrainProbeEpochs, "count");
    out.add("train.alloc_bytes_per_epoch",
            static_cast<double>(train_allocs.bytes) / kTrainProbeEpochs, "B");
    out.add("train.cpu_sys_s", train_sys_s, "s");
    out.add("infer.compile_ms", ms_median("infer.compile"), "ms");
    out.add("infer.mc_sample_us", total_of("infer.correct_count.all_rows") * 1e6 / kInferSamples,
            "us");
    out.add("infer.mc_sample_1row_us",
            total_of("infer.correct_count.one_row") * 1e6 / kInferSamples, "us");
    out.add("infer.allocs_per_sample",
            static_cast<double>(sample_allocs.allocations) / kInferSamples, "count");
    out.add("infer.predict_batch32_us", total_of("infer.predict_batch32") * 1e6 / kPredictCalls,
            "us");
    out.add("yield.samples_per_s_1t", single_rate, "1/s");
    out.add("runtime.parallel_eff", pooled_rate / (static_cast<double>(threads) * single_rate),
            "ratio");
    out.add("yield.rounds", static_cast<double>(pooled.estimate.rounds_used), "count");
    out.add("serve.submit_us", mean(submit_us), "us");
    out.add("serve.batch_rows_mean", batches.empty() ? 0.0 : batch_rows / batches.size(), "rows");
    out.add("serve.batches", static_cast<double>(batches.size()), "count");
    out.add("serve.generator_lag_ms", mean(lag_ms), "ms");
    out.add("serve.shed", static_cast<double>(shed), "count");
    out.add("serve.p99_ms", quantile(latency_ms, 0.99), "ms");
}

}  // namespace pncb
