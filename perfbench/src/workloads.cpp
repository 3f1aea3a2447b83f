#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "autodiff/ops.hpp"
#include "data/registry.hpp"
#include "pnn/robustness.hpp"
#include "pnn/serialize.hpp"
#include "pnn/training.hpp"
#include "yield/campaign.hpp"

namespace pncb {

namespace pnn = pnc::pnn;
namespace serve = pnc::serve;
using pnc::math::Matrix;

namespace {

const char* const kServedName = "seeds";

bool same_bits(const double* a, const double* b, std::size_t n) {
    return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool same_matrices(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols() ||
            !same_bits(a[i].data(), b[i].data(), a[i].size()))
            return false;
    return true;
}

/// Report why a check failed; returns false for `return fail(...)`.
bool fail(const std::string& why) {
    std::cerr << "[perfbench] check failed: " << why << "\n";
    return false;
}

/// One workload with discrete timed operations: set up, then operate
/// until the time is up. `run` is the timed part; `check` validates what
/// it produced and is not timed. No warm-up operation: `p50_ms` is a median
/// over operations, which a slower first one does not move.
class OpWorkload {
public:
    virtual ~OpWorkload() = default;
    virtual void setup() = 0;
    virtual void run() = 0;
    virtual bool check() = 0;
    /// Untimed checks made once after the timed loop, one operation each.
    virtual void final_checks(Outcome&) {}
};

class SurrogateFit final : public OpWorkload {
public:
    SurrogateFit(const Fixtures& fixtures, std::uint64_t seed)
        : fixtures_(fixtures), seed_(seed) {}

    // Set-up loads the cached surrogates: the warm-start path that the cold
    // fit timed below replaces.
    void setup() override { cached_ = load_surrogates(fixtures_); }

    void run() override {
        pair_ = std::make_unique<SurrogatePair>(
            fit_surrogates(fixtures_.surrogate_config(), seed_));
    }

    bool check() override {
        std::ostringstream os;
        pair_->act.save(os);
        pair_->neg.save(os);
        if (first_.empty()) first_ = os.str();
        if (!surrogates_ok(*pair_)) return fail("a surrogate eta column has test R^2 <= 0");
        if (os.str() != first_) return fail("surrogates differ from the first build");
        return true;
    }

private:
    const Fixtures& fixtures_;
    std::uint64_t seed_;
    std::unique_ptr<LoadedSurrogates> cached_;
    std::unique_ptr<SurrogatePair> pair_;
    std::string first_;  ///< serialized models of the first build
};

class TrainVa final : public OpWorkload {
public:
    TrainVa(const Fixtures& fixtures, std::uint64_t seed) : fixtures_(fixtures), seed_(seed) {}

    void setup() override {
        surrogates_ = load_surrogates(fixtures_);
        SpanScope span("data.split");
        split_ = pnc::data::split_and_normalize(pnc::data::make_dataset("tictactoe_endgame"),
                                                kTrainSplitSeed);
    }

    void run() override {
        pnc::math::Rng rng(kTrainInitSeed);
        net_ = std::make_unique<pnn::Pnn>(
            std::vector<std::size_t>{split_.n_features(), 3,
                                     static_cast<std::size_t>(split_.n_classes)},
            &surrogates_->act, &surrogates_->neg, surrogate::DesignSpace::table1(), rng);
        SpanScope span("pnn.train_pnn");
        result_ = pnn::train_pnn(*net_, split_,
                                 fixed_training(kEpsilon, kNTrain, kTrainEpochs, seed_));
    }

    bool check() override {
        const double accuracy = pnc::ad::accuracy(net_->predict(split_.x_test), split_.y_test);
        const double chance = majority_share(split_.y_test, split_.n_classes);
        const auto snapshot = net_->snapshot();
        if (first_.empty()) first_ = snapshot;
        if (!std::isfinite(result_.final_train_loss) || !std::isfinite(result_.best_val_loss))
            return fail("training loss is not finite");
        if (!(accuracy > chance))
            return fail("test accuracy " + std::to_string(accuracy) +
                        " does not beat the majority class " + std::to_string(chance));
        if (!same_matrices(snapshot, first_)) return fail("trained parameters differ");
        return true;
    }

private:
    const Fixtures& fixtures_;
    std::uint64_t seed_;
    std::unique_ptr<LoadedSurrogates> surrogates_;
    data::SplitDataset split_;
    std::unique_ptr<pnn::Pnn> net_;
    pnn::TrainResult result_;
    std::vector<Matrix> first_;  ///< trained parameters of the first operation
};

bool same_estimate(const pnc::yield::YieldEstimate& a, const pnc::yield::YieldEstimate& b) {
    return a.n_samples == b.n_samples && a.n_passing == b.n_passing &&
           a.rounds_used == b.rounds_used && same_bits(&a.yield, &b.yield, 1) &&
           same_bits(&a.mean_accuracy, &b.mean_accuracy, 1) &&
           same_bits(&a.worst_accuracy, &b.worst_accuracy, 1) &&
           same_bits(&a.p5_accuracy, &b.p5_accuracy, 1) &&
           same_bits(&a.median_accuracy, &b.median_accuracy, 1);
}

class YieldMc final : public OpWorkload {
public:
    YieldMc(const Fixtures& fixtures, std::uint64_t seed) : fixtures_(fixtures), seed_(seed) {}

    void setup() override { model_ = load_deployed_model(fixtures_); }

    void run() override {
        SpanScope span("yield.run_yield_campaign");
        result_ = pnc::yield::run_yield_campaign(engine(), model_.split.x_test,
                                                 model_.split.y_test,
                                                 campaign_options(kYieldSamples, seed_));
    }

    bool check() override {
        const auto& estimate = result_.estimate;
        if (!have_first_) {
            first_ = estimate;
            have_first_ = true;
        }
        if (estimate.n_samples != kYieldSamples || !same_estimate(estimate, first_))
            return fail("campaign estimate differs from the first campaign");
        return true;
    }

    // The campaign engine against the reference Monte-Carlo path at the
    // same (spec, eps, n, seed): fixed mode promises identical results.
    void final_checks(Outcome& out) override {
        const auto reference =
            pnn::estimate_yield(*model_.net, model_.split.x_test, model_.split.y_test,
                                kYieldSpec, kEpsilon, kYieldCrossCheckSamples, seed_);
        const auto campaign = pnc::yield::run_yield_campaign(
            engine(), model_.split.x_test, model_.split.y_test,
            campaign_options(kYieldCrossCheckSamples, seed_));
        const auto& e = campaign.estimate;
        const bool same = static_cast<std::uint64_t>(reference.n_samples) == e.n_samples &&
                          static_cast<std::uint64_t>(reference.n_passing) == e.n_passing &&
                          same_bits(&reference.yield, &e.yield, 1) &&
                          same_bits(&reference.worst_accuracy, &e.worst_accuracy, 1) &&
                          same_bits(&reference.p5_accuracy, &e.p5_accuracy, 1) &&
                          same_bits(&reference.median_accuracy, &e.median_accuracy, 1);
        out.check(same || fail("campaign differs from pnn::estimate_yield"));
    }

private:
    const pnc::infer::CompiledPnn& engine() { return model_.registry->get(kServedName)->engine; }

    const Fixtures& fixtures_;
    std::uint64_t seed_;
    DeployedModel model_;
    pnc::yield::YieldCampaignResult result_;
    pnc::yield::YieldEstimate first_;
    bool have_first_ = false;
};

/// Time operations for `config.seconds` (at least two in a traced run, so
/// both arms of the overhead A/B exist). Each operation starts from
/// kSetupRepsPerOp fresh set-ups: spread over the run, the set-up samples
/// see the same machine speed as the operations. Back to back at the start
/// they did not: a 2 ms set-up ran 1.6 or 2.4 ms depending on the moment.
Outcome drive(OpWorkload& workload, const RunConfig& config, const Fixtures& fixtures) {
    Outcome out;
    Tracer& tracer = Tracer::global();
    tracer.set_on(config.trace);
    if (config.trace) probe_layers(fixtures, config.seed, out);

    // Traced run: odd operations record spans, even ones do not.
    std::vector<double> setup_s, op_ms, traced_ms, untraced_ms;
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        for (int r = 0; r < kSetupRepsPerOp; ++r) {
            const auto setup_start = Clock::now();
            workload.setup();
            setup_s.push_back(seconds_since(setup_start));
        }
        const bool traced = config.trace && i % 2 == 1;
        tracer.set_on(traced);
        const auto op_start = Clock::now();
        workload.run();
        const double ms = seconds_since(op_start) * 1e3;
        tracer.set_on(config.trace);
        out.check(workload.check());
        op_ms.push_back(ms);
        (traced ? traced_ms : untraced_ms).push_back(ms);
        if (seconds_since(start) >= config.seconds && (!config.trace || i >= 1)) break;
    }
    workload.final_checks(out);

    if (config.trace) {
        // The traced arm's median over the untraced arm's.
        out.add("trace.overhead_pct", (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0,
                "%");
    } else {
        out.add("setup_s", median(setup_s), "s");
        out.add("peak_rss_mb", peak_rss_mb(), "MB");
        out.add("p50_ms", median(op_ms), "ms");
    }
    std::cerr << "[perfbench] " << config.workload << ": " << op_ms.size()
              << " timed operations\n";
    return out;
}

}  // namespace

pnc::yield::YieldCampaignOptions campaign_options(std::uint64_t n, std::uint64_t seed) {
    pnc::yield::YieldCampaignOptions options;
    options.mode = pnc::yield::CampaignMode::kFixed;
    options.accuracy_spec = kYieldSpec;
    options.epsilon = kEpsilon;
    options.n_samples = n;
    options.seed = seed;
    options.metric_prefix.clear();
    return options;
}

bool known_workload(const std::string& name) {
    for (const char* w : {"surrogate_fit", "train_va", "yield_mc"})
        if (name == w) return true;
    return false;
}

DeployedModel load_deployed_model(const Fixtures& fixtures) {
    DeployedModel model;
    model.surrogates = load_surrogates(fixtures);
    model.split = model_split(fixtures.model_config());
    {
        SpanScope span("pnn.load");
        model.net = std::make_unique<pnn::Pnn>(pnn::load_pnn_file(
            fixtures.model_path(), &model.surrogates->act, &model.surrogates->neg,
            surrogate::DesignSpace::table1()));
    }
    SpanScope span("serve.install");  // compiles the inference plan
    model.registry = std::make_unique<serve::ModelRegistry>();
    model.registry->install(kServedName, *model.net);
    return model;
}

std::vector<RequestRecord> run_open_loop(const DeployedModel& model, double rate,
                                         double seconds, std::uint64_t seed) {
    const Matrix& x = model.split.x_test;
    const Matrix reference = model.net->predict(x);
    std::vector<int> reference_class(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < reference.cols(); ++c)
            if (reference(r, c) > reference(r, best)) best = c;
        reference_class[r] = static_cast<int>(best);
    }

    serve::ServeOptions options;
    options.max_batch = kServeBatch;
    options.flush_deadline_ms = kServeDeadlineMs;
    options.queue_capacity = kServeQueueCapacity;
    serve::ServePipeline pipeline(*model.registry, options);
    Tracer& tracer = Tracer::global();

    struct InFlight {
        std::uint64_t request = 0;
        double due_s = 0.0;
        std::size_t row = 0;
        std::future<serve::Prediction> result;
        double lag_ms = 0.0;
        double submit_us = 0.0;
        bool shed = false;
        bool traced = false;
        std::uint64_t span_id = 0;
    };
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<InFlight> handoff;  // guarded by mutex
    bool generator_done = false;   // guarded by mutex
    std::exception_ptr generator_error;

    const auto start = Clock::now();
    const double end_s = kServeWarmupS + seconds;
    const double window_ms = end_s * 1e3;
    auto at = [&](double s) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(s));
    };

    // Reserved up front: a reallocation inside the collector would stall it
    // and show up as latency of the requests waiting behind it.
    std::vector<RequestRecord> records;
    records.reserve(static_cast<std::size_t>(rate * end_s * 1.2) + 1024);
    std::thread collector([&] {
        std::deque<InFlight> batch;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                ready.wait(lock, [&] { return !handoff.empty() || generator_done; });
                if (handoff.empty()) return;
                batch.swap(handoff);
            }
            for (InFlight& f : batch) {
                RequestRecord rec;
                rec.lag_ms = f.lag_ms;
                rec.submit_us = f.submit_us;
                rec.shed = f.shed;
                Clock::time_point done{};
                if (!f.shed) {
                    try {
                        const serve::Prediction p = f.result.get();
                        done = Clock::now();
                        rec.latency_ms = seconds_between(at(f.due_s), done) * 1e3;
                        rec.batch_seq = p.batch_seq;
                        rec.batch_rows = p.batch_rows;
                        rec.ok = p.outputs.size() == reference.cols() &&
                                 same_bits(p.outputs.data(),
                                           reference.data() + f.row * reference.cols(),
                                           reference.cols()) &&
                                 p.predicted_class == reference_class[f.row];
                    } catch (const std::exception& e) {
                        std::cerr << "[perfbench] request " << f.request << " failed: "
                                  << e.what() << "\n";
                    }
                }
                if (!rec.ok) rec.latency_ms = window_ms;
                if (f.traced && rec.ok)
                    tracer.record({"serve.request", tracer.to_ns(at(f.due_s)), tracer.to_ns(done),
                                   f.span_id, 0, f.request});
                if (f.due_s >= kServeWarmupS) records.push_back(rec);
            }
            batch.clear();
        }
    });

    std::thread generator([&] {
        try {
            pnc::math::Rng rng(seed);
            double due_s = 0.0;
            for (std::uint64_t i = 1;; ++i) {
                due_s += -std::log(1.0 - rng.uniform()) / rate;
                if (due_s >= end_s) break;
                const std::size_t row = rng.index(x.rows());
                const auto due = at(due_s);
                std::this_thread::sleep_until(due);
                InFlight f;
                f.request = i;
                f.due_s = due_s;
                f.row = row;
                f.traced = tracer.on();
                std::vector<double> features(x.cols());
                for (std::size_t c = 0; c < x.cols(); ++c) features[c] = x(row, c);
                const auto submit_start = Clock::now();
                try {
                    f.result = pipeline.submit(kServedName, std::move(features));
                } catch (const serve::ServeError& e) {
                    if (e.code() != serve::ServeErrorCode::kQueueFull) throw;
                    f.shed = true;
                }
                const auto submit_end = Clock::now();
                f.lag_ms = seconds_between(due, submit_start) * 1e3;
                f.submit_us = seconds_between(submit_start, submit_end) * 1e6;
                if (f.traced) {
                    f.span_id = tracer.next_id();
                    tracer.record({"serve.submit", tracer.to_ns(submit_start),
                                   tracer.to_ns(submit_end), tracer.next_id(), f.span_id, i});
                }
                bool was_empty = false;
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    was_empty = handoff.empty();
                    handoff.push_back(std::move(f));
                }
                if (was_empty) ready.notify_one();
            }
        } catch (...) {
            generator_error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            generator_done = true;
        }
        ready.notify_one();
    });
    generator.join();
    collector.join();
    pipeline.drain();
    if (generator_error) std::rethrow_exception(generator_error);
    return records;
}

Outcome run_workload(const RunConfig& config) {
    const Fixtures fixtures(config.fixtures_dir);
    std::unique_ptr<OpWorkload> workload;
    if (config.workload == "surrogate_fit")
        workload = std::make_unique<SurrogateFit>(fixtures, config.seed);
    else if (config.workload == "train_va")
        workload = std::make_unique<TrainVa>(fixtures, config.seed);
    else if (config.workload == "yield_mc")
        workload = std::make_unique<YieldMc>(fixtures, config.seed);
    else
        throw std::invalid_argument("unknown workload " + config.workload);
    const Outcome out = drive(*workload, config, fixtures);
    Tracer::global().set_on(false);
    if (config.trace && !config.trace_out.empty())
        Tracer::write_json(Tracer::global().collect(), config.trace_out);
    return out;
}

}  // namespace pncb
