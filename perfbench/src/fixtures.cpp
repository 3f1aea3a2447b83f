#include "fixtures.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "autodiff/ops.hpp"
#include "data/registry.hpp"
#include "harness.hpp"
#include "pnn/serialize.hpp"

namespace pncb {

using pnc::circuit::NonlinearCircuitKind;

std::string SurrogateConfig::key() const {
    std::ostringstream os;
    os << "n" << samples << "-p" << sweep_points << "-e" << epochs << "-pat" << patience
       << "-s" << seed;
    return os.str();
}

std::string ModelConfig::key(const SurrogateConfig& surrogates) const {
    std::ostringstream os;
    os << dataset << "-h" << hidden << "-eps" << epsilon << "-mc" << n_mc_train << "-e" << epochs
       << "-split" << split_seed << "-s" << seed << "-sur-" << surrogates.key();
    return os.str();
}

namespace {

surrogate::SurrogateModel fit_one(NonlinearCircuitKind kind, const SurrogateConfig& config,
                                  std::uint64_t seed, surrogate::SurrogateMetrics& metrics,
                                  pnc::prof::AllocStats* train_allocs) {
    surrogate::DatasetBuildOptions build;
    build.samples = config.samples;
    build.sweep_points = config.sweep_points;
    surrogate::SurrogateDataset dataset = [&] {
        SpanScope span("surrogate.build_dataset");
        return surrogate::build_surrogate_dataset(kind, surrogate::DesignSpace::table1(), build);
    }();
    surrogate::SurrogateTrainOptions train;
    train.mlp.max_epochs = config.epochs;
    train.mlp.patience = config.patience;
    train.seed = seed;
    SpanScope span("surrogate.train");
    if (!train_allocs) return surrogate::SurrogateModel::train(dataset, train, &metrics);
    const pnc::prof::AllocGuard guard;
    auto model = surrogate::SurrogateModel::train(dataset, train, &metrics);
    const auto delta = guard.delta();
    train_allocs->allocations += delta.allocations;
    train_allocs->deallocations += delta.deallocations;
    train_allocs->bytes += delta.bytes;
    return model;
}

/// Write through a temp file and rename, so a reader never sees a partial
/// fixture and an interrupted build leaves nothing under the final name.
template <class WriteFn>
void write_atomically(const std::string& path, WriteFn write) {
    const std::string tmp = path + ".tmp";
    write(tmp);
    std::filesystem::rename(tmp, path);
}

}  // namespace

SurrogatePair fit_surrogates(const SurrogateConfig& config, std::uint64_t seed,
                             pnc::prof::AllocStats* train_allocs) {
    surrogate::SurrogateMetrics act_metrics, neg_metrics;
    auto act = fit_one(NonlinearCircuitKind::kPtanh, config, seed, act_metrics, train_allocs);
    auto neg = fit_one(NonlinearCircuitKind::kNegativeWeight, config, seed, neg_metrics,
                       train_allocs);
    return {std::move(act), std::move(neg), act_metrics, neg_metrics};
}

bool surrogates_ok(const SurrogatePair& pair) {
    for (const auto* metrics : {&pair.act_metrics, &pair.neg_metrics}) {
        if (metrics->test_r2.size() != pnc::fit::Eta::kDimension) return false;
        for (double r2 : metrics->test_r2)
            if (!(r2 > 0.0)) return false;
    }
    return true;
}

pnc::pnn::TrainOptions fixed_training(double epsilon, int n_mc_train, int epochs,
                                      std::uint64_t seed) {
    pnc::pnn::TrainOptions options;
    options.epsilon = epsilon;
    options.n_mc_train = n_mc_train;
    options.max_epochs = epochs;
    options.patience = epochs;
    options.seed = seed;
    return options;
}

Fixtures::Fixtures(std::string dir) : dir_(std::move(dir)) {}

std::string Fixtures::act_path() const {
    return dir_ + "/surrogate-ptanh-" + surrogate_.key() + ".txt";
}

std::string Fixtures::neg_path() const {
    return dir_ + "/surrogate-negative_weight-" + surrogate_.key() + ".txt";
}

std::string Fixtures::model_path() const {
    return dir_ + "/pnn-" + model_.key(surrogate_) + ".pnn";
}

void Fixtures::ensure() const {
    std::filesystem::create_directories(dir_);
    if (!std::filesystem::exists(act_path()) || !std::filesystem::exists(neg_path())) {
        std::cerr << "[fixtures] fitting surrogates " << surrogate_.key() << "\n";
        const SurrogatePair pair = fit_surrogates(surrogate_, surrogate_.seed);
        if (!surrogates_ok(pair))
            throw std::runtime_error("fixture surrogates have a non-positive test R^2");
        write_atomically(act_path(), [&](const std::string& p) { pair.act.save_file(p); });
        write_atomically(neg_path(), [&](const std::string& p) { pair.neg.save_file(p); });
    }
    if (!std::filesystem::exists(model_path())) {
        std::cerr << "[fixtures] training model " << model_.key(surrogate_) << "\n";
        const auto surrogates = load_surrogates(*this);
        const auto split = model_split(model_);
        pnc::math::Rng rng(model_.seed);
        pnc::pnn::Pnn net({split.n_features(), model_.hidden,
                           static_cast<std::size_t>(split.n_classes)},
                          &surrogates->act, &surrogates->neg,
                          surrogate::DesignSpace::table1(), rng);
        pnc::pnn::train_pnn(net, split,
                            fixed_training(model_.epsilon, model_.n_mc_train, model_.epochs,
                                           model_.seed));
        const double accuracy = pnc::ad::accuracy(net.predict(split.x_test), split.y_test);
        if (!(accuracy > majority_share(split.y_test, split.n_classes)))
            throw std::runtime_error("fixture model does not beat the majority class");
        write_atomically(model_path(),
                         [&](const std::string& p) { pnc::pnn::save_pnn_file(net, p); });
    }
}

std::unique_ptr<LoadedSurrogates> load_surrogates(const Fixtures& fixtures) {
    SpanScope span("surrogate.load");
    return std::make_unique<LoadedSurrogates>(
        LoadedSurrogates{surrogate::SurrogateModel::load_file(fixtures.act_path()),
                         surrogate::SurrogateModel::load_file(fixtures.neg_path())});
}

data::SplitDataset model_split(const ModelConfig& config) {
    SpanScope span("data.split");
    return pnc::data::split_and_normalize(pnc::data::make_dataset(config.dataset),
                                          config.split_seed);
}

double majority_share(const std::vector<int>& labels, int n_classes) {
    std::vector<std::size_t> counts(static_cast<std::size_t>(n_classes), 0);
    for (int y : labels) ++counts.at(static_cast<std::size_t>(y));
    std::size_t best = 0;
    for (std::size_t c : counts) best = std::max(best, c);
    return labels.empty() ? 0.0 : static_cast<double>(best) / static_cast<double>(labels.size());
}

}  // namespace pncb
