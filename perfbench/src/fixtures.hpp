// Benchmark fixtures: the surrogate models and the trained pNN the
// workloads load during set-up.
//
// Fixtures are built here by direct calls into the surrogate and training
// layers and cached in the benchmark's own directory under a file name that
// spells out the whole build configuration, so a cached file can only be
// reused by a run that would have built the identical file. The library's
// own artifact cache is not used: it is keyed by sample count alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "data/dataset.hpp"
#include "pnn/pnn.hpp"
#include "pnn/training.hpp"
#include "prof/alloc_hooks.hpp"
#include "surrogate/surrogate_model.hpp"

namespace pncb {

namespace data = pnc::data;
namespace surrogate = pnc::surrogate;

/// Size of one surrogate build: the `surrogate_fit` workload's unit of
/// work and the configuration of the cached surrogate fixtures. Patience
/// equals the epoch budget, so early stopping never fires and the work per
/// build is fixed.
struct SurrogateConfig {
    std::size_t samples = 300;
    std::size_t sweep_points = 48;
    int epochs = 1200;
    int patience = 1200;
    std::uint64_t seed = 7;

    std::string key() const;
};

/// The cached variation-aware model the `yield_mc` workload and the serve probe
/// run on: seeds, 7-3-3, eps = 0.1, N_train = 20, learnable omega.
struct ModelConfig {
    std::string dataset = "seeds";
    std::size_t hidden = 3;
    double epsilon = 0.1;
    int n_mc_train = 20;
    int epochs = 200;
    std::uint64_t split_seed = 99;
    std::uint64_t seed = 1;

    std::string key(const SurrogateConfig& surrogates) const;
};

struct SurrogatePair {
    surrogate::SurrogateModel act;  ///< ptanh activation circuit
    surrogate::SurrogateModel neg;  ///< negative-weight circuit
    surrogate::SurrogateMetrics act_metrics;
    surrogate::SurrogateMetrics neg_metrics;
};

/// Build the dataset and fit the surrogate of both circuit kinds (the
/// `pnc train` cold start at the configured size). Spans:
/// surrogate.build_dataset and surrogate.train, once per kind. With
/// `train_allocs`, the allocations made while training the two MLPs are
/// counted into it.
SurrogatePair fit_surrogates(const SurrogateConfig& config, std::uint64_t seed,
                             pnc::prof::AllocStats* train_allocs = nullptr);

/// Every eta column of both kinds predicts better than the column mean.
bool surrogates_ok(const SurrogatePair& pair);

/// Variation-aware full-batch training for exactly `epochs` epochs: patience
/// equals the budget, so early stopping never fires and the work is fixed.
pnc::pnn::TrainOptions fixed_training(double epsilon, int n_mc_train, int epochs,
                                      std::uint64_t seed);

/// The fixture files for one benchmark configuration.
class Fixtures {
public:
    explicit Fixtures(std::string dir);

    /// Build every missing fixture file (atomically: temp file + rename).
    /// Throws when a freshly built fixture fails its quality check.
    void ensure() const;

    std::string act_path() const;
    std::string neg_path() const;
    std::string model_path() const;

    const SurrogateConfig& surrogate_config() const { return surrogate_; }
    const ModelConfig& model_config() const { return model_; }

private:
    std::string dir_;
    SurrogateConfig surrogate_;
    ModelConfig model_;
};

/// Surrogates loaded from the fixture files. Held by pointer because a Pnn
/// keeps raw pointers to its surrogates.
struct LoadedSurrogates {
    surrogate::SurrogateModel act;
    surrogate::SurrogateModel neg;
};
std::unique_ptr<LoadedSurrogates> load_surrogates(const Fixtures& fixtures);

/// The fixture model's dataset split (the split it was trained on).
data::SplitDataset model_split(const ModelConfig& config);

/// Share of the most common class among `labels`: the accuracy of a
/// classifier that ignores its input.
double majority_share(const std::vector<int>& labels, int n_classes);

}  // namespace pncb
