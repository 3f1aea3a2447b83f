// pnc_perfbench: the repository benchmark's harness binary.
//
//   pnc_perfbench --prepare --fixtures DIR
//   pnc_perfbench --workload W --seed N --seconds S --trace 0|1
//                 --fixtures DIR [--trace-out FILE]
//
// --prepare builds any missing fixture under DIR, in its own process so no
// measured run carries its time or memory. A run loads the fixtures, runs
// workload W for S seconds on inputs made from seed N, checks every output,
// and prints a `# meta` line followed, as the last line, by the result
// object. Normally started through perfbench/run.py, which builds this
// binary and prepares the fixtures first.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace {

/// A fixed dependent chain of scalar multiply-adds, so numbers taken on
/// different machines can be normalized by its time per step.
double calibration_ns_per_step(double& sink) {
    constexpr long kSteps = 20'000'000;
    double x = sink;
    const auto start = pncb::Clock::now();
    for (long i = 0; i < kSteps; ++i) x = x * 0.999999 + 1e-7;
    const double ns = pncb::seconds_since(start) * 1e9 / kSteps;
    sink = x;
    return ns;
}

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "pnc_perfbench: " << problem
              << "\nusage: pnc_perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "--fixtures DIR [--trace-out FILE]\n"
                 "       pnc_perfbench --prepare --fixtures DIR\n";
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    if (argc == 4 && std::string(argv[1]) == "--prepare" && std::string(argv[2]) == "--fixtures") {
        try {
            pncb::Fixtures(argv[3]).ensure();
            return 0;
        } catch (const std::exception& e) {
            std::cerr << "pnc_perfbench: " << e.what() << "\n";
            return 1;
        }
    }
    pncb::RunConfig config;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            config.workload = value;
        } else if (flag == "--seed") {
            config.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (flag == "--seconds") {
            config.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end != value.c_str() && *end == '\0' && config.seconds > 0.0 &&
                           config.seconds <= 3600.0;
        } else if (flag == "--trace") {
            config.trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else if (flag == "--fixtures") {
            config.fixtures_dir = value;
        } else if (flag == "--trace-out") {
            config.trace_out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!pncb::known_workload(config.workload)) usage("unknown workload '" + config.workload + "'");
    if (!have_seed) usage("--seed needs a non-negative integer");
    if (!have_seconds) usage("--seconds needs a number in (0, 3600]");
    if (!have_trace) usage("--trace needs 0 or 1");
    if (config.fixtures_dir.empty()) usage("--fixtures is required");

    try {
        double sink = 1.0;
        const double calibration = calibration_ns_per_step(sink);
        std::printf(
            "# meta {\"compiler\": \"%s\", \"flags\": \"%s\", \"pnc_num_threads\": %zu, "
            "\"calibration_ns_per_step\": %.6f, \"calibration_value\": %.6f}\n",
            PNCB_COMPILER, PNCB_CXX_FLAGS, pnc::runtime::global_thread_count(), calibration,
            sink);
        std::fflush(stdout);
        const pncb::Outcome outcome = pncb::run_workload(config);
        std::printf("%s\n", pncb::outcome_json(outcome).c_str());
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "pnc_perfbench: " << e.what() << "\n";
        return 1;
    }
}
