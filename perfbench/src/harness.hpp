// Shared plumbing of the benchmark harness: the clock, the in-memory span
// store, order statistics and the result record.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pncb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point start) {
    return seconds_between(start, Clock::now());
}

/// One finished span. Times are nanoseconds since the tracer's epoch;
/// `parent` is 0 for a root span, `request` is 0 outside request scope.
struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;

    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Process-wide span store. Spans are kept in per-thread buffers while the
/// benchmark runs and merged once at the end; nothing is written out until
/// then. Recording is switched on and off as a whole (`set_on`), so the
/// traced run can alternate traced and untraced stretches to measure its
/// own overhead.
class Tracer {
public:
    static Tracer& global();

    bool on() const { return on_.load(std::memory_order_relaxed); }
    void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

    std::int64_t to_ns(Clock::time_point t) const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
    }
    std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

    /// Append a finished span to the calling thread's buffer.
    void record(const Span& span);

    /// Every span recorded so far, merged across threads, in start order.
    std::vector<Span> collect() const;

    /// Write `spans` as a JSON array to `path`.
    static void write_json(const std::vector<Span>& spans, const std::string& path);

private:
    Tracer() : epoch_(Clock::now()) {}

    std::vector<Span>& local_buffer();

    const Clock::time_point epoch_;
    std::atomic<bool> on_{false};
    std::atomic<std::uint64_t> next_id_{1};
    mutable std::mutex buffers_mutex_;
    /// One buffer per recording thread, owned here so spans outlive the
    /// short-lived generator and collector threads that wrote them.
    std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span around a call into one layer. Inert when the tracer is off.
/// Nested scopes on one thread become children of the enclosing scope.
class SpanScope {
public:
    explicit SpanScope(const char* name, std::uint64_t request = 0);
    ~SpanScope();

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Span span_;
    bool active_ = false;
};

/// Quantile of `values` with linear interpolation between order statistics
/// (numpy's default). `values` is taken by value and sorted.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Aggregates over the spans of one name.
struct SpanStats {
    std::size_t count = 0;
    double total_s = 0.0;
    double median_s = 0.0;
    double mean_s() const { return count ? total_s / static_cast<double>(count) : 0.0; }
};
SpanStats span_stats(const std::vector<Span>& spans, const char* name);

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one invocation reports: operations attempted and failed (a failed
/// correctness check fails its operation) plus the metrics of its mode.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void check(bool ok) {
        ++attempted;
        if (!ok) ++failed;
    }
    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string outcome_json(const Outcome& outcome);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();
/// System-mode CPU seconds consumed by this process so far (all threads).
double cpu_sys_seconds();

}  // namespace pncb
