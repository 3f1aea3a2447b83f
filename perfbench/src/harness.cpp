#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pncb {

namespace {

thread_local std::vector<Span>* t_buffer = nullptr;
thread_local std::uint64_t t_current_span = 0;

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

Tracer& Tracer::global() {
    static Tracer tracer;
    return tracer;
}

std::vector<Span>& Tracer::local_buffer() {
    if (!t_buffer) {
        std::lock_guard<std::mutex> lock(buffers_mutex_);
        buffers_.push_back(std::make_unique<std::vector<Span>>());
        t_buffer = buffers_.back().get();
    }
    return *t_buffer;
}

void Tracer::record(const Span& span) { local_buffer().push_back(span); }

std::vector<Span> Tracer::collect() const {
    std::vector<Span> all;
    {
        std::lock_guard<std::mutex> lock(buffers_mutex_);
        for (const auto& buffer : buffers_) all.insert(all.end(), buffer->begin(), buffer->end());
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
    return all;
}

void Tracer::write_json(const std::vector<Span>& spans, const std::string& path) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp);
        if (!os) throw std::runtime_error("cannot write trace file " + tmp);
        os << "[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& s = spans[i];
            os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
               << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id << ",\"parent\":" << s.parent
               << ",\"request\":" << s.request << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        os << "]\n";
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cannot move trace file into place: " + path);
}

SpanScope::SpanScope(const char* name, std::uint64_t request) {
    Tracer& tracer = Tracer::global();
    if (!tracer.on()) return;
    active_ = true;
    span_.name = name;
    span_.id = tracer.next_id();
    span_.parent = t_current_span;
    span_.request = request;
    t_current_span = span_.id;
    span_.start_ns = tracer.to_ns(Clock::now());
}

SpanScope::~SpanScope() {
    if (!active_) return;
    Tracer& tracer = Tracer::global();
    span_.end_ns = tracer.to_ns(Clock::now());
    t_current_span = span_.parent;
    tracer.record(span_);
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

SpanStats span_stats(const std::vector<Span>& spans, const char* name) {
    SpanStats stats;
    std::vector<double> durations;
    for (const Span& s : spans) {
        if (std::strcmp(s.name, name) != 0) continue;
        durations.push_back(s.seconds());
        stats.total_s += s.seconds();
    }
    stats.count = durations.size();
    stats.median_s = median(std::move(durations));
    return stats;
}

std::string outcome_json(const Outcome& outcome) {
    std::ostringstream os;
    os << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric& m = outcome.metrics[i];
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << number(m.value)
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double cpu_sys_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
}

}  // namespace pncb
