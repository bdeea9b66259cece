#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "util/parallel.hpp"

namespace powergear::obs {

const char* phase_name(Phase p) {
    switch (p) {
    case Phase::HlsSchedule: return "hls_schedule";
    case Phase::SimTrace: return "sim_trace";
    case Phase::GraphGen: return "graphgen";
    case Phase::DatasetGen: return "dataset_gen";
    case Phase::EnsembleFit: return "ensemble_fit";
    case Phase::EstimateBatch: return "estimate_batch";
    case Phase::Dse: return "dse";
    case Phase::Cache: return "cache";
    case Phase::Serve: return "serve";
    case Phase::Place: return "place";
    case Phase::Activity: return "activity";
    case Phase::Backward: return "backward";
    case Phase::Forward: return "forward";
    case Phase::Assemble: return "assemble";
    case Phase::Optimizer: return "optimizer";
    case Phase::kCount: break;
    }
    return "unknown";
}

namespace {

using clock = std::chrono::steady_clock;

/// Per-thread recording buffer. The owning thread appends; snapshot()/
/// reset() from other threads synchronize through `mu`. Sinks are
/// shared_ptrs held by both the registry and the thread_local handle, so a
/// worker thread exiting never invalidates already-recorded data.
struct Sink {
    std::mutex mu;
    std::array<std::vector<double>, kPhaseCount> durations_s;
    std::array<std::map<std::string, std::uint64_t>, kPhaseCount> counters;
};

struct Registry {
    std::mutex mu;
    std::vector<std::shared_ptr<Sink>> sinks;
    clock::time_point epoch = clock::now();
};

Registry& registry() {
    static Registry* r = new Registry(); // leaked: probes may fire at exit
    return *r;
}

Sink& local_sink() {
    thread_local std::shared_ptr<Sink> sink = [] {
        auto s = std::make_shared<Sink>();
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.sinks.push_back(s);
        return s;
    }();
    return *sink;
}

std::atomic<bool> g_enabled{false};

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now().time_since_epoch())
            .count());
}

double percentile_ms(const std::vector<double>& sorted_s, double q) {
    if (sorted_s.empty()) return 0.0;
    // Nearest-rank: ceil(q * n), 1-based.
    const std::size_t n = sorted_s.size();
    std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(n))));
    rank = std::min(rank, n);
    return sorted_s[rank - 1] * 1e3;
}

} // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void reset() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto& sink : r.sinks) {
        std::lock_guard<std::mutex> slock(sink->mu);
        for (auto& d : sink->durations_s) d.clear();
        for (auto& c : sink->counters) c.clear();
    }
    r.epoch = clock::now();
}

void add(Phase phase, const char* counter, std::uint64_t delta) {
    if (!enabled()) return;
    Sink& s = local_sink();
    std::lock_guard<std::mutex> lock(s.mu);
    s.counters[static_cast<std::size_t>(phase)][counter] += delta;
}

void record(Phase phase, double seconds) {
    if (!enabled()) return;
    Sink& s = local_sink();
    std::lock_guard<std::mutex> lock(s.mu);
    s.durations_s[static_cast<std::size_t>(phase)].push_back(seconds);
}

Scope::Scope(Phase phase) : phase_(phase), active_(enabled()) {
    if (active_) start_ns_ = now_ns();
}

Scope::~Scope() {
    if (!active_) return;
    const double dur_s = static_cast<double>(now_ns() - start_ns_) * 1e-9;
    Sink& s = local_sink();
    std::lock_guard<std::mutex> lock(s.mu);
    s.durations_s[static_cast<std::size_t>(phase_)].push_back(dur_s);
}

Report snapshot() {
    Report rep;
    rep.jobs = util::parallel_jobs();

    std::array<std::vector<double>, kPhaseCount> merged;
    std::array<std::map<std::string, std::uint64_t>, kPhaseCount> counters;
    {
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        rep.wall_s = std::chrono::duration<double>(clock::now() - r.epoch).count();
        for (const auto& sink : r.sinks) {
            std::lock_guard<std::mutex> slock(sink->mu);
            for (int p = 0; p < kPhaseCount; ++p) {
                const auto pi = static_cast<std::size_t>(p);
                merged[pi].insert(merged[pi].end(), sink->durations_s[pi].begin(),
                                  sink->durations_s[pi].end());
                for (const auto& [name, v] : sink->counters[pi])
                    counters[pi][name] += v;
            }
        }
    }

    for (int p = 0; p < kPhaseCount; ++p) {
        const auto pi = static_cast<std::size_t>(p);
        if (merged[pi].empty() && counters[pi].empty()) continue;
        PhaseStats st;
        st.calls = merged[pi].size();
        std::sort(merged[pi].begin(), merged[pi].end());
        for (double d : merged[pi]) st.total_s += d;
        st.p50_ms = percentile_ms(merged[pi], 0.50);
        st.p95_ms = percentile_ms(merged[pi], 0.95);
        st.max_ms = merged[pi].empty() ? 0.0 : merged[pi].back() * 1e3;
        st.counters = std::move(counters[pi]);
        rep.phases[phase_name(static_cast<Phase>(p))] = std::move(st);
    }
    return rep;
}

} // namespace powergear::obs
