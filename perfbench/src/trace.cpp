#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pb {

namespace {

struct Record {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
};

struct ThreadLog {
    std::thread::id tid;
    std::vector<Record> records;
    std::vector<std::int64_t> open; ///< stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu; // guards g_logs, g_main and every log's records during reads
std::vector<std::shared_ptr<ThreadLog>> g_logs;
std::thread::id g_main;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

ThreadLog& this_log() {
    thread_local std::shared_ptr<ThreadLog> log = [] {
        auto l = std::make_shared<ThreadLog>();
        l->tid = std::this_thread::get_id();
        const std::lock_guard<std::mutex> lock(g_mu);
        g_logs.push_back(l);
        return l;
    }();
    return *log;
}

} // namespace

void Tracer::enable() {
    {
        const std::lock_guard<std::mutex> lock(g_mu);
        g_main = std::this_thread::get_id();
    }
    g_enabled.store(true, std::memory_order_release);
}

void Tracer::disable() { g_enabled.store(false, std::memory_order_release); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::clear() {
    const std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& l : g_logs) {
        l->records.clear();
        l->open.clear();
    }
}

std::map<std::string, double> Tracer::summarize(bool main_only) {
    std::map<std::string, double> out;
    const std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& l : g_logs) {
        if (main_only && l->tid != g_main) continue;
        const std::vector<Record>& rs = l->records;
        std::vector<std::int64_t> child_ns(rs.size(), 0);
        for (const Record& r : rs)
            if (r.parent >= 0 && r.end_ns > 0)
                child_ns[static_cast<std::size_t>(r.parent)] +=
                    r.end_ns - r.start_ns;
        for (std::size_t i = 0; i < rs.size(); ++i) {
            if (rs[i].end_ns == 0) continue; // still open
            const std::int64_t self = rs[i].end_ns - rs[i].start_ns - child_ns[i];
            out[rs[i].name] += static_cast<double>(self) * 1e-6;
        }
    }
    return out;
}

Span::Span(const char* name) {
    if (!Tracer::enabled()) return;
    ThreadLog& l = this_log();
    Record r;
    r.name = name;
    r.parent = l.open.empty() ? -1 : l.open.back();
    const std::lock_guard<std::mutex> lock(g_mu);
    index_ = static_cast<std::int64_t>(l.records.size());
    l.records.push_back(r);
    l.open.push_back(index_);
    l.records.back().start_ns = now_ns();
}

Span::~Span() {
    if (index_ < 0) return;
    const std::int64_t end = now_ns();
    ThreadLog& l = this_log();
    const std::lock_guard<std::mutex> lock(g_mu);
    // clear() between an open span and its end drops the record.
    if (static_cast<std::size_t>(index_) >= l.records.size()) return;
    l.records[static_cast<std::size_t>(index_)].end_ns = end;
    if (!l.open.empty()) l.open.pop_back();
}

} // namespace pb
