// Shared plumbing of the repository benchmark: arguments, the result
// report, order statistics, output digests and timing helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false; ///< self-test scale: every workload in a few seconds
};

/// util::parallel pool size of every run, timed and traced. Serial: with
/// more than one job, util::parallel_for can return while a helper still
/// signals the caller's stack-held mutex and condition variable, which
/// corrupts memory intermittently (see perfbench/README.md). Raise this only after
/// that race is fixed, in a change of its own.
inline constexpr int kJobs = 1;

/// Everything one run prints: the check verdict, operation accounting and
/// named metrics, plus human-readable lines (digests, per-rate tables).
class Report {
public:
    void metric(const std::string& name, double value, const std::string& unit);
    /// Record a failed output check; the run reports correct=false.
    void check_failed(const std::string& what);
    /// Print an informational line to stdout right away.
    void note(const std::string& line) const;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    bool correct() const { return correct_; }
    /// The last stdout line: {"correct","attempted","failed","metrics"},
    /// carrying exactly the listed (name, unit) metrics.
    std::string json(
        const std::vector<std::pair<const char*, const char*>>& names) const;
    bool has(const std::string& name) const;
    /// " name=value unit" for every recorded metric not in `names`.
    std::string unlisted(
        const std::vector<std::pair<const char*, const char*>>& names) const;

private:
    struct Metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    bool correct_ = true;
    std::vector<Metric> metrics_;
};

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
/// Highest of the usual reporting percentiles that still has at least ten
/// samples beyond it (50 when the sample is too small for any of them).
double tail_percentile(std::size_t n);
/// Median plus the tail percentile, with the sample count, as one line.
std::string describe_latency(const std::string& what,
                             const std::vector<double>& ms);

/// FNV-1a over the exact bits of every value fed, so any change of a
/// printed result changes the digest.
class Digest {
public:
    Digest& add(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        return add_u64(bits);
    }
    Digest& add_u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
        return *this;
    }
    std::string hex() const;

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// True iff both doubles have identical bits.
inline bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

double peak_rss_mb();

/// Directory inside the checkout for run-time files (model artifact,
/// serve socket); created on demand, relative to the working directory.
std::string run_dir();

// Workload entry points. Each performs its set-up, then either the timed
// run (args.trace == false: end-to-end metrics) or the traced run
// (per-layer metrics).
void run_label(const Args& args, Report& rep);
void run_fit(const Args& args, Report& rep);
void run_explore(const Args& args, Report& rep);
void run_serve(const Args& args, Report& rep);

/// Host-speed calibration. The machines this runs on are shared, and
/// their speed drifts by tens of percent over a minute, for every process
/// alike. A fixed computation owned by the benchmark (not by the library)
/// is timed next to each measured unit of work, and the unit's time is
/// reported scaled to the calibration's nominal time: "ms at reference host
/// speed". Returns nominal / measured calibration time (below 1 on a
/// slower-than-reference host).
double host_speed();
/// Calibration time on the reference host (ms).
inline constexpr double kNominalCalibrationMs = 20.0;

/// Time `setup` `reps` times and return the median in seconds at reference
/// host speed; the last repetition's state is what the run uses.
template <typename F>
double median_setup_s(int reps, F&& setup) {
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        setup();
        const double sec = ms_since(t0) * 1e-3;
        s.push_back(sec * host_speed());
    }
    return median(std::move(s));
}

/// Set-up repetitions behind setup_s (the median is reported).
inline constexpr int kSetupReps = 3;

/// Shares of a traced pass: named-span self time on the main thread over
/// the pass wall time, and the traced-minus-untraced overhead.
struct Attribution {
    double wall_ms = 0.0;       ///< whole traced pass
    double program_ms = 0.0;    ///< traced wall of the untraced pass's work
    double untraced_ms = 0.0;   ///< the same work with tracing off
    double attributed_ms = 0.0; ///< named-span self time within wall_ms
};
/// Report the trace.* metrics and fail the run below 95% attribution.
void report_attribution(Report& rep, const Attribution& a);

} // namespace pb
