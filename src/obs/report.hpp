// Aggregated metrics report: per-phase latency percentiles, counters and
// throughput, serialized to the stable "powergear-obs-v1" JSON schema.
//
//   {
//     "schema": "powergear-obs-v1",
//     "wall_s": 1.84,            // since enable/reset
//     "jobs": 4,                 // resolved parallel-runtime width
//     "phases": {
//       "estimate_batch": {
//         "calls": 3,
//         "total_s": 0.41,       // sum of scope durations (all threads)
//         "p50_ms": 130.2, "p95_ms": 142.9, "max_ms": 145.0,
//         "counters": {"estimates": 72},
//         "rates_per_s": {"estimates": 175.6}   // counter / total_s
//       }, ...
//     }
//   }
//
// Percentiles use the nearest-rank method over every recorded scope
// duration of the phase; rates divide each counter by the phase's total
// busy time, which makes "samples"/"estimates" counters read directly as
// samples/s and estimates/s throughput.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/obs.hpp"

namespace powergear::obs {

/// Aggregated statistics of one phase.
struct PhaseStats {
    std::uint64_t calls = 0; ///< number of completed Scopes
    double total_s = 0.0;    ///< summed scope wall time (across threads)
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double max_ms = 0.0;
    std::map<std::string, std::uint64_t> counters;
};

/// A merged snapshot of the registry, detached from live state: safe to
/// hold, serialize, or ship across the JSON boundary.
struct Report {
    double wall_s = 0.0; ///< wall time since obs enable/reset
    int jobs = 1;        ///< util::parallel_jobs() at snapshot time
    std::map<std::string, PhaseStats> phases; ///< keyed by phase_name()

    /// Serialize to the schema above (pretty-printed, canonical key order).
    std::string to_json() const;

    /// to_json() + trailing newline written to `path`; false on I/O error.
    bool write(const std::string& path) const;
};

/// Merge every thread sink into a detached Report.
Report snapshot();

} // namespace powergear::obs
