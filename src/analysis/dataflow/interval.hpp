// Unsigned value-range (interval) analysis.
//
// The simulator computes in unsigned 32-bit arithmetic masked to each
// instruction's bitwidth after every op, so the natural abstract domain is
// unsigned intervals [lo, hi] within [0, 2^min(bw,32) - 1]. Arithmetic is
// evaluated exactly in int64; when the exact result range escapes the width
// range the value has wrapped and the interval widens to the full width range
// (sound under modular semantics). Induction variables get [0, trip-1],
// which is what makes the DF001 bounds checker precise on affine indices.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/dataflow/solver.hpp"
#include "ir/cfg.hpp"

namespace powergear::analysis::dataflow {

/// Unsigned interval; empty (bottom) when lo > hi.
struct Interval {
    std::int64_t lo = 0;
    std::int64_t hi = -1;

    bool empty() const { return lo > hi; }

    static Interval point(std::int64_t v) { return {v, v}; }
    static Interval range(std::int64_t l, std::int64_t h) { return {l, h}; }
    /// Largest unsigned value representable at `bitwidth` (capped at 32, the
    /// simulator's word size).
    static std::int64_t max_value(int bitwidth);
    /// The full width range [0, max_value].
    static Interval full(int bitwidth);

    /// Hull-union with `o`; returns true when this interval grew.
    bool hull(const Interval& o);
    bool operator==(const Interval& o) const {
        return (empty() && o.empty()) || (lo == o.lo && hi == o.hi);
    }
};

/// Exact interval arithmetic clamped to modular semantics at `bitwidth`:
/// the math range is kept when it fits [0, max_value(bitwidth)], otherwise
/// the result is full(bitwidth) (the value may have wrapped).
Interval interval_add(const Interval& a, const Interval& b, int bitwidth);
Interval interval_sub(const Interval& a, const Interval& b, int bitwidth);
Interval interval_mul(const Interval& a, const Interval& b, int bitwidth);

/// Per-instruction value intervals for one function.
struct IntervalResult {
    /// Indexed by instruction id. Empty interval = the instruction never
    /// executes on any path (unreachable / detached code).
    std::vector<Interval> values;
    SolverStats stats;
};

/// Run the interval analysis to fixpoint over `cfg` (built from `fn`).
/// Scalar registers are tracked flow-sensitively through loop back edges;
/// BRAM array loads are unknown (full width range).
IntervalResult compute_intervals(const ir::Function& fn, const ir::Cfg& cfg);

} // namespace powergear::analysis::dataflow
