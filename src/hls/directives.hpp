// HLS optimization directives and design-space enumeration.
//
// The paper generates each dataset "by applying loop pipelining, loop
// unrolling and buffer partitioning". We model exactly those three knobs:
// a per-innermost-loop unroll factor and pipeline flag, and a per-array
// partition (bank) count. The full cartesian space is addressable by index
// so datasets can sample it deterministically.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace powergear::hls {

/// Per-loop directive (applies to innermost loops).
struct LoopDirective {
    int unroll = 1;        ///< replication factor; must divide the trip count
    bool pipeline = false; ///< initiate iterations at interval II
};

/// Full directive set for one design point.
struct Directives {
    std::map<int, LoopDirective> loops;    ///< loop id -> directive
    std::map<int, int> array_partition;    ///< array id -> bank count (>= 1)

    int unroll_of(int loop_id) const;
    bool pipelined(int loop_id) const;
    int banks_of(int array_id) const;

    /// Compact human-readable encoding, e.g. "L1:u4p|L3:u1|A0:2".
    std::string to_string() const;
};

/// The enumerable design space of a kernel: which loops/arrays are tunable
/// and the legal choice lists per knob.
class DesignSpace {
public:
    /// Candidate unroll factors are the divisors of each innermost loop's
    /// trip count intersected with `unroll_choices`; partition banks come
    /// from `partition_choices` (arrays smaller than 2 elements and scalar
    /// registers are not partitionable).
    DesignSpace(const ir::Function& fn,
                std::vector<int> unroll_choices = {1, 2, 4, 8},
                std::vector<int> partition_choices = {1, 2, 4});

    /// Total number of distinct design points (product of knob cardinalities).
    std::uint64_t size() const { return size_; }

    /// Decode design point `index` in [0, size()).
    Directives point(std::uint64_t index) const;

    /// Evenly-spread deterministic sample of `count` distinct points
    /// (includes index 0, the unoptimized baseline).
    std::vector<Directives> sample(int count) const;

    int num_tunable_arrays() const { return static_cast<int>(array_ids_.size()); }

private:
    std::vector<int> loop_ids_;
    std::vector<std::vector<int>> loop_unrolls_; ///< legal factors per loop
    std::vector<int> array_ids_;
    std::vector<int> partition_choices_;
    std::uint64_t size_ = 1;
};

} // namespace powergear::hls
