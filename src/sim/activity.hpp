// Switching-activity extraction (paper Eq. 2 and Eq. 3).
//
// Given the interpreter's per-instruction value traces and an elaborated
// design, the oracle answers: for any hardware operator instance, what value
// sequence does it produce, and what sequence does it consume per operand?
// From those sequences it computes
//   SA = sum_i HD(v_i, v_{i-1}) / L      (Eq. 2, Hamming-distance toggles)
//   AR = #changes / L                    (Eq. 3, activation rate)
// where L is the scheduled design latency in cycles. Unrolled replicas see
// the iteration subsequence they execute (replica r of an f-way unrolled
// loop handles iterations congruent to r mod f), so activity features are
// directive-dependent even though the IR trace is shared.
//
// The statistics depend only on the instruction, the operand and the unroll
// factors along the instruction's loop chain, never on the rest of the
// design point, so they are computed once per kernel trace: integer
// per-replica counts live in the Trace's memo (sim/interpreter.hpp), and
// each oracle divides them by its own latency. One pass over an
// instruction's trace fills every replica, with the loop coordinates
// advanced like an odometer instead of decomposed per execution.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hls/elaborate.hpp"
#include "sim/interpreter.hpp"

namespace powergear::sim {

/// Directional activity statistics over one value stream.
struct DirStats {
    double sa = 0.0;  ///< switching activity: total Hamming distance / L
    double ar = 0.0;  ///< activation rate: value-change count / L
    int events = 0;   ///< stream length (executions observed)
};

class ActivityOracle {
public:
    /// Deepest loop nesting the oracle supports (Polybench needs 3).
    static constexpr int kMaxChainDepth = 16;

    /// The oracle borrows every argument. `trace` must be the trace of `fn`
    /// (see Trace for the rules its memo relies on). Throws
    /// std::invalid_argument when an instruction is nested deeper than
    /// kMaxChainDepth loops.
    ActivityOracle(const ir::Function& fn, const hls::ElabGraph& elab,
                   const Trace& trace, std::int64_t latency_cycles);

    /// Value stream produced by operator instance `op_id`.
    std::vector<std::uint32_t> produced_sequence(int op_id) const;

    /// Value stream consumed by `op_id` through its `operand_index`-th input.
    std::vector<std::uint32_t> consumed_sequence(int op_id, int operand_index) const;

    DirStats produced(int op_id) const;
    DirStats consumed(int op_id, int operand_index) const;

    /// Stats over an arbitrary stream: the direct reference the tests check
    /// the memoised per-stream walks against.
    static DirStats stats_of(const std::vector<std::uint32_t>& stream,
                             std::int64_t latency);

    std::int64_t latency() const { return latency_; }

private:
    struct ChainInfo {
        std::vector<int> loops;   ///< outermost first
        std::vector<int> trips;
        std::vector<int> unrolls;
        int replicas = 1;         ///< product of `unrolls`
    };

    /// Visit every execution of `instr` in trace order as visit(replica,
    /// value), where value is what the stream of `operand` (-1: the
    /// produced stream) carries at that execution.
    template <typename Fn>
    void walk(int instr, int operand, Fn&& visit) const;

    /// Per-replica counts of one stream, from the trace's memo or, on a
    /// miss, from one walk.
    const std::vector<StreamCounts>& counts(int instr, int operand) const;

    /// Stats of one stream of `op_id` (`operand` -1: produced), filling
    /// those of every replica of its instruction on first use.
    const DirStats& stats(int op_id, int operand) const;

    /// Execution indices handled by (instr, replica); built lazily.
    const std::vector<std::int64_t>& executions(int instr, int replica) const;

    const ir::Function& fn_;
    const hls::ElabGraph& elab_;
    const Trace& trace_;
    std::int64_t latency_;
    std::vector<ChainInfo> chains_; ///< per instruction
    std::vector<int> stats_base_;   ///< per op: its produced slot in stats_
    mutable std::vector<std::optional<DirStats>> stats_;
    mutable std::vector<std::vector<std::vector<std::int64_t>>> exec_cache_;
};

} // namespace powergear::sim
