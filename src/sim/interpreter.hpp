// IR interpreter with per-instruction value tracing.
//
// Plays the role of the paper's instrumented-IR executable: the kernel runs
// on concrete stimuli and every SSA variable's value is recorded per
// execution. The traces feed Eq. (2)/(3) switching-activity extraction and
// the gate-level activity accounting of the synthetic board.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "ir/ir.hpp"

namespace powergear::sim {

class ActivityOracle;

/// Integer numerators of Eq. (2)/(3) over one value stream: the summed
/// Hamming distance between consecutive values, the number of value
/// changes, and the stream length.
struct StreamCounts {
    std::int64_t hd = 0;
    std::int64_t changes = 0;
    std::int64_t events = 0;
};

/// The activity oracle's per-kernel memo (see Trace). Copying gives an empty
/// memo and assigning clears it, so a memo never outlives the values it was
/// computed from.
class ActivityMemo {
public:
    ActivityMemo() = default;
    ActivityMemo(const ActivityMemo&) {}
    ActivityMemo& operator=(const ActivityMemo&) {
        const std::lock_guard<std::mutex> lock(mu_);
        entries_.clear();
        return *this;
    }

private:
    friend class ActivityOracle;
    struct Key {
        int instr = -1;
        int operand = -1;         ///< operand slot; -1 for the produced stream
        std::vector<int> unrolls; ///< along the instruction's loop chain
        auto operator<=>(const Key&) const = default;
    };
    std::mutex mu_;
    /// One StreamCounts per replica. Entries are never erased while the memo
    /// lives, so references into the map stay valid across insertions.
    std::map<Key, std::vector<StreamCounts>> entries_;
};

/// Recorded execution history. For value-producing instructions the entries
/// are results; for stores they are the written values; empty for Ret.
///
/// Every design point of a kernel shares one Trace, so the Trace also holds
/// the activity oracle's memo of per-replica StreamCounts, filled lazily by
/// whichever oracle asks first and guarded by its own mutex: oracles on
/// several threads may share one Trace. The rules that keep memoized
/// statistics equal to freshly computed ones:
///   - `values` must not change after the first oracle query (only
///     Interpreter::run and io::decode_trace write it);
///   - a Trace records one Function, and every oracle over it uses that
///     function;
///   - a copied, moved or assigned Trace starts with an empty memo.
struct Trace {
    std::vector<std::vector<std::uint32_t>> values; ///< per instruction id
    std::int64_t executed_ops = 0;                  ///< dynamic op count
    mutable ActivityMemo activity_memo;

    const std::vector<std::uint32_t>& of(int instr) const {
        return values.at(static_cast<std::size_t>(instr));
    }
};

/// Executes one Function. Arrays persist across run() calls so multi-phase
/// kernels (init loop + compute loops) behave like the C reference.
class Interpreter {
public:
    explicit Interpreter(const ir::Function& fn);
    /// The interpreter keeps a reference to `fn`; binding a temporary would
    /// dangle, so rvalues are rejected at compile time.
    explicit Interpreter(ir::Function&&) = delete;

    /// Fill an array's backing store (size must match the declaration).
    void set_array(int array_id, std::vector<std::uint32_t> data);
    const std::vector<std::uint32_t>& array(int array_id) const;

    /// Execute the function once. When `record` is set, returns the full
    /// per-instruction value trace (required for activity extraction).
    Trace run(bool record = true);

private:
    const ir::Function& fn_;
    std::vector<std::vector<std::uint32_t>> memory_; ///< per array
};

} // namespace powergear::sim
