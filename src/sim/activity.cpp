#include "sim/activity.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace powergear::sim {

namespace {

constexpr int kMaxDepth = ActivityOracle::kMaxChainDepth;

/// Walks the executions s = 0, 1, ... of one instruction. It keeps the loop
/// coordinates of s (innermost fastest; every level wraps, as the
/// mixed-radix digits of s do), the replica that executes them (the
/// coordinates mod the unroll factors, composed innermost fastest) and a
/// weighted coordinate sum, all updated incrementally: no division per step.
class Odometer {
public:
    Odometer(const std::vector<int>& trips, const std::vector<int>& unrolls,
             const std::int64_t* weights, std::int64_t base)
        : depth_(static_cast<int>(trips.size())), trips_(trips.data()),
          unrolls_(unrolls.data()), weighted_(base) {
        int stride = 1;
        for (int k = depth_; k-- > 0;) {
            stride_[k] = stride;
            stride *= unrolls_[k];
            weight_[k] = weights[k];
        }
    }

    int replica() const { return replica_; }
    std::int64_t weighted() const { return weighted_; }

    void advance() {
        for (int k = depth_; k-- > 0;) {
            if (++coord_[k] < trips_[k]) {
                weighted_ += weight_[k];
                if (++digit_[k] < unrolls_[k]) {
                    replica_ += stride_[k];
                } else {
                    digit_[k] = 0;
                    replica_ -= (unrolls_[k] - 1) * stride_[k];
                }
                return;
            }
            weighted_ -= static_cast<std::int64_t>(trips_[k] - 1) * weight_[k];
            replica_ -= digit_[k] * stride_[k];
            coord_[k] = 0;
            digit_[k] = 0;
        }
    }

private:
    int depth_;
    const int* trips_;
    const int* unrolls_;
    int coord_[kMaxDepth] = {};
    int digit_[kMaxDepth] = {};
    int stride_[kMaxDepth] = {};
    std::int64_t weight_[kMaxDepth] = {};
    int replica_ = 0;
    std::int64_t weighted_;
};

} // namespace

ActivityOracle::ActivityOracle(const ir::Function& fn, const hls::ElabGraph& elab,
                               const Trace& trace, std::int64_t latency_cycles)
    : fn_(fn), elab_(elab), trace_(trace),
      latency_(std::max<std::int64_t>(1, latency_cycles)) {
    const std::size_t n = fn.instrs.size();
    chains_.resize(n);
    exec_cache_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ChainInfo& ci = chains_[i];
        ci.loops = hls::loop_chain(fn, static_cast<int>(i));
        if (ci.loops.size() > static_cast<std::size_t>(kMaxChainDepth))
            throw std::invalid_argument(
                "ActivityOracle: instruction " + std::to_string(i) +
                " is nested " + std::to_string(ci.loops.size()) +
                " loops deep; at most " + std::to_string(kMaxChainDepth) +
                " are supported");
        for (int l : ci.loops) {
            ci.trips.push_back(fn.loop(l).trip_count);
            ci.unrolls.push_back(elab.directives.unroll_of(l));
            ci.replicas *= ci.unrolls.back();
        }
    }
    stats_base_.reserve(static_cast<std::size_t>(elab.num_ops()));
    std::size_t slots = 0;
    for (const hls::ElabOp& op : elab.ops) {
        stats_base_.push_back(static_cast<int>(slots));
        slots += 1 + fn.instr(op.instr).operands.size();
    }
    stats_.resize(slots);
}

template <typename Fn>
void ActivityOracle::walk(int instr, int operand, Fn&& visit) const {
    const int src = operand < 0
        ? instr
        : fn_.instr(instr).operands.at(static_cast<std::size_t>(operand));
    const auto& vals = trace_.of(src);
    if (vals.empty()) return;
    const std::int64_t total = static_cast<std::int64_t>(trace_.of(instr).size());
    const std::int64_t last = static_cast<std::int64_t>(vals.size()) - 1;
    const ChainInfo& c_ci = chains_[static_cast<std::size_t>(instr)];
    const ChainInfo& p_ci = chains_[static_cast<std::size_t>(src)];

    // The source execution is the mixed-radix number of the source's loop
    // coordinates, each taken from the same loop of this chain or, for loops
    // enclosing only the source, its final iteration (the value that escapes
    // the loop): a constant base plus a weighted sum of this chain's
    // coordinates. When the source's chain is a prefix of this one (the
    // produced stream, a same-body pin, a value defined in an enclosing
    // loop) the base is 0 and the sum is s divided by the deeper trips.
    std::int64_t weights[kMaxChainDepth] = {};
    std::int64_t base = 0, place = 1;
    for (std::size_t k = p_ci.loops.size(); k-- > 0;) {
        const auto it =
            std::find(c_ci.loops.begin(), c_ci.loops.end(), p_ci.loops[k]);
        if (it != c_ci.loops.end())
            weights[it - c_ci.loops.begin()] = place;
        else
            base += static_cast<std::int64_t>(p_ci.trips[k] - 1) * place;
        place *= p_ci.trips[k];
    }
    Odometer od(c_ci.trips, c_ci.unrolls, weights, base);
    for (std::int64_t s = 0; s < total; ++s) {
        visit(od.replica(),
              vals[static_cast<std::size_t>(std::min(od.weighted(), last))]);
        od.advance();
    }
}

const std::vector<StreamCounts>& ActivityOracle::counts(int instr,
                                                        int operand) const {
    ActivityMemo& memo = trace_.activity_memo;
    ActivityMemo::Key key{instr, operand,
                          chains_[static_cast<std::size_t>(instr)].unrolls};
    // Misses are computed under the lock, so each stream is counted exactly
    // once and the obs counters are the same at any job count.
    const std::lock_guard<std::mutex> lock(memo.mu_);
    if (const auto it = memo.entries_.find(key); it != memo.entries_.end()) {
        obs::add(obs::Phase::Activity, "hits");
        return it->second;
    }
    const obs::Scope obs_scope(obs::Phase::Activity);
    std::vector<StreamCounts> out(static_cast<std::size_t>(
        chains_[static_cast<std::size_t>(instr)].replicas));
    std::vector<std::uint32_t> prev(out.size(), 0);
    walk(instr, operand, [&](int r, std::uint32_t cur) {
        StreamCounts& c = out[static_cast<std::size_t>(r)];
        std::uint32_t& p = prev[static_cast<std::size_t>(r)];
        if (c.events) {
            const std::uint32_t diff = cur ^ p;
            if (diff) {
                c.hd += std::popcount(diff);
                ++c.changes;
            }
        }
        p = cur;
        ++c.events;
    });
    obs::add(obs::Phase::Activity, "streams");
    return memo.entries_.emplace(std::move(key), std::move(out)).first->second;
}

const DirStats& ActivityOracle::stats(int op_id, int operand) const {
    const hls::ElabOp& op = elab_.ops.at(static_cast<std::size_t>(op_id));
    const std::size_t slot = static_cast<std::size_t>(
        stats_base_[static_cast<std::size_t>(op_id)] + 1 + operand);
    if (!stats_[slot]) {
        const std::vector<StreamCounts>& per_replica = counts(op.instr, operand);
        const int first = elab_.op_id(op.instr, 0);
        const int reps = elab_.replication[static_cast<std::size_t>(op.instr)];
        const double L = static_cast<double>(latency_);
        for (std::size_t r = 0; r < static_cast<std::size_t>(reps); ++r) {
            const StreamCounts& c = per_replica.at(r);
            stats_[static_cast<std::size_t>(
                stats_base_[static_cast<std::size_t>(first) + r] + 1 + operand)] =
                DirStats{static_cast<double>(c.hd) / L,
                         static_cast<double>(c.changes) / L,
                         static_cast<int>(c.events)};
        }
    }
    return *stats_[slot];
}

DirStats ActivityOracle::produced(int op_id) const { return stats(op_id, -1); }

DirStats ActivityOracle::consumed(int op_id, int operand_index) const {
    const hls::ElabOp& op = elab_.ops.at(static_cast<std::size_t>(op_id));
    if (operand_index < 0 ||
        operand_index >= static_cast<int>(fn_.instr(op.instr).operands.size()))
        throw std::out_of_range("ActivityOracle: op " + std::to_string(op_id) +
                                " has no operand " + std::to_string(operand_index));
    return stats(op_id, operand_index);
}

const std::vector<std::int64_t>& ActivityOracle::executions(int instr,
                                                            int replica) const {
    auto& per_instr = exec_cache_[static_cast<std::size_t>(instr)];
    if (per_instr.empty()) {
        per_instr.resize(static_cast<std::size_t>(
            chains_[static_cast<std::size_t>(instr)].replicas));
        std::int64_t s = 0;
        walk(instr, -1, [&](int r, std::uint32_t) {
            per_instr[static_cast<std::size_t>(r)].push_back(s++);
        });
    }
    return per_instr.at(static_cast<std::size_t>(replica));
}

std::vector<std::uint32_t> ActivityOracle::produced_sequence(int op_id) const {
    const hls::ElabOp& op = elab_.ops.at(static_cast<std::size_t>(op_id));
    const auto& vals = trace_.of(op.instr);
    // Unreplicated instructions execute the whole trace in order.
    if (chains_[static_cast<std::size_t>(op.instr)].replicas <= 1) return vals;
    std::vector<std::uint32_t> out;
    const std::vector<std::int64_t>& execs = executions(op.instr, op.replica);
    out.reserve(execs.size());
    for (std::int64_t s : execs) out.push_back(vals[static_cast<std::size_t>(s)]);
    return out;
}

std::vector<std::uint32_t> ActivityOracle::consumed_sequence(int op_id,
                                                             int operand_index) const {
    const hls::ElabOp& op = elab_.ops.at(static_cast<std::size_t>(op_id));
    std::vector<std::uint32_t> out;
    walk(op.instr, operand_index, [&](int r, std::uint32_t v) {
        if (r == op.replica) out.push_back(v);
    });
    return out;
}

DirStats ActivityOracle::stats_of(const std::vector<std::uint32_t>& stream,
                                  std::int64_t latency) {
    DirStats st;
    st.events = static_cast<int>(stream.size());
    std::int64_t hd = 0, changes = 0;
    for (std::size_t i = 1; i < stream.size(); ++i) {
        const std::uint32_t diff = stream[i] ^ stream[i - 1];
        if (diff) {
            hd += std::popcount(diff);
            ++changes;
        }
    }
    const double L = static_cast<double>(std::max<std::int64_t>(1, latency));
    st.sa = static_cast<double>(hd) / L;
    st.ar = static_cast<double>(changes) / L;
    return st;
}

} // namespace powergear::sim
