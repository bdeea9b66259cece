// Activity-oracle (Eq. 2/3) tests of the per-kernel statistics memo: every
// statistic equals a direct-division reference whichever design filled the
// shared memo, parallel queries over one Trace match serial ones, copies
// and decoded traces start with memos of their own, and a loop nest deeper
// than the oracle supports is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "hls/elaborate.hpp"
#include "io/serial.hpp"
#include "ir/builder.hpp"
#include "kernels/polybench.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "sim/activity.hpp"
#include "sim/interpreter.hpp"
#include "sim/stimulus.hpp"
#include "util/parallel.hpp"

using namespace powergear;

namespace {

/// The stream an operator replica sees, computed the direct way: each
/// execution index is decomposed into loop coordinates by division (every
/// level wrapping), the replica is the coordinates mod the unroll factors,
/// and the source execution is s / tail for a producer whose loop chain is
/// a prefix of the consumer's, else the producer's coordinates projected
/// from the consumer's (final iteration for loops enclosing only the
/// producer). `operand` -1 is the produced stream.
std::vector<std::uint32_t> reference_stream(const ir::Function& fn,
                                            const hls::Directives& dirs,
                                            const sim::Trace& trace, int instr,
                                            int replica, int operand) {
    const int src = operand < 0
        ? instr
        : fn.instr(instr).operands[static_cast<std::size_t>(operand)];
    const std::vector<int> c_chain = hls::loop_chain(fn, instr);
    const std::vector<int> p_chain = hls::loop_chain(fn, src);
    const auto& vals = trace.of(src);
    std::vector<std::uint32_t> out;
    if (vals.empty()) return out;
    const std::int64_t last = static_cast<std::int64_t>(vals.size()) - 1;
    const bool prefix =
        p_chain.size() <= c_chain.size() &&
        std::equal(p_chain.begin(), p_chain.end(), c_chain.begin());
    std::int64_t tail = 1;
    for (std::size_t k = p_chain.size(); k < c_chain.size(); ++k)
        tail *= fn.loop(c_chain[k]).trip_count;

    const std::int64_t total = static_cast<std::int64_t>(trace.of(instr).size());
    std::vector<int> coords(c_chain.size());
    for (std::int64_t s = 0; s < total; ++s) {
        std::int64_t rest = s;
        for (std::size_t k = c_chain.size(); k-- > 0;) {
            const int trips = fn.loop(c_chain[k]).trip_count;
            coords[k] = static_cast<int>(rest % trips);
            rest /= trips;
        }
        int r = 0;
        for (std::size_t k = 0; k < c_chain.size(); ++k) {
            const int u = dirs.unroll_of(c_chain[k]);
            r = r * u + coords[k] % u;
        }
        if (r != replica) continue;
        std::int64_t sp = s / tail;
        if (!prefix) {
            sp = 0;
            for (int l : p_chain) {
                const int trips = fn.loop(l).trip_count;
                const auto it = std::find(c_chain.begin(), c_chain.end(), l);
                const int coord = it != c_chain.end()
                    ? coords[static_cast<std::size_t>(it - c_chain.begin())]
                    : trips - 1;
                sp = sp * trips + coord;
            }
        }
        out.push_back(vals[static_cast<std::size_t>(std::min(sp, last))]);
    }
    return out;
}

bool same_bits(const sim::DirStats& a, const sim::DirStats& b) {
    return std::bit_cast<std::uint64_t>(a.sa) == std::bit_cast<std::uint64_t>(b.sa) &&
           std::bit_cast<std::uint64_t>(a.ar) == std::bit_cast<std::uint64_t>(b.ar) &&
           a.events == b.events;
}

/// Design points of `fn`: an even spread of its space, plus one point that
/// unrolls every loop with an even trip count by 2, outer loops included
/// (the space itself unrolls innermost loops only).
std::vector<hls::Directives> design_points(const ir::Function& fn) {
    std::vector<hls::Directives> pts = hls::DesignSpace(fn).sample(4);
    hls::Directives all;
    for (int l = 0; l < static_cast<int>(fn.loops.size()); ++l)
        if (fn.loop(l).trip_count % 2 == 0) all.loops[l] = {2, false};
    pts.push_back(all);
    return pts;
}

/// A kernel whose SSA values cross loop boundaries the way no Polybench
/// kernel's do: a value from loop l is consumed inside its sibling loop m
/// (same i and j, l at its final iteration) and after the whole j nest
/// (j and l both at their final iterations).
ir::Function escaping_kernel() {
    ir::Builder b("escape");
    const int out = b.array("O", {4});
    const int side = b.array("S", {2});
    b.begin_loop("i", 4);
    const int i = b.indvar();
    b.begin_loop("j", 3);
    const int j = b.indvar();
    b.begin_loop("l", 2);
    const int v = b.mul(b.add(i, b.constant(3)), b.add(b.indvar(), j));
    b.end_loop();
    b.begin_loop("m", 2);
    b.store(side, {b.indvar()}, b.xor_(v, b.indvar()));
    b.end_loop();
    b.end_loop();
    b.store(out, {i}, b.add(v, i));
    b.end_loop();
    return b.build();
}

/// Every produced and consumed statistic of one oracle, slot by slot in op
/// order, queried in op order or in reverse (so memo fills come in a
/// different order).
std::vector<sim::DirStats> all_stats(const ir::Function& fn,
                                     const hls::ElabGraph& elab,
                                     const sim::ActivityOracle& oracle,
                                     bool reverse = false) {
    std::vector<std::size_t> base;
    std::size_t slots = 0;
    for (const hls::ElabOp& op : elab.ops) {
        base.push_back(slots);
        slots += 1 + fn.instr(op.instr).operands.size();
    }
    std::vector<sim::DirStats> out(slots);
    for (int i = 0; i < elab.num_ops(); ++i) {
        const int o = reverse ? elab.num_ops() - 1 - i : i;
        const std::size_t b = base[static_cast<std::size_t>(o)];
        out[b] = oracle.produced(o);
        const int n = static_cast<int>(
            fn.instr(elab.ops[static_cast<std::size_t>(o)].instr).operands.size());
        for (int k = 0; k < n; ++k)
            out[b + 1 + static_cast<std::size_t>(k)] = oracle.consumed(o, k);
    }
    return out;
}

/// Every stream of `oracle` equals the direct reference, and every
/// statistic equals stats_of over that stream at latency L, bit for bit.
void expect_matches_reference(const ir::Function& fn, const hls::Directives& dirs,
                              const hls::ElabGraph& elab, const sim::Trace& trace,
                              const sim::ActivityOracle& oracle, std::int64_t L,
                              bool reverse) {
    for (int i = 0; i < elab.num_ops(); ++i) {
        const int o = reverse ? elab.num_ops() - 1 - i : i;
        const hls::ElabOp& op = elab.ops[static_cast<std::size_t>(o)];
        const std::vector<std::uint32_t> prod = oracle.produced_sequence(o);
        ASSERT_EQ(prod, reference_stream(fn, dirs, trace, op.instr, op.replica, -1))
            << "op " << o;
        ASSERT_TRUE(same_bits(oracle.produced(o),
                              sim::ActivityOracle::stats_of(prod, L)))
            << "op " << o;
        const int n = static_cast<int>(fn.instr(op.instr).operands.size());
        for (int k = 0; k < n; ++k) {
            const std::vector<std::uint32_t> cons = oracle.consumed_sequence(o, k);
            ASSERT_EQ(cons, reference_stream(fn, dirs, trace, op.instr, op.replica, k))
                << "op " << o << " operand " << k;
            ASSERT_TRUE(same_bits(oracle.consumed(o, k),
                                  sim::ActivityOracle::stats_of(cons, L)))
                << "op " << o << " operand " << k;
        }
    }
}

std::uint64_t activity_counter(const char* name) {
    const obs::Report rep = obs::snapshot();
    const auto ph = rep.phases.find("activity");
    if (ph == rep.phases.end()) return 0;
    const auto c = ph->second.counters.find(name);
    return c == ph->second.counters.end() ? 0 : c->second;
}

} // namespace

// Several designs of every Polybench kernel (and of a kernel with values
// escaping loops) share one Trace, and consecutive oracles query in
// opposite op orders, so many statistics come from memo entries another
// design filled. Each must equal the direct reference bit for bit, at the
// oracle's own latency.
TEST(ActivityMemo, EveryStatisticMatchesTheDirectReference) {
    std::vector<ir::Function> fns;
    for (const std::string& name : kernels::polybench_names())
        fns.push_back(kernels::build_polybench(name, 8));
    fns.push_back(escaping_kernel());
    for (const ir::Function& fn : fns) {
        SCOPED_TRACE(fn.name);
        const sim::Trace trace = sim::simulate(fn, sim::StimulusProfile{});
        const std::vector<hls::Directives> pts = design_points(fn);
        for (std::size_t p = 0; p < pts.size(); ++p) {
            SCOPED_TRACE("point " + std::to_string(p));
            const hls::ElabGraph elab = hls::elaborate(fn, pts[p]);
            const std::int64_t L = 1000 + 37 * static_cast<std::int64_t>(p);
            const sim::ActivityOracle oracle(fn, elab, trace, L);
            expect_matches_reference(fn, pts[p], elab, trace, oracle, L, p % 2 == 1);
        }
    }
}

// Oracles on pool workers race to fill one shared memo; their statistics
// must equal the ones serial oracles compute over a fresh copy.
TEST(ActivityMemo, ParallelQueriesOverOneTraceMatchSerial) {
    const ir::Function fn = kernels::build_polybench("atax", 8);
    const sim::Trace shared = sim::simulate(fn, sim::StimulusProfile{});
    std::vector<hls::Directives> pts = hls::DesignSpace(fn).sample(12);
    const std::vector<hls::Directives> extra = design_points(fn);
    pts.insert(pts.end(), extra.begin(), extra.end());
    std::vector<hls::ElabGraph> elabs;
    for (const hls::Directives& d : pts) elabs.push_back(hls::elaborate(fn, d));

    const sim::Trace fresh = shared;
    std::vector<std::vector<sim::DirStats>> serial(pts.size());
    for (std::size_t p = 0; p < pts.size(); ++p)
        serial[p] = all_stats(fn, elabs[p],
                              sim::ActivityOracle(fn, elabs[p], fresh, 500));

    util::set_parallel_jobs(4);
    std::vector<std::vector<sim::DirStats>> fanned(pts.size());
    util::parallel_for(pts.size(), [&](std::size_t p) {
        const sim::ActivityOracle oracle(fn, elabs[p], shared, 500);
        fanned[p] = all_stats(fn, elabs[p], oracle, p % 2 == 1);
    });
    util::set_parallel_jobs(0);

    for (std::size_t p = 0; p < pts.size(); ++p) {
        ASSERT_EQ(serial[p].size(), fanned[p].size()) << "point " << p;
        for (std::size_t i = 0; i < serial[p].size(); ++i)
            ASSERT_TRUE(same_bits(serial[p][i], fanned[p][i]))
                << "point " << p << " slot " << i;
    }
}

// A copied, moved or assigned Trace starts with an empty memo of its own
// (its first oracle computes every stream again), the original keeps its
// memo, and a trace decoded from its artifact gives the same statistics.
TEST(ActivityMemo, CopiesAndDecodedTracesStartEmptyWithEqualStats) {
    const ir::Function fn = kernels::build_polybench("gemm", 8);
    const hls::ElabGraph elab =
        hls::elaborate(fn, hls::DesignSpace(fn).sample(3).back());
    sim::Trace original = sim::simulate(fn, sim::StimulusProfile{});

    obs::set_enabled(true);
    obs::reset();
    const std::vector<sim::DirStats> want =
        all_stats(fn, elab, sim::ActivityOracle(fn, elab, original, 300));
    const std::uint64_t streams = activity_counter("streams");
    EXPECT_GT(streams, 0u);

    const auto check = [&](const sim::Trace& t, std::uint64_t want_streams,
                           const char* what) {
        obs::reset();
        const std::vector<sim::DirStats> got =
            all_stats(fn, elab, sim::ActivityOracle(fn, elab, t, 300));
        EXPECT_EQ(activity_counter("streams"), want_streams) << what;
        ASSERT_EQ(got.size(), want.size()) << what;
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_TRUE(same_bits(got[i], want[i])) << what << " slot " << i;
    };
    check(original, 0, "original, memo filled");
    EXPECT_EQ(activity_counter("hits"), streams);

    sim::Trace copy = original;
    check(copy, streams, "copy");
    check(original, 0, "original after copying");
    sim::Trace moved = std::move(copy);
    check(moved, streams, "moved");
    moved = original;
    check(moved, streams, "assigned");
    check(io::decode_trace(io::encode_trace(original)), streams, "decoded");

    obs::set_enabled(false);
    obs::reset();
}

// The oracle keeps loop coordinates in fixed-depth buffers: a nest one
// level deeper than it supports is rejected at construction, and the
// deepest supported nest still matches the direct reference.
TEST(ActivityMemo, LoopNestDeeperThanSupportedIsRejected) {
    const auto nest = [](int depth) {
        ir::Builder b("deep");
        const int out = b.array("O", {2});
        // Trips 2 at both ends and 1 between: every step carries through
        // the middle levels.
        for (int d = 0; d < depth; ++d)
            b.begin_loop(std::to_string(d), d == 0 || d == depth - 1 ? 2 : 1);
        b.store(out, {b.indvar()}, b.add(b.indvar(), b.indvar_at(depth - 1)));
        for (int d = 0; d < depth; ++d) b.end_loop();
        return b.build();
    };
    constexpr int kMax = sim::ActivityOracle::kMaxChainDepth;

    const ir::Function too_deep = nest(kMax + 1);
    const sim::Trace deep_trace = sim::simulate(too_deep, sim::StimulusProfile{});
    const hls::ElabGraph deep_elab = hls::elaborate(too_deep, hls::Directives{});
    EXPECT_THROW(sim::ActivityOracle(too_deep, deep_elab, deep_trace, 10),
                 std::invalid_argument);

    const ir::Function deepest = nest(kMax);
    const sim::Trace trace = sim::simulate(deepest, sim::StimulusProfile{});
    hls::Directives dirs;
    dirs.loops[kMax - 1] = {2, false};
    dirs.loops[0] = {2, false};
    const hls::ElabGraph elab = hls::elaborate(deepest, dirs);
    const sim::ActivityOracle oracle(deepest, elab, trace, 10);
    expect_matches_reference(deepest, dirs, elab, trace, oracle, 10, false);
}

// An op id past the design or a pin index outside the consumer's operands
// is an error, not a read of another op's slot.
TEST(ActivityMemo, OutOfRangeQueriesThrow) {
    const ir::Function fn = kernels::build_polybench("atax", 8);
    const sim::Trace trace = sim::simulate(fn, sim::StimulusProfile{});
    const hls::ElabGraph elab = hls::elaborate(fn, hls::Directives{});
    const sim::ActivityOracle oracle(fn, elab, trace, 100);
    for (int o = 0; o < elab.num_ops(); ++o) {
        const int n = static_cast<int>(
            fn.instr(elab.ops[static_cast<std::size_t>(o)].instr).operands.size());
        EXPECT_THROW(oracle.consumed(o, -1), std::out_of_range) << "op " << o;
        EXPECT_THROW(oracle.consumed(o, n), std::out_of_range) << "op " << o;
    }
    EXPECT_THROW(oracle.produced(elab.num_ops()), std::out_of_range);
}
