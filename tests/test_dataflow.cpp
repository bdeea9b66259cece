// Dataflow-analysis framework tests: CFG lowering, the generic worklist
// solver (convergence, widening, the visit cap), liveness against a
// hand-computed oracle, interval precision, the dependence pass, the
// DF004 scheduler cross-check contract, SARIF round-tripping, and the
// corpus invariant that every built-in kernel analyzes clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "json_parse.hpp"
#include "analysis/dataflow/dependence.hpp"
#include "analysis/dataflow/interval.hpp"
#include "analysis/dataflow/liveness.hpp"
#include "analysis/dataflow/solver.hpp"
#include "analysis/df_check.hpp"
#include "analysis/sarif.hpp"
#include "hls/elaborate.hpp"
#include "hls/scheduler.hpp"
#include "ir/builder.hpp"
#include "ir/cfg.hpp"
#include "kernels/polybench.hpp"
#include "obs/json.hpp"

using namespace powergear;
using ir::Builder;
namespace df = analysis::dataflow;

namespace {

/// acc = 1; for i < 8: acc += A[i]; out[0] = acc — one loop over a register.
ir::Function accumulator_kernel() {
    Builder b("accum");
    const int a = b.array("A", {8});
    const int out = b.array("out", {1});
    const int acc = b.reg("acc");
    b.store_reg(acc, b.constant(1));
    b.begin_loop("L0", 8);
    const int i = b.indvar();
    b.store_reg(acc, b.add(b.load_reg(acc), b.load(a, {i})));
    b.end_loop();
    b.store(out, {b.constant(0)}, b.load_reg(acc));
    return b.build();
}

/// All kernel names the CLI's `lint --all` sweeps.
std::vector<std::string> all_kernel_names() {
    std::vector<std::string> names = kernels::polybench_names();
    for (const std::string& n : kernels::extended_kernel_names())
        names.push_back(n);
    return names;
}

/// Test lattice: ints under max, bottom = -1, per-block increments.
/// Diverges on cycles unless widened (saturates at kSaturated).
struct MaxCounter {
    using State = int;
    static constexpr int kSaturated = 1000;
    std::vector<int> inc;

    State boundary() { return 0; }
    State initial() { return -1; }
    bool join(State& into, const State& from) {
        if (from <= into) return false;
        into = from;
        return true;
    }
    State transfer(int b, const State& in) {
        return in < 0 ? -1 : in + inc[static_cast<std::size_t>(b)];
    }
    void widen(State& s) {
        if (s >= 0) s = kSaturated;
    }
};

} // namespace

// --- CFG lowering -----------------------------------------------------------

TEST(Cfg, LowersOneLoopToDoWhileShape) {
    const ir::Function fn = accumulator_kernel();
    const ir::Cfg cfg = ir::build_cfg(fn);

    // top-first, body, latch, continuation.
    ASSERT_EQ(cfg.num_blocks(), 4);
    EXPECT_EQ(cfg.entry, 0);
    EXPECT_EQ(cfg.exit, 3);
    ASSERT_EQ(static_cast<int>(cfg.latch_of.size()), 1);
    const int latch = cfg.latch_of[0];
    EXPECT_TRUE(cfg.block(latch).is_latch);
    EXPECT_EQ(cfg.block(latch).loop, 0);

    // Entry falls straight into the body (trip_count >= 1); the latch owns
    // both the back edge and the loop exit.
    const int body = cfg.block(cfg.entry).succs.at(0);
    EXPECT_EQ(cfg.block(body).loop, 0);
    const std::vector<int>& ls = cfg.block(latch).succs;
    EXPECT_NE(std::find(ls.begin(), ls.end(), body), ls.end());
    EXPECT_NE(std::find(ls.begin(), ls.end(), cfg.exit), ls.end());

    // Every instruction is placed, and the loop's indvar lands in the body.
    for (int id = 0; id < static_cast<int>(fn.instrs.size()); ++id)
        EXPECT_GE(cfg.block_of_instr[static_cast<std::size_t>(id)], 0)
            << "instr " << id << " not placed";
    EXPECT_EQ(cfg.block_of_instr[static_cast<std::size_t>(fn.loop(0).indvar)],
              body);

    const std::vector<bool> reach = cfg.reachable();
    for (int b = 0; b < cfg.num_blocks(); ++b)
        EXPECT_TRUE(reach[static_cast<std::size_t>(b)]);
}

TEST(Cfg, DetachedLoopBecomesUnreachableBlocks) {
    ir::Function fn = accumulator_kernel();
    fn.top.erase(std::remove_if(fn.top.begin(), fn.top.end(),
                                [](const ir::BodyItem& it) {
                                    return it.kind ==
                                           ir::BodyItem::Kind::ChildLoop;
                                }),
                 fn.top.end());
    const ir::Cfg cfg = ir::build_cfg(fn);
    const std::vector<bool> reach = cfg.reachable();
    bool found_unreachable_instr = false;
    for (int b = 0; b < cfg.num_blocks(); ++b)
        if (!reach[static_cast<std::size_t>(b)] &&
            !cfg.block(b).instrs.empty())
            found_unreachable_instr = true;
    EXPECT_TRUE(found_unreachable_instr);
}

// --- worklist solver --------------------------------------------------------

TEST(Solver, ConvergesOnDiamondCfg) {
    // 0 -> {1, 2} -> 3, increments chosen so the join at 3 must pick the
    // larger arm.
    ir::Cfg cfg;
    cfg.blocks.resize(4);
    cfg.entry = 0;
    cfg.exit = 3;
    cfg.add_edge(0, 1);
    cfg.add_edge(0, 2);
    cfg.add_edge(1, 3);
    cfg.add_edge(2, 3);

    MaxCounter a{{1, 10, 20, 5}};
    const auto r = df::solve(cfg, a, df::Direction::Forward);
    EXPECT_TRUE(r.stats.converged);
    EXPECT_EQ(r.stats.widened, 0);
    EXPECT_EQ(r.out[0], 1);
    EXPECT_EQ(r.out[1], 11);
    EXPECT_EQ(r.out[2], 21);
    EXPECT_EQ(r.in[3], 21);  // join over both arms
    EXPECT_EQ(r.out[3], 26);
}

TEST(Solver, WideningTerminatesAnUnboundedChain) {
    // 0 -> 1, 1 -> 1: the self-loop increments forever without widening.
    ir::Cfg cfg;
    cfg.blocks.resize(2);
    cfg.entry = 0;
    cfg.exit = 1;
    cfg.add_edge(0, 1);
    cfg.add_edge(1, 1);

    MaxCounter a{{0, 1}};
    const auto r = df::solve(cfg, a, df::Direction::Forward,
                             /*widen_after=*/4, /*max_visits=*/64);
    EXPECT_TRUE(r.stats.converged);
    EXPECT_GT(r.stats.widened, 0);
    EXPECT_EQ(r.out[1], MaxCounter::kSaturated);
}

TEST(Solver, VisitCapReportsNonConvergence) {
    ir::Cfg cfg;
    cfg.blocks.resize(2);
    cfg.entry = 0;
    cfg.exit = 1;
    cfg.add_edge(0, 1);
    cfg.add_edge(1, 1);

    MaxCounter a{{0, 1}};
    // Widening disabled (threshold above the cap): the cap must kick in.
    const auto r = df::solve(cfg, a, df::Direction::Forward,
                             /*widen_after=*/1000, /*max_visits=*/8);
    EXPECT_FALSE(r.stats.converged);
}

TEST(Solver, BackwardDirectionPropagatesAgainstEdges) {
    // 0 -> 1 -> 2 with boundary at the exit: backward in-states flow 2 -> 0.
    ir::Cfg cfg;
    cfg.blocks.resize(3);
    cfg.entry = 0;
    cfg.exit = 2;
    cfg.add_edge(0, 1);
    cfg.add_edge(1, 2);

    MaxCounter a{{1, 2, 3}};
    const auto r = df::solve(cfg, a, df::Direction::Backward);
    EXPECT_TRUE(r.stats.converged);
    EXPECT_EQ(r.out[2], 3); // boundary 0 + inc 3
    EXPECT_EQ(r.in[1], 3);
    EXPECT_EQ(r.out[0], 6);
}

// --- def-use & liveness -----------------------------------------------------

TEST(DefUse, ChainsListEveryConsumer) {
    const ir::Function fn = accumulator_kernel();
    const df::DefUse du = df::build_def_use(fn);
    int uses = 0;
    for (int id = 0; id < static_cast<int>(fn.instrs.size()); ++id)
        for (int u : du.uses[static_cast<std::size_t>(id)]) {
            const auto& ops = fn.instr(u).operands;
            EXPECT_NE(std::find(ops.begin(), ops.end(), id), ops.end());
            ++uses;
        }
    int operands = 0;
    for (const ir::Instr& in : fn.instrs)
        operands += static_cast<int>(in.operands.size());
    EXPECT_EQ(uses, operands);
}

TEST(Liveness, MatchesHandOracle) {
    // acc: init store (live through the loop), accumulate store (live across
    // the back edge and after the loop), final load, then one store whose
    // value nothing can ever observe.
    Builder b("live");
    const int a = b.array("A", {4});
    const int out = b.array("out", {1});
    const int acc = b.reg("acc");
    b.store_reg(acc, b.constant(0));
    b.begin_loop("L0", 4);
    const int i = b.indvar();
    b.store_reg(acc, b.add(b.load_reg(acc), b.load(a, {i})));
    b.end_loop();
    b.store(out, {b.constant(0)}, b.load_reg(acc));
    b.store_reg(acc, b.constant(9)); // dead: function ends here
    const ir::Function fn = b.build();

    // Hand oracle: the dead store is the last register store by id.
    int last_reg_store = -1;
    for (int id = 0; id < static_cast<int>(fn.instrs.size()); ++id) {
        const ir::Instr& in = fn.instr(id);
        if (in.op == ir::Opcode::Store &&
            fn.arrays[static_cast<std::size_t>(in.array)].is_register())
            last_reg_store = id;
    }
    ASSERT_GE(last_reg_store, 0);

    const ir::Cfg cfg = ir::build_cfg(fn);
    const df::LivenessResult r = df::compute_liveness(fn, cfg);
    EXPECT_TRUE(r.stats.converged);
    ASSERT_EQ(r.dead_stores.size(), 1u);
    EXPECT_EQ(r.dead_stores[0], last_reg_store);

    // acc is live out of the loop body (read by the next iteration and
    // after the loop), i.e. live at the latch.
    const int latch = cfg.latch_of[0];
    EXPECT_TRUE(r.live_out[static_cast<std::size_t>(latch)]
                          [static_cast<std::size_t>(acc)]);
}

TEST(Liveness, AccumulatorKernelHasNoDeadStores) {
    const ir::Function fn = accumulator_kernel();
    const df::LivenessResult r = df::compute_liveness(fn, ir::build_cfg(fn));
    EXPECT_TRUE(r.dead_stores.empty());
}

// --- intervals --------------------------------------------------------------

TEST(Intervals, IndvarOffsetArithmeticIsExact) {
    Builder b("iv");
    const int out = b.array("out", {16});
    b.begin_loop("L0", 8);
    const int i = b.indvar();
    const int v = b.add(i, b.constant(2));
    b.store(out, {v}, i);
    b.end_loop();
    const ir::Function fn = b.build();

    const df::IntervalResult r = df::compute_intervals(fn, ir::build_cfg(fn));
    EXPECT_TRUE(r.stats.converged);
    EXPECT_EQ(r.values[static_cast<std::size_t>(i)],
              df::Interval::range(0, 7));
    EXPECT_EQ(r.values[static_cast<std::size_t>(v)],
              df::Interval::range(2, 9));
}

TEST(Intervals, WrapAroundWidensToFullWidthRange) {
    // 8-bit add that can exceed 255: modular semantics force the full range.
    const df::Interval a = df::Interval::range(200, 210);
    const df::Interval b = df::Interval::range(50, 60);
    EXPECT_EQ(df::interval_add(a, b, 8), df::Interval::full(8));
    EXPECT_EQ(df::interval_add(a, b, 32), df::Interval::range(250, 270));
    // Subtraction that can go negative wraps too.
    EXPECT_EQ(df::interval_sub(b, a, 32), df::Interval::full(32));
    EXPECT_EQ(df::interval_mul(a, b, 16), df::Interval::range(10000, 12600));
}

TEST(Intervals, RegisterStateWidensThroughLoopFixpoint) {
    // acc grows every iteration; the solver must still terminate and the
    // accumulated interval must cover the concrete values.
    const ir::Function fn = accumulator_kernel();
    const df::IntervalResult r = df::compute_intervals(fn, ir::build_cfg(fn));
    EXPECT_TRUE(r.stats.converged);
}

// --- dependences & the DF004 contract ---------------------------------------

TEST(Dependence, ProvesDistanceOneRecurrence) {
    // A[i+1] = A[i]: distance 1, cycle latency = BRAM load (2) + store (1).
    Builder b("recur");
    const int a = b.array("A", {8});
    b.begin_loop("L0", 7);
    const int i = b.indvar();
    b.store(a, {b.add(i, b.constant(1))}, b.load(a, {i}));
    b.end_loop();
    const ir::Function fn = b.build();

    const df::DependenceResult r = df::compute_dependences(fn);
    ASSERT_EQ(r.deps.size(), 1u);
    EXPECT_EQ(r.deps[0].loop, 0);
    EXPECT_EQ(r.deps[0].array, a);
    EXPECT_EQ(r.deps[0].distance, 1);
    EXPECT_EQ(r.deps[0].latency, 3);
    EXPECT_EQ(r.deps[0].mii, 3);
    EXPECT_EQ(r.loop_mii(0), 3);
}

TEST(Dependence, SameIvIndexIsNotLoopCarried) {
    // s[j] = s[j] + x: intra-iteration reuse, never a carried dependence.
    Builder b("intra");
    const int s = b.array("s", {8});
    b.begin_loop("L0", 8);
    const int i = b.indvar();
    b.store(s, {i}, b.add(b.load(s, {i}), b.constant(1)));
    b.end_loop();
    EXPECT_TRUE(df::compute_dependences(b.build()).deps.empty());
}

TEST(Dependence, RegisterMiiMirrorsSchedulerOnTheCorpus) {
    // The DF004 contract: for every innermost loop of every kernel the
    // IR-side derivation equals the scheduler's elaborated recurrence MII.
    for (const std::string& name : all_kernel_names()) {
        const ir::Function fn = kernels::build_polybench(name, 8);
        const hls::ElabGraph elab = hls::elaborate(fn, hls::Directives{});
        for (int l : fn.innermost_loops())
            EXPECT_EQ(df::register_recurrence_mii(fn, l),
                      hls::loop_recurrence_mii(fn, elab, l))
                << name << " loop " << l;
    }
}

// --- SARIF ------------------------------------------------------------------

TEST(Sarif, RoundTripsThroughStrictJsonParse) {
    analysis::Report rep;
    rep.add("DF001", "instr", 7, "index 0 of array 'A' exceeds extent");
    rep.add("IR001", "instr", 3, "dead definition");
    rep.set_context("seeded");

    const std::string text = analysis::render_sarif(rep);
    const obs::JsonValue doc = testutil::parse_json(text);
    EXPECT_EQ(doc.at("version").as_string(), "2.1.0");

    const obs::JsonValue& run = doc.at("runs").as_array().at(0);
    const obs::JsonValue& driver = run.at("tool").at("driver");
    EXPECT_EQ(driver.at("name").as_string(), "powergear-lint");
    // The rules table is the full registry, so SARIF viewers can resolve
    // every ruleIndex.
    EXPECT_EQ(driver.at("rules").as_array().size(),
              analysis::rule_registry().size());

    const auto& results = run.at("results").as_array();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].at("ruleId").as_string(), "DF001");
    EXPECT_EQ(results[0].at("level").as_string(), "error");
    EXPECT_EQ(results[1].at("ruleId").as_string(), "IR001");
    EXPECT_EQ(results[1].at("level").as_string(), "warning");
    EXPECT_EQ(results[0]
                  .at("locations")
                  .as_array()
                  .at(0)
                  .at("logicalLocations")
                  .as_array()
                  .at(0)
                  .at("fullyQualifiedName")
                  .as_string(),
              "seeded/instr/7");

    // ruleIndex points back into the registry-ordered rules array.
    const int idx =
        static_cast<int>(results[0].at("ruleIndex").as_number());
    EXPECT_EQ(driver.at("rules").as_array().at(static_cast<std::size_t>(idx))
                  .at("id").as_string(),
              "DF001");
}

TEST(Sarif, EmptyReportIsStillAValidDocument) {
    const obs::JsonValue doc =
        testutil::parse_json(analysis::render_sarif(analysis::Report{}));
    EXPECT_TRUE(doc.at("runs").as_array().at(0).at("results").as_array()
                    .empty());
}

// --- corpus invariant -------------------------------------------------------

TEST(DataflowCorpus, EveryBuiltInKernelAnalyzesClean) {
    for (const std::string& name : all_kernel_names()) {
        const ir::Function fn = kernels::build_polybench(name, 8);
        const analysis::Report r = analysis::check_dataflow(fn);
        EXPECT_TRUE(r.empty()) << name << ":\n" << r.render_text();
        const hls::ElabGraph elab = hls::elaborate(fn, hls::Directives{});
        const analysis::Report recur = analysis::check_recurrence(fn, elab);
        EXPECT_TRUE(recur.empty()) << name << ":\n" << recur.render_text();
    }
}
