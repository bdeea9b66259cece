// src/obs observability-layer tests: RAII timer nesting, counter totals
// that are identical at any POWERGEAR_JOBS value, snapshot merging across
// pool worker threads, the powergear-obs-v1 JSON schema round trip, and an
// end-to-end estimate pipeline emitting every expected phase.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/powergear.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "util/parallel.hpp"

using namespace powergear;

namespace {

/// Every test records into the process-global registry; this fixture turns
/// recording on with a clean slate and restores the disabled default so obs
/// state never leaks into unrelated suites.
class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::set_enabled(true);
        obs::reset();
    }
    void TearDown() override {
        obs::set_enabled(false);
        obs::reset();
        util::set_parallel_jobs(0);
    }
};

/// Spin for a wall-clock floor so scope durations are reliably ordered.
void busy_wait_ms(double ms) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(static_cast<long>(ms * 1e3));
    while (std::chrono::steady_clock::now() < until) {
    }
}

TEST_F(ObsTest, ScopeRecordsCallAndDuration) {
    {
        const obs::Scope s(obs::Phase::GraphGen);
        busy_wait_ms(1.0);
    }
    const obs::Report rep = obs::snapshot();
    ASSERT_EQ(rep.phases.count("graphgen"), 1u);
    const obs::PhaseStats& st = rep.phases.at("graphgen");
    EXPECT_EQ(st.calls, 1u);
    EXPECT_GE(st.total_s, 1e-3);
    EXPECT_GE(st.p50_ms, 1.0);
    EXPECT_LE(st.p50_ms, st.p95_ms);
    EXPECT_LE(st.p95_ms, st.max_ms);
    EXPECT_GT(rep.wall_s, 0.0);
}

TEST_F(ObsTest, TimerNestingRecordsBothSpans) {
    {
        const obs::Scope outer(obs::Phase::DatasetGen);
        busy_wait_ms(1.0);
        {
            const obs::Scope inner(obs::Phase::HlsSchedule);
            busy_wait_ms(1.0);
        }
        busy_wait_ms(0.5);
    }
    const obs::Report rep = obs::snapshot();
    ASSERT_EQ(rep.phases.count("dataset_gen"), 1u);
    ASSERT_EQ(rep.phases.count("hls_schedule"), 1u);
    // Outer scopes time their full span, inner spans included.
    EXPECT_GT(rep.phases.at("dataset_gen").total_s,
              rep.phases.at("hls_schedule").total_s);
    EXPECT_EQ(rep.phases.at("dataset_gen").calls, 1u);
    EXPECT_EQ(rep.phases.at("hls_schedule").calls, 1u);
}

TEST_F(ObsTest, SamePhaseNestsWithoutLoss) {
    {
        const obs::Scope a(obs::Phase::SimTrace);
        const obs::Scope b(obs::Phase::SimTrace);
    }
    EXPECT_EQ(obs::snapshot().phases.at("sim_trace").calls, 2u);
}

TEST_F(ObsTest, CountersAccumulate) {
    obs::add(obs::Phase::EstimateBatch, "estimates", 3);
    obs::add(obs::Phase::EstimateBatch, "estimates", 4);
    obs::add(obs::Phase::EstimateBatch, "other");
    const obs::Report rep = obs::snapshot();
    const auto& counters = rep.phases.at("estimate_batch").counters;
    EXPECT_EQ(counters.at("estimates"), 7u);
    EXPECT_EQ(counters.at("other"), 1u);
}

TEST_F(ObsTest, DisabledRecordsNothing) {
    obs::set_enabled(false);
    {
        const obs::Scope s(obs::Phase::GraphGen);
        obs::add(obs::Phase::GraphGen, "nodes", 99);
    }
    EXPECT_TRUE(obs::snapshot().phases.empty());
}

TEST_F(ObsTest, SnapshotMergesWorkerThreadSinks) {
    constexpr std::size_t kTasks = 64;
    util::set_parallel_jobs(4);
    util::parallel_for(kTasks, [](std::size_t i) {
        const obs::Scope s(obs::Phase::EstimateBatch);
        obs::add(obs::Phase::EstimateBatch, "estimates", i);
    });
    const obs::Report rep = obs::snapshot();
    const obs::PhaseStats& st = rep.phases.at("estimate_batch");
    EXPECT_EQ(st.calls, kTasks);
    // sum 0..63
    EXPECT_EQ(st.counters.at("estimates"), kTasks * (kTasks - 1) / 2);
}

// The determinism contract extends to observability: counter totals are
// per-task sums, so POWERGEAR_JOBS=1 and =4 must agree bit-for-bit (scope
// call counts too; only wall-clock durations may differ).
TEST_F(ObsTest, CounterTotalsIdenticalAcrossJobCounts) {
    dataset::GeneratorOptions gen;
    gen.samples_per_dataset = 6;
    gen.problem_size = 8;

    auto run_at = [&](int jobs) {
        util::set_parallel_jobs(jobs);
        obs::reset();
        (void)dataset::generate_dataset("atax", gen);
        return obs::snapshot();
    };
    const obs::Report serial = run_at(1);
    const obs::Report fanned = run_at(4);

    ASSERT_FALSE(serial.phases.empty());
    ASSERT_EQ(serial.phases.size(), fanned.phases.size());
    for (const auto& [name, st] : serial.phases) {
        ASSERT_EQ(fanned.phases.count(name), 1u) << name;
        const obs::PhaseStats& other = fanned.phases.at(name);
        EXPECT_EQ(st.calls, other.calls) << name;
        EXPECT_EQ(st.counters, other.counters) << name;
    }
    // The generator phases all fired.
    EXPECT_EQ(serial.phases.count("dataset_gen"), 1u);
    EXPECT_EQ(serial.phases.count("hls_schedule"), 1u);
    EXPECT_EQ(serial.phases.count("sim_trace"), 1u);
    EXPECT_EQ(serial.phases.count("graphgen"), 1u);
    EXPECT_EQ(serial.phases.at("dataset_gen").counters.at("samples"), 6u);
    // Board and Vivado-like placement: two per design point.
    EXPECT_EQ(serial.phases.at("place").calls, 12u);
    EXPECT_GT(serial.phases.at("place").counters.at("moves"), 0u);
    // The six points share one trace: each activity stream is counted once
    // (one timed miss per memo entry), later designs hit the memo.
    const obs::PhaseStats& act = serial.phases.at("activity");
    EXPECT_GT(act.counters.at("streams"), 0u);
    EXPECT_GT(act.counters.at("hits"), 0u);
    EXPECT_EQ(act.calls, act.counters.at("streams"));
}

TEST_F(ObsTest, ReportJsonRoundTrip) {
    obs::Report rep;
    rep.wall_s = 1.5;
    rep.jobs = 4;
    obs::PhaseStats st;
    st.calls = 12;
    st.total_s = 0.25;
    st.p50_ms = 18.5;
    st.p95_ms = 30.25;
    st.max_ms = 42.125;
    st.counters["estimates"] = 240;
    st.counters["weird name \"quoted\""] = 1;
    rep.phases["estimate_batch"] = st;

    const std::string json = rep.to_json();
    const obs::Report back = obs::Report::from_json(json);
    EXPECT_DOUBLE_EQ(back.wall_s, rep.wall_s);
    EXPECT_EQ(back.jobs, rep.jobs);
    ASSERT_EQ(back.phases.size(), 1u);
    const obs::PhaseStats& bst = back.phases.at("estimate_batch");
    EXPECT_EQ(bst.calls, st.calls);
    EXPECT_DOUBLE_EQ(bst.total_s, st.total_s);
    EXPECT_DOUBLE_EQ(bst.p50_ms, st.p50_ms);
    EXPECT_DOUBLE_EQ(bst.p95_ms, st.p95_ms);
    EXPECT_DOUBLE_EQ(bst.max_ms, st.max_ms);
    EXPECT_EQ(bst.counters, st.counters);
    // Canonical dump: serializing the round-tripped report reproduces the
    // exact bytes (sorted keys, shortest round-trip numbers).
    EXPECT_EQ(back.to_json(), json);
}

TEST_F(ObsTest, ReportRejectsBadSchema) {
    EXPECT_THROW(obs::Report::from_json("{\"schema\":\"nope\"}"),
                 std::runtime_error);
    EXPECT_THROW(obs::Report::from_json("not json"), std::runtime_error);
}

TEST_F(ObsTest, WriteReportFileParsesBack) {
    obs::add(obs::Phase::Dse, "candidates", 5);
    const obs::Report rep = obs::snapshot();
    const std::string path = ::testing::TempDir() + "obs_report.json";
    ASSERT_TRUE(rep.write(path));
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    const obs::Report back = obs::Report::from_json(text);
    EXPECT_EQ(back.phases.at("dse").counters.at("candidates"), 5u);
}

TEST(ObsJson, ParserHandlesEscapesAndNesting) {
    const obs::JsonValue v = obs::JsonValue::parse(
        R"({"a": [1, -2.5e2, "x\nyA"], "b": {"c": true, "d": null}})");
    EXPECT_EQ(v.at("a").as_array()[0].as_number(), 1.0);
    EXPECT_EQ(v.at("a").as_array()[1].as_number(), -250.0);
    EXPECT_EQ(v.at("a").as_array()[2].as_string(), "x\nyA");
    EXPECT_TRUE(v.at("b").at("c").as_bool());
    EXPECT_EQ(v.at("b").at("d").kind(), obs::JsonValue::Kind::Null);
}

TEST(ObsJson, ParserRejectsMalformedInput) {
    EXPECT_THROW(obs::JsonValue::parse("{"), std::runtime_error);
    EXPECT_THROW(obs::JsonValue::parse("{} extra"), std::runtime_error);
    EXPECT_THROW(obs::JsonValue::parse("{\"a\": 1,}"), std::runtime_error);
    EXPECT_THROW(obs::JsonValue::parse("[1 2]"), std::runtime_error);
    EXPECT_THROW(obs::JsonValue::parse("\"open"), std::runtime_error);
}

// Library-level integration: the full train -> estimate_batch pipeline with
// metrics on emits every phase the CLI's `estimate --metrics` documents.
TEST_F(ObsTest, EstimatePipelineEmitsAllPhases) {
    dataset::GeneratorOptions gen;
    gen.samples_per_dataset = 6;
    gen.problem_size = 8;
    std::vector<dataset::Dataset> suite;
    suite.push_back(dataset::generate_dataset("atax", gen));
    suite.push_back(dataset::generate_dataset("bicg", gen));

    core::PowerGear::Options opts;
    opts.kind = dataset::PowerKind::Dynamic;
    opts.hidden = 4;
    opts.epochs = 2;
    opts.folds = 2;
    opts.seeds = 1;
    core::PowerGear pg(opts);
    pg.fit(dataset::pool_except(suite, 1));
    const std::vector<core::Estimate> ests =
        pg.estimate_batch(dataset::pool_of(suite[1]));
    ASSERT_EQ(ests.size(), 6u);

    const obs::Report rep = obs::snapshot();
    for (const char* phase : {"dataset_gen", "hls_schedule", "sim_trace",
                              "graphgen", "ensemble_fit", "assemble",
                              "forward", "backward", "optimizer",
                              "estimate_batch"})
        EXPECT_EQ(rep.phases.count(phase), 1u) << phase;
    EXPECT_EQ(rep.phases.at("estimate_batch").counters.at("estimates"), 6u);
    EXPECT_EQ(rep.phases.at("ensemble_fit").counters.at("members_trained"), 2u);
    // One backward per minibatch; the constant graph inputs (node, edge and
    // metadata features) and what is built only from them are skipped.
    const obs::PhaseStats& bwd = rep.phases.at("backward");
    EXPECT_GT(bwd.calls, 0u);
    EXPECT_GT(bwd.counters.at("nodes_skipped"), 0u);
    EXPECT_LT(bwd.counters.at("nodes_skipped"), bwd.counters.at("nodes"));
    // A training step is assemble, forward, backward and optimizer, each
    // once per minibatch.
    for (const char* phase : {"assemble", "forward", "optimizer"})
        EXPECT_EQ(rep.phases.at(phase).calls, bwd.calls) << phase;
    EXPECT_EQ(rep.phases.at("optimizer").counters.at("steps"), bwd.calls);
    EXPECT_GT(rep.phases.at("assemble").counters.at("graphs"), 0u);
    // Throughput is derivable: the JSON carries rates_per_s.
    const std::string json = rep.to_json();
    EXPECT_NE(json.find("rates_per_s"), std::string::npos);
    EXPECT_NE(json.find("\"estimates\""), std::string::npos);
}

} // namespace
