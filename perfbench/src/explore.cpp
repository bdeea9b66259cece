// explore: streaming DSE over unlabelled designs.
//
// dse::StreamingExplorer::run(stream, scorer, truth) over the first kSweep
// points of the directive spaces of the four kernels the model never
// trained on. The scorer takes each chunk through the estimation path
// (hls, activity oracle, graph, metadata, tensors) and one chunked
// PowerGear::estimate_batch; the truth function runs
// fpga::measure_on_board only for promoted points. Set-up trains the model
// on the other five kernels and labels every swept point with
// dataset::generate_design_points, which gives the exact frontiers (for
// ADRS) and the labels promoted truth must reproduce.
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.hpp"
#include "dataset/splits.hpp"
#include "dse/adrs.hpp"
#include "dse/pareto.hpp"
#include "dse/stream_explorer.hpp"
#include "fpga/board.hpp"
#include "kernels/polybench.hpp"
#include "model.hpp"
#include "pipeline.hpp"
#include "util/parallel.hpp"

namespace pb {

namespace {

using namespace powergear;

constexpr std::size_t kChunk = 64; // the serve batcher's max_batch
/// Points swept per space (the stream's budget cap): a golden-ratio prefix
/// that covers each space evenly and keeps set-up labelling short.
constexpr std::uint64_t kSweep = 96;

struct Space {
    ir::Function fn;
    std::uint64_t size = 0;
    std::uint64_t limit = 0;                ///< 0: the whole space
    std::vector<dataset::Sample> labelled;  ///< by space index (swept prefix)
    std::vector<core::Estimate> reference;  ///< one-shot estimate_batch
    std::vector<dse::Point> exact_front;
};

struct Setup {
    dataset::GeneratorOptions gopts;
    std::unique_ptr<core::PowerGear> model;
    std::vector<Space> spaces;
};

/// Space indices the sweep visits, in stream order.
std::vector<std::uint64_t> swept(const Space& s) {
    dse::CandidateStream st(s.size, 0, 1, s.limit);
    std::vector<std::uint64_t> idx;
    while (const std::optional<std::uint64_t> i = st.next()) idx.push_back(*i);
    return idx;
}

void setup(const Args& args, Setup& su) {
    su.gopts = corpus_options(args);
    const std::vector<dataset::Dataset> corpus =
        generate_corpus(training_kernels(), su.gopts);
    su.model = std::make_unique<core::PowerGear>(model_options(args));
    su.model->fit(dataset::pool_except(corpus, corpus.size()));

    su.spaces.clear();
    for (const std::string& name : unseen_kernels()) {
        Space s;
        s.fn = kernels::build_polybench(name, su.gopts.problem_size);
        s.size = hls::DesignSpace(s.fn).size();
        s.limit = args.tiny ? 48 : kSweep;
        const std::vector<std::uint64_t> idx = swept(s);
        std::vector<dataset::Sample> pts =
            dataset::generate_design_points(s.fn, idx, su.gopts);
        s.labelled.resize(s.size);
        for (std::size_t i = 0; i < idx.size(); ++i)
            s.labelled[idx[i]] = std::move(pts[i]);
        std::vector<const dataset::Sample*> ptrs;
        std::vector<dse::Point> truth;
        for (const std::uint64_t i : idx) {
            ptrs.push_back(&s.labelled[i]);
            truth.push_back(dse::Point{
                static_cast<double>(s.labelled[i].latency_cycles),
                s.labelled[i].dynamic_power_w, static_cast<std::int64_t>(i)});
        }
        const std::vector<core::Estimate> ests = su.model->estimate_batch(
            core::SamplePool(core::SamplePool::View(ptrs.data(), ptrs.size())));
        s.reference.resize(s.size);
        for (std::size_t i = 0; i < idx.size(); ++i) s.reference[idx[i]] = ests[i];
        s.exact_front = dse::pareto_front(truth);
        su.spaces.push_back(std::move(s));
    }
}

struct PassResult {
    double adrs_mean = 0.0;
    std::uint64_t scored = 0, promoted = 0, on_front = 0;
    std::uint64_t nodes = 0, edges = 0; ///< of every scored design's graph
    std::vector<double> chunk_ms;
    std::string frontier_digest, estimate_digest;
};

/// One sweep of the four spaces. With `ref_ms`, the sweep's wall time at
/// reference host speed is added to it, calibrated after every space.
PassResult explore_pass(const Setup& su, Report& rep, double* ref_ms = nullptr) {
    PassResult pr;
    Digest front_d, est_d;
    const dse::StreamingExplorer explorer(dse::StreamConfig{kChunk, 0.0, {}, 0});
    for (const Space& sp : su.spaces) {
        const Clock::time_point t0 = Clock::now();
        const std::size_t first_chunk = pr.chunk_ms.size();
        const KernelContext ctx = kernel_context(sp.fn, su.gopts);
        const hls::DesignSpace space(sp.fn);
        // The chunk being scored: its designs stay alive for the truth calls
        // the explorer makes right after scoring it.
        std::map<std::uint64_t, std::unique_ptr<EstimatedPoint>> live;
        bool mismatch = false;

        const dse::ChunkScorer scorer = [&](std::span<const std::uint64_t> idxs) {
            const Clock::time_point c0 = Clock::now();
            std::vector<std::unique_ptr<EstimatedPoint>> pts(idxs.size());
            util::parallel_for(idxs.size(), [&](std::size_t i) {
                pts[i] = estimate_path(ctx, space.point(idxs[i]));
            });
            std::vector<dataset::Sample> samples(idxs.size());
            std::vector<const dataset::Sample*> ptrs;
            {
                const Span g("bench.glue");
                for (std::size_t i = 0; i < idxs.size(); ++i) {
                    samples[i].tensors = std::move(pts[i]->tensors);
                    ptrs.push_back(&samples[i]);
                }
            }
            std::vector<core::Estimate> ests;
            {
                const Span s("core.estimate_batch");
                ests = su.model->estimate_batch(
                    core::SamplePool(core::SamplePool::View(ptrs.data(), ptrs.size())),
                    kChunk);
            }
            const Span g("bench.glue");
            std::vector<dse::ScoredPoint> out(idxs.size());
            live.clear();
            for (std::size_t i = 0; i < idxs.size(); ++i) {
                const core::Estimate& ref = sp.reference[idxs[i]];
                if (!same_bits(ests[i].watts, ref.watts) ||
                    !same_bits(ests[i].member_spread, ref.member_spread) ||
                    !std::isfinite(ests[i].watts))
                    mismatch = true;
                est_d.add(ests[i].watts).add(ests[i].member_spread);
                pr.nodes += static_cast<std::uint64_t>(pts[i]->graph.num_nodes);
                pr.edges += pts[i]->graph.edges.size();
                out[i] = dse::ScoredPoint{
                    static_cast<double>(pts[i]->design.report.latency_cycles),
                    ests[i].watts, ests[i].member_spread};
                live[idxs[i]] = std::move(pts[i]);
            }
            pr.chunk_ms.push_back(ms_since(c0));
            return out;
        };
        const dse::TruthFn truth = [&](std::uint64_t idx, const dse::ScoredPoint&) {
            const Span s("fpga.truth");
            const EstimatedPoint& p = *live.at(idx);
            const fpga::BoardMeasurement m = fpga::measure_on_board(
                sp.fn, p.design.elab, p.design.binding, *p.oracle, p.design.report,
                sample_uid(sp.fn, idx), su.gopts.board);
            if (!same_bits(m.dynamic_w, sp.labelled[idx].dynamic_power_w))
                rep.check_failed("explore: truth of point " + std::to_string(idx) +
                                 " differs from its set-up label");
            return m.dynamic_w;
        };

        dse::CandidateStream stream(sp.size, 0, 1, sp.limit);
        dse::StreamResult res;
        {
            const Span s("dse.run");
            res = explorer.run(stream, scorer, truth);
        }
        if (ref_ms) {
            const double ms = ms_since(t0);
            const double hs = host_speed();
            *ref_ms += ms * hs;
            for (std::size_t c = first_chunk; c < pr.chunk_ms.size(); ++c)
                pr.chunk_ms[c] *= hs;
        }
        if (mismatch)
            rep.check_failed("explore: chunked scorer estimates differ from a "
                             "one-shot estimate_batch");
        const double a = dse::adrs(sp.exact_front, res.true_front);
        if (!std::isfinite(a)) rep.check_failed("explore: ADRS is not finite");
        pr.adrs_mean += a / static_cast<double>(su.spaces.size());
        pr.scored += res.stats.scored;
        pr.promoted += res.stats.promoted;
        pr.on_front += res.true_front.size();
        for (const dse::Point& p : res.true_front)
            front_d.add(p.latency).add(p.power).add_u64(static_cast<std::uint64_t>(p.index));
    }
    pr.frontier_digest = front_d.hex();
    pr.estimate_digest = est_d.hex();
    return pr;
}

void check_repeat(Report& rep, const PassResult& a, const PassResult& b) {
    if (a.frontier_digest != b.frontier_digest || a.estimate_digest != b.estimate_digest ||
        !same_bits(a.adrs_mean, b.adrs_mean))
        rep.check_failed("explore: a repeated pass changed its results");
}

void notes(Report& rep, const PassResult& r) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "explore: adrs %.17g; scored %llu, promoted %llu",
                  r.adrs_mean, static_cast<unsigned long long>(r.scored),
                  static_cast<unsigned long long>(r.promoted));
    rep.note(buf);
    rep.note("digest frontier=" + r.frontier_digest + " estimates=" + r.estimate_digest);
}

void timed(const Args& args, Report& rep, const Setup& su) {
    std::vector<double> rate, pass_ms, chunk_ms;
    PassResult ref;
    const Clock::time_point t0 = Clock::now();
    while (pass_ms.empty() || ms_since(t0) < args.seconds * 1e3) {
        double ms = 0.0;
        PassResult r = explore_pass(su, rep, &ms);
        rep.attempted += r.scored;
        pass_ms.push_back(ms);
        rate.push_back(static_cast<double>(r.scored) / (ms * 1e-3));
        chunk_ms.insert(chunk_ms.end(), r.chunk_ms.begin(), r.chunk_ms.end());
        if (ref.frontier_digest.empty()) ref = std::move(r);
        else check_repeat(rep, r, ref);
    }
    rep.metric("throughput_per_s", median(rate), "1/s");
    rep.metric("latency_ms", median(pass_ms), "ms");
    rep.metric("error_pct", 100.0 * ref.adrs_mean, "%");
    rep.note("explore: " + std::to_string(pass_ms.size()) +
             " passes (reference host speed); " +
             describe_latency("pass", pass_ms) + "; " +
             describe_latency("chunk", chunk_ms));
    notes(rep, ref);
}

void traced(const Args& args, Report& rep, const Setup& su) {
    std::map<std::string, std::vector<double>> per_pass;
    std::vector<double> walls, untraced, attributed;
    PassResult ref;
    const Clock::time_point t0 = Clock::now();
    while (walls.empty() || ms_since(t0) < args.seconds * 1e3) {
        const Clock::time_point u0 = Clock::now();
        PassResult u = explore_pass(su, rep);
        untraced.push_back(ms_since(u0));

        Tracer::clear();
        Tracer::enable();
        const Clock::time_point w0 = Clock::now();
        const PassResult r = explore_pass(su, rep);
        walls.push_back(ms_since(w0));
        Tracer::disable();
        rep.attempted += r.scored;
        check_repeat(rep, r, u);
        if (ref.frontier_digest.empty()) ref = std::move(u);

        double named = 0.0;
        for (const auto& [name, t] : Tracer::summarize(true)) {
            if (name.rfind("bench.", 0) == 0) continue; // benchmark glue
            const std::string key = name == "dse.run" ? "dse.self" : name;
            per_pass[key + "_ms"].push_back(t);
            named += t;
        }
        attributed.push_back(named);
    }
    for (const auto& [name, v] : per_pass) rep.metric(name, median(v), "ms");
    rep.metric("dse.scored", static_cast<double>(ref.scored), "count");
    rep.metric("core.estimates", static_cast<double>(ref.scored), "count");
    rep.metric("dse.promoted", static_cast<double>(ref.promoted), "count");
    rep.metric("graphgen.nodes", static_cast<double>(ref.nodes), "count");
    rep.metric("graphgen.edges", static_cast<double>(ref.edges), "count");
    rep.metric("dse.promotion_yield",
               ref.promoted ? static_cast<double>(ref.on_front) /
                                  static_cast<double>(ref.promoted)
                            : 0.0,
               "ratio");
    Attribution att;
    att.wall_ms = median(walls);
    att.program_ms = att.wall_ms;
    att.untraced_ms = median(untraced);
    att.attributed_ms = median(attributed);
    report_attribution(rep, att);
    notes(rep, ref);
}

} // namespace

void run_explore(const Args& args, Report& rep) {
    Setup su;
    const double setup_s =
        median_setup_s(args.trace ? 1 : kSetupReps, [&] { setup(args, su); });
    if (args.trace) {
        traced(args, rep, su);
    } else {
        rep.metric("setup_s", setup_s, "s");
        timed(args, rep, su);
    }
}

} // namespace pb
