// fit: leave-one-application-out training (one Table I fold).
//
// Set-up generates the nine Polybench datasets. The timed part is
// PowerGear::fit of the dynamic-power ensemble on eight of them, then
// evaluate_mape on the held-out ninth. The traced run splits training by
// replaying one ensemble member through the public PowerModel::train_epoch,
// GraphBatch::assemble and PowerModel::predict_batch calls on minibatches
// of the same size over the same training graphs; backward plus optimiser
// time is the remainder of train_epoch.
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>

#include "bench.hpp"
#include "dataset/splits.hpp"
#include "gnn/batch.hpp"
#include "gnn/model.hpp"
#include "kernels/polybench.hpp"
#include "model.hpp"
#include "nn/autograd.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace pb {

namespace {

using namespace powergear;

constexpr std::size_t kHeldOut = 8; // syr2k, the last of Table I's nine

struct Fold {
    std::vector<dataset::Dataset> suite;
    core::SamplePool train;
    core::SamplePool test;
};

struct FitResult {
    double mape = 0.0;
    std::vector<core::Estimate> estimates; ///< on the held-out kernel
    int members = 0;
    double fit_ms = 0.0;
};

FitResult fit_once(const Args& args, const Fold& f) {
    FitResult r;
    core::PowerGear pg(model_options(args));
    const Clock::time_point t0 = Clock::now();
    {
        const Span s("core.fit");
        pg.fit(f.train);
    }
    r.fit_ms = ms_since(t0);
    {
        const Span s("core.evaluate");
        r.mape = pg.evaluate_mape(f.test);
    }
    r.members = pg.num_members();
    r.estimates = pg.estimate_batch(f.test);
    return r;
}

void check_result(Report& rep, const FitResult& r, const FitResult& ref) {
    if (!std::isfinite(r.mape)) rep.check_failed("held-out MAPE is not finite");
    for (const core::Estimate& e : r.estimates)
        if (!std::isfinite(e.watts) || !std::isfinite(e.member_spread)) {
            rep.check_failed("non-finite held-out estimate");
            break;
        }
    if (!same_bits(r.mape, ref.mape) || r.estimates.size() != ref.estimates.size()) {
        rep.check_failed("training is not deterministic: MAPE differs");
        return;
    }
    for (std::size_t i = 0; i < r.estimates.size(); ++i)
        if (!same_bits(r.estimates[i].watts, ref.estimates[i].watts) ||
            !same_bits(r.estimates[i].member_spread,
                       ref.estimates[i].member_spread)) {
            rep.check_failed("training is not deterministic: estimate differs");
            return;
        }
}

std::string digest_of(const FitResult& r) {
    Digest d;
    d.add(r.mape);
    for (const core::Estimate& e : r.estimates) d.add(e.watts).add(e.member_spread);
    return d.hex();
}

double graph_epochs(const Args& args, const Fold& f, int members) {
    return static_cast<double>(f.train.size()) * model_options(args).epochs *
           members;
}

/// One member trained through the public per-epoch calls, with minibatch
/// assembly and the forward pass replayed on separate spans.
void replay_member(const Args& args, const Fold& f) {
    const core::PowerGear::Options o = model_options(args);
    std::vector<const gnn::GraphTensors*> graphs;
    std::vector<float> labels;
    for (std::size_t i = 0; i < f.train.size(); ++i) {
        // The member's share of the pool: all but one fold.
        if (static_cast<int>(i % static_cast<std::size_t>(o.folds)) == 0) continue;
        graphs.push_back(&f.train[i].tensors);
        labels.push_back(f.train[i].label(o.kind));
    }
    gnn::ModelConfig mc;
    mc.kind = o.conv;
    mc.node_dim = graphs.front()->x.cols();
    mc.metadata_dim = graphs.front()->metadata.cols();
    mc.hidden = o.hidden;
    mc.layers = o.layers;
    mc.dropout = o.dropout;
    mc.learning_rate = o.learning_rate;
    mc.seed = o.seed;
    gnn::PowerModel model(mc);
    model.set_output_bias(static_cast<float>(
        std::accumulate(labels.begin(), labels.end(), 0.0) /
        static_cast<double>(labels.size())));

    util::Rng rng(o.seed);
    std::vector<std::size_t> order(graphs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    nn::Tape tape;
    for (int epoch = 0; epoch < o.epochs; ++epoch) {
        {
            const Span s("gnn.train_epoch");
            (void)model.train_epoch(graphs, labels, o.batch_size);
        }
        rng.shuffle(order);
        for (std::size_t b = 0; b < order.size();
             b += static_cast<std::size_t>(o.batch_size)) {
            const std::size_t e =
                std::min(order.size(), b + static_cast<std::size_t>(o.batch_size));
            std::vector<const gnn::GraphTensors*> mb;
            for (std::size_t i = b; i < e; ++i) mb.push_back(graphs[order[i]]);
            gnn::GraphBatch batch;
            {
                const Span s("gnn.assemble");
                batch = gnn::GraphBatch::assemble(mb);
            }
            const Span s("gnn.forward");
            (void)model.predict_batch(batch, tape);
        }
    }
}

void timed(const Args& args, Report& rep, const Fold& f) {
    std::vector<double> rate, job_ms;
    FitResult ref;
    const Clock::time_point t0 = Clock::now();
    while (job_ms.empty() || ms_since(t0) < args.seconds * 1e3) {
        const Clock::time_point j0 = Clock::now();
        FitResult r = fit_once(args, f);
        const double job = ms_since(j0);
        const double hs = host_speed();
        job_ms.push_back(job * hs);
        ++rep.attempted;
        rate.push_back(graph_epochs(args, f, r.members) / (r.fit_ms * hs * 1e-3));
        if (ref.estimates.empty()) {
            check_result(rep, r, r);
            ref = std::move(r);
        } else {
            check_result(rep, r, ref);
        }
    }
    rep.metric("throughput_per_s", median(rate), "1/s");
    rep.metric("latency_ms", median(job_ms), "ms");
    rep.metric("error_pct", ref.mape, "%");
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "fit: %zu fits on %zu graphs x %d epochs x %d members; %s "
                  "(reference host speed); "
                  "mape_pct %.17g",
                  job_ms.size(), f.train.size(), model_options(args).epochs,
                  ref.members, describe_latency("fit+evaluate", job_ms).c_str(),
                  ref.mape);
    rep.note(buf);
    rep.note("digest estimates=" + digest_of(ref));
}

void traced(const Args& args, Report& rep, const Fold& f) {
    std::map<std::string, std::vector<double>> per_pass;
    std::vector<double> walls, programs, untraced, attributed;
    FitResult ref;
    const Clock::time_point t0 = Clock::now();
    while (walls.empty() || ms_since(t0) < args.seconds * 1e3) {
        const Clock::time_point u0 = Clock::now();
        FitResult u = fit_once(args, f);
        untraced.push_back(ms_since(u0));

        Tracer::clear();
        Tracer::enable();
        const Clock::time_point w0 = Clock::now();
        const FitResult r = fit_once(args, f);
        programs.push_back(ms_since(w0));
        replay_member(args, f);
        walls.push_back(ms_since(w0));
        Tracer::disable();
        rep.attempted += 1;
        check_result(rep, r, u);
        if (ref.estimates.empty()) ref = std::move(u);

        double named = 0.0;
        const std::map<std::string, double> lt = Tracer::summarize(true);
        for (const auto& [name, t] : lt) {
            per_pass[name + "_ms"].push_back(t);
            named += t;
        }
        const auto self = [&](const char* n) {
            const auto it = lt.find(n);
            return it == lt.end() ? 0.0 : it->second;
        };
        per_pass["gnn.backward_opt_ms"].push_back(
            self("gnn.train_epoch") - self("gnn.assemble") - self("gnn.forward"));
        attributed.push_back(named);
    }
    for (const auto& [name, v] : per_pass) rep.metric(name, median(v), "ms");
    rep.metric("gnn.graph_epochs", graph_epochs(args, f, ref.members), "count");
    Attribution att;
    att.wall_ms = median(walls);
    att.program_ms = median(programs);
    att.untraced_ms = median(untraced);
    att.attributed_ms = median(attributed);
    report_attribution(rep, att);
    char buf[96];
    std::snprintf(buf, sizeof buf, "fit: mape_pct %.17g", ref.mape);
    rep.note(buf);
    rep.note("digest estimates=" + digest_of(ref));
}

} // namespace

void run_fit(const Args& args, Report& rep) {
    Fold f;
    const double setup_s = median_setup_s(args.trace ? 1 : kSetupReps, [&] {
        f.suite = generate_corpus(kernels::polybench_names(), corpus_options(args));
        f.train = dataset::pool_except(f.suite, kHeldOut);
        f.test = dataset::pool_of(f.suite[kHeldOut]);
    });
    if (args.trace) {
        traced(args, rep, f);
    } else {
        rep.metric("setup_s", setup_s, "s");
        timed(args, rep, f);
    }
}

} // namespace pb
