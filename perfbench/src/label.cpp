// label: cold ground-truth generation.
//
// Timed run: dataset::generate_dataset over the nine Polybench kernels with
// the cache off and the Vivado-like baseline on, repeated for the run time.
// Traced run: the same points replayed through the public stage calls
// (hls, sim, graphgen, hlpow, then build_netlist / place / route /
// compute_power with measure_on_board's own options and seeds, then
// vivado_estimate), which must reproduce generate_dataset's labels bit for
// bit, so the per-layer split is known to be faithful.
#include <cmath>
#include <cstdio>
#include <map>

#include "analysis/analysis.hpp"
#include "bench.hpp"
#include "fpga/board.hpp"
#include "fpga/netlist.hpp"
#include "fpga/placement.hpp"
#include "fpga/power_model.hpp"
#include "fpga/routing.hpp"
#include "fpga/vivado_like.hpp"
#include "hlpow/features.hpp"
#include "kernels/polybench.hpp"
#include "pipeline.hpp"

namespace pb {

namespace {

using namespace powergear;

/// Everything a labelled point carries that must be deterministic.
struct Labels {
    double total_w = 0, dynamic_w = 0, static_w = 0;
    double vivado_total = 0, vivado_dynamic = 0;
    std::int64_t latency = 0;
};

Labels labels_of(const dataset::Sample& s) {
    return Labels{s.total_power_w,    s.dynamic_power_w,    s.static_power_w,
                  s.vivado_total_raw, s.vivado_dynamic_raw, s.latency_cycles};
}

bool same(const Labels& a, const Labels& b) {
    return same_bits(a.total_w, b.total_w) && same_bits(a.dynamic_w, b.dynamic_w) &&
           same_bits(a.static_w, b.static_w) &&
           same_bits(a.vivado_total, b.vivado_total) &&
           same_bits(a.vivado_dynamic, b.vivado_dynamic) && a.latency == b.latency;
}

struct Counts {
    double cells = 0, nets = 0, hpwl = 0, nodes = 0, edges = 0;
};

/// Replay of dataset generation's per-point flow (compute_sample).
Labels replay_point(const KernelContext& k, const hls::Directives& dirs,
                    std::uint64_t design_index,
                    const dataset::GeneratorOptions& opts, Counts& counts) {
    const ir::Function& fn = *k.fn;
    const std::unique_ptr<EstimatedPoint> p = estimate_path(k, dirs);
    counts.nodes += p->graph.num_nodes;
    counts.edges += static_cast<double>(p->graph.edges.size());
    {
        const Span s("hlpow.features");
        (void)hlpow::hlpow_features(p->design.elab, *p->oracle, p->metadata);
    }

    // measure_on_board, stage by stage, with its options and seeds.
    const std::uint64_t uid = sample_uid(fn, design_index);
    fpga::Netlist nl;
    {
        const Span s("fpga.netlist");
        nl = fpga::build_netlist(fn, p->design.elab, p->design.binding, *p->oracle);
    }
    fpga::PlacementOptions popts;
    popts.moves_per_cell = opts.board.place_moves_per_cell;
    popts.seed = util::hash_mix(0x1ace5eedULL, uid);
    fpga::Placement placed;
    {
        const Span s("fpga.place");
        placed = fpga::place(nl, popts);
    }
    fpga::RoutingResult routed;
    {
        const Span s("fpga.route");
        routed = fpga::route(nl, placed);
    }
    Labels out;
    {
        const Span s("fpga.power");
        const fpga::PowerBreakdown pw = fpga::compute_power(
            nl, placed, p->design.report, fpga::PowerModelParams{}, &routed);
        const double jd = 1.0 + util::hash_jitter(opts.board.noise_seed, uid * 2 + 0,
                                                  opts.board.noise_amplitude);
        const double js = 1.0 + util::hash_jitter(opts.board.noise_seed, uid * 2 + 1,
                                                  opts.board.noise_amplitude);
        out.dynamic_w = pw.dynamic_total() * jd;
        out.static_w = pw.static_w * js;
        out.total_w = out.dynamic_w + out.static_w;
    }
    counts.cells += nl.num_cells();
    counts.nets += static_cast<double>(nl.nets.size());
    counts.hpwl += placed.total_hpwl;
    out.latency = p->design.report.latency_cycles;
    if (opts.run_vivado) {
        const Span s("fpga.vivado");
        const fpga::VivadoEstimate est =
            fpga::vivado_estimate(fn, p->design.elab, p->design.binding,
                                  *p->oracle, p->design.report, opts.vivado);
        out.vivado_total = est.total_w;
        out.vivado_dynamic = est.dynamic_w;
    }
    return out;
}

struct Suite {
    dataset::GeneratorOptions opts;
    std::vector<ir::Function> kernels;
    std::vector<std::vector<hls::Directives>> points;
};

Suite make_suite(const Args& args) {
    Suite s;
    s.opts.problem_size = args.tiny ? 8 : 16;
    s.opts.samples_per_dataset = args.tiny ? 4 : 8;
    s.opts.seed = args.seed;
    s.opts.run_vivado = true;
    for (const std::string& name : kernels::polybench_names()) {
        s.kernels.push_back(kernels::build_polybench(name, s.opts.problem_size));
        s.points.push_back(
            hls::DesignSpace(s.kernels.back()).sample(s.opts.samples_per_dataset));
    }
    return s;
}

/// The program's labels: one generate_dataset call per kernel. With
/// `ref_ms`, the wall time of the calls at reference host speed is added
/// to it, calibrated after every call.
std::vector<std::vector<Labels>> generate(const Suite& s,
                                          double* ref_ms = nullptr) {
    std::vector<std::vector<Labels>> out;
    for (const ir::Function& fn : s.kernels) {
        const Clock::time_point t0 = Clock::now();
        const dataset::Dataset ds = dataset::generate_dataset(fn.name, s.opts);
        if (ref_ms) {
            const double ms = ms_since(t0);
            *ref_ms += ms * host_speed();
        }
        std::vector<Labels> ls;
        for (const dataset::Sample& smp : ds.samples) ls.push_back(labels_of(smp));
        out.push_back(std::move(ls));
    }
    return out;
}

/// The replay of generate(), one point after another.
std::vector<std::vector<Labels>> replay(const Suite& s, Counts& counts) {
    std::vector<std::vector<Labels>> out;
    for (std::size_t k = 0; k < s.kernels.size(); ++k) {
        const ir::Function& fn = s.kernels[k];
        {
            const Span sp("analysis.lint");
            analysis::Report r = analysis::lint_ir(fn);
            analysis::require_clean(r, "label replay");
        }
        const KernelContext ctx = kernel_context(fn, s.opts);
        const std::vector<hls::Directives>& pts = s.points[k];
        std::vector<Labels> ls;
        for (std::size_t i = 0; i < pts.size(); ++i)
            ls.push_back(replay_point(ctx, pts[i], i, s.opts, counts));
        out.push_back(std::move(ls));
    }
    return out;
}

std::size_t count_points(const Suite& s) {
    std::size_t n = 0;
    for (const auto& p : s.points) n += p.size();
    return n;
}

/// Labels are finite, and equal to the reference bit for bit.
void check_labels(Report& rep, const std::vector<std::vector<Labels>>& got,
                  const std::vector<std::vector<Labels>>& ref,
                  const std::string& what) {
    for (std::size_t k = 0; k < ref.size(); ++k) {
        if (k >= got.size() || got[k].size() != ref[k].size()) {
            rep.check_failed(what + ": point count differs");
            return;
        }
        for (std::size_t i = 0; i < ref[k].size(); ++i) {
            const Labels& l = got[k][i];
            if (!std::isfinite(l.total_w) || !std::isfinite(l.dynamic_w) ||
                !std::isfinite(l.static_w) || !std::isfinite(l.vivado_total) ||
                !std::isfinite(l.vivado_dynamic)) {
                rep.check_failed(what + ": non-finite label");
                return;
            }
            if (!same(l, ref[k][i])) {
                rep.check_failed(what + ": label of kernel " + std::to_string(k) +
                                 " point " + std::to_string(i) + " differs");
                return;
            }
        }
    }
}

std::string digest_of(const std::vector<std::vector<Labels>>& ls) {
    Digest d;
    for (const auto& k : ls)
        for (const Labels& l : k)
            d.add(l.total_w).add(l.dynamic_w).add(l.static_w)
                .add(l.vivado_total).add(l.vivado_dynamic)
                .add_u64(static_cast<std::uint64_t>(l.latency));
    return d.hex();
}

/// The Vivado-like baseline's error after the paper's per-application
/// linear recalibration: MAPE (%) of calibrated dynamic power against the
/// board label, averaged over the kernels.
double vivado_mape(const std::vector<std::vector<Labels>>& ls) {
    double sum = 0.0;
    for (const auto& k : ls) {
        std::vector<double> est, meas;
        for (const Labels& l : k) {
            est.push_back(l.vivado_dynamic);
            meas.push_back(l.dynamic_w);
        }
        fpga::LinearCalibration cal;
        cal.fit(est, meas);
        double e = 0.0;
        for (std::size_t i = 0; i < est.size(); ++i)
            e += std::abs(cal.apply(est[i]) - meas[i]) / std::abs(meas[i]);
        sum += 100.0 * e / static_cast<double>(est.size());
    }
    return sum / static_cast<double>(ls.size());
}

void timed(const Args& args, Report& rep, const Suite& s) {
    const std::size_t n = count_points(s);
    std::vector<double> pass_ms, rate;
    std::vector<std::vector<Labels>> first;
    const Clock::time_point t0 = Clock::now();
    while (pass_ms.empty() || ms_since(t0) < args.seconds * 1e3) {
        double ms = 0.0;
        std::vector<std::vector<Labels>> ls = generate(s, &ms);
        rep.attempted += n;
        pass_ms.push_back(ms);
        rate.push_back(static_cast<double>(n) / (ms * 1e-3));
        if (first.empty()) first = std::move(ls);
        else check_labels(rep, ls, first, "repeat pass");
    }
    Counts counts;
    check_labels(rep, replay(s, counts), first, "replay vs generate_dataset");
    const double err = vivado_mape(first);

    rep.metric("throughput_per_s", median(rate), "1/s");
    rep.metric("latency_ms", median(pass_ms), "ms");
    rep.metric("error_pct", err, "%");
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "label: %zu passes of %zu points; %s (reference host speed); "
                  "vivado_mape_pct %.17g; "
                  "fpga.hpwl %.17g",
                  pass_ms.size(), n, describe_latency("pass", pass_ms).c_str(),
                  err, counts.hpwl);
    rep.note(buf);
    rep.note("digest labels=" + digest_of(first));
}

void traced(const Args& args, Report& rep, const Suite& s) {
    std::map<std::string, std::vector<double>> per_pass;
    std::vector<std::vector<Labels>> ref;
    const Clock::time_point t0 = Clock::now();
    Attribution att;
    std::vector<double> walls, untraced, attributed;
    Counts counts;
    while (walls.empty() || ms_since(t0) < args.seconds * 1e3) {
        const Clock::time_point u0 = Clock::now();
        std::vector<std::vector<Labels>> gen = generate(s);
        const double u_ms = ms_since(u0);

        counts = Counts{};
        Tracer::clear();
        Tracer::enable();
        const Clock::time_point w0 = Clock::now();
        const std::vector<std::vector<Labels>> rep_ls = replay(s, counts);
        const double w_ms = ms_since(w0);
        Tracer::disable();
        rep.attempted += count_points(s);
        check_labels(rep, rep_ls, gen, "replay vs generate_dataset");
        if (ref.empty()) ref = std::move(gen);

        double layers = 0.0;
        for (const auto& [name, lt] : Tracer::summarize(true)) {
            per_pass[name + "_ms"].push_back(lt);
            layers += lt;
        }
        per_pass["dataset.self_ms"].push_back(u_ms - layers);
        walls.push_back(w_ms);
        untraced.push_back(u_ms);
        attributed.push_back(layers);
    }
    for (const auto& [name, v] : per_pass) rep.metric(name, median(v), "ms");
    rep.metric("fpga.cells", counts.cells, "count");
    rep.metric("fpga.nets", counts.nets, "count");
    rep.metric("fpga.hpwl", counts.hpwl, "grid");
    rep.metric("graphgen.nodes", counts.nodes, "count");
    rep.metric("graphgen.edges", counts.edges, "count");
    att.wall_ms = median(walls);
    att.program_ms = att.wall_ms; // the replay is the traced program
    att.untraced_ms = median(untraced);
    att.attributed_ms = median(attributed);
    report_attribution(rep, att);
    char buf[128];
    std::snprintf(buf, sizeof buf, "label: fpga.hpwl %.17g over %zu points",
                  counts.hpwl, count_points(s));
    rep.note(buf);
    rep.note("digest labels=" + digest_of(ref));
}

} // namespace

void run_label(const Args& args, Report& rep) {
    Suite suite;
    // Set-up: build and sample the nine kernels, then label the first one
    // untimed so lazy initialisation and the allocator settle.
    const double setup_s = median_setup_s(args.trace ? 1 : kSetupReps, [&] {
        suite = make_suite(args);
        (void)dataset::generate_dataset(suite.kernels.front().name, suite.opts);
    });
    if (args.trace) {
        traced(args, rep, suite);
    } else {
        rep.metric("setup_s", setup_s, "s");
        timed(args, rep, suite);
    }
}

} // namespace pb
