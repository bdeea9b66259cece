// The estimation path of one design point, spelled out through the
// library's public stage calls with a span around each, as
// dataset::generate_dataset runs it internally:
//
//   hls::synthesize -> sim::ActivityOracle -> graphgen::construct_graph ->
//   hls::metadata_features -> gnn::GraphTensors::from
//
// The label replay extends it with the board and Vivado-like flows; the
// explore scorer stops at the tensors and hands them to the estimator.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "dataset/generator.hpp"
#include "gnn/convs.hpp"
#include "graphgen/features.hpp"
#include "hls/flow.hpp"
#include "sim/activity.hpp"
#include "sim/stimulus.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace pb {

/// Per-kernel inputs every design point shares: the simulation trace and
/// the unoptimised baseline report the metadata features scale against.
struct KernelContext {
    const powergear::ir::Function* fn = nullptr;
    powergear::sim::Trace trace;
    powergear::hls::HlsReport base_report;
};

/// The stimulus dataset generation derives for `fn` from the options seed.
inline powergear::sim::StimulusProfile stimulus_for(
    const powergear::ir::Function& fn,
    const powergear::dataset::GeneratorOptions& opts) {
    powergear::sim::StimulusProfile stim = opts.stimulus;
    stim.seed = powergear::util::hash_mix(opts.seed,
                                          std::hash<std::string>{}(fn.name));
    return stim;
}

inline KernelContext kernel_context(
    const powergear::ir::Function& fn,
    const powergear::dataset::GeneratorOptions& opts) {
    KernelContext k;
    k.fn = &fn;
    {
        const Span s("sim.simulate");
        k.trace = powergear::sim::simulate(fn, stimulus_for(fn, opts));
    }
    const Span s("hls.synthesize");
    k.base_report =
        powergear::hls::synthesize(fn, powergear::hls::Directives{}).report;
    return k;
}

/// One design point taken through the estimation path. The oracle borrows
/// the design and the kernel's trace, so the struct is heap-pinned.
struct EstimatedPoint {
    powergear::hls::Design design;
    std::unique_ptr<powergear::sim::ActivityOracle> oracle;
    powergear::graphgen::Graph graph;
    std::vector<double> metadata;
    powergear::gnn::GraphTensors tensors;
};

inline std::unique_ptr<EstimatedPoint> estimate_path(
    const KernelContext& k, const powergear::hls::Directives& dirs) {
    auto p = std::make_unique<EstimatedPoint>();
    {
        const Span s("hls.synthesize");
        p->design = powergear::hls::synthesize(*k.fn, dirs);
    }
    {
        const Span s("sim.oracle");
        p->oracle = std::make_unique<powergear::sim::ActivityOracle>(
            *k.fn, p->design.elab, k.trace, p->design.sched.total_latency);
    }
    {
        const Span s("graphgen.construct");
        p->graph = powergear::graphgen::construct_graph(
            *k.fn, p->design.elab, p->design.binding, *p->oracle);
    }
    {
        const Span s("hls.metadata");
        p->metadata =
            powergear::hls::metadata_features(p->design.report, k.base_report);
    }
    const Span s("gnn.tensors");
    p->tensors = powergear::gnn::GraphTensors::from(p->graph, p->metadata);
    return p;
}

/// The per-sample id measure_on_board salts placement and noise with.
inline std::uint64_t sample_uid(const powergear::ir::Function& fn,
                                std::uint64_t design_index) {
    return powergear::util::hash_mix(std::hash<std::string>{}(fn.name),
                                     design_index);
}

} // namespace pb
