// Training set-up shared by the fit, explore and serve workloads.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "core/powergear.hpp"
#include "dataset/generator.hpp"

namespace pb {

/// Generator options of every training corpus: Polybench at problem size
/// 16, cache off, no Vivado-like baseline (training needs board labels
/// only), seeded by the workload seed.
inline powergear::dataset::GeneratorOptions corpus_options(const Args& args) {
    powergear::dataset::GeneratorOptions g;
    g.problem_size = args.tiny ? 8 : 16;
    g.samples_per_dataset = args.tiny ? 6 : 16;
    g.seed = args.seed;
    g.run_vivado = false;
    return g;
}

/// The dynamic-power HEC-GNN ensemble every workload trains: a two-fold
/// ensemble at bench-scale width and learning rate.
inline powergear::core::PowerGear::Options model_options(const Args& args) {
    powergear::core::PowerGear::Options o;
    o.kind = powergear::dataset::PowerKind::Dynamic;
    o.hidden = 16;
    o.layers = 3;
    o.learning_rate = 1.5e-3;
    o.batch_size = 32;
    o.epochs = args.tiny ? 2 : 10;
    o.folds = 2;
    o.seeds = 1;
    return o;
}

inline std::vector<powergear::dataset::Dataset> generate_corpus(
    const std::vector<std::string>& kernels,
    const powergear::dataset::GeneratorOptions& g) {
    std::vector<powergear::dataset::Dataset> out;
    for (const std::string& k : kernels)
        out.push_back(powergear::dataset::generate_dataset(k, g));
    return out;
}

/// Kernels the explore and serve models train on; the other four
/// Polybench kernels are the unseen designs they estimate.
inline const std::vector<std::string>& training_kernels() {
    static const std::vector<std::string> k = {"atax", "bicg", "k2mm", "k3mm",
                                               "mvt"};
    return k;
}
inline const std::vector<std::string>& unseen_kernels() {
    static const std::vector<std::string> k = {"gemm", "syr2k", "gesummv",
                                               "syrk"};
    return k;
}

} // namespace pb
