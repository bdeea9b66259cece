// GNN layer and model tests: GraphTensors packaging, forward shapes for
// every conv kind, overfitting sanity (the model can learn), ablation
// switches, and ensemble behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>

#include "gnn/ensemble.hpp"
#include "io/artifact.hpp"
#include "ir/ir.hpp"
#include "gnn/model.hpp"
#include "nn/kernels_cpu.hpp"

using namespace powergear;
using gnn::ConvKind;
using gnn::GraphTensors;
using gnn::ModelConfig;
using gnn::PowerModel;

namespace {

/// Hand-built 4-node heterogeneous graph with all relation types.
graphgen::Graph tiny_graph(float activity = 1.0f) {
    graphgen::Graph g;
    g.num_nodes = 4;
    g.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    g.x.assign(static_cast<std::size_t>(g.num_nodes * g.node_dim), 0.0f);
    for (int v = 0; v < 4; ++v) {
        g.x[static_cast<std::size_t>(v * g.node_dim + (v % 2))] = 1.0f; // class
        g.x[static_cast<std::size_t>(v * g.node_dim + g.node_dim - 1)] =
            activity * static_cast<float>(v);
        g.labels.push_back("n" + std::to_string(v));
    }
    auto edge = [&](int s, int d, int rel, float f) {
        graphgen::Graph::Edge e;
        e.src = s;
        e.dst = d;
        e.relation = rel;
        e.feat = {f, f / 2, f / 3, f / 4};
        g.edges.push_back(e);
    };
    edge(0, 1, 0, activity);
    edge(1, 2, 1, 2 * activity);
    edge(2, 3, 2, 3 * activity);
    edge(3, 0, 3, 4 * activity);
    edge(0, 2, 3, activity);
    return g;
}

GraphTensors tiny_tensors(float activity = 1.0f, double meta = 1.0) {
    return GraphTensors::from(tiny_graph(activity),
                              std::vector<double>(10, meta));
}

ModelConfig tiny_config(ConvKind kind) {
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.dropout = 0.0f;
    cfg.learning_rate = 5e-3;
    cfg.seed = 17;
    return cfg;
}

} // namespace

TEST(GraphTensors, SplitsEdgesByRelation) {
    const GraphTensors t = tiny_tensors();
    EXPECT_EQ(t.num_nodes, 4);
    EXPECT_EQ(t.src.size(), 5u);
    EXPECT_EQ(t.rel_src[0].size(), 1u);
    EXPECT_EQ(t.rel_src[3].size(), 2u);
    EXPECT_EQ(t.rel_edge_feat[3].rows(), 2);
    EXPECT_EQ(t.edge_feat.cols(), graphgen::Graph::kEdgeDim);
    EXPECT_EQ(t.metadata.cols(), 10);
}

TEST(GraphTensors, GcnViewHasSelfLoopsAndSymmetry) {
    const GraphTensors t = tiny_tensors();
    // 5 edges * 2 directions + 4 self loops.
    EXPECT_EQ(t.gcn_src.size(), 14u);
    for (float n : t.gcn_norm) {
        EXPECT_GT(n, 0.0f);
        EXPECT_LE(n, 1.0f);
    }
}

TEST(GraphTensors, InDegreeInverseComputed) {
    const GraphTensors t = tiny_tensors();
    // Node 2 has in-edges from 1 and 0 => 1/2.
    EXPECT_FLOAT_EQ(t.inv_in_degree[2], 0.5f);
    // Node 1 has one in-edge.
    EXPECT_FLOAT_EQ(t.inv_in_degree[1], 1.0f);
}

class EveryConvKind : public ::testing::TestWithParam<ConvKind> {};

TEST_P(EveryConvKind, ForwardBackwardRunAndImprove) {
    const GraphTensors g1 = tiny_tensors(1.0f, 1.0);
    const GraphTensors g2 = tiny_tensors(3.0f, 2.0);
    std::vector<const GraphTensors*> graphs = {&g1, &g2};
    const std::vector<float> targets = {0.4f, 0.9f};

    PowerModel model(tiny_config(GetParam()));
    model.set_output_bias(0.65f);
    const double before = model.evaluate_mape(graphs, targets);
    for (int e = 0; e < 150; ++e) model.train_epoch(graphs, targets, 2);
    const double after = model.evaluate_mape(graphs, targets);
    EXPECT_LT(after, before);
    EXPECT_LT(after, 10.0) << conv_kind_name(GetParam());
    EXPECT_TRUE(std::isfinite(model.predict(g1)));
}

INSTANTIATE_TEST_SUITE_P(Kinds, EveryConvKind,
                         ::testing::Values(ConvKind::HecGnn, ConvKind::Gcn,
                                           ConvKind::Sage, ConvKind::GraphConv,
                                           ConvKind::Gine));

TEST(PowerModel, AblationSwitchesChangeParameterCount) {
    auto count_params = [](ModelConfig cfg) {
        PowerModel m(cfg);
        std::size_t total = 0;
        for (const nn::Param* p : m.params()) total += p->w.size();
        return total;
    };
    ModelConfig base = tiny_config(ConvKind::HecGnn);
    ModelConfig homo = base;
    homo.heterogeneous = false; // one W_r instead of four
    EXPECT_LT(count_params(homo), count_params(base));
    ModelConfig no_meta = base;
    no_meta.metadata = false; // no metadata MLP, smaller head
    EXPECT_LT(count_params(no_meta), count_params(base));
}

TEST(PowerModel, DirectionalityChangesPrediction) {
    ModelConfig cfg = tiny_config(ConvKind::HecGnn);
    PowerModel directed(cfg);
    cfg.directed = false;
    PowerModel undirected(cfg); // same seed, same init
    const GraphTensors g = tiny_tensors();
    EXPECT_NE(directed.predict(g), undirected.predict(g));
}

TEST(PowerModel, EdgeFeatureAblationIgnoresEdgeFeatures) {
    ModelConfig cfg = tiny_config(ConvKind::HecGnn);
    cfg.edge_features = false;
    PowerModel model(cfg);
    // Two graphs identical except for edge feature values.
    graphgen::Graph a = tiny_graph();
    graphgen::Graph b = tiny_graph();
    for (auto& e : b.edges) e.feat = {9.0f, 9.0f, 9.0f, 9.0f};
    const GraphTensors ta = GraphTensors::from(a, std::vector<double>(10, 1.0));
    const GraphTensors tb = GraphTensors::from(b, std::vector<double>(10, 1.0));
    EXPECT_FLOAT_EQ(model.predict(ta), model.predict(tb));
    // The full model does see them.
    PowerModel full(tiny_config(ConvKind::HecGnn));
    EXPECT_NE(full.predict(ta), full.predict(tb));
}

TEST(PowerModel, MetadataAblationIgnoresMetadata) {
    ModelConfig cfg = tiny_config(ConvKind::HecGnn);
    cfg.metadata = false;
    PowerModel model(cfg);
    EXPECT_FLOAT_EQ(model.predict(tiny_tensors(1.0f, 1.0)),
                    model.predict(tiny_tensors(1.0f, 5.0)));
}

TEST(PowerModel, DeterministicForSeed) {
    const GraphTensors g = tiny_tensors();
    PowerModel m1(tiny_config(ConvKind::HecGnn));
    PowerModel m2(tiny_config(ConvKind::HecGnn));
    EXPECT_FLOAT_EQ(m1.predict(g), m2.predict(g));
}

// A small dropout training run, pinned bit for bit: the FNV-1a of the final
// weights and of the predictions are constants. Any change to the tape, the
// kernels, dropout's RNG use or Adam that moves one bit of a trained model
// fails here. The ref backend is host-invariant (DESIGN.md §10), so the
// constants hold on every host. Seven graphs at batch size 3 give minibatches
// of 3, 3 and 1 graphs, so one reused tape sees different shapes.
TEST(PowerModel, PinnedDropoutTrainingRunIsBitStable) {
    namespace kn = nn::kernels;
    const kn::Backend saved = kn::backend();
    kn::set_backend(kn::Backend::Ref);

    std::vector<GraphTensors> storage;
    std::vector<float> targets;
    for (int i = 0; i < 7; ++i) {
        storage.push_back(tiny_tensors(0.5f + 0.4f * i, 1.0 + 0.3 * i));
        targets.push_back(0.3f + 0.05f * i);
    }
    std::vector<const GraphTensors*> graphs;
    for (const auto& g : storage) graphs.push_back(&g);

    ModelConfig cfg = tiny_config(ConvKind::HecGnn);
    cfg.layers = 1;
    cfg.hidden = 16;
    cfg.dropout = 0.2f;
    PowerModel model(cfg);
    model.set_output_bias(0.45f);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e) loss = model.train_epoch(graphs, targets, 3);

    std::uint64_t weights = io::fnv1a(nullptr, 0);
    for (const nn::Param* p : model.params())
        weights = io::fnv1a(p->w.data(), p->w.size() * sizeof(float), weights);
    std::vector<float> preds;
    for (const GraphTensors* g : graphs) preds.push_back(model.predict(*g));
    const std::uint64_t predictions =
        io::fnv1a(preds.data(), preds.size() * sizeof(float));
    kn::set_backend(saved);

    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_EQ(weights, 0x58aace8896e530b7ull);
    EXPECT_EQ(predictions, 0x6030a478ebfe9f44ull);
}

TEST(PowerModel, RejectsUnsetNodeDim) {
    ModelConfig cfg;
    EXPECT_THROW(PowerModel m(cfg), std::invalid_argument);
}

TEST(Ensemble, AveragesMembersAndEvaluates) {
    std::vector<GraphTensors> storage;
    std::vector<float> targets;
    for (int i = 0; i < 10; ++i) {
        storage.push_back(tiny_tensors(0.5f + 0.3f * i, 1.0 + 0.2 * i));
        targets.push_back(0.3f + 0.07f * i);
    }
    std::vector<const GraphTensors*> graphs;
    for (const auto& g : storage) graphs.push_back(&g);

    gnn::EnsembleConfig cfg;
    cfg.model = tiny_config(ConvKind::HecGnn);
    cfg.folds = 2;
    cfg.seeds = 2;
    cfg.epochs = 30;
    cfg.batch_size = 4;
    gnn::Ensemble ens;
    ens.fit(std::span<const GraphTensors* const>(graphs),
            std::span<const float>(targets), cfg);
    EXPECT_EQ(ens.num_members(), 4); // 2 folds x 2 seeds
    EXPECT_LT(ens.evaluate_mape(std::span<const GraphTensors* const>(graphs),
                                std::span<const float>(targets)),
              60.0);

    // Four members disagree a little.
    const gnn::Ensemble::Stats st =
        ens.predict_stats_batch({&graphs[0], 1})[0];
    EXPECT_TRUE(std::isfinite(st.mean));
    EXPECT_GE(st.spread, 0.0f);
}

TEST(Ensemble, VectorsConvertToSpans) {
    // Pointer vectors flow into the span-based fit/evaluate_mape through
    // std::span's range constructor (the PR-2 vector overloads are gone).
    std::vector<GraphTensors> storage;
    std::vector<float> targets;
    for (int i = 0; i < 6; ++i) {
        storage.push_back(tiny_tensors(0.5f + 0.3f * i, 1.0 + 0.2 * i));
        targets.push_back(0.3f + 0.07f * i);
    }
    std::vector<const GraphTensors*> graphs;
    for (const auto& g : storage) graphs.push_back(&g);
    gnn::EnsembleConfig cfg;
    cfg.model = tiny_config(ConvKind::HecGnn);
    cfg.folds = 2;
    cfg.seeds = 1;
    cfg.epochs = 5;
    gnn::Ensemble ens;
    ens.fit(graphs, targets, cfg);
    EXPECT_EQ(ens.num_members(), 2);
    EXPECT_TRUE(std::isfinite(ens.evaluate_mape(graphs, targets)));
}

TEST(Ensemble, SingleModelModeUsesValidationSplit) {
    std::vector<GraphTensors> storage;
    std::vector<float> targets;
    for (int i = 0; i < 8; ++i) {
        storage.push_back(tiny_tensors(1.0f + i, 1.0));
        targets.push_back(0.5f + 0.1f * i);
    }
    std::vector<const GraphTensors*> graphs;
    for (const auto& g : storage) graphs.push_back(&g);
    gnn::EnsembleConfig cfg;
    cfg.model = tiny_config(ConvKind::Sage);
    cfg.folds = 1;
    cfg.seeds = 1;
    cfg.epochs = 10;
    gnn::Ensemble ens;
    ens.fit(std::span<const GraphTensors* const>(graphs),
            std::span<const float>(targets), cfg);
    EXPECT_EQ(ens.num_members(), 1);
    // A single member cannot disagree with itself.
    EXPECT_FLOAT_EQ(ens.predict_stats_batch({&graphs[0], 1})[0].spread, 0.0f);
}

TEST(Ensemble, PredictBeforeFitThrows) {
    gnn::Ensemble ens;
    const GraphTensors g = tiny_tensors();
    const GraphTensors* ptr = &g;
    EXPECT_THROW(ens.predict_stats_batch({&ptr, 1}), std::logic_error);
}
