// Model persistence tests: bit-exact round trips of PowerModels and
// Ensembles through the powergear-art-v1 "model" codec, plus rejection of
// corrupt and truncated payloads.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>

#include "io/serial.hpp"
#include "ir/ir.hpp"

using namespace powergear;
using gnn::ConvKind;
using gnn::GraphTensors;
using gnn::ModelConfig;
using gnn::PowerModel;

namespace {

ModelConfig small_config(ConvKind kind = ConvKind::HecGnn) {
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    cfg.hidden = 6;
    cfg.layers = 2;
    cfg.dropout = 0.0f;
    cfg.seed = 99;
    return cfg;
}

GraphTensors probe_graph() {
    graphgen::Graph g;
    g.num_nodes = 3;
    g.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    g.x.assign(static_cast<std::size_t>(g.num_nodes * g.node_dim), 0.25f);
    graphgen::Graph::Edge e;
    e.src = 0;
    e.dst = 1;
    e.relation = 2;
    e.feat = {0.5f, 0.25f, 0.125f, 1.5f};
    g.edges.push_back(e);
    e.src = 1;
    e.dst = 2;
    e.relation = 1;
    g.edges.push_back(e);
    g.labels = {"a", "b", "c"};
    return GraphTensors::from(g, std::vector<double>(10, 0.7));
}

gnn::Ensemble single_member(const ModelConfig& cfg) {
    std::vector<std::unique_ptr<PowerModel>> members;
    members.push_back(std::make_unique<PowerModel>(cfg));
    gnn::Ensemble ens;
    ens.adopt(std::move(members));
    return ens;
}

} // namespace

class EveryKindRoundTrip : public ::testing::TestWithParam<ConvKind> {};

TEST_P(EveryKindRoundTrip, ModelPredictionsSurviveSaveLoad) {
    const gnn::Ensemble ens = single_member(small_config(GetParam()));
    const GraphTensors g = probe_graph();
    const float before = ens.members().front()->predict(g);

    const gnn::Ensemble loaded = io::decode_ensemble(io::encode_ensemble(ens));
    ASSERT_EQ(loaded.num_members(), 1);
    PowerModel& model = *loaded.members().front();
    EXPECT_EQ(model.predict(g), before); // bit-exact weights
    EXPECT_EQ(model.config().hidden, 6);
    EXPECT_EQ(static_cast<int>(model.config().kind),
              static_cast<int>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Kinds, EveryKindRoundTrip,
                         ::testing::Values(ConvKind::HecGnn, ConvKind::Gcn,
                                           ConvKind::Sage, ConvKind::GraphConv,
                                           ConvKind::Gine));

TEST(Serialize, EnsembleRoundTripAveragesIdentically) {
    std::vector<GraphTensors> storage;
    std::vector<float> targets;
    for (int i = 0; i < 6; ++i) {
        storage.push_back(probe_graph());
        targets.push_back(0.4f + 0.1f * i);
    }
    std::vector<const GraphTensors*> graphs;
    for (auto& g : storage) graphs.push_back(&g);

    gnn::EnsembleConfig cfg;
    cfg.model = small_config();
    cfg.folds = 2;
    cfg.seeds = 1;
    cfg.epochs = 5;
    gnn::Ensemble ens;
    ens.fit(std::span<const GraphTensors* const>(graphs),
            std::span<const float>(targets), cfg);

    const GraphTensors g = probe_graph();
    const GraphTensors* one = &g;
    const gnn::Ensemble::Stats before = ens.predict_stats_batch({&one, 1})[0];
    const gnn::Ensemble loaded = io::decode_ensemble(io::encode_ensemble(ens));
    EXPECT_EQ(loaded.num_members(), ens.num_members());
    const gnn::Ensemble::Stats after = loaded.predict_stats_batch({&one, 1})[0];
    EXPECT_EQ(after.mean, before.mean);
    EXPECT_EQ(after.spread, before.spread);
}

TEST(Serialize, RejectsCorruptHeader) {
    const std::string path = "test_serialize_corrupt.pgm";
    std::vector<std::uint8_t> file =
        io::frame(io::kStageModel, io::kModelPayloadVersion,
                  io::encode_ensemble(single_member(small_config())));
    file[0] ^= 0xff; // magic
    io::write_file_atomic(path, file);
    EXPECT_THROW(io::load_ensemble_file(path), std::runtime_error);
    // A well-formed frame for another stage is not a model either.
    io::write_file_atomic(path, io::frame(io::kStageSim, 1, {1, 2, 3}));
    EXPECT_THROW(io::load_ensemble_file(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Serialize, RejectsTruncatedBody) {
    std::vector<std::uint8_t> payload =
        io::encode_ensemble(single_member(small_config()));
    payload.resize(payload.size() / 2);
    EXPECT_THROW(io::decode_ensemble(payload), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
    const gnn::Ensemble ens = single_member(small_config());
    const std::string path = "test_serialize_roundtrip.pgm";
    io::save_ensemble_file(path, ens);
    const gnn::Ensemble loaded = io::load_ensemble_file(path);
    EXPECT_EQ(loaded.num_members(), 1);
    const GraphTensors g = probe_graph();
    const GraphTensors* one = &g;
    EXPECT_EQ(loaded.predict_stats_batch({&one, 1})[0].mean,
              ens.predict_stats_batch({&one, 1})[0].mean);
    std::remove(path.c_str());
    EXPECT_THROW(io::load_ensemble_file(path), std::runtime_error);
}
