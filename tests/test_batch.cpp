// GraphBatch property suite (DESIGN.md §13).
//
// Locks in the batched-forward contract: assemble() produces the documented
// block-diagonal layout, and a fused forward over N graphs matches each
// graph run alone (a batch of one) within 1e-5 relative on both kernel
// backends. Also pins the POWERGEAR_JOBS determinism of
// Ensemble::predict_stats_batch.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "gnn/batch.hpp"
#include "gnn/ensemble.hpp"
#include "gnn/model.hpp"
#include "ir/ir.hpp"
#include "nn/kernels_cpu.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace powergear;
using gnn::ConvKind;
using gnn::GraphBatch;
using gnn::GraphTensors;
using gnn::ModelConfig;
using gnn::PowerModel;
using powergear::util::Rng;
namespace k = powergear::nn::kernels;

namespace {

struct BackendGuard {
    k::Backend saved = k::backend();
    ~BackendGuard() { k::set_backend(saved); }
};

/// Random heterogeneous graph: 2-40 nodes, random edge count over all four
/// relation types (some relations may end up empty — the batch must still
/// process graphs whose relation sets differ).
graphgen::Graph random_graph(Rng& rng) {
    graphgen::Graph g;
    g.num_nodes = 2 + static_cast<int>(rng.next_double() * 39);
    g.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    g.x.assign(static_cast<std::size_t>(g.num_nodes * g.node_dim), 0.0f);
    for (int v = 0; v < g.num_nodes; ++v) {
        g.x[static_cast<std::size_t>(v * g.node_dim + v % 4)] = 1.0f;
        g.x[static_cast<std::size_t>((v + 1) * g.node_dim - 1)] =
            rng.next_float(0.0f, 2.0f);
        g.labels.push_back(std::to_string(v).insert(0, 1, 'n'));
    }
    const int edges = 1 + static_cast<int>(rng.next_double() * 3 * g.num_nodes);
    for (int e = 0; e < edges; ++e) {
        graphgen::Graph::Edge ed;
        ed.src = static_cast<int>(rng.next_double() * g.num_nodes) % g.num_nodes;
        ed.dst = static_cast<int>(rng.next_double() * g.num_nodes) % g.num_nodes;
        ed.relation = static_cast<int>(rng.next_double() * 4) % 4;
        ed.feat = {rng.next_float(0.0f, 1.0f), rng.next_float(0.0f, 1.0f),
                   rng.next_float(0.0f, 1.0f), rng.next_float(0.0f, 1.0f)};
        g.edges.push_back(ed);
    }
    return g;
}

GraphTensors random_tensors(Rng& rng) {
    std::vector<double> meta(10);
    for (auto& m : meta) m = rng.next_double();
    return GraphTensors::from(random_graph(rng), meta);
}

ModelConfig batch_config(ConvKind kind) {
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.dropout = 0.0f;
    cfg.seed = 29;
    return cfg;
}

} // namespace

TEST(GraphBatch, AssembleLayoutMatchesDocumentedContract) {
    Rng rng(101);
    std::vector<GraphTensors> storage;
    std::vector<const GraphTensors*> graphs;
    for (int i = 0; i < 5; ++i) storage.push_back(random_tensors(rng));
    for (const auto& g : storage) graphs.push_back(&g);

    const GraphBatch b = GraphBatch::assemble(graphs);
    ASSERT_EQ(b.num_graphs, 5);
    ASSERT_EQ(b.node_offset.size(), 6u);
    EXPECT_EQ(b.node_offset.front(), 0);

    int total_nodes = 0;
    std::size_t total_edges = 0;
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(b.node_offset[static_cast<std::size_t>(i)], total_nodes);
        total_nodes += storage[static_cast<std::size_t>(i)].num_nodes;
        total_edges += storage[static_cast<std::size_t>(i)].src.size();
    }
    EXPECT_EQ(b.node_offset.back(), total_nodes);
    EXPECT_EQ(b.g.num_nodes, total_nodes);
    EXPECT_EQ(b.g.x.rows(), total_nodes);
    EXPECT_EQ(b.g.src.size(), total_edges);
    EXPECT_EQ(b.g.metadata.rows(), 5);

    // graph_id: ascending runs, one per graph, delimited by node_offset.
    ASSERT_EQ(b.graph_id.size(), static_cast<std::size_t>(total_nodes));
    for (int i = 0; i < 5; ++i)
        for (int r = b.node_offset[static_cast<std::size_t>(i)];
             r < b.node_offset[static_cast<std::size_t>(i) + 1]; ++r)
            EXPECT_EQ(b.graph_id[static_cast<std::size_t>(r)], i);

    // Edge offsetting: merged_idx = local_idx + node_offset[graph]; both
    // endpoints of every edge land inside the owning graph's node block.
    std::size_t e = 0;
    for (int i = 0; i < 5; ++i) {
        const GraphTensors& g = storage[static_cast<std::size_t>(i)];
        const int off = b.node_offset[static_cast<std::size_t>(i)];
        for (std::size_t j = 0; j < g.src.size(); ++j, ++e) {
            EXPECT_EQ(b.g.src[e], g.src[j] + off);
            EXPECT_EQ(b.g.dst[e], g.dst[j] + off);
        }
    }

    // Per-row payloads survive the concat: node features, metadata rows,
    // inv_in_degree.
    for (int i = 0; i < 5; ++i) {
        const GraphTensors& g = storage[static_cast<std::size_t>(i)];
        const int off = b.node_offset[static_cast<std::size_t>(i)];
        for (int r = 0; r < g.num_nodes; ++r) {
            for (int c = 0; c < g.x.cols(); ++c)
                EXPECT_EQ(b.g.x.at(off + r, c), g.x.at(r, c));
            EXPECT_EQ(b.g.inv_in_degree[static_cast<std::size_t>(off + r)],
                      g.inv_in_degree[static_cast<std::size_t>(r)]);
        }
        for (int c = 0; c < g.metadata.cols(); ++c)
            EXPECT_EQ(b.g.metadata.at(i, c), g.metadata.at(0, c));
    }
}

TEST(GraphBatch, AssembleRejectsEmptyAndMismatchedInputs) {
    EXPECT_THROW(GraphBatch::assemble({}), std::invalid_argument);
    Rng rng(103);
    const GraphTensors a = random_tensors(rng);
    GraphTensors b = random_tensors(rng);
    b.metadata = nn::Tensor::from(1, 3, {1.0f, 2.0f, 3.0f}); // width mismatch
    const std::vector<const GraphTensors*> graphs = {&a, &b};
    EXPECT_THROW(GraphBatch::assemble(graphs), std::invalid_argument);
}

// A fused forward over a random minibatch matches each graph's batch of one
// within 1e-5 relative, on both kernel backends, for every conv kind the
// model supports.
TEST(GraphBatch, BatchedForwardMatchesPerGraphOnBothBackends) {
    BackendGuard guard;
    Rng rng(107);
    for (const ConvKind kind :
         {ConvKind::HecGnn, ConvKind::Gcn, ConvKind::Sage,
          ConvKind::GraphConv, ConvKind::Gine}) {
        std::vector<GraphTensors> storage;
        std::vector<const GraphTensors*> graphs;
        for (int i = 0; i < 7; ++i) storage.push_back(random_tensors(rng));
        for (const auto& g : storage) graphs.push_back(&g);
        const GraphBatch b = GraphBatch::assemble(graphs);
        for (const k::Backend be : {k::Backend::Ref, k::Backend::Blocked}) {
            k::set_backend(be);
            PowerModel model(batch_config(kind));
            nn::Tape t;
            const std::vector<float> fused = model.predict_batch(b, t);
            ASSERT_EQ(fused.size(), graphs.size());
            for (std::size_t i = 0; i < graphs.size(); ++i) {
                const float solo = model.predict(*graphs[i]);
                const float tol =
                    1e-5f * std::max(1.0f, std::max(std::abs(solo),
                                                    std::abs(fused[i])));
                EXPECT_NEAR(fused[i], solo, tol)
                    << conv_kind_name(kind) << " backend "
                    << k::backend_name(be) << " graph " << i;
            }
        }
    }
}

TEST(GraphBatch, PredictStatsBatchDeterministicAcrossJobsAndChunks) {
    Rng rng(127);
    std::vector<GraphTensors> storage;
    std::vector<const GraphTensors*> graphs;
    std::vector<float> ys;
    // > kBatchChunk samples so the chunked path actually splits.
    const int n = gnn::kBatchChunk + 9;
    for (int i = 0; i < n; ++i) {
        storage.push_back(random_tensors(rng));
        ys.push_back(1.0f + 0.1f * static_cast<float>(i % 7));
    }
    for (const auto& g : storage) graphs.push_back(&g);

    gnn::EnsembleConfig ec;
    ec.model = batch_config(ConvKind::HecGnn);
    ec.folds = 2;
    ec.seeds = 1;
    ec.epochs = 1;
    ec.batch_size = 8;
    gnn::Ensemble ens;
    ens.fit(std::span<const GraphTensors* const>(graphs),
            std::span<const float>(ys), ec);

    util::set_parallel_jobs(1);
    const auto serial = ens.predict_stats_batch(graphs);
    util::set_parallel_jobs(4);
    const auto pooled = ens.predict_stats_batch(graphs);
    util::set_parallel_jobs(0);
    ASSERT_EQ(serial.size(), pooled.size());
    ASSERT_EQ(serial.size(), graphs.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].mean, pooled[i].mean) << "sample " << i;
        EXPECT_EQ(serial[i].spread, pooled[i].spread) << "sample " << i;
    }

    // And the chunked stats match each sample's batch of one within the
    // envelope.
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        const gnn::Ensemble::Stats solo =
            ens.predict_stats_batch({&graphs[i], 1})[0];
        const float tol = 1e-5f * std::max(1.0f, std::abs(solo.mean));
        EXPECT_NEAR(serial[i].mean, solo.mean, tol) << "sample " << i;
        EXPECT_NEAR(serial[i].spread, solo.spread,
                    1e-5f * std::max(1.0f, std::abs(solo.spread)))
            << "sample " << i;
    }
}
