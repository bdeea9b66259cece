// End-to-end power regression model (paper Fig. 3).
//
// Stack: K graph conv layers -> jumping-knowledge sum pooling over all
// layers' node embeddings (Eq. 6) -> concat with the metadata MLP embedding
// -> two-FC head with ReLU (Eq. 7). Trained with the MAPE loss and Adam.
// The conv kind selects HEC-GNN or one of the Table I baselines; boolean
// switches produce the Table II ablation variants.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gnn/batch.hpp"
#include "gnn/convs.hpp"
#include "nn/optimizer.hpp"

namespace powergear::gnn {

enum class ConvKind { HecGnn, Gcn, Sage, GraphConv, Gine };

const char* conv_kind_name(ConvKind k);

/// Whether the kind's conv reads the GCN/SAGE views of a GraphBatch; a
/// batch for any other kind is assembled without them.
bool reads_gcn_views(ConvKind k);

struct ModelConfig {
    ConvKind kind = ConvKind::HecGnn;
    int node_dim = 0;     ///< must match the dataset's graphs
    int edge_dim = graphgen::Graph::kEdgeDim;
    int metadata_dim = 10;
    int hidden = 16;      ///< paper: 128
    int layers = 3;       ///< paper: 3
    float dropout = 0.2f;
    double learning_rate = 5e-4;
    // HEC-GNN ablation switches (Table II).
    bool edge_features = true;
    bool directed = true;
    bool heterogeneous = true;
    bool metadata = true;
    bool jumping_knowledge = true;
    std::uint64_t seed = 1;
};

class PowerModel {
public:
    explicit PowerModel(const ModelConfig& cfg);

    /// Single-graph inference (no dropout): a batch of one through
    /// predict_batch. Returns the power estimate in watts.
    float predict(const GraphTensors& g);

    /// Fused batched inference over a pre-assembled block-diagonal batch:
    /// one forward pass, one estimate per member graph (in batch order).
    /// The batch must outlive the tape's use up to its next reset(), and
    /// carry the GCN/SAGE views if reads_gcn_views(kind) (else throws
    /// std::invalid_argument). Each result matches that graph's batch of one
    /// within 1e-5 relative (bit for bit on the ref backend; DESIGN.md §13).
    std::vector<float> predict_batch(const GraphBatch& b, nn::Tape& t);

    /// One epoch of mini-batch training; returns the mean training loss.
    /// Each minibatch runs as one fused block-diagonal forward.
    double train_epoch(const std::vector<const GraphTensors*>& graphs,
                       const std::vector<float>& targets, int batch_size);

    /// MAPE (%) of predictions against targets.
    double evaluate_mape(const std::vector<const GraphTensors*>& graphs,
                         const std::vector<float>& targets);

    /// Warm-start the regression head's output bias (typically the mean of
    /// the training targets) so MAPE training starts near the right scale.
    void set_output_bias(float value);

    std::vector<nn::Param*> params();
    const ModelConfig& config() const { return cfg_; }

private:
    /// The model forward over a merged batch; returns a (num_graphs, 1) node.
    int forward(nn::Tape& t, const GraphBatch& b, bool training);

    ModelConfig cfg_;
    util::Rng rng_;
    std::vector<std::unique_ptr<Conv>> convs_;
    std::unique_ptr<nn::Linear> meta_fc_;
    std::unique_ptr<nn::Mlp2> head_;
    std::unique_ptr<nn::Adam> adam_;
};

} // namespace powergear::gnn
