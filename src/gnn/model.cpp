#include "gnn/model.hpp"

#include <cmath>
#include <stdexcept>

#include "analysis/analysis.hpp"
#include "obs/obs.hpp"

namespace powergear::gnn {

const char* conv_kind_name(ConvKind k) {
    switch (k) {
        case ConvKind::HecGnn: return "HEC-GNN";
        case ConvKind::Gcn: return "GCN";
        case ConvKind::Sage: return "GraphSage";
        case ConvKind::GraphConv: return "GraphConv";
        case ConvKind::Gine: return "GINE";
    }
    return "?";
}

PowerModel::PowerModel(const ModelConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
    if (cfg.node_dim <= 0)
        throw std::invalid_argument("PowerModel: node_dim must be set");
    for (int k = 0; k < cfg.layers; ++k) {
        const int in = k == 0 ? cfg.node_dim : cfg.hidden;
        switch (cfg.kind) {
            case ConvKind::HecGnn:
                convs_.push_back(std::make_unique<HecConv>(
                    in, cfg.hidden, cfg.edge_dim, cfg.edge_features,
                    cfg.directed, cfg.heterogeneous, rng_));
                break;
            case ConvKind::Gcn:
                convs_.push_back(std::make_unique<GcnConv>(in, cfg.hidden, rng_));
                break;
            case ConvKind::Sage:
                convs_.push_back(std::make_unique<SageConv>(in, cfg.hidden, rng_));
                break;
            case ConvKind::GraphConv:
                convs_.push_back(
                    std::make_unique<GraphConvLayer>(in, cfg.hidden, rng_));
                break;
            case ConvKind::Gine:
                convs_.push_back(std::make_unique<GineConv>(in, cfg.hidden,
                                                            cfg.edge_dim, rng_));
                break;
        }
    }
    if (cfg.metadata)
        meta_fc_ = std::make_unique<nn::Linear>(cfg.metadata_dim, cfg.hidden, rng_);
    const int head_in = cfg.metadata ? 2 * cfg.hidden : cfg.hidden;
    head_ = std::make_unique<nn::Mlp2>(head_in, cfg.hidden, 1, rng_);
    adam_ = std::make_unique<nn::Adam>(params(), cfg.learning_rate);
}

void PowerModel::set_output_bias(float value) {
    head_->fc2.bias.w.fill(value);
}

std::vector<nn::Param*> PowerModel::params() {
    std::vector<nn::Param*> out;
    for (auto& c : convs_) c->collect(out);
    if (meta_fc_) meta_fc_->collect(out);
    head_->collect(out);
    return out;
}

int PowerModel::forward(nn::Tape& t, const GraphBatch& b, bool training) {
    // Width checks run on the merged tensors (check_model_inputs validates
    // column widths only; per-graph shape checks happened when each sample's
    // tensors were built). The conv layers are index-local, so they run on
    // the block-diagonal batch unchanged; only the readout needs the
    // graph_id segmentation.
    if (analysis::checks_enabled()) {
        analysis::Report r = analysis::check_model_inputs(
            cfg_.node_dim, cfg_.metadata_dim, cfg_.edge_dim, cfg_.metadata,
            b.g);
        analysis::require_clean(r, "PowerModel::forward");
    }
    const std::span<const int> seg(b.graph_id);
    int h = t.input_view(b.g.x);
    int pooled = -1;
    for (auto& conv : convs_) {
        h = conv->forward(t, b.g, h);
        if (cfg_.dropout > 0.0f)
            h = t.dropout(h, cfg_.dropout, rng_, training);
        if (cfg_.jumping_knowledge) {
            const int layer_pool = t.segment_sum(h, seg, b.num_graphs);
            pooled = pooled < 0 ? layer_pool : t.add(pooled, layer_pool);
        }
    }
    if (!cfg_.jumping_knowledge) pooled = t.segment_sum(h, seg, b.num_graphs);
    // Tame the sum-pooled magnitude (graphs have O(100) nodes) so the head
    // starts near the warm-started output bias; the constant keeps the
    // graph-size signal Eq. (6)'s sum pooling carries.
    pooled = t.scale(pooled, 1.0f / 32.0f);

    int holistic = pooled;
    if (cfg_.metadata) {
        const int hm = meta_fc_->forward_relu(t, t.input_view(b.g.metadata));
        holistic = t.concat_cols(pooled, hm);
    }
    return head_->forward(t, holistic);
}

float PowerModel::predict(const GraphTensors& g) {
    const GraphTensors* one = &g;
    const GraphBatch b =
        GraphBatch::assemble(std::span<const GraphTensors* const>(&one, 1));
    nn::Tape t;
    return predict_batch(b, t)[0];
}

std::vector<float> PowerModel::predict_batch(const GraphBatch& b,
                                             nn::Tape& t) {
    t.reset();
    const int out = forward(t, b, /*training=*/false);
    const nn::Tensor& v = t.value(out);
    std::vector<float> preds(static_cast<std::size_t>(b.num_graphs));
    for (int i = 0; i < b.num_graphs; ++i)
        preds[static_cast<std::size_t>(i)] = v.at(i, 0);
    return preds;
}

double PowerModel::train_epoch(const std::vector<const GraphTensors*>& graphs,
                               const std::vector<float>& targets,
                               int batch_size) {
    if (graphs.size() != targets.size() || graphs.empty())
        throw std::invalid_argument("train_epoch: bad inputs");
    std::vector<int> order(graphs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    rng_.shuffle(order);

    double loss_sum = 0.0;
    int batches = 0;
    nn::Tape t; // reused across batches: reset() rewinds the arena
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(batch_size)) {
        const std::size_t end =
            std::min(order.size(), start + static_cast<std::size_t>(batch_size));
        // One training step is four phases: assemble, forward, backward and
        // optimizer, which together cover the whole step in train --metrics.
        // The minibatch is assembled block-diagonally and runs as one fused
        // forward; the batch must stay alive through backward() (the tape
        // borrows its node features and graph ids).
        std::vector<float> ys;
        GraphBatch batch;
        {
            const obs::Scope obs_scope(obs::Phase::Assemble);
            t.reset();
            ys.reserve(end - start);
            std::vector<const GraphTensors*> members;
            members.reserve(end - start);
            for (std::size_t i = start; i < end; ++i) {
                const std::size_t k = static_cast<std::size_t>(order[i]);
                ys.push_back(targets[k]);
                members.push_back(graphs[k]);
            }
            batch = GraphBatch::assemble(members);
            obs::add(obs::Phase::Assemble, "graphs", end - start);
        }
        int loss = -1;
        {
            const obs::Scope obs_scope(obs::Phase::Forward);
            loss = t.mape_loss_rows(forward(t, batch, true), ys);
        }
        {
            const obs::Scope obs_scope(obs::Phase::Backward);
            adam_->zero_grad();
            const std::size_t skipped = t.backward(loss);
            obs::add(obs::Phase::Backward, "nodes", t.num_nodes());
            obs::add(obs::Phase::Backward, "nodes_skipped", skipped);
        }
        {
            const obs::Scope obs_scope(obs::Phase::Optimizer);
            // Catch exploding/NaN gradients before the optimizer folds them
            // into the weights, where they would quietly poison every later
            // estimate.
            if (analysis::checks_enabled())
                analysis::require_clean(analysis::check_params(params()),
                                        "PowerModel::train_epoch");
            adam_->step();
            obs::add(obs::Phase::Optimizer, "steps");
        }
        loss_sum += t.value(loss).at(0, 0);
        ++batches;
    }
    return loss_sum / std::max(1, batches);
}

double PowerModel::evaluate_mape(const std::vector<const GraphTensors*>& graphs,
                                 const std::vector<float>& targets) {
    if (graphs.size() != targets.size())
        throw std::invalid_argument("evaluate_mape: size mismatch");
    if (graphs.empty()) return 0.0;
    double s = 0.0;
    nn::Tape t;
    const std::size_t chunk = static_cast<std::size_t>(kBatchChunk);
    for (std::size_t start = 0; start < graphs.size(); start += chunk) {
        const std::size_t n = std::min(chunk, graphs.size() - start);
        const GraphBatch b = GraphBatch::assemble(
            std::span<const GraphTensors* const>(graphs.data() + start, n));
        const std::vector<float> preds = predict_batch(b, t);
        for (std::size_t i = 0; i < n; ++i)
            s += std::abs(preds[i] - targets[start + i]) /
                 std::max(1e-9f, std::abs(targets[start + i]));
    }
    return 100.0 * s / static_cast<double>(graphs.size());
}

} // namespace powergear::gnn
