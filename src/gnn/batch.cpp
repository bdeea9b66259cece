#include "gnn/batch.hpp"

#include <stdexcept>

namespace powergear::gnn {

namespace {

/// The graphs' `field` tensors stacked row-wise into one (rows, cols)
/// tensor. Each value is written once: the storage is reserved and
/// appended to, never zero-filled first.
template <typename Field>
nn::Tensor stack_rows(std::span<const GraphTensors* const> graphs, int rows,
                      int cols, Field field) {
    std::vector<float> v;
    v.reserve(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
    for (const GraphTensors* g : graphs) {
        const nn::Tensor& t = field(*g);
        v.insert(v.end(), t.data(), t.data() + t.size());
    }
    return nn::Tensor::from(rows, cols, std::move(v));
}

/// Append idx + offset to out: one bulk copy, then a vectorizable add
/// over the appended range (out's capacity is reserved up front).
void append_offset(std::vector<int>& out, const std::vector<int>& idx,
                   int offset) {
    const std::size_t at = out.size();
    out.insert(out.end(), idx.begin(), idx.end());
    for (std::size_t i = at; i < out.size(); ++i) out[i] += offset;
}

} // namespace

GraphBatch GraphBatch::assemble(std::span<const GraphTensors* const> graphs) {
    if (graphs.empty())
        throw std::invalid_argument("GraphBatch::assemble: no graphs");
    const GraphTensors& first = *graphs.front();
    const int node_dim = first.x.cols();
    const int meta_dim = first.metadata.cols();

    int total_nodes = 0;
    int total_edges = 0;
    int total_gcn = 0;
    std::array<int, graphgen::Graph::kNumRelations> rel_edges{};
    for (const GraphTensors* gp : graphs) {
        const GraphTensors& g = *gp;
        if (g.x.cols() != node_dim || g.metadata.cols() != meta_dim ||
            g.metadata.rows() != 1)
            throw std::invalid_argument(
                "GraphBatch::assemble: graphs disagree on tensor widths");
        total_nodes += g.num_nodes;
        total_edges += static_cast<int>(g.src.size());
        total_gcn += static_cast<int>(g.gcn_src.size());
        for (std::size_t rel = 0; rel < rel_edges.size(); ++rel)
            rel_edges[rel] += static_cast<int>(g.rel_src[rel].size());
    }

    GraphBatch b;
    b.num_graphs = static_cast<int>(graphs.size());
    b.node_offset.reserve(graphs.size() + 1);
    b.graph_id.reserve(static_cast<std::size_t>(total_nodes));

    GraphTensors& m = b.g;
    m.num_nodes = total_nodes;
    constexpr int kEdgeDim = graphgen::Graph::kEdgeDim;
    m.x = stack_rows(
        graphs, total_nodes, node_dim,
        [](const GraphTensors& g) -> const nn::Tensor& { return g.x; });
    m.metadata = stack_rows(
        graphs, b.num_graphs, meta_dim,
        [](const GraphTensors& g) -> const nn::Tensor& { return g.metadata; });
    m.edge_feat = stack_rows(
        graphs, total_edges, kEdgeDim,
        [](const GraphTensors& g) -> const nn::Tensor& { return g.edge_feat; });
    for (std::size_t rel = 0; rel < rel_edges.size(); ++rel) {
        m.rel_edge_feat[rel] = stack_rows(
            graphs, rel_edges[rel], kEdgeDim,
            [rel](const GraphTensors& g) -> const nn::Tensor& {
                return g.rel_edge_feat[rel];
            });
        m.rel_src[rel].reserve(static_cast<std::size_t>(rel_edges[rel]));
        m.rel_dst[rel].reserve(static_cast<std::size_t>(rel_edges[rel]));
    }
    m.src.reserve(static_cast<std::size_t>(total_edges));
    m.dst.reserve(static_cast<std::size_t>(total_edges));
    m.gcn_src.reserve(static_cast<std::size_t>(total_gcn));
    m.gcn_dst.reserve(static_cast<std::size_t>(total_gcn));
    m.gcn_norm.reserve(static_cast<std::size_t>(total_gcn));
    m.inv_in_degree.reserve(static_cast<std::size_t>(total_nodes));

    int offset = 0;
    for (int gi = 0; gi < b.num_graphs; ++gi) {
        const GraphTensors& g = *graphs[static_cast<std::size_t>(gi)];
        b.node_offset.push_back(offset);
        b.graph_id.insert(b.graph_id.end(),
                          static_cast<std::size_t>(g.num_nodes), gi);

        for (std::size_t rel = 0; rel < m.rel_src.size(); ++rel) {
            append_offset(m.rel_src[rel], g.rel_src[rel], offset);
            append_offset(m.rel_dst[rel], g.rel_dst[rel], offset);
        }
        append_offset(m.src, g.src, offset);
        append_offset(m.dst, g.dst, offset);

        append_offset(m.gcn_src, g.gcn_src, offset);
        append_offset(m.gcn_dst, g.gcn_dst, offset);
        m.gcn_norm.insert(m.gcn_norm.end(), g.gcn_norm.begin(),
                          g.gcn_norm.end());
        m.inv_in_degree.insert(m.inv_in_degree.end(), g.inv_in_degree.begin(),
                               g.inv_in_degree.end());

        offset += g.num_nodes;
    }
    b.node_offset.push_back(offset);
    return b;
}

} // namespace powergear::gnn
