// Oracle suite for nn::Tape::add_scatters, HecConv's relation aggregation
// (DESIGN.md §10).
//
// The oracle is the node chain the fused op replaces, kept here and nowhere
// else: one zeroed scatter_add_rows node per relation (two joined by add
// under w/o dir.), summed with add in relation order, then add(self, agg).
// The fused node must reproduce the chain's values and every gradient bit
// for bit: for all eight HecConv variants on both kernel backends, on graphs
// with an edgeless relation, nodes without in-edges and -0.0f inputs, and
// on gradients carrying NaN payloads, whose bits show the order in which a
// message's gradient terms were added.
#include <gtest/gtest.h>

#include <bit>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gnn/convs.hpp"
#include "nn/autograd.hpp"
#include "nn/kernels_cpu.hpp"
#include "util/rng.hpp"

using namespace powergear;
using gnn::GraphTensors;
using gnn::HecConv;
using graphgen::Graph;
using nn::Param;
using nn::Tape;
using nn::Tensor;
using util::Rng;
namespace k = powergear::nn::kernels;

namespace {

struct BackendGuard {
    k::Backend saved = k::backend();
    ~BackendGuard() { k::set_backend(saved); }
};

/// The chain HecConv built before the fused node.
int chain_add_scatters(Tape& t, int self, std::span<const Tape::Scatter> groups) {
    const int rows = t.value(self).rows();
    int agg = -1;
    for (const Tape::Scatter& s : groups) {
        if (s.dst.empty()) continue;
        int scattered = t.scatter_add_rows(s.msg, s.dst, rows);
        if (!s.src.empty())
            scattered = t.add(scattered, t.scatter_add_rows(s.msg, s.src, rows));
        agg = agg < 0 ? scattered : t.add(agg, scattered);
    }
    return agg < 0 ? self : t.add(self, agg);
}

/// HecConv::forward with the chain in place of add_scatters, over the
/// layer's own parameters in collect() order (w_v weight and bias, w_e,
/// then one w_r per relation). Builds the same nodes in the same order as
/// the layer, so parameter gradients flush in the same order too.
int chain_hec_forward(Tape& t, const GraphTensors& g, int h,
                      const std::vector<Param*>& p, bool edge_features,
                      bool directed, bool heterogeneous) {
    std::vector<Tape::Scatter> groups;
    const int num_rel = heterogeneous ? Graph::kNumRelations : 1;
    for (int rel = 0; rel < num_rel; ++rel) {
        const auto r = static_cast<std::size_t>(rel);
        const std::vector<int>& srcs = heterogeneous ? g.rel_src[r] : g.src;
        const std::vector<int>& dsts = heterogeneous ? g.rel_dst[r] : g.dst;
        if (srcs.empty()) continue;
        int msg;
        if (edge_features)
            msg = t.matmul(
                t.input_view(heterogeneous ? g.rel_edge_feat[r] : g.edge_feat),
                t.param(p[2]));
        else
            msg = t.gather_matmul(h, std::span<const int>(srcs), t.param(p[2]));
        msg = t.matmul(msg, t.param(p[3 + r]));
        groups.push_back({msg, std::span<const int>(dsts),
                          directed ? std::span<const int>()
                                   : std::span<const int>(srcs)});
    }
    const int self = t.add_bias(t.matmul(h, t.param(p[0])), t.param(p[1]));
    return t.relu(chain_add_scatters(t, self, groups));
}

std::vector<std::uint32_t> bits(const Tensor& v) {
    std::vector<std::uint32_t> out(v.size());
    std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
    return out;
}

/// Every parameter's value or gradient, as raw bits.
std::vector<std::vector<std::uint32_t>> grad_bits(const std::vector<Param*>& ps) {
    std::vector<std::vector<std::uint32_t>> out;
    for (const Param* p : ps) out.push_back(bits(p->g));
    return out;
}

/// Random values with some exact -0.0f and +0.0f entries.
void fill_signed(Tensor& t, Rng& rng) {
    for (std::size_t i = 0; i < t.size(); ++i) {
        const double u = rng.next_double();
        t.data()[i] = u < 0.15 ? -0.0f
                      : u < 0.2 ? 0.0f
                                : rng.next_float(-1.0f, 1.0f);
    }
}

/// 12 nodes. Relation 2 has no edges; nodes 9-11 have no in-edges at all
/// and node 0 none of relation 0; node and edge features carry -0.0f.
GraphTensors oracle_graph(Rng& rng) {
    Graph g;
    g.num_nodes = 12;
    g.node_dim = 6;
    g.x.resize(static_cast<std::size_t>(g.num_nodes * g.node_dim));
    for (float& v : g.x)
        v = rng.next_double() < 0.2 ? -0.0f : rng.next_float(-1.0f, 1.0f);
    for (int v = 0; v < g.num_nodes; ++v)
        g.labels.push_back(std::to_string(v).insert(0, 1, 'n'));
    for (int e = 0; e < 40; ++e) {
        Graph::Edge ed;
        ed.relation = std::array<int, 3>{0, 1, 3}[static_cast<std::size_t>(e % 3)];
        ed.src = static_cast<int>(rng.next_below(12));
        ed.dst = 1 + static_cast<int>(rng.next_below(8)); // never 0 or 9-11
        if (ed.relation == 0 && ed.dst == 0) ed.dst = 1;
        for (float& f : ed.feat)
            f = rng.next_double() < 0.2 ? -0.0f : rng.next_float(0.0f, 1.0f);
        g.edges.push_back(ed);
    }
    return GraphTensors::from(g, std::vector<double>(10, 1.0));
}

struct Variant {
    bool edge_features, directed, heterogeneous;
};

} // namespace

TEST(AddScatters, HecConvMatchesChainOracleBitwiseForEveryVariant) {
    const BackendGuard guard;
    Rng grng(401);
    const GraphTensors g = oracle_graph(grng);
    ASSERT_TRUE(g.rel_src[2].empty());
    for (const k::Backend be : {k::Backend::Ref, k::Backend::Blocked}) {
        k::set_backend(be);
        for (int bitsel = 0; bitsel < 8; ++bitsel) {
            const Variant v{(bitsel & 1) != 0, (bitsel & 2) != 0,
                            (bitsel & 4) != 0};
            SCOPED_TRACE(std::string(k::backend_name(be)) +
                         " e.f.=" + std::to_string(v.edge_features) +
                         " dir.=" + std::to_string(v.directed) +
                         " hetr.=" + std::to_string(v.heterogeneous));
            Rng rng(static_cast<std::uint64_t>(500 + bitsel));
            HecConv layer(8, 8, Graph::kEdgeDim, v.edge_features, v.directed,
                          v.heterogeneous, rng);
            // A trainable input projection makes h require a gradient, so
            // the w/o e.f. gather's input gradient is compared too.
            Param proj(Tensor(g.x.cols(), 8));
            fill_signed(proj.w, rng);
            std::vector<Param*> ps;
            layer.collect(ps);
            for (Param* p : ps) fill_signed(p->w, rng);
            std::vector<float> weights(static_cast<std::size_t>(g.num_nodes));
            for (float& w : weights) w = rng.next_float(-2.0f, 2.0f);
            ps.push_back(&proj);

            auto run = [&](bool fused, std::vector<std::uint32_t>& out_bits) {
                for (Param* p : ps) p->zero_grad();
                Tape t;
                const int h = t.matmul(t.input_view(g.x), t.param(&proj));
                const int out =
                    fused ? layer.forward(t, g, h)
                          : chain_hec_forward(t, g, h, ps, v.edge_features,
                                              v.directed, v.heterogeneous);
                out_bits = bits(t.value(out));
                t.backward(t.scale_rows(out, std::span<const float>(weights)));
                return grad_bits(ps);
            };
            std::vector<std::uint32_t> fused_out, chain_out;
            const auto fused_grads = run(true, fused_out);
            const auto chain_grads = run(false, chain_out);
            EXPECT_EQ(fused_out, chain_out);
            ASSERT_EQ(fused_grads.size(), chain_grads.size());
            for (std::size_t i = 0; i < fused_grads.size(); ++i)
                EXPECT_EQ(fused_grads[i], chain_grads[i]) << "param " << i;
        }
    }
}

// NaN payloads show the order of an add: when both operands are NaN, the
// one that survives depends on which side it was on. Gradients here are NaN
// with a distinct payload per row, so a message row that gets two terms
// (w/o dir.) must take them in the chain's order: src gather, then dst
// gather. Values carry NaNs on both sides of self + agg and of
// S_dst + S_src too.
TEST(AddScatters, NanPayloadsFollowTheChainsAddOrder) {
    const BackendGuard guard;
    const std::vector<int> dst0 = {0, 2, 2, 1, 4}, src0 = {3, 3, 0, 4, 1};
    const std::vector<int> dst1 = {1, 1, 0}, src1 = {2, 4, 4};
    const std::vector<int> none;
    for (const k::Backend be : {k::Backend::Ref, k::Backend::Blocked}) {
        k::set_backend(be);
        for (const bool directed : {true, false}) {
            SCOPED_TRACE(std::string(k::backend_name(be)) +
                         (directed ? " directed" : " w/o dir."));
            Rng rng(613);
            Param self(Tensor(6, 3)), m0(Tensor(5, 3)), m1(Tensor(3, 3));
            Param unused(Tensor(0, 3));
            for (Param* p : {&self, &m0, &m1}) fill_signed(p->w, rng);
            // Node 0 gets m0 row 0 (dst) and, w/o dir., m0 row 2 (src).
            self.w.at(0, 0) = std::bit_cast<float>(0x7fc000a1u);
            m0.w.at(0, 0) = std::bit_cast<float>(0x7fc000b2u);
            m0.w.at(2, 0) = std::bit_cast<float>(0x7fc000c3u);
            std::vector<float> weights(6);
            for (std::size_t r = 0; r < weights.size(); ++r)
                weights[r] = std::bit_cast<float>(
                    0x7fc00001u + static_cast<std::uint32_t>(r));
            weights[5] = -0.0f; // row 5 has no in-edges
            std::vector<Param*> ps = {&self, &m0, &m1};

            auto run = [&](bool fused, std::vector<std::uint32_t>& out_bits) {
                for (Param* p : ps) p->zero_grad();
                Tape t;
                const int s = t.param(&self);
                const std::vector<Tape::Scatter> groups = {
                    {t.param(&m0), dst0, directed ? none : src0},
                    {t.param(&unused), none, none}, // no rows: adds nothing
                    {t.param(&m1), dst1, directed ? none : src1}};
                const int out = fused ? t.add_scatters(s, groups)
                                      : chain_add_scatters(t, s, groups);
                out_bits = bits(t.value(out));
                t.backward(t.scale_rows(out, std::span<const float>(weights)));
                return grad_bits(ps);
            };
            std::vector<std::uint32_t> fused_out, chain_out;
            const auto fused_grads = run(true, fused_out);
            const auto chain_grads = run(false, chain_out);
            EXPECT_EQ(fused_out, chain_out);
            for (std::size_t i = 0; i < ps.size(); ++i)
                EXPECT_EQ(fused_grads[i], chain_grads[i]) << "param " << i;
            EXPECT_TRUE(std::isnan(m0.g.at(0, 0)));
        }
    }
}

TEST(AddScatters, NoRowsReturnsSelfAndShapesAreChecked) {
    Tape t;
    Param self(Tensor(3, 2)), msg(Tensor(2, 2)), rowless(Tensor(0, 2)),
        wide(Tensor(2, 3));
    const int s = t.param(&self);
    const std::vector<int> none, two = {0, 2}, one = {1};
    EXPECT_EQ(t.add_scatters(s, {}), s);
    EXPECT_EQ(t.add_scatters(s, std::vector<Tape::Scatter>{
                                    {t.param(&rowless), none, none}}),
              s);
    const int m = t.param(&msg);
    EXPECT_THROW(t.add_scatters(s, std::vector<Tape::Scatter>{{m, one, none}}),
                 std::invalid_argument);
    EXPECT_THROW(t.add_scatters(s, std::vector<Tape::Scatter>{{m, two, one}}),
                 std::invalid_argument);
    EXPECT_THROW(t.add_scatters(s, std::vector<Tape::Scatter>{
                                       {t.param(&wide), two, none}}),
                 std::invalid_argument);
}
