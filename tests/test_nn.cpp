// Tensor and autograd tests, including finite-difference gradient checks for
// every tape operation — the foundation all model results rest on.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "gnn/batch.hpp"
#include "gnn/convs.hpp"
#include "nn/autograd.hpp"
#include "nn/kernels_cpu.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"

using namespace powergear::nn;
using powergear::util::Rng;

namespace {

/// Numerically check d(scalar out)/d(param) against the tape's gradient.
/// `run` must build a fresh tape from the current param values and return the
/// scalar output node value plus the analytic gradient for entry (r, c).
void check_gradient(Param& p,
                    const std::function<double()>& scalar_forward,
                    const std::function<double(int, int)>& analytic,
                    float eps = 1e-3f, float tol = 2e-2f) {
    for (int r = 0; r < p.w.rows(); ++r) {
        for (int c = 0; c < p.w.cols(); ++c) {
            const float orig = p.w.at(r, c);
            p.w.at(r, c) = orig + eps;
            const double up = scalar_forward();
            p.w.at(r, c) = orig - eps;
            const double down = scalar_forward();
            p.w.at(r, c) = orig;
            const double numeric = (up - down) / (2.0 * eps);
            EXPECT_NEAR(analytic(r, c), numeric,
                        tol * std::max(1.0, std::abs(numeric)))
                << "entry (" << r << "," << c << ")";
        }
    }
}

/// Sum all entries of a node to a scalar via a one-segment segment_sum + a
/// fixed column mix.
int to_scalar(Tape& t, int x) {
    // The tape borrows the segment ids until backward; all-zero ids outlive it.
    static const std::vector<int> kOneSegment(4096, 0);
    const std::size_t rows = static_cast<std::size_t>(t.value(x).rows());
    int row = t.segment_sum(
        x, std::span<const int>(kOneSegment).first(rows), 1); // (1, d)
    Tensor mix(t.value(row).cols(), 1);
    for (int i = 0; i < mix.rows(); ++i) mix.at(i, 0) = 0.3f + 0.1f * i;
    return t.matmul(row, t.input(mix));
}

} // namespace

TEST(Tensor, MatmulMatchesManual) {
    const Tensor a = Tensor::from(2, 3, {1, 2, 3, 4, 5, 6});
    const Tensor b = Tensor::from(3, 2, {7, 8, 9, 10, 11, 12});
    const Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Tensor, TransposedVariantsAgree) {
    Rng rng(5);
    const Tensor a = Tensor::xavier(4, 3, rng);
    const Tensor b = Tensor::xavier(4, 5, rng);
    // matmul_tn(a, b) == a^T b
    const Tensor tn = matmul_tn(a, b);
    ASSERT_EQ(tn.rows(), 3);
    ASSERT_EQ(tn.cols(), 5);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 5; ++j) {
            float expect = 0.0f;
            for (int k = 0; k < 4; ++k) expect += a.at(k, i) * b.at(k, j);
            EXPECT_NEAR(tn.at(i, j), expect, 1e-5f);
        }
    // matmul_nt(a, c) == a c^T
    const Tensor c = Tensor::xavier(6, 3, rng);
    const Tensor nt = matmul_nt(a, c);
    ASSERT_EQ(nt.rows(), 4);
    ASSERT_EQ(nt.cols(), 6);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 6; ++j) {
            float expect = 0.0f;
            for (int k = 0; k < 3; ++k) expect += a.at(i, k) * c.at(j, k);
            EXPECT_NEAR(nt.at(i, j), expect, 1e-5f);
        }
}

TEST(Tensor, ShapeMismatchThrows) {
    EXPECT_THROW(matmul(Tensor(2, 3), Tensor(2, 3)), std::invalid_argument);
    Tensor a(2, 2);
    EXPECT_THROW(a.add_inplace(Tensor(3, 2)), std::invalid_argument);
    EXPECT_THROW(Tensor::from(2, 2, {1.0f}), std::invalid_argument);
}

TEST(Autograd, MatmulGradient) {
    Rng rng(7);
    Param w(Tensor::xavier(3, 2, rng));
    const Tensor x = Tensor::xavier(4, 3, rng);

    auto forward = [&]() {
        Tape t;
        return static_cast<double>(
            t.value(to_scalar(t, t.matmul(t.input(x), t.param(&w)))).at(0, 0));
    };
    Tape t;
    const int out = to_scalar(t, t.matmul(t.input(x), t.param(&w)));
    w.zero_grad();
    t.backward(out);
    check_gradient(w, forward,
                   [&](int r, int c) { return w.g.at(r, c); });
}

TEST(Autograd, ReluAndBiasGradient) {
    Rng rng(11);
    Param w(Tensor::xavier(3, 4, rng));
    Param b(Tensor::xavier(1, 4, rng));
    const Tensor x = Tensor::xavier(5, 3, rng);

    auto build = [&](Tape& t) {
        return to_scalar(
            t, t.relu(t.add_bias(t.matmul(t.input(x), t.param(&w)), t.param(&b))));
    };
    auto forward = [&]() {
        Tape t;
        return static_cast<double>(t.value(build(t)).at(0, 0));
    };
    Tape t;
    const int out = build(t);
    w.zero_grad();
    b.zero_grad();
    t.backward(out);
    check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
    check_gradient(b, forward, [&](int r, int c) { return b.g.at(r, c); });
}

TEST(Autograd, GatherScatterGradient) {
    Rng rng(13);
    Param w(Tensor::xavier(4, 3, rng));
    const std::vector<int> gather_idx = {0, 2, 2, 3, 1};
    const std::vector<int> scatter_idx = {1, 1, 0, 2, 0};

    auto build = [&](Tape& t) {
        const int g = t.gather_rows(t.param(&w), gather_idx);
        const int s = t.scatter_add_rows(g, scatter_idx, 3);
        return to_scalar(t, s);
    };
    auto forward = [&]() {
        Tape t;
        return static_cast<double>(t.value(build(t)).at(0, 0));
    };
    Tape t;
    const int out = build(t);
    w.zero_grad();
    t.backward(out);
    check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
}

TEST(Autograd, ScaleRowsConcatGradient) {
    Rng rng(17);
    Param w(Tensor::xavier(3, 2, rng));
    const std::vector<float> row_w = {0.5f, -1.25f, 2.0f};
    const Tensor other = Tensor::xavier(3, 2, rng);

    auto build = [&](Tape& t) {
        const int scaled = t.scale_rows(t.param(&w), row_w);
        const int cat = t.concat_cols(scaled, t.input(other));
        return to_scalar(t, t.scale(cat, 0.7f));
    };
    auto forward = [&]() {
        Tape t;
        return static_cast<double>(t.value(build(t)).at(0, 0));
    };
    Tape t;
    const int out = build(t);
    w.zero_grad();
    t.backward(out);
    check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
}

TEST(Autograd, MapeLossGradient) {
    // B = 4 rows, each prediction away from the |.| kink at its target;
    // one target is negative (the loss divides by |y|).
    Param w(Tensor::from(4, 1, {2.0f, 1.0f, 6.5f, -0.5f}));
    const std::vector<float> targets = {3.0f, -2.0f, 5.0f, 1.5f};

    auto build = [&](Tape& t) { return t.mape_loss_rows(t.param(&w), targets); };
    auto forward = [&]() {
        Tape t;
        return static_cast<double>(t.value(build(t)).at(0, 0));
    };
    Tape t;
    const int loss = build(t);
    w.zero_grad();
    t.backward(loss);
    check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
}

TEST(Autograd, MapeLossRejectsZeroTargets) {
    Tape t;
    const int p = t.input(Tensor(2, 1, 1.0f));
    EXPECT_THROW(t.mape_loss_rows(p, {1.0f, 0.0f}), std::invalid_argument);
}

TEST(Autograd, MapeLossRejectsShapeMismatch) {
    Tape t;
    const int rows3 = t.input(Tensor(3, 1, 1.0f));
    const int wide = t.input(Tensor(2, 2, 1.0f));
    EXPECT_THROW(t.mape_loss_rows(rows3, {1.0f, 2.0f}), std::invalid_argument);
    EXPECT_THROW(t.mape_loss_rows(wide, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Autograd, DropoutEvalIsIdentity) {
    Rng rng(23);
    Tape t;
    const Tensor x = Tensor::xavier(4, 4, rng);
    const int a = t.input(x);
    EXPECT_EQ(t.dropout(a, 0.5f, rng, /*training=*/false), a);
}

TEST(Autograd, DropoutTrainZerosRoughlyPFraction) {
    Rng rng(29);
    Tape t;
    Tensor x(50, 50, 1.0f);
    const int d = t.dropout(t.input(x), 0.4f, rng, true);
    int zeros = 0;
    for (int r = 0; r < 50; ++r)
        for (int c = 0; c < 50; ++c)
            if (t.value(d).at(r, c) == 0.0f) ++zeros;
    EXPECT_NEAR(zeros / 2500.0, 0.4, 0.05);
}

TEST(Optimizer, AdamSolvesLinearRegression) {
    // Learn y = x * W_true + 10 by minimizing MAPE over strictly positive
    // targets — the same loss family the power models train with.
    Rng rng(31);
    const Tensor w_true = Tensor::from(3, 1, {1.5f, -2.0f, 0.5f});
    const Tensor x = Tensor::xavier(64, 3, rng);
    const Tensor y = matmul(x, w_true);
    std::vector<float> targets;
    for (int r = 0; r < y.rows(); ++r) targets.push_back(y.at(r, 0) + 10.0f);

    Param w(Tensor::xavier(3, 1, rng));
    Param b(Tensor(1, 1, 0.0f));
    Adam adam({&w, &b}, 0.05);
    double first_loss = 0.0, last_loss = 0.0;
    for (int step = 0; step < 400; ++step) {
        Tape t;
        // One (64,1) prediction node: the batched readout form.
        const int preds =
            t.add_bias(t.matmul(t.input_view(x), t.param(&w)), t.param(&b));
        const int loss = t.mape_loss_rows(preds, targets);
        if (step == 0) first_loss = t.value(loss).at(0, 0);
        last_loss = t.value(loss).at(0, 0);
        adam.zero_grad();
        t.backward(loss);
        adam.step();
    }
    EXPECT_LT(last_loss, 0.25 * first_loss);
    EXPECT_NEAR(b.w.at(0, 0), 10.0f, 2.5f);
}

TEST(Tensor, FromMovesStorageWithoutCopy) {
    std::vector<float> values = {1.0f, 2.0f, 3.0f, 4.0f};
    const float* storage = values.data();
    Tensor t = Tensor::from(2, 2, std::move(values));
    EXPECT_EQ(t.data(), storage);
    // Tensor moves transfer the buffer too (push()-friendly).
    Tensor u = std::move(t);
    EXPECT_EQ(u.data(), storage);
}

TEST(Tensor, BorrowedViewCopiesDeeply) {
    float buf[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    Tensor view = Tensor::borrowed(2, 2, buf);
    EXPECT_TRUE(view.is_view());
    EXPECT_EQ(view.data(), buf);
    Tensor copy = view; // must materialize owned storage
    EXPECT_FALSE(copy.is_view());
    buf[0] = 99.0f;
    EXPECT_FLOAT_EQ(view.at(0, 0), 99.0f);
    EXPECT_FLOAT_EQ(copy.at(0, 0), 1.0f);
}

TEST(Autograd, TapeArenaGrowsOnceAcrossResets) {
    Rng rng(67);
    Linear lin(8, 8, rng);
    const Tensor x = Tensor::xavier(16, 8, rng);
    Tape t;
    std::size_t cap_after_first = 0;
    for (int it = 0; it < 4; ++it) {
        t.reset();
        const int out = to_scalar(t, lin.forward_relu(t, t.input_view(x)));
        lin.weight.zero_grad();
        lin.bias.zero_grad();
        t.backward(out);
        if (it == 0) cap_after_first = t.arena_capacity();
    }
    EXPECT_GT(cap_after_first, 0u);
    EXPECT_EQ(t.arena_capacity(), cap_after_first)
        << "steady-state batches must reuse the grown-once arena";
}

TEST(Autograd, FusedBiasReluMatchesUnfusedBitExactly) {
    Rng rng(71);
    Param w(Tensor::xavier(6, 5, rng));
    Param b(Tensor::xavier(1, 5, rng));
    const Tensor x = Tensor::xavier(9, 6, rng);
    Tape t;
    const int mm = t.matmul(t.input_view(x), t.param(&w));
    const int fused = t.add_bias_relu(mm, t.param(&b));
    const int unfused = t.relu(t.add_bias(mm, t.param(&b)));
    for (int r = 0; r < 9; ++r)
        for (int c = 0; c < 5; ++c)
            EXPECT_EQ(t.value(fused).at(r, c), t.value(unfused).at(r, c));
}

// Central-difference check of the full matmul → bias → relu chain under BOTH
// kernel backends, exercising the fused add_bias_relu backward — the one
// place a fused-epilogue bug would hide from the forward parity tests.
TEST(Autograd, LinearReluGradientUnderBothBackends) {
    namespace kn = powergear::nn::kernels;
    const kn::Backend saved = kn::backend();
    for (const kn::Backend be : {kn::Backend::Ref, kn::Backend::Blocked}) {
        kn::set_backend(be);
        SCOPED_TRACE(kn::backend_name(be));
        Rng rng(73);
        Param w(Tensor::xavier(4, 3, rng));
        Param b(Tensor::xavier(1, 3, rng));
        const Tensor x = Tensor::xavier(6, 4, rng);

        auto build = [&](Tape& t) {
            return to_scalar(
                t, t.add_bias_relu(t.matmul(t.input_view(x), t.param(&w)),
                                   t.param(&b)));
        };
        auto forward = [&]() {
            Tape t;
            return static_cast<double>(t.value(build(t)).at(0, 0));
        };
        Tape t;
        const int out = build(t);
        w.zero_grad();
        b.zero_grad();
        t.backward(out);
        check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
        check_gradient(b, forward, [&](int r, int c) { return b.g.at(r, c); });
    }
    kn::set_backend(saved);
}

// Same discipline for the fused gather+matmul node (HecConv's w/o-e.f. path).
TEST(Autograd, GatherMatmulGradientUnderBothBackends) {
    namespace kn = powergear::nn::kernels;
    const kn::Backend saved = kn::backend();
    const std::vector<int> idx = {0, 2, 2, 1, 3, 0};
    for (const kn::Backend be : {kn::Backend::Ref, kn::Backend::Blocked}) {
        kn::set_backend(be);
        SCOPED_TRACE(kn::backend_name(be));
        Rng rng(79);
        Param x(Tensor::xavier(4, 3, rng));
        Param w(Tensor::xavier(3, 5, rng));

        auto build = [&](Tape& t) {
            return to_scalar(
                t, t.gather_matmul(t.param(&x), std::span<const int>(idx),
                                   t.param(&w)));
        };
        auto forward = [&]() {
            Tape t;
            return static_cast<double>(t.value(build(t)).at(0, 0));
        };
        Tape t;
        const int out = build(t);
        x.zero_grad();
        w.zero_grad();
        t.backward(out);
        check_gradient(x, forward, [&](int r, int c) { return x.g.at(r, c); });
        check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
    }
    kn::set_backend(saved);
}

TEST(Layers, SnapshotRestoreRoundTrips) {
    Rng rng(37);
    Linear lin(4, 3, rng);
    std::vector<Param*> params;
    lin.collect(params);
    const auto snap = snapshot_params(params);
    const float before = lin.weight.w.at(1, 1);
    lin.weight.w.at(1, 1) = 99.0f;
    restore_params(params, snap);
    EXPECT_FLOAT_EQ(lin.weight.w.at(1, 1), before);
}

// --- requires-grad pruning ---------------------------------------------------
// Constant leaves (input/input_view) and nodes built only from them get no
// gradient work in backward. The pruning must be invisible to every Param:
// their gradients are bit-equal to a run where the same tensors enter as
// Params and so take the full backward.

namespace {

namespace gnn = powergear::gnn;
namespace graphgen = powergear::graphgen;

/// 5-node graph with every relation type, ~half-zero node features and
/// distinct edge features.
gnn::GraphTensors tape_graph() {
    Rng rng(89);
    graphgen::Graph g;
    g.num_nodes = 5;
    g.node_dim = 6;
    g.x.resize(static_cast<std::size_t>(g.num_nodes * g.node_dim));
    for (float& v : g.x)
        v = rng.next_double() < 0.5 ? 0.0f : rng.next_float(0.0f, 1.0f);
    const int ends[][3] = {{0, 1, 0}, {1, 2, 1}, {2, 3, 2}, {3, 4, 3},
                           {4, 0, 0}, {0, 2, 3}, {3, 1, 1}};
    for (const auto& [src, dst, rel] : ends) {
        graphgen::Graph::Edge e;
        e.src = src;
        e.dst = dst;
        e.relation = rel;
        for (float& f : e.feat) f = rng.next_float(0.0f, 1.0f);
        g.edges.push_back(e);
    }
    return gnn::GraphTensors::from(g, std::vector<double>(3, 1.0));
}

struct ConvCase {
    const char* name;
    /// Whether the conv builds nodes from the constant x alone (gather /
    /// scale / scatter chains), beyond the x leaf itself.
    bool derived_constants;
    std::function<std::unique_ptr<gnn::Conv>(int in, Rng& rng)> make;
};

std::vector<ConvCase> conv_cases() {
    const int out = 8, edim = graphgen::Graph::kEdgeDim;
    auto hec = [=](bool edge_features, bool directed) {
        return [=](int in, Rng& rng) -> std::unique_ptr<gnn::Conv> {
            return std::make_unique<gnn::HecConv>(in, out, edim, edge_features,
                                                  directed, true, rng);
        };
    };
    return {
        {"HEC-GNN", false, hec(true, true)},
        {"HEC-GNN w/o e.f.", false, hec(false, true)},
        {"HEC-GNN w/o dir.", false, hec(true, false)},
        {"GCN", false,
         [=](int in, Rng& rng) -> std::unique_ptr<gnn::Conv> {
             return std::make_unique<gnn::GcnConv>(in, out, rng);
         }},
        {"GraphSage", true,
         [=](int in, Rng& rng) -> std::unique_ptr<gnn::Conv> {
             return std::make_unique<gnn::SageConv>(in, out, rng);
         }},
        {"GraphConv", true,
         [=](int in, Rng& rng) -> std::unique_ptr<gnn::Conv> {
             return std::make_unique<gnn::GraphConvLayer>(in, out, rng);
         }},
        {"GINE", true,
         [=](int in, Rng& rng) -> std::unique_ptr<gnn::Conv> {
             return std::make_unique<gnn::GineConv>(in, out, edim, rng);
         }},
    };
}

std::vector<std::uint32_t> bits(const Tensor& t) {
    std::vector<std::uint32_t> out(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        out[i] = std::bit_cast<std::uint32_t>(t.data()[i]);
    return out;
}

} // namespace

TEST(TapeRequiresGrad, ConstantsGetNoGradientAndParamGradsAreUnchanged) {
    namespace kn = powergear::nn::kernels;
    const kn::Backend saved = kn::backend();
    const gnn::GraphTensors g = tape_graph();
    for (const kn::Backend be : {kn::Backend::Ref, kn::Backend::Blocked}) {
        kn::set_backend(be);
        for (const ConvCase& c : conv_cases()) {
            SCOPED_TRACE(testing::Message()
                         << kn::backend_name(be) << " " << c.name);
            // Two layers, so the second one's input requires a gradient.
            Rng rng(97);
            const std::unique_ptr<gnn::Conv> first = c.make(g.x.cols(), rng);
            const std::unique_ptr<gnn::Conv> second = c.make(8, rng);
            std::vector<Param*> params;
            first->collect(params);
            second->collect(params);

            auto run = [&](Tape& t, int h) {
                for (Param* p : params) p->zero_grad();
                const int out = to_scalar(
                    t, second->forward(t, g, first->forward(t, g, h)));
                t.backward(out);
                std::vector<std::vector<std::uint32_t>> grads;
                for (const Param* p : params) grads.push_back(bits(p->g));
                return grads;
            };

            Tape pruned;
            const int x = pruned.input_view(g.x);
            const auto pruned_grads = run(pruned, x);
            EXPECT_FALSE(pruned.requires_grad(x));
            EXPECT_TRUE(pruned.grad(x).empty());
            std::size_t constants = 0;
            for (int i = 0; i < static_cast<int>(pruned.num_nodes()); ++i) {
                if (pruned.requires_grad(i)) continue;
                ++constants;
                EXPECT_TRUE(pruned.grad(i).empty()) << "node " << i;
            }
            // The x leaf and the to_scalar mix leaf, plus edge-feature
            // leaves and the chains derived from x where the conv has them.
            EXPECT_GE(constants, 2u);
            std::size_t leaves = 0;
            for (int i = 0; i < static_cast<int>(pruned.num_nodes()); ++i) {
                const float* v = pruned.value(i).data();
                bool is_leaf = v == g.x.data() || v == g.edge_feat.data();
                for (const Tensor& ef : g.rel_edge_feat)
                    is_leaf |= v == ef.data();
                if (!is_leaf) continue;
                ++leaves;
                EXPECT_FALSE(pruned.requires_grad(i)) << "leaf " << i;
            }
            if (c.derived_constants) {
                EXPECT_GT(constants, leaves + 1);
            }

            Param xp(g.x);
            Tape full;
            const auto full_grads = run(full, full.param(&xp));
            EXPECT_FALSE(xp.g.empty());
            ASSERT_EQ(pruned_grads.size(), full_grads.size());
            for (std::size_t p = 0; p < full_grads.size(); ++p)
                EXPECT_EQ(pruned_grads[p], full_grads[p]) << "param " << p;
        }
    }
    kn::set_backend(saved);
}

TEST(TapeRequiresGrad, BackwardCountsSkippedNodes) {
    Rng rng(101);
    Param w(Tensor::xavier(3, 2, rng));
    const Tensor x = Tensor::xavier(4, 3, rng);
    Tape t;
    const int scaled = t.scale(t.input_view(x), 2.0f); // constant chain
    EXPECT_FALSE(t.requires_grad(scaled));
    const int out = to_scalar(t, t.matmul(scaled, t.param(&w)));
    EXPECT_TRUE(t.requires_grad(out));
    // Skipped: x, scaled, the to_scalar mix leaf.
    EXPECT_EQ(t.backward(out), 3u);
    EXPECT_TRUE(t.grad(scaled).empty());
    EXPECT_FALSE(t.grad(out).empty());
}

// The branch-free ReLU backward (dx = y > 0 ? dx + g : dx) must equal the
// conditional add bit for bit, signed zeros included.
TEST(TapeRequiresGrad, ReluBackwardMatchesBranchyLoopBitwise) {
    const float vals[] = {0.0f, -0.0f, 1.5f, -2.0f, 1e-30f, -1e-30f};
    std::vector<float> y, g, dx;
    for (const float yv : vals)
        for (const float gv : vals)
            for (const float dv : vals) {
                y.push_back(yv);
                g.push_back(gv);
                dx.push_back(dv);
            }
    std::vector<float> want = dx;
    for (std::size_t i = 0; i < want.size(); ++i)
        if (y[i] > 0.0f) want[i] += g[i];
    kernels::relu_backward(dx.size(), y.data(), g.data(), dx.data());
    for (std::size_t i = 0; i < dx.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(dx[i]),
                  std::bit_cast<std::uint32_t>(want[i]))
            << "y=" << y[i] << " g=" << g[i];
}

namespace {

std::vector<std::uint32_t> bits(const std::vector<float>& v) {
    std::vector<std::uint32_t> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = std::bit_cast<std::uint32_t>(v[i]);
    return out;
}

} // namespace

// Tape::dropout's branch-free keep test against the per-element
// `next_double() < keep` loop it replaced. Under a unit backward seed the
// input gradient is the mask itself; masks, outputs and the generator's
// next draw agree bit for bit, also for a p so small that keep rounds to
// 1.0f.
TEST(Autograd, DropoutMatchesPerElementOracleBitwise) {
    for (const float p : {1e-8f, 0.2f, 0.5f, 0.9f}) {
        for (const int n : {0, 1, 17, 4099}) {
            SCOPED_TRACE(testing::Message() << "p=" << p << " n=" << n);
            Rng init(113);
            std::vector<float> xs(static_cast<std::size_t>(n));
            for (float& v : xs) v = init.next_float(-2.0f, 2.0f);
            if (n > 2) {
                xs[0] = 0.0f;
                xs[1] = -0.0f;
            }

            Rng oracle_rng(127);
            const float keep = 1.0f - p;
            std::vector<float> mask(xs.size()), out(xs.size());
            for (std::size_t i = 0; i < xs.size(); ++i) {
                mask[i] = oracle_rng.next_double() < keep ? 1.0f / keep : 0.0f;
                out[i] = xs[i] * mask[i];
            }

            Rng rng(127);
            Param x(Tensor::from(n, 1, xs));
            Tape t;
            const int d = t.dropout(t.param(&x), p, rng, /*training=*/true);
            t.backward(d);
            EXPECT_EQ(bits(t.value(d)), bits(out));
            EXPECT_EQ(bits(x.g), bits(mask));
            EXPECT_EQ(rng.next_u64(), oracle_rng.next_u64());
        }
    }
}

// A tape reused after reset() hands out arena memory that still holds an
// earlier batch's numbers, and ops write their outputs and fresh gradient
// buffers without zeroing them first. A batch on a reused tape must give
// the fresh tape's values, node gradients and param gradients bit for bit:
// an op that read an element it had not written would pick up the earlier
// batch's numbers here.
TEST(TapeReuse, ReusedTapeMatchesFreshTapeForEveryConvKind) {
    namespace kn = powergear::nn::kernels;
    const kn::Backend saved = kn::backend();
    const gnn::GraphTensors g = tape_graph();
    const gnn::GraphTensors* three[] = {&g, &g, &g};
    const gnn::GraphBatch bigger = gnn::GraphBatch::assemble(three);
    for (const kn::Backend be : {kn::Backend::Ref, kn::Backend::Blocked}) {
        kn::set_backend(be);
        for (const ConvCase& c : conv_cases()) {
            SCOPED_TRACE(testing::Message()
                         << kn::backend_name(be) << " " << c.name);
            Rng init(137);
            const std::unique_ptr<gnn::Conv> first = c.make(g.x.cols(), init);
            const std::unique_ptr<gnn::Conv> second = c.make(8, init);
            std::vector<Param*> params;
            first->collect(params);
            second->collect(params);

            struct Run {
                std::vector<std::vector<std::uint32_t>> values, grads, params;
            };
            auto run = [&](Tape& t, const gnn::GraphTensors& in) {
                for (Param* p : params) p->zero_grad();
                Rng rng(139);
                const int h1 = first->forward(t, in, t.input_view(in.x));
                const int d = t.dropout(h1, 0.2f, rng, /*training=*/true);
                const int h2 = second->forward(t, in, d);
                const int wide = t.concat_cols(h2, t.scale(h2, 0.5f));
                const int loss = t.mape_loss_rows(to_scalar(t, wide), {2.0f});
                t.backward(loss);
                Run r;
                for (int i = 0; i < static_cast<int>(t.num_nodes()); ++i) {
                    r.values.push_back(bits(t.value(i)));
                    r.grads.push_back(bits(t.grad(i)));
                }
                for (const Param* p : params) r.params.push_back(bits(p->g));
                return r;
            };

            Tape fresh;
            const Run want = run(fresh, g);
            Tape reused;
            (void)run(reused, bigger.g);
            reused.reset();
            const Run got = run(reused, g);
            ASSERT_EQ(got.values.size(), want.values.size());
            for (std::size_t i = 0; i < want.values.size(); ++i) {
                EXPECT_EQ(got.values[i], want.values[i]) << "value of node " << i;
                EXPECT_EQ(got.grads[i], want.grads[i]) << "grad of node " << i;
            }
            EXPECT_EQ(got.params, want.params);
        }
    }
    kn::set_backend(saved);
}
