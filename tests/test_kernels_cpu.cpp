// Property-based parity suite for the CPU kernel backends.
//
// The blocked kernels change float summation order, so they cannot be
// bit-identical to the reference loops — the contract (DESIGN.md §10) is
// agreement within 1e-5 relative error on every shape, including degenerate
// ones, plus bit-identical results at any POWERGEAR_JOBS value within one
// backend. Both halves are locked in here over seeded random shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graphgen/graph.hpp"
#include "ir/ir.hpp"
#include "nn/kernels_cpu.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace powergear::nn::kernels;
using powergear::util::Rng;

namespace {

/// Restore the process-global backend (and job count) after a test body.
struct BackendGuard {
    Backend saved = backend();
    ~BackendGuard() { set_backend(saved); }
};

std::vector<float> random_values(Rng& rng, std::size_t n) {
    std::vector<float> v(n);
    for (auto& x : v) {
        x = rng.next_float(-1.0f, 1.0f);
        // Sprinkle exact zeros: the reference kernels take a skip-zero fast
        // path that must not change parity.
        if (rng.next_double() < 0.15) x = 0.0f;
    }
    return v;
}

std::vector<int> random_indices(Rng& rng, std::size_t n, int upper) {
    std::vector<int> idx(n);
    for (auto& i : idx)
        i = static_cast<int>(rng.next_double() * upper) % upper;
    return idx;
}

void expect_close(const std::vector<float>& ref, const std::vector<float>& got,
                  const char* what, int m, int k, int n) {
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const float tol =
            1e-5f * std::max(1.0f, std::max(std::abs(ref[i]), std::abs(got[i])));
        ASSERT_NEAR(ref[i], got[i], tol)
            << what << " diverges at flat index " << i << " for shape m=" << m
            << " k=" << k << " n=" << n;
    }
}

const Ops& ref_ops() { return ops(Backend::Ref); }
const Ops& blk_ops() { return ops(Backend::Blocked); }

struct Shape {
    int m, k, n;
};

/// Degenerate shapes first, then seeded random ones — ~200 total.
std::vector<Shape> parity_shapes() {
    std::vector<Shape> shapes = {
        {0, 0, 0}, {0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1},
        {1, 64, 1}, {4, 16, 16}, {5, 17, 33}, {16, 16, 16},
    };
    Rng rng(20260806);
    while (shapes.size() < 200) {
        shapes.push_back({static_cast<int>(rng.next_double() * 40),
                          static_cast<int>(rng.next_double() * 48),
                          static_cast<int>(rng.next_double() * 64)});
    }
    return shapes;
}

} // namespace

TEST(KernelsCpu, BackendNameRoundTrip) {
    EXPECT_STREQ(backend_name(Backend::Ref), "ref");
    EXPECT_STREQ(backend_name(Backend::Blocked), "blocked");
}

TEST(KernelsCpu, DispatchMatchesFixedEntryPointsBitExactly) {
    BackendGuard guard;
    Rng rng(3);
    const int m = 9, k = 21, n = 34;
    const auto a = random_values(rng, static_cast<std::size_t>(m) * k);
    const auto b = random_values(rng, static_cast<std::size_t>(k) * n);
    std::vector<float> via_dispatch(static_cast<std::size_t>(m) * n);
    std::vector<float> via_fixed(static_cast<std::size_t>(m) * n);

    for (Backend be : {Backend::Blocked, Backend::Ref}) {
        SCOPED_TRACE(backend_name(be));
        set_backend(be);
        EXPECT_EQ(backend(), be);
        matmul(m, k, n, a.data(), b.data(), via_dispatch.data());
        ops(be).matmul(m, k, n, a.data(), b.data(), via_fixed.data());
        EXPECT_EQ(via_dispatch, via_fixed);
    }
    // The ref table swaps the whole matmul family (else the parity tests
    // below would compare a kernel with itself) and shares the rest.
    const Ops& r = ref_ops();
    const Ops& bl = blk_ops();
    EXPECT_NE(r.matmul, bl.matmul);
    EXPECT_NE(r.matmul_acc, bl.matmul_acc);
    EXPECT_NE(r.matmul_tn, bl.matmul_tn);
    EXPECT_NE(r.matmul_tn_acc, bl.matmul_tn_acc);
    EXPECT_NE(r.matmul_nt, bl.matmul_nt);
    EXPECT_NE(r.matmul_nt_acc, bl.matmul_nt_acc);
    EXPECT_NE(r.gather_matmul, bl.gather_matmul);
    EXPECT_NE(r.gather_matmul_tn_acc, bl.gather_matmul_tn_acc);
    EXPECT_NE(r.scatter_matmul_nt_acc, bl.scatter_matmul_nt_acc);
    EXPECT_EQ(r.vacc, bl.vacc);
    EXPECT_EQ(r.segment_sum, bl.segment_sum);
}

TEST(KernelsCpu, MatmulParityOverRandomShapes) {
    Rng rng(41);
    for (const Shape& s : parity_shapes()) {
        const auto a = random_values(rng, static_cast<std::size_t>(s.m) * s.k);
        const auto b = random_values(rng, static_cast<std::size_t>(s.k) * s.n);
        std::vector<float> ref(static_cast<std::size_t>(s.m) * s.n, 7.0f);
        std::vector<float> blk(ref.size(), -7.0f); // poisoned: must overwrite
        ref_ops().matmul(s.m, s.k, s.n, a.data(), b.data(), ref.data());
        blk_ops().matmul(s.m, s.k, s.n, a.data(), b.data(), blk.data());
        expect_close(ref, blk, "matmul", s.m, s.k, s.n);
    }
}

TEST(KernelsCpu, MatmulTnParityOverRandomShapes) {
    Rng rng(43);
    for (const Shape& s : parity_shapes()) {
        const auto a = random_values(rng, static_cast<std::size_t>(s.m) * s.k);
        const auto b = random_values(rng, static_cast<std::size_t>(s.m) * s.n);
        std::vector<float> ref(static_cast<std::size_t>(s.k) * s.n, 7.0f);
        std::vector<float> blk(ref.size(), -7.0f);
        ref_ops().matmul_tn(s.m, s.k, s.n, a.data(), b.data(), ref.data());
        blk_ops().matmul_tn(s.m, s.k, s.n, a.data(), b.data(), blk.data());
        expect_close(ref, blk, "matmul_tn", s.m, s.k, s.n);
    }
}

TEST(KernelsCpu, MatmulNtParityOverRandomShapes) {
    Rng rng(47);
    for (const Shape& s : parity_shapes()) {
        const auto a = random_values(rng, static_cast<std::size_t>(s.m) * s.k);
        const auto b = random_values(rng, static_cast<std::size_t>(s.n) * s.k);
        std::vector<float> ref(static_cast<std::size_t>(s.m) * s.n, 7.0f);
        std::vector<float> blk(ref.size(), -7.0f);
        ref_ops().matmul_nt(s.m, s.k, s.n, a.data(), b.data(), ref.data());
        blk_ops().matmul_nt(s.m, s.k, s.n, a.data(), b.data(), blk.data());
        expect_close(ref, blk, "matmul_nt", s.m, s.k, s.n);
    }
}

TEST(KernelsCpu, GatherMatmulParityOverRandomShapes) {
    Rng rng(53);
    for (const Shape& s : parity_shapes()) {
        const int rows = std::max(1, s.m); // gather source needs >= 1 row
        const auto x =
            random_values(rng, static_cast<std::size_t>(rows) * s.k);
        const auto w = random_values(rng, static_cast<std::size_t>(s.k) * s.n);
        const int e = s.m; // edge count may be 0
        const auto idx = random_indices(rng, static_cast<std::size_t>(e), rows);
        std::vector<float> ref(static_cast<std::size_t>(e) * s.n, 7.0f);
        std::vector<float> blk(ref.size(), -7.0f);
        ref_ops().gather_matmul(e, s.k, s.n, x.data(), idx.data(), w.data(),
                                ref.data());
        blk_ops().gather_matmul(e, s.k, s.n, x.data(), idx.data(), w.data(),
                                blk.data());
        expect_close(ref, blk, "gather_matmul", e, s.k, s.n);
    }
}

TEST(KernelsCpu, AccumulateVariantsParity) {
    BackendGuard guard;
    Rng rng(59);
    const int m = 13, k = 29, n = 37;
    const auto a = random_values(rng, static_cast<std::size_t>(m) * k);
    const auto b = random_values(rng, static_cast<std::size_t>(k) * n);
    const auto bt = random_values(rng, static_cast<std::size_t>(n) * k);
    const auto g = random_values(rng, static_cast<std::size_t>(m) * n);
    const auto idx = random_indices(rng, static_cast<std::size_t>(m), m);

    auto run = [&](Backend be) {
        set_backend(be);
        std::vector<float> acc(static_cast<std::size_t>(m) * n);
        std::vector<float> tn(static_cast<std::size_t>(k) * n);
        std::vector<float> nt(static_cast<std::size_t>(m) * k);
        std::vector<float> gtn(static_cast<std::size_t>(k) * n);
        std::vector<float> snt(static_cast<std::size_t>(m) * k);
        for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] = 0.25f * static_cast<float>(i % 7);
        matmul_acc(m, k, n, a.data(), b.data(), acc.data());
        matmul_tn_acc(m, k, n, a.data(), g.data(), tn.data());
        matmul_nt_acc(m, n, k, g.data(), b.data(), nt.data());
        gather_matmul_tn_acc(m, k, n, a.data(), idx.data(), g.data(),
                             gtn.data());
        scatter_matmul_nt_acc(m, k, n, g.data(), b.data(), idx.data(),
                              snt.data());
        std::vector<float> all;
        for (const auto* v : {&acc, &tn, &nt, &gtn, &snt})
            all.insert(all.end(), v->begin(), v->end());
        return all;
    };
    expect_close(run(Backend::Ref), run(Backend::Blocked), "acc-kernels", m, k,
                 n);
}

TEST(KernelsCpu, FusedEpiloguesMatchManualLoops) {
    Rng rng(61);
    const int rows = 7, cols = 19;
    const auto x = random_values(rng, static_cast<std::size_t>(rows) * cols);
    const auto bias = random_values(rng, static_cast<std::size_t>(cols));
    std::vector<float> y(x.size());
    add_bias_relu(rows, cols, x.data(), bias.data(), y.data());
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            const float want = std::max(
                0.0f, x[static_cast<std::size_t>(r) * cols + c] + bias[c]);
            EXPECT_FLOAT_EQ(y[static_cast<std::size_t>(r) * cols + c], want);
        }

    const auto g = random_values(rng, x.size());
    std::vector<float> dx(x.size(), 0.5f);
    std::vector<float> dbias(bias.size(), 0.25f);
    add_bias_relu_backward(rows, cols, y.data(), g.data(), dx.data(),
                           dbias.data());
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            const std::size_t i = static_cast<std::size_t>(r) * cols + c;
            const float gv = y[i] > 0.0f ? g[i] : 0.0f;
            EXPECT_FLOAT_EQ(dx[i], 0.5f + gv);
        }
    for (int c = 0; c < cols; ++c) {
        float want = 0.25f;
        for (int r = 0; r < rows; ++r) {
            const std::size_t i = static_cast<std::size_t>(r) * cols + c;
            if (y[i] > 0.0f) want += g[i];
        }
        EXPECT_FLOAT_EQ(dbias[c], want);
    }
}

// --- sparse operands at training shapes --------------------------------------
// random_values zeroes ~15% of entries; training operands are far sparser:
// post-ReLU/dropout activations (and their gradients) are about half zero,
// one-hot node features nearly all zero. Ref skips exact zeros, blocked
// multiplies through them, so parity must hold at every zero share.

namespace {

/// ReLU-like operand: a `zero_share` fraction of exact zeros, the rest
/// positive, as after ReLU.
std::vector<float> relu_like(Rng& rng, std::size_t n, double zero_share) {
    std::vector<float> v(n);
    for (auto& x : v)
        x = rng.next_double() < zero_share ? 0.0f : rng.next_float(0.0f, 1.0f);
    return v;
}

/// Rows of width k holding a single 1 each (one-hot node-class features).
std::vector<float> one_hot_rows(Rng& rng, int rows, int k) {
    std::vector<float> v(static_cast<std::size_t>(rows) * k, 0.0f);
    for (int r = 0; r < rows && k > 0; ++r) {
        const auto hot = rng.next_below(static_cast<std::uint64_t>(k));
        v[static_cast<std::size_t>(r) * k + static_cast<std::size_t>(hot)] =
            1.0f;
    }
    return v;
}

} // namespace

TEST(KernelsCpu, SparseOperandParityAtTrainingShapes) {
    BackendGuard guard;
    namespace pg = powergear;
    const int node_dim =
        pg::graphgen::node_feature_dim(pg::ir::opcode_count() + 1);
    const int m = 2003, n = 16; // ~2000 rows, with a row tail for the tiles
    Rng rng(83);
    for (const int k : {16, node_dim}) {
        // zero_share < 0 selects one-hot rows.
        for (const double zero_share : {0.5, 0.9, 1.0, -1.0}) {
            SCOPED_TRACE(testing::Message() << "k=" << k << " zero_share="
                                            << zero_share);
            auto sparse = [&](int rows, int cols) {
                return zero_share < 0
                           ? one_hot_rows(rng, rows, cols)
                           : relu_like(rng,
                                       static_cast<std::size_t>(rows) * cols,
                                       zero_share);
            };
            const auto a = sparse(m, k);  // activations / node features
            const auto g = sparse(m, n);  // ReLU-masked output gradient
            const auto gk = sparse(m, k); // ReLU-masked gradient, nt shape
            const auto w = random_values(rng, static_cast<std::size_t>(k) * n);
            const auto wt =
                random_values(rng, static_cast<std::size_t>(n) * k);
            const auto idx =
                random_indices(rng, static_cast<std::size_t>(m), m);

            // Overwrite variants through each backend's table.
            const std::size_t mn = static_cast<std::size_t>(m) * n;
            const std::size_t kn = static_cast<std::size_t>(k) * n;
            std::vector<float> ref(mn, 7.0f), blk(mn, -7.0f);
            ref_ops().matmul(m, k, n, a.data(), w.data(), ref.data());
            blk_ops().matmul(m, k, n, a.data(), w.data(), blk.data());
            expect_close(ref, blk, "matmul", m, k, n);
            ref_ops().matmul_nt(m, k, n, gk.data(), wt.data(), ref.data());
            blk_ops().matmul_nt(m, k, n, gk.data(), wt.data(), blk.data());
            expect_close(ref, blk, "matmul_nt", m, k, n);
            ref_ops().gather_matmul(m, k, n, a.data(), idx.data(), w.data(),
                                    ref.data());
            blk_ops().gather_matmul(m, k, n, a.data(), idx.data(), w.data(),
                                    blk.data());
            expect_close(ref, blk, "gather_matmul", m, k, n);
            std::vector<float> ref_tn(kn, 7.0f), blk_tn(kn, -7.0f);
            ref_ops().matmul_tn(m, k, n, a.data(), g.data(), ref_tn.data());
            blk_ops().matmul_tn(m, k, n, a.data(), g.data(), blk_tn.data());
            expect_close(ref_tn, blk_tn, "matmul_tn", m, k, n);

            // Accumulate variants through dispatch, onto a nonzero start.
            auto run_acc = [&](Backend be) {
                set_backend(be);
                std::vector<float> acc(mn), tn(kn), nt(mn), gtn(kn),
                    snt(static_cast<std::size_t>(m) * k);
                for (auto* v : {&acc, &tn, &nt, &gtn, &snt})
                    for (std::size_t i = 0; i < v->size(); ++i)
                        (*v)[i] = 0.25f * static_cast<float>(i % 5);
                matmul_acc(m, k, n, a.data(), w.data(), acc.data());
                matmul_tn_acc(m, k, n, a.data(), g.data(), tn.data());
                matmul_nt_acc(m, k, n, gk.data(), wt.data(), nt.data());
                gather_matmul_tn_acc(m, k, n, a.data(), idx.data(), g.data(),
                                     gtn.data());
                scatter_matmul_nt_acc(m, k, n, g.data(), w.data(), idx.data(),
                                      snt.data());
                std::vector<float> all;
                for (const auto* v : {&acc, &tn, &nt, &gtn, &snt})
                    all.insert(all.end(), v->begin(), v->end());
                return all;
            };
            expect_close(run_acc(Backend::Ref), run_acc(Backend::Blocked),
                         "acc-kernels", m, k, n);
        }
    }
}

// Every kernel is single-threaded by contract (parallelism lives one level
// up, across tape-owning tasks), so results must be byte-identical whether
// the process pool runs 1 or 4 workers — including when the kernels execute
// *inside* pool tasks.
TEST(KernelsCpu, JobsCountDoesNotChangeResultsPerBackend) {
    namespace util = powergear::util;
    BackendGuard guard;
    const int m = 11, k = 23, n = 31;
    auto run_tasks = [&]() {
        std::vector<std::vector<float>> outs(8);
        util::parallel_for(outs.size(), [&](std::size_t task) {
            Rng rng(900 + task);
            const auto a = random_values(rng, static_cast<std::size_t>(m) * k);
            const auto b = random_values(rng, static_cast<std::size_t>(k) * n);
            const auto bm = random_values(rng, static_cast<std::size_t>(m) * n);
            const auto bt = random_values(rng, static_cast<std::size_t>(n) * k);
            const auto idx =
                random_indices(rng, static_cast<std::size_t>(m), m);
            std::vector<float> out(3 * static_cast<std::size_t>(m) * n +
                                   static_cast<std::size_t>(k) * n);
            float* p = out.data();
            matmul(m, k, n, a.data(), b.data(), p);
            p += static_cast<std::size_t>(m) * n;
            matmul_tn(m, k, n, a.data(), bm.data(), p);
            p += static_cast<std::size_t>(k) * n;
            matmul_nt(m, k, n, a.data(), bt.data(), p);
            p += static_cast<std::size_t>(m) * n;
            gather_matmul(m, k, n, a.data(), idx.data(), b.data(), p);
            outs[task] = std::move(out);
        });
        return outs;
    };
    for (Backend be : {Backend::Ref, Backend::Blocked}) {
        set_backend(be);
        util::set_parallel_jobs(1);
        const auto serial = run_tasks();
        util::set_parallel_jobs(4);
        const auto pooled = run_tasks();
        util::set_parallel_jobs(0); // back to env/default sizing
        for (std::size_t t = 0; t < serial.size(); ++t)
            EXPECT_EQ(serial[t], pooled[t])
                << "backend " << backend_name(be) << " task " << t;
    }
}

// --- segmented reductions (graph-batch readout, DESIGN.md §13) ---------------

namespace {

/// Random segment map over `rows` rows into [0, num_segs), biased so some
/// segments stay empty and runs of equal ids appear (the batched-readout
/// shape: ascending graph_id runs).
std::vector<int> random_segments(Rng& rng, int rows, int num_segs) {
    std::vector<int> seg(static_cast<std::size_t>(rows));
    int cur = 0;
    for (auto& s : seg) {
        if (rng.next_double() < 0.3)
            cur = static_cast<int>(rng.next_double() * num_segs) % num_segs;
        s = cur;
    }
    return seg;
}

} // namespace

TEST(KernelsCpu, SegmentSumMatchesHandComputedOracle) {
    // 5 rows x 3 cols into 3 segments, segment 2 left empty.
    const std::vector<float> x = {1, 2, 3,  //
                                  4, 5, 6,  //
                                  7, 8, 9,  //
                                  -1, -2, -3,  //
                                  10, 20, 30};
    const std::vector<int> seg = {0, 1, 0, 1, 0};
    std::vector<float> sum(9, 99.0f);   // poisoned: must overwrite
    segment_sum(5, 3, x.data(), seg.data(), 3, sum.data());
    const std::vector<float> want_sum = {18, 30, 42, 3, 3, 3, 0, 0, 0};
    EXPECT_EQ(sum, want_sum);
}

// segment_sum is pure adds, so under either backend (and on either ISA
// leg) it must equal the plain ascending-row loop bit-for-bit — not just
// within 1e-5. Shapes include rows=0, cols=0, single segment, and
// all-empty segments.
TEST(KernelsCpu, SegmentForwardParityIsBitExactOverRandomShapes) {
    BackendGuard guard;
    auto oracle = [](int rows, int cols, const float* x, const int* seg,
                     int num_segs) {
        std::vector<float> out(static_cast<std::size_t>(num_segs) * cols,
                               0.0f);
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c)
                out[static_cast<std::size_t>(seg[r]) * cols + c] +=
                    x[static_cast<std::size_t>(r) * cols + c];
        return out;
    };
    Rng rng(67);
    for (const Shape& s : parity_shapes()) {
        const int rows = s.m, cols = s.k;
        const int num_segs = 1 + s.n % 7;
        const auto x =
            random_values(rng, static_cast<std::size_t>(rows) * cols);
        const auto seg = random_segments(rng, rows, num_segs);
        const auto want = oracle(rows, cols, x.data(), seg.data(), num_segs);
        for (Backend be : {Backend::Ref, Backend::Blocked}) {
            set_backend(be);
            std::vector<float> got(want.size(), -7.0f); // must overwrite
            segment_sum(rows, cols, x.data(), seg.data(), num_segs,
                        got.data());
            EXPECT_EQ(got, want)
                << backend_name(be) << " segment_sum rows=" << rows
                << " cols=" << cols << " segs=" << num_segs;
        }
    }
}

TEST(KernelsCpu, SegmentSumSingleSegmentMatchesVaccOverRows) {
    Rng rng(71);
    const int rows = 23, cols = 17;
    const auto x = random_values(rng, static_cast<std::size_t>(rows) * cols);
    const std::vector<int> seg(static_cast<std::size_t>(rows), 0);
    std::vector<float> got(static_cast<std::size_t>(cols), 5.0f);
    segment_sum(rows, cols, x.data(), seg.data(), 1, got.data());
    std::vector<float> want(static_cast<std::size_t>(cols), 0.0f);
    for (int r = 0; r < rows; ++r)
        vacc(static_cast<std::size_t>(cols),
             x.data() + static_cast<std::size_t>(r) * cols, want.data());
    EXPECT_EQ(got, want); // contract: same ascending accumulation order
}

TEST(KernelsCpu, SegmentBackwardsMatchFiniteStructure) {
    // segment_sum_backward broadcasts g[seg[r]] into row r. It accumulates
    // (+=), preserving prior gradient contents.
    BackendGuard guard;
    Rng rng(73);
    const int rows = 9, cols = 5, num_segs = 4;
    const auto seg = random_segments(rng, rows, num_segs);
    const auto g =
        random_values(rng, static_cast<std::size_t>(num_segs) * cols);
    for (Backend be : {Backend::Ref, Backend::Blocked}) {
        set_backend(be);
        std::vector<float> dsum(static_cast<std::size_t>(rows) * cols, 0.5f);
        segment_sum_backward(rows, cols, g.data(), seg.data(), dsum.data());
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c) {
                const std::size_t i = static_cast<std::size_t>(r) * cols + c;
                const std::size_t gi =
                    static_cast<std::size_t>(seg[static_cast<std::size_t>(r)]) *
                        cols +
                    static_cast<std::size_t>(c);
                EXPECT_FLOAT_EQ(dsum[i], 0.5f + g[gi])
                    << backend_name(be) << " sum r=" << r << " c=" << c;
            }
    }
}

TEST(KernelsCpu, SegmentKernelsJobsCountInvariant) {
    namespace util = powergear::util;
    BackendGuard guard;
    const int rows = 31, cols = 13, num_segs = 5;
    auto run_tasks = [&]() {
        std::vector<std::vector<float>> outs(6);
        util::parallel_for(outs.size(), [&](std::size_t task) {
            Rng rng(1700 + task);
            const auto x =
                random_values(rng, static_cast<std::size_t>(rows) * cols);
            const auto seg = random_segments(rng, rows, num_segs);
            std::vector<float> out(static_cast<std::size_t>(num_segs) * cols);
            segment_sum(rows, cols, x.data(), seg.data(), num_segs,
                        out.data());
            outs[task] = std::move(out);
        });
        return outs;
    };
    for (Backend be : {Backend::Ref, Backend::Blocked}) {
        set_backend(be);
        util::set_parallel_jobs(1);
        const auto serial = run_tasks();
        util::set_parallel_jobs(4);
        const auto pooled = run_tasks();
        util::set_parallel_jobs(0);
        for (std::size_t t = 0; t < serial.size(); ++t)
            EXPECT_EQ(serial[t], pooled[t])
                << "backend " << backend_name(be) << " task " << t;
    }
}

namespace {

std::vector<std::uint32_t> bit_patterns(const std::vector<float>& v) {
    std::vector<std::uint32_t> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = std::bit_cast<std::uint32_t>(v[i]);
    return out;
}

/// random_values with some -0.0f, so a kernel that stores 0.0f + v where
/// it should copy v (or the reverse) shows in the bits.
std::vector<float> signed_values(Rng& rng, std::size_t n) {
    std::vector<float> v = random_values(rng, n);
    for (float& x : v)
        if (rng.next_double() < 0.1) x = -0.0f;
    return v;
}

} // namespace

// The row movers against the per-row loops they replace (one vacc or copy
// per row through the same table), with repeated indices, empty inputs and
// column counts off and on the 16-float tile width.
TEST(KernelsCpu, RowMoversMatchPerRowLoopsBitExactly) {
    Rng rng(20261020);
    for (const Backend be : {Backend::Ref, Backend::Blocked}) {
        const Ops& o = ops(be);
        for (const int cols : {1, 7, 16, 33}) {
            for (const int e : {0, 1, 9, 40}) {
                SCOPED_TRACE(testing::Message() << backend_name(be)
                                                << " cols=" << cols << " e=" << e);
                const int n = 5; // e > n rows forces repeated indices
                const std::size_t c = static_cast<std::size_t>(cols);
                const std::size_t ec = static_cast<std::size_t>(e) * c;
                const std::size_t nc = static_cast<std::size_t>(n) * c;
                const std::vector<float> node = signed_values(rng, nc);
                const std::vector<float> edge = signed_values(rng, ec);
                const std::vector<int> idx =
                    random_indices(rng, static_cast<std::size_t>(e), n);

                std::vector<float> want(ec), got(ec, 7.0f);
                for (int r = 0; r < e; ++r)
                    std::copy_n(node.data() + static_cast<std::size_t>(idx[r]) * c,
                                c, want.data() + static_cast<std::size_t>(r) * c);
                o.gather_rows(e, cols, node.data(), idx.data(), got.data());
                EXPECT_EQ(bit_patterns(got), bit_patterns(want)) << "gather_rows";

                want = signed_values(rng, ec);
                got = want;
                for (int r = 0; r < e; ++r)
                    o.vacc(c, node.data() + static_cast<std::size_t>(idx[r]) * c,
                           want.data() + static_cast<std::size_t>(r) * c);
                o.gather_rows_acc(e, cols, node.data(), idx.data(), got.data());
                EXPECT_EQ(bit_patterns(got), bit_patterns(want))
                    << "gather_rows_acc";

                want = signed_values(rng, nc);
                got = want;
                for (int r = 0; r < e; ++r)
                    o.vacc(c, edge.data() + static_cast<std::size_t>(r) * c,
                           want.data() + static_cast<std::size_t>(idx[r]) * c);
                o.scatter_rows_acc(e, cols, edge.data(), idx.data(), got.data());
                EXPECT_EQ(bit_patterns(got), bit_patterns(want))
                    << "scatter_rows_acc";

                // A column block at offset 2 of an (e, cols + 3) matrix, read
                // (copy_block) and written back into (acc_block).
                const int ld = cols + 3;
                const std::vector<float> wide =
                    signed_values(rng, static_cast<std::size_t>(e * ld));
                want.assign(ec, 0.0f);
                got.assign(ec, 7.0f);
                for (int r = 0; r < e; ++r)
                    std::copy_n(wide.data() + static_cast<std::size_t>(r * ld + 2),
                                c, want.data() + static_cast<std::size_t>(r) * c);
                o.copy_block(e, cols, wide.data() + 2, ld, got.data(), cols);
                EXPECT_EQ(bit_patterns(got), bit_patterns(want)) << "copy_block";

                std::vector<float> wide_want = wide, wide_got = wide;
                for (int r = 0; r < e; ++r)
                    o.vacc(c, edge.data() + static_cast<std::size_t>(r) * c,
                           wide_want.data() + static_cast<std::size_t>(r * ld + 2));
                o.acc_block(e, cols, edge.data(), cols, wide_got.data() + 2, ld);
                EXPECT_EQ(bit_patterns(wide_got), bit_patterns(wide_want))
                    << "acc_block";
            }
        }
    }
}

// Every *_init kernel, and each overwriting matmul the tape uses as the
// first writer of a fresh gradient buffer, equals its accumulating form on
// a +0.0f-filled output bit for bit, signed zeros included. The init form's
// output starts as NaN: an init kernel that read it would leave NaNs.
TEST(KernelsCpu, InitKernelsMatchAccumulatingIntoZeros) {
    Rng rng(20261021);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const Backend be : {Backend::Ref, Backend::Blocked}) {
        const Ops& o = ops(be);
        for (const auto& [rows, cols] : std::vector<std::pair<int, int>>{
                 {0, 3}, {1, 1}, {5, 7}, {9, 16}, {4, 33}}) {
            SCOPED_TRACE(testing::Message() << backend_name(be) << " rows="
                                            << rows << " cols=" << cols);
            const std::size_t n =
                static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
            const std::size_t c = static_cast<std::size_t>(cols);
            const std::vector<float> g = signed_values(rng, n);
            const std::vector<float> y = signed_values(rng, n);
            const std::vector<float> bias0 = signed_values(rng, c);
            const int segs = 3;
            const std::vector<float> gs = signed_values(rng, segs * c);
            const std::vector<int> seg =
                random_indices(rng, static_cast<std::size_t>(rows), segs);

            // Runs `acc` on zeros and `init` on NaNs; compares the outputs.
            auto check = [&](const char* what, std::size_t size, auto acc,
                             auto init) {
                std::vector<float> want(size, 0.0f), got(size, nan);
                acc(want.data());
                init(got.data());
                EXPECT_EQ(bit_patterns(got), bit_patterns(want)) << what;
            };
            check("vacc", n, [&](float* d) { o.vacc(n, g.data(), d); },
                  [&](float* d) { o.vacc_init(n, g.data(), d); });
            check("relu_backward", n,
                  [&](float* d) { o.relu_backward(n, y.data(), g.data(), d); },
                  [&](float* d) {
                      o.relu_backward_init(n, y.data(), g.data(), d);
                  });
            check("segment_sum_backward", n,
                  [&](float* d) {
                      o.segment_sum_backward(rows, cols, gs.data(), seg.data(), d);
                  },
                  [&](float* d) {
                      o.segment_sum_backward_init(rows, cols, gs.data(),
                                                  seg.data(), d);
                  });
            check("gather_rows_acc", n,
                  [&](float* d) {
                      o.gather_rows_acc(rows, cols, gs.data(), seg.data(), d);
                  },
                  [&](float* d) {
                      o.gather_rows_acc_init(rows, cols, gs.data(), seg.data(), d);
                  });
            // The fused bias kernels: dx starts as zeros or NaNs, dbias
            // accumulates from the same values in both forms.
            std::vector<float> db_want = bias0, db_got = bias0;
            check("add_bias_backward", n,
                  [&](float* d) {
                      o.add_bias_backward(rows, cols, g.data(), d, db_want.data());
                  },
                  [&](float* d) {
                      o.add_bias_backward_init(rows, cols, g.data(), d,
                                               db_got.data());
                  });
            EXPECT_EQ(bit_patterns(db_got), bit_patterns(db_want));
            db_want = db_got = bias0;
            check("add_bias_relu_backward", n,
                  [&](float* d) {
                      o.add_bias_relu_backward(rows, cols, y.data(), g.data(), d,
                                               db_want.data());
                  },
                  [&](float* d) {
                      o.add_bias_relu_backward_init(rows, cols, y.data(),
                                                    g.data(), d, db_got.data());
                  });
            EXPECT_EQ(bit_patterns(db_got), bit_patterns(db_want));

            // ga(m,k) = g(m,n) · b(k,n)ᵀ and gb(k,n) = a(m,k)ᵀ · g(m,n) with
            // m = rows, n = cols and k = 6.
            const int k = 6;
            const std::vector<float> a = signed_values(rng, rows * k);
            const std::vector<float> b = signed_values(rng, k * c);
            check("matmul_nt", static_cast<std::size_t>(rows * k),
                  [&](float* d) {
                      o.matmul_nt_acc(rows, cols, k, g.data(), b.data(), d);
                  },
                  [&](float* d) {
                      o.matmul_nt(rows, cols, k, g.data(), b.data(), d);
                  });
            check("matmul_tn", static_cast<std::size_t>(k) * c,
                  [&](float* d) {
                      o.matmul_tn_acc(rows, k, cols, a.data(), g.data(), d);
                  },
                  [&](float* d) {
                      o.matmul_tn(rows, k, cols, a.data(), g.data(), d);
                  });
        }
    }
}
