// Property-based parity suite for the CPU kernel backends.
//
// The blocked kernels change float summation order, so they cannot be
// bit-identical to the reference loops — the contract (DESIGN.md §10) is
// agreement within 1e-5 relative error on every shape, including degenerate
// ones, plus bit-identical results at any POWERGEAR_JOBS value within one
// backend. Both halves are locked in here over seeded random shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

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

    set_backend(Backend::Blocked);
    matmul(m, k, n, a.data(), b.data(), via_dispatch.data());
    matmul_blocked(m, k, n, a.data(), b.data(), via_fixed.data());
    EXPECT_EQ(via_dispatch, via_fixed);

    set_backend(Backend::Ref);
    matmul(m, k, n, a.data(), b.data(), via_dispatch.data());
    matmul_ref(m, k, n, a.data(), b.data(), via_fixed.data());
    EXPECT_EQ(via_dispatch, via_fixed);
}

TEST(KernelsCpu, MatmulParityOverRandomShapes) {
    Rng rng(41);
    for (const Shape& s : parity_shapes()) {
        const auto a = random_values(rng, static_cast<std::size_t>(s.m) * s.k);
        const auto b = random_values(rng, static_cast<std::size_t>(s.k) * s.n);
        std::vector<float> ref(static_cast<std::size_t>(s.m) * s.n, 7.0f);
        std::vector<float> blk(ref.size(), -7.0f); // poisoned: must overwrite
        matmul_ref(s.m, s.k, s.n, a.data(), b.data(), ref.data());
        matmul_blocked(s.m, s.k, s.n, a.data(), b.data(), blk.data());
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
        matmul_tn_ref(s.m, s.k, s.n, a.data(), b.data(), ref.data());
        matmul_tn_blocked(s.m, s.k, s.n, a.data(), b.data(), blk.data());
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
        matmul_nt_ref(s.m, s.k, s.n, a.data(), b.data(), ref.data());
        matmul_nt_blocked(s.m, s.k, s.n, a.data(), b.data(), blk.data());
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
        gather_matmul_ref(e, s.k, s.n, x.data(), idx.data(), w.data(),
                          ref.data());
        gather_matmul_blocked(e, s.k, s.n, x.data(), idx.data(), w.data(),
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
    segment_sum_ref(5, 3, x.data(), seg.data(), 3, sum.data());
    const std::vector<float> want_sum = {18, 30, 42, 3, 3, 3, 0, 0, 0};
    EXPECT_EQ(sum, want_sum);
}

// segment_sum is pure adds, so ref and blocked (and both ISA
// legs of blocked) must agree bit-for-bit — not just within 1e-5. Shapes
// include rows=0, cols=0, single segment, and all-empty segments.
TEST(KernelsCpu, SegmentForwardParityIsBitExactOverRandomShapes) {
    Rng rng(67);
    for (const Shape& s : parity_shapes()) {
        const int rows = s.m, cols = s.k;
        const int num_segs = 1 + s.n % 7;
        const auto x =
            random_values(rng, static_cast<std::size_t>(rows) * cols);
        const auto seg = random_segments(rng, rows, num_segs);
        const std::size_t out_n = static_cast<std::size_t>(num_segs) * cols;
        std::vector<float> ref(out_n, 7.0f), blk(out_n, -7.0f);
        segment_sum_ref(rows, cols, x.data(), seg.data(), num_segs, ref.data());
        segment_sum_blocked(rows, cols, x.data(), seg.data(), num_segs,
                            blk.data());
        EXPECT_EQ(ref, blk) << "segment_sum rows=" << rows << " cols=" << cols
                            << " segs=" << num_segs;
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
