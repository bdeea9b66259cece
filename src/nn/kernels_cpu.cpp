#include "nn/kernels_cpu.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>

#include "nn/kernels_cpu_isa.hpp"
#include "util/env.hpp"

namespace powergear::nn::kernels {

namespace {

std::size_t row(int r, int stride) {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(stride);
}

// memset on a null pointer is UB even for zero bytes, and empty shapes hand
// us exactly that (data() of an empty buffer) — so guard the count.
void zero_fill(float* p, std::size_t count) {
    if (count != 0) std::memset(p, 0, count * sizeof(float));
}

// --- reference kernels -------------------------------------------------------
// Byte-for-byte the pre-kernel-layer tensor.cpp loops (including the
// skip-zero fast path), templated only on overwrite-vs-accumulate. This
// translation unit is compiled at the baseline ISA with default FP flags,
// so the oracle's results match the original implementation on every host.

template <bool Acc>
void matmul_ref_impl(int m, int k, int n, const float* a, const float* b,
                     float* c) {
    if (!Acc) zero_fill(c, row(m, n));
    for (int i = 0; i < m; ++i) {
        float* crow = c + row(i, n);
        const float* arow = a + row(i, k);
        for (int p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            const float* brow = b + row(p, n);
            for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
}

template <bool Acc>
void matmul_tn_ref_impl(int m, int k, int n, const float* a, const float* b,
                        float* c) {
    if (!Acc) zero_fill(c, row(k, n));
    for (int i = 0; i < m; ++i) {
        const float* arow = a + row(i, k);
        const float* brow = b + row(i, n);
        for (int p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            float* crow = c + row(p, n);
            for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
}

template <bool Acc>
void matmul_nt_ref_impl(int m, int k, int n, const float* a, const float* b,
                        float* c) {
    for (int i = 0; i < m; ++i) {
        const float* arow = a + row(i, k);
        float* crow = c + row(i, n);
        for (int j = 0; j < n; ++j) {
            const float* brow = b + row(j, k);
            float acc = 0.0f;
            for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
            if (Acc) crow[j] += acc;
            else crow[j] = acc;
        }
    }
}

void gather_matmul_ref_impl(int e, int k, int n, const float* x,
                            const int* idx, const float* w, float* out) {
    zero_fill(out, row(e, n));
    for (int i = 0; i < e; ++i) {
        float* crow = out + row(i, n);
        const float* arow = x + row(idx[i], k);
        for (int p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            const float* brow = w + row(p, n);
            for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
}

void gather_matmul_tn_acc_ref_impl(int e, int k, int n, const float* x,
                                   const int* idx, const float* g, float* dw) {
    for (int r = 0; r < e; ++r) {
        const float* xrow = x + row(idx[r], k);
        const float* grow = g + row(r, n);
        for (int p = 0; p < k; ++p) {
            const float xv = xrow[p];
            if (xv == 0.0f) continue;
            float* dwrow = dw + row(p, n);
            for (int j = 0; j < n; ++j) dwrow[j] += xv * grow[j];
        }
    }
}

void scatter_matmul_nt_acc_ref_impl(int e, int k, int n, const float* g,
                                    const float* w, const int* idx,
                                    float* dx) {
    for (int r = 0; r < e; ++r) {
        const float* grow = g + row(r, n);
        float* drow = dx + row(idx[r], k);
        for (int p = 0; p < k; ++p) {
            const float* wrow = w + row(p, n);
            float acc = 0.0f;
            for (int j = 0; j < n; ++j) acc += grow[j] * wrow[j];
            drow[p] += acc;
        }
    }
}

// --- backend tables ----------------------------------------------------------

/// ISA table: the AVX2+FMA translation unit when the host CPU has it, the
/// baseline one otherwise. Depends only on CPUID.
const Ops& pick_blocked() {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return blocked_ops_avx2();
#endif
    return blocked_ops_generic();
}

/// The blocked table with its matmul family swapped for the ref loops; the
/// backend-invariant entries stay shared.
Ops with_ref_matmuls(const Ops& blocked) {
    Ops t = blocked;
    t.matmul = &matmul_ref_impl<false>;
    t.matmul_acc = &matmul_ref_impl<true>;
    t.matmul_tn = &matmul_tn_ref_impl<false>;
    t.matmul_tn_acc = &matmul_tn_ref_impl<true>;
    t.matmul_nt = &matmul_nt_ref_impl<false>;
    t.matmul_nt_acc = &matmul_nt_ref_impl<true>;
    t.gather_matmul = &gather_matmul_ref_impl;
    t.gather_matmul_tn_acc = &gather_matmul_tn_acc_ref_impl;
    t.scatter_matmul_nt_acc = &scatter_matmul_nt_acc_ref_impl;
    return t;
}

Backend parse_backend(const std::string& name) {
    if (name == "ref") return Backend::Ref;
    if (name == "blocked") return Backend::Blocked;
    throw std::invalid_argument(
        "POWERGEAR_KERNEL: unknown backend '" + name +
        "' (expected 'ref' or 'blocked')");
}

/// Active table, null until the first kernel call resolves POWERGEAR_KERNEL
/// or set_backend picks one. Every kernel call pays one atomic load and a
/// null test — no function-local static guard on a path hit millions of
/// times per epoch. Marking the resolver cold keeps it out of line, so
/// active() inlines into each kernel as a load, a test and a jump.
std::atomic<const Ops*> g_active{nullptr};

[[gnu::cold]] const Ops& resolve_active() {
    const Ops* want =
        &ops(parse_backend(util::env_string("POWERGEAR_KERNEL", "blocked")));
    const Ops* none = nullptr;
    g_active.compare_exchange_strong(none, want); // a racing set_backend wins
    return *g_active.load();
}

const Ops& active() {
    const Ops* t = g_active.load();
    return t ? *t : resolve_active();
}

} // namespace

const Ops& ops(Backend b) {
    static const Ops& blocked = pick_blocked();
    static const Ops ref = with_ref_matmuls(blocked);
    return b == Backend::Ref ? ref : blocked;
}

Backend backend() {
    return &active() == &ops(Backend::Ref) ? Backend::Ref : Backend::Blocked;
}

void set_backend(Backend b) {
    g_active.store(&ops(b));
}

const char* backend_name(Backend b) {
    return b == Backend::Ref ? "ref" : "blocked";
}

// --- kernels: one call through the active table -----------------------------

void matmul(int m, int k, int n, const float* a, const float* b, float* c) {
    active().matmul(m, k, n, a, b, c);
}

void matmul_tn(int m, int k, int n, const float* a, const float* b, float* c) {
    active().matmul_tn(m, k, n, a, b, c);
}

void matmul_nt(int m, int k, int n, const float* a, const float* b, float* c) {
    active().matmul_nt(m, k, n, a, b, c);
}

void gather_matmul(int e, int k, int n, const float* x, const int* idx,
                   const float* w, float* out) {
    active().gather_matmul(e, k, n, x, idx, w, out);
}

void matmul_acc(int m, int k, int n, const float* a, const float* b, float* c) {
    active().matmul_acc(m, k, n, a, b, c);
}

void matmul_tn_acc(int m, int k, int n, const float* a, const float* b,
                   float* c) {
    active().matmul_tn_acc(m, k, n, a, b, c);
}

void matmul_nt_acc(int m, int k, int n, const float* a, const float* b,
                   float* c) {
    active().matmul_nt_acc(m, k, n, a, b, c);
}

void gather_matmul_tn_acc(int e, int k, int n, const float* x, const int* idx,
                          const float* g, float* dw) {
    active().gather_matmul_tn_acc(e, k, n, x, idx, g, dw);
}

void scatter_matmul_nt_acc(int e, int k, int n, const float* g, const float* w,
                           const int* idx, float* dx) {
    active().scatter_matmul_nt_acc(e, k, n, g, w, idx, dx);
}

void segment_sum(int rows, int cols, const float* x, const int* seg,
                 int num_segs, float* out) {
    active().segment_sum(rows, cols, x, seg, num_segs, out);
}

void segment_sum_backward(int rows, int cols, const float* g, const int* seg,
                          float* dx) {
    active().segment_sum_backward(rows, cols, g, seg, dx);
}

void gather_rows(int e, int cols, const float* x, const int* idx, float* out) {
    active().gather_rows(e, cols, x, idx, out);
}

void gather_rows_acc(int e, int cols, const float* x, const int* idx,
                     float* out) {
    active().gather_rows_acc(e, cols, x, idx, out);
}

void scatter_rows_acc(int e, int cols, const float* x, const int* idx,
                      float* out) {
    active().scatter_rows_acc(e, cols, x, idx, out);
}

void copy_block(int rows, int cols, const float* src, int src_ld, float* dst,
                int dst_ld) {
    active().copy_block(rows, cols, src, src_ld, dst, dst_ld);
}

void acc_block(int rows, int cols, const float* src, int src_ld, float* dst,
               int dst_ld) {
    active().acc_block(rows, cols, src, src_ld, dst, dst_ld);
}

void add_bias(int rows, int cols, const float* x, const float* bias,
              float* y) {
    active().add_bias(rows, cols, x, bias, y);
}

void add_bias_backward(int rows, int cols, const float* g, float* dx,
                       float* dbias) {
    active().add_bias_backward(rows, cols, g, dx, dbias);
}

void add_bias_relu(int rows, int cols, const float* x, const float* bias,
                   float* y) {
    active().add_bias_relu(rows, cols, x, bias, y);
}

void add_bias_relu_backward(int rows, int cols, const float* y, const float* g,
                            float* dx, float* dbias) {
    active().add_bias_relu_backward(rows, cols, y, g, dx, dbias);
}

void relu_forward(std::size_t n, const float* x, float* y) {
    active().relu_forward(n, x, y);
}

void relu_backward(std::size_t n, const float* y, const float* g, float* dx) {
    active().relu_backward(n, y, g, dx);
}

void vadd(std::size_t n, const float* a, const float* b, float* out) {
    active().vadd(n, a, b, out);
}

void vacc(std::size_t n, const float* src, float* dst) {
    active().vacc(n, src, dst);
}

void add_bias_backward_init(int rows, int cols, const float* g, float* dx,
                            float* dbias) {
    active().add_bias_backward_init(rows, cols, g, dx, dbias);
}

void add_bias_relu_backward_init(int rows, int cols, const float* y,
                                 const float* g, float* dx, float* dbias) {
    active().add_bias_relu_backward_init(rows, cols, y, g, dx, dbias);
}

void relu_backward_init(std::size_t n, const float* y, const float* g,
                        float* dx) {
    active().relu_backward_init(n, y, g, dx);
}

void vacc_init(std::size_t n, const float* src, float* dst) {
    active().vacc_init(n, src, dst);
}

void segment_sum_backward_init(int rows, int cols, const float* g,
                               const int* seg, float* dx) {
    active().segment_sum_backward_init(rows, cols, g, seg, dx);
}

void gather_rows_acc_init(int e, int cols, const float* x, const int* idx,
                          float* out) {
    active().gather_rows_acc_init(e, cols, x, idx, out);
}

} // namespace powergear::nn::kernels
