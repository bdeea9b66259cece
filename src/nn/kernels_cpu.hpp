// Vectorized CPU kernels for the NN hot path.
//
// Each backend is one table of kernel function pointers (struct Ops):
//
//   ref      the original naive triple-loop matmul kernels, kept verbatim as
//            the always-available reference oracle (bit-identical to the
//            pre-kernel-layer implementation),
//   blocked  cache/register-blocked variants with 16-wide inner loops over
//            restrict-qualified row pointers, written so -O3 auto-vectorizes
//            them without -ffast-math.
//
// One table is active per process, chosen from POWERGEAR_KERNEL=ref|blocked
// (default blocked) on first use or by set_backend(); every public kernel
// below is one call through it, and ops(Backend) hands out either table to
// code that pins a backend (parity tests, oracle benchmarks). Within a
// backend every kernel uses a *fixed* float reduction order — plain loops,
// no threading, no data-dependent reassociation — so results are
// bit-identical at any POWERGEAR_JOBS value (the kernels never touch the
// thread pool; parallelism stays one level up, across tape-owning tasks).
// Across backends the matmul summation order differs by design; ref and
// blocked agree within 1e-5 relative error (DESIGN.md §10), which
// tests/test_kernels_cpu.cpp locks in over randomized shapes.
//
// The blocked table is additionally ISA-dispatched: the same source
// (kernels_cpu_tiles.inl) is compiled once at the baseline ISA and once with
// AVX2+FMA, and the faster table is selected at startup when the host CPU
// supports it (see kernels_cpu_isa.hpp). FMA contraction means blocked
// results may differ *across hosts* within the same 1e-5 envelope. The ref
// table is that same table with its nine matmul-family entries replaced by
// the ref loops, which are compiled at the baseline ISA only and are
// host-invariant.
//
// Shape conventions (row-major, row stride == column count):
//   matmul      c(m,n)  = a(m,k) · b(k,n)
//   matmul_tn   c(k,n)  = a(m,k)ᵀ · b(m,n)
//   matmul_nt   c(m,n)  = a(m,k) · b(n,k)ᵀ
//   gather_matmul out(e,n) = x[idx[r]] · w(k,n)   (fused row gather + matmul)
//
// The *_acc variants accumulate (c += ...) for gradient accumulation; the
// plain variants overwrite. The fused epilogues (add_bias_relu,
// relu_forward/backward, vadd/vacc), the segmented sums and the row movers
// are pure adds, compares and copies, so their results are
// backend-invariant: both tables share those entries.
#pragma once

#include <cstddef>

namespace powergear::nn::kernels {

enum class Backend { Ref, Blocked };

/// Active backend. Resolved once from POWERGEAR_KERNEL (ref|blocked,
/// default blocked; anything else throws std::invalid_argument) unless
/// set_backend chose one first.
Backend backend();

/// Make b's table the active one (tests, benchmarks). Takes effect for
/// every subsequent kernel call.
void set_backend(Backend b);

/// "ref" or "blocked".
const char* backend_name(Backend b);

/// One backend's kernels. Entries carry the contracts of the same-named
/// functions below.
struct Ops {
    void (*matmul)(int m, int k, int n, const float* a, const float* b,
                   float* c);
    void (*matmul_acc)(int m, int k, int n, const float* a, const float* b,
                       float* c);
    void (*matmul_tn)(int m, int k, int n, const float* a, const float* b,
                      float* c);
    void (*matmul_tn_acc)(int m, int k, int n, const float* a, const float* b,
                          float* c);
    void (*matmul_nt)(int m, int k, int n, const float* a, const float* b,
                      float* c);
    void (*matmul_nt_acc)(int m, int k, int n, const float* a, const float* b,
                          float* c);
    void (*gather_matmul)(int e, int k, int n, const float* x, const int* idx,
                          const float* w, float* out);
    void (*gather_matmul_tn_acc)(int e, int k, int n, const float* x,
                                 const int* idx, const float* g, float* dw);
    void (*scatter_matmul_nt_acc)(int e, int k, int n, const float* g,
                                  const float* w, const int* idx, float* dx);
    // Backend-invariant entries, shared by both tables.
    void (*add_bias)(int rows, int cols, const float* x, const float* bias,
                     float* y);
    void (*add_bias_backward)(int rows, int cols, const float* g, float* dx,
                              float* dbias);
    void (*add_bias_backward_init)(int rows, int cols, const float* g,
                                   float* dx, float* dbias);
    void (*add_bias_relu)(int rows, int cols, const float* x,
                          const float* bias, float* y);
    void (*add_bias_relu_backward)(int rows, int cols, const float* y,
                                   const float* g, float* dx, float* dbias);
    void (*add_bias_relu_backward_init)(int rows, int cols, const float* y,
                                        const float* g, float* dx,
                                        float* dbias);
    void (*relu_forward)(std::size_t n, const float* x, float* y);
    void (*relu_backward)(std::size_t n, const float* y, const float* g,
                          float* dx);
    void (*relu_backward_init)(std::size_t n, const float* y, const float* g,
                               float* dx);
    void (*vadd)(std::size_t n, const float* a, const float* b, float* out);
    void (*vacc)(std::size_t n, const float* src, float* dst);
    void (*vacc_init)(std::size_t n, const float* src, float* dst);
    void (*segment_sum)(int rows, int cols, const float* x, const int* seg,
                        int num_segs, float* out);
    void (*segment_sum_backward)(int rows, int cols, const float* g,
                                 const int* seg, float* dx);
    void (*segment_sum_backward_init)(int rows, int cols, const float* g,
                                      const int* seg, float* dx);
    void (*gather_rows)(int e, int cols, const float* x, const int* idx,
                        float* out);
    void (*gather_rows_acc)(int e, int cols, const float* x, const int* idx,
                            float* out);
    void (*gather_rows_acc_init)(int e, int cols, const float* x,
                                 const int* idx, float* out);
    void (*scatter_rows_acc)(int e, int cols, const float* x, const int* idx,
                             float* out);
    void (*copy_block)(int rows, int cols, const float* src, int src_ld,
                       float* dst, int dst_ld);
    void (*acc_block)(int rows, int cols, const float* src, int src_ld,
                      float* dst, int dst_ld);
};

/// The table of backend b, whichever backend is active.
const Ops& ops(Backend b);

// --- dispatched kernels (overwrite) -----------------------------------------
void matmul(int m, int k, int n, const float* a, const float* b, float* c);
void matmul_tn(int m, int k, int n, const float* a, const float* b, float* c);
void matmul_nt(int m, int k, int n, const float* a, const float* b, float* c);
void gather_matmul(int e, int k, int n, const float* x, const int* idx,
                   const float* w, float* out);

// --- dispatched kernels (accumulate, for backward) ---------------------------
void matmul_acc(int m, int k, int n, const float* a, const float* b, float* c);
void matmul_tn_acc(int m, int k, int n, const float* a, const float* b,
                   float* c);
void matmul_nt_acc(int m, int k, int n, const float* a, const float* b,
                   float* c);
/// dw(k,n) += Σ_r x[idx[r]]ᵀ · g[r]  (weight gradient of gather_matmul)
void gather_matmul_tn_acc(int e, int k, int n, const float* x, const int* idx,
                          const float* g, float* dw);
/// dx[idx[r]] += g[r] · w(k,n)ᵀ  (input gradient of gather_matmul)
void scatter_matmul_nt_acc(int e, int k, int n, const float* g, const float* w,
                           const int* idx, float* dx);

// --- segmented reductions (batched multi-graph readout) ----------------------
// out(num_segs, cols) with out[s] = Σ of the x rows whose seg id is s.
// seg must hold values in [0, num_segs); rows are reduced in ascending row
// order, so a single-segment segment_sum is bit-identical to summing rows
// with vacc. Both kernels are pure adds, so like vadd/vacc they are
// backend- and ISA-invariant: one implementation serves both tables.
/// out[s][c] = Σ_{r : seg[r]==s} x[r][c] (overwrite; ascending r).
void segment_sum(int rows, int cols, const float* x, const int* seg,
                 int num_segs, float* out);
/// dx[r] += g[seg[r]]  (backward of segment_sum).
void segment_sum_backward(int rows, int cols, const float* g, const int* seg,
                          float* dx);

// --- row movers (gather/scatter/concat tape ops) ----------------------------
// One call moves every row of a tape op, instead of one dispatched vacc per
// row. Rows are visited in ascending r and each element is one copy or one
// add, so scatter_rows_acc over repeated indices is bit-identical to a vacc
// per row in the same order, and every entry is backend- and ISA-invariant.
/// out[r] = x[idx[r]] for r < e (overwrite).
void gather_rows(int e, int cols, const float* x, const int* idx, float* out);
/// out[r] += x[idx[r]] for r < e.
void gather_rows_acc(int e, int cols, const float* x, const int* idx,
                     float* out);
/// out[idx[r]] += x[r] for r < e (out rows may repeat; ascending r).
void scatter_rows_acc(int e, int cols, const float* x, const int* idx,
                      float* out);
/// dst[r][c] = src[r][c] for r < rows, c < cols; rows start src_ld and
/// dst_ld floats apart (a column block of a wider matrix).
void copy_block(int rows, int cols, const float* src, int src_ld, float* dst,
                int dst_ld);
/// dst[r][c] += src[r][c], strided as copy_block.
void acc_block(int rows, int cols, const float* src, int src_ld, float* dst,
               int dst_ld);

// --- fused elementwise epilogues (backend-independent) ------------------------
/// y(rows,cols) = x + bias with bias(1,cols) broadcast over rows.
void add_bias(int rows, int cols, const float* x, const float* bias, float* y);
/// dx += g;  dbias[c] += Σ_r g[r][c]  (backward of the broadcast bias add).
void add_bias_backward(int rows, int cols, const float* g, float* dx,
                       float* dbias);
/// y(rows,cols) = max(0, x + bias) with bias(1,cols) broadcast over rows.
void add_bias_relu(int rows, int cols, const float* x, const float* bias,
                   float* y);
/// dx += g ∘ [y > 0];  dbias[c] += Σ_r (g ∘ [y > 0])[r][c].
void add_bias_relu_backward(int rows, int cols, const float* y, const float* g,
                            float* dx, float* dbias);
/// y = max(0, x), elementwise over n values.
void relu_forward(std::size_t n, const float* x, float* y);
/// dx += g ∘ [y > 0], elementwise over n values.
void relu_backward(std::size_t n, const float* y, const float* g, float* dx);

/// out = a + b, elementwise.
void vadd(std::size_t n, const float* a, const float* b, float* out);
/// dst += src, elementwise.
void vacc(std::size_t n, const float* src, float* dst);

// --- initialising gradient writers -------------------------------------------
// Each *_init kernel gives exactly what its accumulating namesake gives on a
// dx (dst, out) filled with +0.0f, but never reads it: it stores 0.0f + v,
// which differs from a plain copy of v only in turning -0.0f into +0.0f.
// The tape's first writer of a fresh, unzeroed gradient buffer calls these.
// dbias is a sum over rows and still accumulates.
void add_bias_backward_init(int rows, int cols, const float* g, float* dx,
                            float* dbias);
void add_bias_relu_backward_init(int rows, int cols, const float* y,
                                 const float* g, float* dx, float* dbias);
void relu_backward_init(std::size_t n, const float* y, const float* g,
                        float* dx);
void vacc_init(std::size_t n, const float* src, float* dst);
void segment_sum_backward_init(int rows, int cols, const float* g,
                               const int* seg, float* dx);
void gather_rows_acc_init(int e, int cols, const float* x, const int* idx,
                          float* out);

} // namespace powergear::nn::kernels
