// Vectorized CPU kernels for the NN hot path.
//
// Two backends share one contract:
//
//   ref      the original naive triple-loop kernels, kept verbatim as the
//            always-available reference oracle (bit-identical to the
//            pre-kernel-layer implementation),
//   blocked  cache/register-blocked variants with 16-wide inner loops over
//            restrict-qualified row pointers, written so -O3 auto-vectorizes
//            them without -ffast-math.
//
// Dispatch is per-process via POWERGEAR_KERNEL=ref|blocked (default blocked)
// or set_backend(). Within a backend every kernel uses a *fixed* float
// reduction order — plain loops, no threading, no data-dependent
// reassociation — so results are bit-identical at any POWERGEAR_JOBS value
// (the kernels never touch the thread pool; parallelism stays one level up,
// across tape-owning tasks). Across backends the summation order differs by
// design; ref and blocked agree within 1e-5 relative error (DESIGN.md §10),
// which tests/test_kernels_cpu.cpp locks in over randomized shapes.
//
// The blocked backend is additionally ISA-dispatched: the same source
// (kernels_cpu_tiles.inl) is compiled once at the baseline ISA and once with
// AVX2+FMA, and the faster table is selected at startup when the host CPU
// supports it (see kernels_cpu_isa.hpp). FMA contraction means blocked
// results may differ *across hosts* within the same 1e-5 envelope; the ref
// oracle is compiled at the baseline ISA only and is host-invariant.
//
// Shape conventions (row-major, row stride == column count):
//   matmul      c(m,n)  = a(m,k) · b(k,n)
//   matmul_tn   c(k,n)  = a(m,k)ᵀ · b(m,n)
//   matmul_nt   c(m,n)  = a(m,k) · b(n,k)ᵀ
//   gather_matmul out(e,n) = x[idx[r]] · w(k,n)   (fused row gather + matmul)
//
// The *_acc variants accumulate (c += ...) for gradient accumulation; the
// plain variants overwrite. The fused epilogues (add_bias_relu,
// relu_forward/backward, vadd/vacc) are elementwise and backend-independent.
#pragma once

#include <cstddef>

namespace powergear::nn::kernels {

enum class Backend { Ref, Blocked };

/// Active backend. Resolved once from POWERGEAR_KERNEL (ref|blocked,
/// default blocked; anything else throws std::invalid_argument) unless
/// set_backend overrode it first.
Backend backend();

/// Override the backend at runtime (tests, benchmarks). Takes effect for
/// every subsequent dispatched kernel call.
void set_backend(Backend b);

/// "ref" or "blocked".
const char* backend_name(Backend b);

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

// --- fixed-backend entry points (parity tests, oracle benchmarks) ------------
void matmul_ref(int m, int k, int n, const float* a, const float* b, float* c);
void matmul_blocked(int m, int k, int n, const float* a, const float* b,
                    float* c);
void matmul_tn_ref(int m, int k, int n, const float* a, const float* b,
                   float* c);
void matmul_tn_blocked(int m, int k, int n, const float* a, const float* b,
                       float* c);
void matmul_nt_ref(int m, int k, int n, const float* a, const float* b,
                   float* c);
void matmul_nt_blocked(int m, int k, int n, const float* a, const float* b,
                       float* c);
void gather_matmul_ref(int e, int k, int n, const float* x, const int* idx,
                       const float* w, float* out);
void gather_matmul_blocked(int e, int k, int n, const float* x, const int* idx,
                           const float* w, float* out);

// --- segmented reductions (batched multi-graph readout) ----------------------
// out(num_segs, cols) with out[s] = Σ of the x rows whose seg id is s.
// seg must hold values in [0, num_segs); rows are reduced in ascending row
// order, so a single-segment segment_sum is bit-identical to summing rows
// with vacc. Both kernels are pure adds, so like vadd/vacc they are
// backend- and ISA-invariant in results.
/// out[s][c] = Σ_{r : seg[r]==s} x[r][c] (overwrite; ascending r).
void segment_sum(int rows, int cols, const float* x, const int* seg,
                 int num_segs, float* out);
/// dx[r] += g[seg[r]]  (backward of segment_sum).
void segment_sum_backward(int rows, int cols, const float* g, const int* seg,
                          float* dx);

// --- fixed-backend segmented entry points (parity tests) ---------------------
void segment_sum_ref(int rows, int cols, const float* x, const int* seg,
                     int num_segs, float* out);
void segment_sum_blocked(int rows, int cols, const float* x, const int* seg,
                         int num_segs, float* out);

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

} // namespace powergear::nn::kernels
