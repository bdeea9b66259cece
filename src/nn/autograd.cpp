#include "nn/autograd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "nn/kernels_cpu.hpp"

namespace powergear::nn {

namespace k = kernels;

// Backward closures of two-parent ops write only the parents that require a
// gradient (grad_sink, grad_cover). Single-parent closures use the buffer
// directly: such a node requires a gradient only when its parent does, and
// push() drops the closure otherwise.
//
// A gradient buffer is zeroed only when its first writer needs it: writers
// that set every element (grad_cover) get it unzeroed on first use and store
// 0.0f + v, the same bits as adding v into +0.0f, signed zeros included.

namespace {

/// dst[i] += v(i) for i < n, or dst[i] = 0.0f + v(i) into a fresh buffer.
template <typename V>
void cover(float* dst, bool init, std::size_t n, V v) {
    if (init)
        for (std::size_t i = 0; i < n; ++i) dst[i] = 0.0f + v(i);
    else
        for (std::size_t i = 0; i < n; ++i) dst[i] += v(i);
}

} // namespace

int Tape::push(Tensor val, std::initializer_list<int> parents,
               std::function<void(Tape&, int)> backprop) {
    Node n;
    n.val = std::move(val);
    for (const int p : parents)
        n.requires_grad |= nodes_[static_cast<std::size_t>(p)].requires_grad;
    if (n.requires_grad) n.backprop = std::move(backprop);
    nodes_.push_back(std::move(n));
    return static_cast<int>(nodes_.size()) - 1;
}

int Tape::push_leaf(Tensor val, Param* external) {
    Node n;
    n.val = std::move(val);
    n.external = external;
    n.requires_grad = external != nullptr;
    nodes_.push_back(std::move(n));
    return static_cast<int>(nodes_.size()) - 1;
}

Tensor Tape::make(int rows, int cols) {
    return Tensor::borrowed(
        rows, cols,
        arena_.alloc(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)));
}

Tensor Tape::make_uninit(int rows, int cols) {
    return Tensor::borrowed(
        rows, cols,
        arena_.alloc_uninit(static_cast<std::size_t>(rows) *
                            static_cast<std::size_t>(cols)));
}

Tensor& Tape::grad_buf(int node) {
    Node& n = nodes_[static_cast<std::size_t>(node)];
    if (n.grad.empty()) n.grad = make(n.val.rows(), n.val.cols());
    return n.grad;
}

Tensor* Tape::grad_sink(int node) {
    return nodes_[static_cast<std::size_t>(node)].requires_grad
               ? &grad_buf(node)
               : nullptr;
}

float* Tape::grad_or_scratch(int node) {
    if (Tensor* g = grad_sink(node)) return g->data();
    return arena_.alloc(nodes_[static_cast<std::size_t>(node)].val.size());
}

Tape::GradOut Tape::grad_cover(int node) {
    Node& n = nodes_[static_cast<std::size_t>(node)];
    if (!n.requires_grad) return {};
    if (!n.grad.empty()) return {n.grad.data(), false};
    n.grad = make_uninit(n.val.rows(), n.val.cols());
    return {n.grad.data(), true};
}

Tape::GradOut Tape::grad_cover_or_scratch(int node) {
    if (const GradOut g = grad_cover(node); g.data) return g;
    const std::size_t n = nodes_[static_cast<std::size_t>(node)].val.size();
    return {arena_.alloc_uninit(n), true};
}

void Tape::reset() {
    nodes_.clear();
    arena_.reset();
}

int Tape::input(Tensor v) { return push_leaf(std::move(v), nullptr); }

int Tape::input_view(const Tensor& v) {
    // The node never writes through the view (only grad buffers are written),
    // so dropping const on the caller's storage is safe.
    return push_leaf(
        Tensor::borrowed(v.rows(), v.cols(), const_cast<float*>(v.data())),
        nullptr);
}

int Tape::param(Param* p) {
    return push_leaf(Tensor::borrowed(p->w.rows(), p->w.cols(), p->w.data()),
                     p);
}

int Tape::matmul(int a, int b) {
    const Tensor& av = value(a);
    const Tensor& bv = value(b);
    if (av.cols() != bv.rows()) throw std::invalid_argument("matmul: inner dim");
    const int m = av.rows(), kk = av.cols(), n = bv.cols();
    Tensor out = make_uninit(m, n);
    k::matmul(m, kk, n, av.data(), bv.data(), out.data());
    return push(std::move(out), {a, b},
                [a, b, m, kk, n](Tape& t, int self) {
                    // ga(m,kk) += g(m,n) · b(kk,n)ᵀ
                    // gb(kk,n) += a(m,kk)ᵀ · g(m,n)
                    // A fresh buffer takes the overwriting kernel, whose
                    // accumulators start at +0.0f like a zeroed buffer's.
                    const Tensor& g = t.grad(self);
                    if (const GradOut ga = t.grad_cover(a); ga.data)
                        (ga.init ? k::matmul_nt : k::matmul_nt_acc)(
                            m, n, kk, g.data(), t.value(b).data(), ga.data);
                    if (const GradOut gb = t.grad_cover(b); gb.data)
                        (gb.init ? k::matmul_tn : k::matmul_tn_acc)(
                            m, kk, n, t.value(a).data(), g.data(), gb.data);
                });
}

int Tape::gather_matmul(int x, std::span<const int> idx, int w) {
    const Tensor& xv = value(x);
    const Tensor& wv = value(w);
    if (xv.cols() != wv.rows()) throw std::invalid_argument("matmul: inner dim");
    const int e = static_cast<int>(idx.size()), kk = xv.cols(), n = wv.cols();
    Tensor out = make_uninit(e, n);
    k::gather_matmul(e, kk, n, xv.data(), idx.data(), wv.data(), out.data());
    const int* ip = idx.data();
    return push(std::move(out), {x, w},
                [x, w, ip, e, kk, n](Tape& t, int self) {
                    const Tensor& g = t.grad(self);
                    if (Tensor* gw = t.grad_sink(w))
                        k::gather_matmul_tn_acc(e, kk, n, t.value(x).data(),
                                                ip, g.data(), gw->data());
                    if (Tensor* gx = t.grad_sink(x))
                        k::scatter_matmul_nt_acc(e, kk, n, g.data(),
                                                 t.value(w).data(), ip,
                                                 gx->data());
                });
}

int Tape::add(int a, int b) {
    const Tensor& av = value(a);
    const Tensor& bv = value(b);
    if (av.rows() != bv.rows() || av.cols() != bv.cols())
        throw std::invalid_argument("Tape::add: shape mismatch");
    Tensor out = make_uninit(av.rows(), av.cols());
    k::vadd(av.size(), av.data(), bv.data(), out.data());
    return push(std::move(out), {a, b}, [a, b](Tape& t, int self) {
        const Tensor& g = t.grad(self);
        for (const int parent : {a, b})
            if (const GradOut gp = t.grad_cover(parent); gp.data)
                (gp.init ? k::vacc_init : k::vacc)(g.size(), g.data(), gp.data);
    });
}

int Tape::add_bias(int x, int bias) {
    const Tensor& xv = value(x);
    const Tensor& bv = value(bias);
    if (bv.rows() != 1 || bv.cols() != xv.cols())
        throw std::invalid_argument("Tape::add_bias: bias shape");
    const int rows = xv.rows(), cols = xv.cols();
    Tensor out = make_uninit(rows, cols);
    k::add_bias(rows, cols, xv.data(), bv.data(), out.data());
    return push(std::move(out), {x, bias}, [x, bias](Tape& t, int self) {
        const Tensor& g = t.grad(self);
        const GradOut dx = t.grad_cover_or_scratch(x);
        (dx.init ? k::add_bias_backward_init : k::add_bias_backward)(
            g.rows(), g.cols(), g.data(), dx.data, t.grad_or_scratch(bias));
    });
}

int Tape::add_bias_relu(int x, int bias) {
    const Tensor& xv = value(x);
    const Tensor& bv = value(bias);
    if (bv.rows() != 1 || bv.cols() != xv.cols())
        throw std::invalid_argument("Tape::add_bias: bias shape");
    Tensor out = make_uninit(xv.rows(), xv.cols());
    k::add_bias_relu(xv.rows(), xv.cols(), xv.data(), bv.data(), out.data());
    return push(std::move(out), {x, bias}, [x, bias](Tape& t, int self) {
        const Tensor& g = t.grad(self);
        const Tensor& y = t.value(self);
        const GradOut dx = t.grad_cover_or_scratch(x);
        (dx.init ? k::add_bias_relu_backward_init : k::add_bias_relu_backward)(
            g.rows(), g.cols(), y.data(), g.data(), dx.data,
            t.grad_or_scratch(bias));
    });
}

int Tape::relu(int x) {
    const Tensor& xv = value(x);
    Tensor out = make_uninit(xv.rows(), xv.cols());
    k::relu_forward(xv.size(), xv.data(), out.data());
    return push(std::move(out), {x}, [x](Tape& t, int self) {
        const Tensor& g = t.grad(self);
        const Tensor& y = t.value(self);
        const GradOut dx = t.grad_cover(x);
        (dx.init ? k::relu_backward_init : k::relu_backward)(
            g.size(), y.data(), g.data(), dx.data);
    });
}

int Tape::dropout(int x, float p, util::Rng& rng, bool training) {
    if (!training || p <= 0.0f) return x;
    const float keep = 1.0f - p;
    // next_double() is (u >> 11) * 2^-53, so `next_double() < keep` is
    // `(u >> 11) < keep * 2^53` (both sides exact doubles) and, the left
    // side being an integer, `(u >> 11) < ceil(keep * 2^53)`. One draw per
    // element in the same order, with no data-dependent branch: the mask is
    // a bit select of 1/keep or +0.0f.
    const std::uint64_t threshold = static_cast<std::uint64_t>(
        std::max(0.0, std::ceil(static_cast<double>(keep) * 0x1.0p53)));
    const std::uint32_t scale = std::bit_cast<std::uint32_t>(1.0f / keep);
    const Tensor& xv = value(x);
    const std::size_t n = xv.size();
    float* mask = arena_.alloc_uninit(n);
    Tensor out = make_uninit(xv.rows(), xv.cols());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t kept =
            0u - static_cast<std::uint32_t>((rng.next_u64() >> 11) < threshold);
        mask[i] = std::bit_cast<float>(scale & kept);
    }
    const float* xd = xv.data();
    float* outd = out.data();
    for (std::size_t i = 0; i < n; ++i) outd[i] = xd[i] * mask[i];
    return push(std::move(out), {x}, [x, mask](Tape& t, int self) {
        const Tensor& g = t.grad(self);
        const float* gd = g.data();
        const GradOut dx = t.grad_cover(x);
        cover(dx.data, dx.init, g.size(),
              [=](std::size_t i) { return gd[i] * mask[i]; });
    });
}

int Tape::gather_rows(int x, std::span<const int> idx) {
    const Tensor& xv = value(x);
    const int e = static_cast<int>(idx.size()), cols = xv.cols();
    Tensor out = make_uninit(e, cols);
    const int* ip = idx.data();
    k::gather_rows(e, cols, xv.data(), ip, out.data());
    return push(std::move(out), {x}, [x, ip, e](Tape& t, int self) {
        const Tensor& g = t.grad(self);
        k::scatter_rows_acc(e, g.cols(), g.data(), ip, t.grad_buf(x).data());
    });
}

int Tape::scatter_add_rows(int x, std::span<const int> idx, int out_rows) {
    const Tensor& xv = value(x);
    if (static_cast<int>(idx.size()) != xv.rows())
        throw std::invalid_argument("Tape::scatter_add_rows: index count");
    const int e = xv.rows();
    Tensor out = make(out_rows, xv.cols()); // zeroed: only accumulated into
    const int* ip = idx.data();
    k::scatter_rows_acc(e, xv.cols(), xv.data(), ip, out.data());
    return push(std::move(out), {x}, [x, ip, e](Tape& t, int self) {
        const Tensor& g = t.grad(self);
        const GradOut dx = t.grad_cover(x);
        (dx.init ? k::gather_rows_acc_init : k::gather_rows_acc)(
            e, g.cols(), g.data(), ip, dx.data);
    });
}

int Tape::scale_rows_impl(int x, std::span<const float> weights,
                          std::shared_ptr<const void> keep) {
    const Tensor& xv = value(x);
    if (static_cast<int>(weights.size()) != xv.rows())
        throw std::invalid_argument("Tape::scale_rows: weight count");
    const int rows = xv.rows(), cols = xv.cols();
    Tensor out = make_uninit(rows, cols);
    for (int r = 0; r < rows; ++r) {
        const float wr = weights[static_cast<std::size_t>(r)];
        const float* xr = xv.row(r);
        float* outr = out.row(r);
        for (int c = 0; c < cols; ++c) outr[c] = xr[c] * wr;
    }
    const float* wp = weights.data();
    return push(std::move(out), {x},
                [x, wp, keep = std::move(keep)](Tape& t, int self) {
                    const Tensor& g = t.grad(self);
                    Tensor& xg = t.grad_buf(x);
                    for (int r = 0; r < g.rows(); ++r) {
                        const float wr = wp[r];
                        const float* gr = g.row(r);
                        float* xr = xg.row(r);
                        for (int c = 0; c < g.cols(); ++c) xr[c] += gr[c] * wr;
                    }
                });
}

int Tape::scale_rows(int x, std::span<const float> weights) {
    return scale_rows_impl(x, weights, nullptr);
}

int Tape::scale_rows(int x, std::vector<float> weights) {
    auto keep = std::make_shared<const std::vector<float>>(std::move(weights));
    return scale_rows_impl(x, std::span<const float>(*keep), keep);
}

int Tape::concat_cols(int a, int b) {
    const Tensor& av = value(a);
    const Tensor& bv = value(b);
    if (av.rows() != bv.rows())
        throw std::invalid_argument("Tape::concat_cols: row mismatch");
    const int rows = av.rows(), ac = av.cols(), bc = bv.cols();
    Tensor out = make_uninit(rows, ac + bc);
    k::copy_block(rows, ac, av.data(), ac, out.data(), ac + bc);
    k::copy_block(rows, bc, bv.data(), bc, out.data() + ac, ac + bc);
    return push(std::move(out), {a, b}, [a, b, ac, bc](Tape& t, int self) {
        const Tensor& g = t.grad(self);
        if (Tensor* ag = t.grad_sink(a))
            k::acc_block(g.rows(), ac, g.data(), ac + bc, ag->data(), ac);
        if (Tensor* bg = t.grad_sink(b))
            k::acc_block(g.rows(), bc, g.data() + ac, ac + bc, bg->data(), bc);
    });
}

int Tape::segment_sum(int x, std::span<const int> seg, int num_segs) {
    const Tensor& xv = value(x);
    if (static_cast<int>(seg.size()) != xv.rows())
        throw std::invalid_argument("Tape::segment_sum: segment id count");
    for (const int s : seg)
        if (s < 0 || s >= num_segs)
            throw std::invalid_argument("Tape::segment_sum: id out of range");
    const int rows = xv.rows(), cols = xv.cols();
    Tensor out = make_uninit(num_segs, cols);
    k::segment_sum(rows, cols, xv.data(), seg.data(), num_segs, out.data());
    const int* sp = seg.data();
    return push(std::move(out), {x}, [x, sp, rows](Tape& t, int self) {
        const Tensor& g = t.grad(self);
        const GradOut dx = t.grad_cover(x);
        (dx.init ? k::segment_sum_backward_init : k::segment_sum_backward)(
            rows, g.cols(), g.data(), sp, dx.data);
    });
}

int Tape::scale(int x, float s) {
    const Tensor& xv = value(x);
    Tensor out = make_uninit(xv.rows(), xv.cols());
    const float* xd = xv.data();
    float* outd = out.data();
    for (std::size_t i = 0; i < xv.size(); ++i) outd[i] = xd[i] * s;
    return push(std::move(out), {x}, [x, s](Tape& t, int self) {
        const Tensor& g = t.grad(self);
        const float* gd = g.data();
        const GradOut dx = t.grad_cover(x);
        cover(dx.data, dx.init, g.size(),
              [=](std::size_t i) { return gd[i] * s; });
    });
}

int Tape::mape_loss_rows(int preds, const std::vector<float>& targets) {
    const Tensor& pv = value(preds);
    if (pv.cols() != 1 || pv.rows() != static_cast<int>(targets.size()) ||
        targets.empty())
        throw std::invalid_argument("Tape::mape_loss_rows: shape mismatch");
    const int b = pv.rows();
    double loss = 0.0;
    for (int i = 0; i < b; ++i) {
        const float p = pv.at(i, 0);
        const float y = targets[static_cast<std::size_t>(i)];
        if (std::abs(y) < 1e-9f)
            throw std::invalid_argument("Tape::mape_loss_rows: zero target");
        loss += std::abs(p - y) / std::abs(y);
    }
    Tensor out = make_uninit(1, 1);
    out.at(0, 0) = static_cast<float>(loss / static_cast<double>(b));
    auto ts = std::make_shared<const std::vector<float>>(targets);
    return push(std::move(out), {preds}, [preds, b, ts](Tape& t, int self) {
        const Tensor& g = t.grad(self);
        const float gs = g.at(0, 0) / static_cast<float>(b);
        const Tensor& pv = t.value(preds);
        const GradOut dp = t.grad_cover(preds);
        cover(dp.data, dp.init, static_cast<std::size_t>(b),
              [&](std::size_t i) {
                  const float p = pv.data()[i];
                  const float y = (*ts)[i];
                  const float sign = p >= y ? 1.0f : -1.0f;
                  return gs * sign / std::abs(y);
              });
    });
}

std::size_t Tape::backward(int node) {
    grad_buf(node).fill(1.0f);
    std::size_t skipped = 0;
    for (int i = node; i >= 0; --i) {
        Node& n = nodes_[static_cast<std::size_t>(i)];
        if (!n.requires_grad || n.grad.empty()) {
            ++skipped;
            continue;
        }
        if (n.backprop) n.backprop(*this, i);
        if (n.external) n.external->g.add_inplace(n.grad);
    }
    return skipped;
}

} // namespace powergear::nn
