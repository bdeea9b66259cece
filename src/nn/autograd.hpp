// Tape-based reverse-mode automatic differentiation.
//
// A Tape records the forward computation as a DAG of tensor nodes; calling
// backward(loss) seeds d(loss)=1 and sweeps the tape in reverse, then flushes
// leaf gradients into their external Param objects.
//
// Every intermediate (node values, gradient buffers, dropout masks) lives in
// the tape's Arena: built once per minibatch, rewound with reset(), so the
// steady state allocates nothing. The heavy ops dispatch through
// nn::kernels (POWERGEAR_KERNEL=ref|blocked). A tape is owned by one task at
// a time (DESIGN.md §7) and is neither copyable nor shareable across threads.
//
// Leaves come in three flavors:
//   input       owns a copy of the tensor,
//   input_view  borrows caller storage (zero copy; must outlive use of the
//               tape up to the next reset()),
//   param       borrows the Param's weights and accumulates into its grad.
//
// Requires-grad rule: a node requires a gradient iff some path from it
// reaches a param leaf. input/input_view leaves, and nodes built only from
// them, do not: backward never allocates or writes their gradient buffers
// and sweeps past them, so constant graph inputs (node, edge and metadata
// features) cost no backward work. Param gradients are unaffected — no
// param reads a constant's gradient.
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "nn/arena.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace powergear::nn {

/// A trainable parameter: value, gradient accumulator and Adam moments.
struct Param {
    Tensor w;
    Tensor g;
    Tensor m;
    Tensor v;

    explicit Param(Tensor init)
        : w(std::move(init)), g(w.rows(), w.cols()), m(w.rows(), w.cols()),
          v(w.rows(), w.cols()) {}

    void zero_grad() { g.fill(0.0f); }
};

class Tape {
public:
    Tape() = default;
    Tape(const Tape&) = delete;
    Tape& operator=(const Tape&) = delete;
    Tape(Tape&&) = default;
    Tape& operator=(Tape&&) = default;

    /// Drop all nodes and rewind the arena for the next minibatch. Node ids
    /// and value()/grad() references from before the reset are invalidated.
    void reset();

    /// Constant leaf (no gradient flows into it). Owns a copy; push is
    /// move-friendly, so an rvalue argument transfers storage without a copy.
    int input(Tensor v);
    /// Constant leaf borrowing v's storage — zero copy. v must outlive every
    /// use of this tape up to the next reset().
    int input_view(const Tensor& v);
    /// Trainable leaf; borrows p->w, backward() accumulates into p->g.
    int param(Param* p);

    int matmul(int a, int b);
    /// Fused gather+matmul: out[r] = x[idx[r]] · W where W is node w's value.
    /// Borrows idx storage — same lifetime contract as input_view.
    int gather_matmul(int x, std::span<const int> idx, int w);
    /// Elementwise sum of same-shape nodes.
    int add(int a, int b);
    /// x (n,d) + bias (1,d) broadcast over rows.
    int add_bias(int x, int bias);
    /// Fused relu(x + bias): one node, one backward pass.
    int add_bias_relu(int x, int bias);
    int relu(int x);
    /// Inverted dropout; pass training=false for a no-op passthrough.
    int dropout(int x, float p, util::Rng& rng, bool training);
    /// out[i] = x[idx[i]]  — node -> edge-endpoint gather. Borrows the
    /// index storage (lifetime as input_view).
    int gather_rows(int x, std::span<const int> idx);
    /// out[idx[i]] += x[i] — edge -> node aggregation. Borrows idx.
    int scatter_add_rows(int x, std::span<const int> idx, int out_rows);

    /// One group of add_scatters: rows of node `msg` scatter-added into
    /// dst; when `src` is non-empty, also into src and the two sums added
    /// (S = S_dst + S_src). dst (and src, if given) hold one index per row
    /// of msg. Borrows both index lists (lifetime as input_view).
    struct Scatter {
        int msg = -1;
        std::span<const int> dst;
        std::span<const int> src;
    };
    /// self + (((S_0 + S_1) + S_2) + ...) over the groups, each S_i the
    /// group's scatter sum into self's rows, as one node: the values and
    /// gradients of the chain add(self, add(add(S_0, S_1), ...)) of
    /// scatter_add_rows nodes, bit for bit (DESIGN.md §10). Groups without
    /// rows add nothing (not even +0.0f); with none left, returns self.
    int add_scatters(int self, std::span<const Scatter> groups);

    /// Row-wise scaling by fixed per-row weights (e.g. GCN normalization).
    /// The span overload borrows the weights; the vector overload takes
    /// ownership.
    int scale_rows(int x, std::span<const float> weights);
    int scale_rows(int x, std::vector<float> weights);
    int concat_cols(int a, int b);
    /// Segmented column-wise sum: (n,d) -> (num_segs,d), row r accumulated
    /// into output row seg[r] in ascending row order; the sum-pooling
    /// readout. seg values must lie in [0, num_segs). Borrows the ids
    /// (lifetime as input_view).
    int segment_sum(int x, std::span<const int> seg, int num_segs);
    int scale(int x, float s);

    /// Mean absolute percentage error over the B rows of one (B,1)
    /// prediction node, accumulated in double in row order. Returns a
    /// scalar (1,1) loss node. targets.size() must equal B and every target
    /// must be nonzero; otherwise throws std::invalid_argument.
    int mape_loss_rows(int preds, const std::vector<float>& targets);

    /// Seed d(node)=1, sweep the tape in reverse and flush param gradients.
    /// Returns how many of the swept nodes had no gradient work: constants
    /// (see the requires-grad rule above) and nodes the seed never reaches.
    std::size_t backward(int node);

    const Tensor& value(int node) const {
        return nodes_[static_cast<std::size_t>(node)].val;
    }
    /// Gradient of a node (valid after backward; empty if untouched, which
    /// every node that does not require a gradient is).
    const Tensor& grad(int node) const {
        return nodes_[static_cast<std::size_t>(node)].grad;
    }
    /// Whether some path from the node reaches a param leaf.
    bool requires_grad(int node) const {
        return nodes_[static_cast<std::size_t>(node)].requires_grad;
    }
    std::size_t num_nodes() const { return nodes_.size(); }
    /// Floats reserved by the arena (tests assert grow-once behavior).
    std::size_t arena_capacity() const { return arena_.capacity(); }

private:
    struct Node {
        Tensor val;
        Tensor grad;           ///< lazily sized on first accumulation
        Param* external = nullptr;
        bool requires_grad = false;
        std::function<void(Tape&, int)> backprop; ///< adds into parents' grads
    };

    /// Append a node computed from `parents`. It requires a gradient iff one
    /// of them does; otherwise `backprop` is dropped.
    int push(Tensor val, std::span<const int> parents,
             std::function<void(Tape&, int)> backprop);
    int push(Tensor val, std::initializer_list<int> parents,
             std::function<void(Tape&, int)> backprop) {
        return push(std::move(val),
                    std::span<const int>(parents.begin(), parents.size()),
                    std::move(backprop));
    }
    /// Append a leaf; only param leaves require a gradient.
    int push_leaf(Tensor val, Param* external);
    /// Arena-backed zeroed (rows, cols) view, for outputs that are only
    /// accumulated into (scatter sums, gradient buffers).
    Tensor make(int rows, int cols);
    /// Arena-backed (rows, cols) view left unwritten, for outputs whose
    /// kernel writes every element before anything reads them.
    Tensor make_uninit(int rows, int cols);
    /// A backward writer's target. `init` means the buffer was just
    /// allocated unwritten: the writer must store exactly what accumulating
    /// into +0.0f would (an *_init or overwriting kernel, or 0.0f + v).
    struct GradOut {
        float* data = nullptr; ///< null when the node requires no gradient
        bool init = false;
    };

    /// The node's gradient buffer, zeroed on first use: for writers that
    /// touch only some elements (scatters) or accumulate many terms.
    Tensor& grad_buf(int node);
    /// grad_buf, or nullptr when the node requires no gradient — backward
    /// closures skip such parents.
    Tensor* grad_sink(int node);
    /// grad_sink's data, or zeroed throwaway arena space of the node's size:
    /// the fused bias kernels write both parents' gradients in one pass.
    float* grad_or_scratch(int node);
    /// The gradient buffer for a writer that sets every element: allocated
    /// unzeroed on first use (init), else the existing buffer to add into.
    /// data is null when the node requires no gradient.
    GradOut grad_cover(int node);
    /// grad_cover, or unzeroed throwaway space (init) when the node requires
    /// no gradient.
    GradOut grad_cover_or_scratch(int node);

    int scale_rows_impl(int x, std::span<const float> weights,
                        std::shared_ptr<const void> keep);

    Arena arena_; ///< declared before nodes_: views die before their storage
    std::vector<Node> nodes_;
};

} // namespace powergear::nn
