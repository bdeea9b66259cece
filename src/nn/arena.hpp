// Bump allocator for tape intermediates.
//
// A Tape owns one Arena; every forward/backward intermediate (node values,
// gradient buffers, dropout masks) is carved out of it instead of being a
// per-op std::vector<float> allocation. reset() rewinds the cursor between
// minibatches — after the first batch has grown the arena to its high-water
// mark, later batches allocate nothing. alloc() zeroes its block, for
// buffers that are only accumulated into (scatter outputs, gradients);
// alloc_uninit() skips the memset, for outputs whose kernel writes every
// element. Not thread-safe by design: a tape (and hence its arena) is owned
// by exactly one task at a time (the per-task ownership model from
// DESIGN.md §7).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

namespace powergear::nn {

class Arena {
public:
    /// Zero-initialized block of n floats, valid until the next reset().
    /// Pointers handed out earlier stay valid while the arena grows (growth
    /// appends a block; it never moves existing ones).
    float* alloc(std::size_t n) {
        float* p = alloc_uninit(n);
        if (n != 0) std::memset(p, 0, n * sizeof(float));
        return p;
    }

    /// Like alloc(), but the block holds whatever an earlier batch left
    /// there (or indeterminate values): the caller must write every element
    /// before anything reads it.
    float* alloc_uninit(std::size_t n) {
        if (n == 0) {
            // Callers never dereference a zero-size allocation; hand back a
            // stable dummy so Tensor::data() stays non-null.
            static float dummy = 0.0f;
            return &dummy;
        }
        if (blocks_.empty() || used_ + n > blocks_.back().cap) grow(n);
        float* p = blocks_.back().data.get() + used_;
        used_ += n;
        return p;
    }

    /// Rewind. If growth left multiple blocks behind, coalesce them into one
    /// block covering the high-water mark so the steady state is a single
    /// contiguous buffer with zero allocations per batch.
    void reset() {
        if (blocks_.size() > 1) {
            const std::size_t total = capacity();
            blocks_.clear();
            blocks_.push_back(
                Block{std::make_unique_for_overwrite<float[]>(total), total});
        }
        used_ = 0;
    }

    /// Total floats reserved across all blocks (tests/introspection).
    std::size_t capacity() const {
        std::size_t total = 0;
        for (const Block& b : blocks_) total += b.cap;
        return total;
    }

private:
    struct Block {
        std::unique_ptr<float[]> data;
        std::size_t cap = 0;
    };

    void grow(std::size_t n) {
        // Abandoning the current block's tail is fine: capacity() counts it,
        // so the post-reset coalesced block covers everything ever live.
        const std::size_t cap = std::max(n, std::max(capacity(), kMinBlock));
        blocks_.push_back(
            Block{std::make_unique_for_overwrite<float[]>(cap), cap});
        used_ = 0;
    }

    static constexpr std::size_t kMinBlock = 1 << 12; // 16 KiB of floats

    std::vector<Block> blocks_;
    std::size_t used_ = 0; ///< floats consumed in the newest block
};

} // namespace powergear::nn
