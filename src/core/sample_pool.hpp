// Batch-first sample handle for the public estimator API.
//
// A SamplePool is a cheap, non-owning, ordered view over dataset samples —
// the unit every batch entry point (PowerGear::fit / estimate_batch /
// evaluate_mape, dse::Explorer::run) consumes. It never copies or owns the
// samples themselves; at most it carries a shared pointer index (the
// "backed" pools built by adopt, which dataset::pool_of / pool_except use)
// so the view stays valid while any copy of the pool is alive. Plain views
// over a caller's own pointer array cost two words and borrow the array
// instead.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dataset/sample.hpp"

namespace powergear::core {

class SamplePool {
public:
    using View = std::span<const dataset::Sample* const>;

    SamplePool() = default;

    /// Non-owning view; the pointer array must outlive every use of the
    /// pool. Explicit on purpose: borrowing is a lifetime contract the call
    /// site should spell out. (The implicit vector<Sample*> -> SamplePool
    /// conversion this type once offered is gone — build pools through
    /// dataset::pool_of / pool_except / adopt, or borrow a View explicitly.)
    explicit SamplePool(View view) : view_(view) {}

    /// Pool backed by its own (shared) pointer index. The samples themselves
    /// stay borrowed from the datasets that own them.
    static SamplePool adopt(std::vector<const dataset::Sample*> ptrs) {
        SamplePool p;
        p.index_ = std::make_shared<const std::vector<const dataset::Sample*>>(
            std::move(ptrs));
        p.view_ = View(p.index_->data(), p.index_->size());
        return p;
    }

    std::size_t size() const { return view_.size(); }
    bool empty() const { return view_.empty(); }

    const dataset::Sample& operator[](std::size_t i) const { return *view_[i]; }

    View view() const { return view_; }
    operator View() const { return view_; }

    View::iterator begin() const { return view_.begin(); }
    View::iterator end() const { return view_.end(); }

private:
    View view_;
    std::shared_ptr<const std::vector<const dataset::Sample*>> index_;
};

} // namespace powergear::core
