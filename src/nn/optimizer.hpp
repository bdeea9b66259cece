// Adam optimizer over a set of Params.
#pragma once

#include <vector>

#include "nn/autograd.hpp"

namespace powergear::nn {

class Adam {
public:
    explicit Adam(std::vector<Param*> params, double lr = 5e-4,
                  double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

    void zero_grad();
    void step();

    double learning_rate() const { return lr_; }

private:
    std::vector<Param*> params_;
    double lr_, beta1_, beta2_, eps_;
    long t_ = 0;
};

} // namespace powergear::nn
