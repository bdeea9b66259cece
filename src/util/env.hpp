// Environment-variable scale knobs. Benchmarks honour these so the
// paper-scale configuration (hundreds of samples per dataset, 128-dim hidden,
// thousands of epochs, 10-fold x 3-seed ensembles) can be requested on a big
// machine while defaults stay tractable on one CPU core.
#pragma once

#include <string>

namespace powergear::util {

/// Read an integer from the environment, falling back to `fallback` when the
/// variable is unset, not wholly a base-10 integer ("12abc"), or outside
/// int range.
int env_int(const char* name, int fallback);

/// Read a double from the environment, falling back to `fallback` when the
/// variable is unset or not wholly a number ("2.5x").
double env_double(const char* name, double fallback);

/// Read a string from the environment with fallback.
std::string env_string(const char* name, const std::string& fallback);

/// Bench-scale bundle resolved once from the POWERGEAR_* variables.
struct BenchScale {
    int samples_per_dataset; ///< POWERGEAR_SAMPLES  (paper: ~500)
    int hidden_dim;          ///< POWERGEAR_HIDDEN   (paper: 128)
    int epochs_total;        ///< POWERGEAR_EPOCHS   (paper: 1200 total power)
    int epochs_dynamic;      ///< POWERGEAR_EPOCHS_DYN, default 2x epochs_total
                             ///< (paper: 2400)
    int folds;               ///< POWERGEAR_FOLDS    (paper: 10)
    int seeds;               ///< POWERGEAR_SEEDS    (paper: 3)
    int layers;              ///< POWERGEAR_LAYERS   (paper: 3)
    double learning_rate;    ///< POWERGEAR_LR       (paper: 5e-4)
    double dropout;          ///< POWERGEAR_DROPOUT  (paper: 0.2)
    int batch_size;          ///< POWERGEAR_BATCH    (paper: 128)
};

/// Resolve the bench-scale bundle (single-core-friendly defaults).
BenchScale bench_scale();

} // namespace powergear::util
