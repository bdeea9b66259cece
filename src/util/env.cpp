#include "util/env.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>

namespace powergear::util {

int env_int(const char* name, int fallback) {
    const char* v = std::getenv(name);
    if (!v || !*v) return fallback;
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(v, &end, 10);
    // v is non-empty, so a failed or partial parse leaves *end != '\0'.
    if (*end != '\0' || errno == ERANGE || parsed < INT_MIN || parsed > INT_MAX)
        return fallback;
    return static_cast<int>(parsed);
}

double env_double(const char* name, double fallback) {
    const char* v = std::getenv(name);
    if (!v || !*v) return fallback;
    char* end = nullptr;
    const double parsed = std::strtod(v, &end);
    if (*end != '\0') return fallback;
    return parsed;
}

std::string env_string(const char* name, const std::string& fallback) {
    const char* v = std::getenv(name);
    return (v && *v) ? std::string(v) : fallback;
}

BenchScale bench_scale() {
    BenchScale s{};
    s.samples_per_dataset = env_int("POWERGEAR_SAMPLES", 24);
    s.hidden_dim = env_int("POWERGEAR_HIDDEN", 16);
    s.epochs_total = env_int("POWERGEAR_EPOCHS", 100);
    s.epochs_dynamic = env_int("POWERGEAR_EPOCHS_DYN", 2 * s.epochs_total);
    s.folds = env_int("POWERGEAR_FOLDS", 3);
    s.seeds = env_int("POWERGEAR_SEEDS", 1);
    s.layers = env_int("POWERGEAR_LAYERS", 3);
    s.learning_rate = env_double("POWERGEAR_LR", 1.5e-3);
    s.dropout = env_double("POWERGEAR_DROPOUT", 0.2);
    s.batch_size = env_int("POWERGEAR_BATCH", 32);
    return s;
}

} // namespace powergear::util
