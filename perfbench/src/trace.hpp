// Span recorder for the traced benchmark run.
//
// The benchmark records its own spans around each public library call it
// makes (name, start, end, parent span on the same thread). Spans are kept
// in memory and summarised when the run ends: a layer's self time is its
// spans' durations minus the part covered by their child spans. Recording
// is off unless enabled, so the timed runs pay one relaxed load per span.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace pb {

class Tracer {
public:
    /// Start recording on every thread. The calling thread becomes the
    /// "main" thread whose spans define wall-time attribution.
    static void enable();
    static void disable();
    static bool enabled();
    /// Drop every recorded span.
    static void clear();
    /// Self time (ms) per span name. `main_only` restricts to spans of the
    /// thread that called enable().
    static std::map<std::string, double> summarize(bool main_only);
};

/// RAII span; `name` must be a string literal (stored by pointer).
class Span {
public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    std::int64_t index_ = -1;
};

} // namespace pb
