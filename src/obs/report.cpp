#include "obs/report.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace powergear::obs {

namespace {

JsonValue phase_to_json(const PhaseStats& st) {
    JsonValue p = JsonValue::object();
    p.set("calls", JsonValue(st.calls));
    p.set("total_s", JsonValue(st.total_s));
    p.set("p50_ms", JsonValue(st.p50_ms));
    p.set("p95_ms", JsonValue(st.p95_ms));
    p.set("max_ms", JsonValue(st.max_ms));
    JsonValue counters = JsonValue::object();
    JsonValue rates = JsonValue::object();
    for (const auto& [name, v] : st.counters) {
        counters.set(name, JsonValue(v));
        if (st.total_s > 0.0)
            rates.set(name, JsonValue(static_cast<double>(v) / st.total_s));
    }
    p.set("counters", std::move(counters));
    p.set("rates_per_s", std::move(rates));
    return p;
}

} // namespace

std::string Report::to_json() const {
    JsonValue root = JsonValue::object();
    root.set("schema", JsonValue("powergear-obs-v1"));
    root.set("wall_s", JsonValue(wall_s));
    root.set("jobs", JsonValue(static_cast<std::int64_t>(jobs)));
    JsonValue ph = JsonValue::object();
    for (const auto& [name, st] : phases) ph.set(name, phase_to_json(st));
    root.set("phases", std::move(ph));
    return root.dump(2);
}

bool Report::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::string body = to_json() + "\n";
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace powergear::obs
