// pgbench — the repository benchmark.
//
//   pgbench --workload {label|fit|explore|serve} --seed N --seconds S
//           --trace {0|1} [--tiny]
//
// One process per run. --trace 0 measures the end-to-end metrics with
// tracing off; --trace 1 is the separate traced run that reports the
// per-layer breakdown. The last stdout line is the JSON result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sys/resource.h>
#include <sys/stat.h>
#include <utility>

#include "bench.hpp"
#include "util/parallel.hpp"

namespace pb {

namespace {

std::string json_escape(const std::string& s) {
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\') o += '\\';
        o += c;
    }
    return o;
}

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// Every metric the result line carries. Each workload fills the ones its
// layers exercise; a per-layer metric a workload's layers never reach is
// reported as 0 (that layer did no work there).
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"throughput_per_s", "1/s"}, {"latency_ms", "ms"}, {"error_pct", "%"},
    {"setup_s", "s"},            {"peak_rss_mb", "MB"}};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"fpga.netlist_ms", "ms"},     {"fpga.place_ms", "ms"},
    {"fpga.route_ms", "ms"},       {"fpga.power_ms", "ms"},
    {"fpga.vivado_ms", "ms"},      {"fpga.truth_ms", "ms"},
    {"fpga.cells", "count"},       {"fpga.nets", "count"},
    {"fpga.hpwl", "grid"},         {"hls.synthesize_ms", "ms"},
    {"hls.metadata_ms", "ms"},     {"sim.simulate_ms", "ms"},
    {"sim.oracle_ms", "ms"},       {"graphgen.construct_ms", "ms"},
    {"graphgen.nodes", "count"},   {"graphgen.edges", "count"},
    {"gnn.tensors_ms", "ms"},      {"hlpow.features_ms", "ms"},
    {"analysis.lint_ms", "ms"},    {"dataset.self_ms", "ms"},
    {"core.fit_ms", "ms"},         {"core.evaluate_ms", "ms"},
    {"gnn.train_epoch_ms", "ms"},  {"gnn.assemble_ms", "ms"},
    {"gnn.forward_ms", "ms"},      {"gnn.backward_opt_ms", "ms"},
    {"gnn.graph_epochs", "count"}, {"core.estimate_batch_ms", "ms"},
    {"core.estimates", "count"},   {"dse.self_ms", "ms"},
    {"dse.scored", "count"},       {"dse.promoted", "count"},
    {"dse.promotion_yield", "ratio"}, {"trace.wall_ms", "ms"},
    {"trace.untraced_ms", "ms"},   {"trace.overhead_ms", "ms"},
    {"trace.attributed_pct", "%"}};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "pgbench: %s\nusage: pgbench --workload "
                 "{label|fit|explore|serve} --seed N --seconds S "
                 "--trace {0|1} [--tiny]\n",
                 msg);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (!end || *end) usage("--seed takes an unsigned integer");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!end || *end || !(a.seconds > 0)) usage("--seconds takes a positive number");
        } else if (k == "--trace") {
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    return a;
}

} // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
    if (!std::isfinite(value))
        check_failed("metric " + name + " is not finite");
    for (Metric& m : metrics_)
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    metrics_.push_back(Metric{name, value, unit});
}

std::string Report::unlisted(
    const std::vector<std::pair<const char*, const char*>>& names) const {
    std::string out;
    for (const Metric& m : metrics_) {
        bool listed = false;
        for (const auto& n : names) listed = listed || m.name == n.first;
        if (!listed) out += " " + m.name + "=" + num(m.value) + " " + m.unit;
    }
    return out;
}

bool Report::has(const std::string& name) const {
    for (const Metric& m : metrics_)
        if (m.name == name) return true;
    return false;
}

void Report::check_failed(const std::string& what) {
    correct_ = false;
    std::fprintf(stderr, "pgbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::note(const std::string& line) const {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

std::string Report::json(
    const std::vector<std::pair<const char*, const char*>>& names) const {
    std::string s = "{\"correct\": ";
    s += correct_ ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, unit] : names) {
        double v = 0.0;
        for (const Metric& m : metrics_)
            if (m.name == name && std::isfinite(m.value)) v = m.value;
        if (!first) s += ", ";
        first = false;
        s.append("\"").append(json_escape(name)).append("\": {\"value\": ");
        s.append(num(v)).append(", \"unit\": \"").append(json_escape(unit));
        s.append("\"}");
    }
    return s + "}}";
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(i, v.size() - 1)];
}

double tail_percentile(std::size_t n) {
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0})
        if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
    return 50.0;
}

std::string describe_latency(const std::string& what,
                             const std::vector<double>& ms) {
    const double tp = tail_percentile(ms.size());
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s: p50 %.4f ms, p%g %.4f ms, n=%zu",
                  what.c_str(), median(ms), tp, percentile(ms, tp),
                  ms.size());
    return buf;
}

std::string Digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

double host_speed() {
    // xorshift fill + std::sort of 64 Ki words, three rounds: integer,
    // branchy and memory-bound like the pipeline it calibrates.
    static std::vector<std::uint32_t> a(1u << 16);
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < 3; ++r) {
        for (std::uint32_t& v : a) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = static_cast<std::uint32_t>(x);
        }
        std::sort(a.begin(), a.end());
        sink += a[a.size() / 2];
    }
    const double ms = ms_since(t0);
    static volatile std::uint64_t keep = 0;
    keep = keep + sink;
    return kNominalCalibrationMs / ms;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string run_dir() {
    const std::string d = ".bench_run";
    ::mkdir(d.c_str(), 0755);
    return d;
}

void report_attribution(Report& rep, const Attribution& a) {
    const double pct = a.wall_ms > 0 ? 100.0 * a.attributed_ms / a.wall_ms : 0.0;
    rep.metric("trace.wall_ms", a.wall_ms, "ms");
    rep.metric("trace.untraced_ms", a.untraced_ms, "ms");
    rep.metric("trace.overhead_ms", a.program_ms - a.untraced_ms, "ms");
    rep.metric("trace.attributed_pct", pct, "%");
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "trace: wall %.3f ms, untraced %.3f ms, overhead %.3f ms, "
                  "attributed %.2f%%",
                  a.wall_ms, a.untraced_ms, a.program_ms - a.untraced_ms, pct);
    rep.note(buf);
    if (pct < 95.0)
        rep.check_failed("named spans attribute only " + num(pct) +
                         "% of the traced wall time (< 95%)");
}

} // namespace pb

int main(int argc, char** argv) {
    using namespace pb;
    const Args args = parse(argc, argv);
    Report rep;
    try {
        powergear::util::set_parallel_jobs(kJobs);
        rep.note("pgbench: workload=" + args.workload +
                 " seed=" + std::to_string(args.seed) +
                 " trace=" + (args.trace ? "1" : "0") +
                 " jobs=" + std::to_string(powergear::util::parallel_jobs()) +
                 (args.tiny ? " scale=tiny" : " scale=full"));
        if (args.workload == "label") run_label(args, rep);
        else if (args.workload == "fit") run_fit(args, rep);
        else if (args.workload == "explore") run_explore(args, rep);
        else if (args.workload == "serve") run_serve(args, rep);
        else usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pgbench: %s failed: %s\n", args.workload.c_str(),
                     e.what());
        return 1;
    }
    if (!args.trace) rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // A per-layer metric a workload never reaches reads 0 (no work in that
    // layer there); a missing end-to-end metric is a benchmark defect.
    const auto& names = args.trace ? kPerLayer : kEndToEnd;
    if (!args.trace)
        for (const auto& [name, unit] : names)
            if (!rep.has(name))
                rep.check_failed(std::string("end-to-end metric ") + name +
                                 " was not measured");
    rep.note("operations: attempted " + std::to_string(rep.attempted) +
             " succeeded " + std::to_string(rep.attempted - rep.failed) +
             " failed " + std::to_string(rep.failed));
    const std::string extra = rep.unlisted(names);
    if (!extra.empty()) rep.note("metrics outside BENCHMARK.json:" + extra);
    std::printf("%s\n", rep.json(names).c_str());
    return 0;
}
