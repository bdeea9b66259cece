// serve: the batched estimation daemon under load.
//
// An in-process core::serve::Server loaded with the set-up-trained model.
// Open-loop load at fixed rates on a geometric ladder: seeded exponential
// inter-arrival gaps, requests spread over four connections and pipelined
// (a connection never waits for a reply before sending its next request).
// Each request is a pre-built sample of a kernel the model never trained
// on, encoded with the public wire codecs when it is sent, and is timed
// from when it was due, so a stalled generator or server shows as latency.
// A closed-loop probe then keeps every connection saturated to measure the
// daemon's capacity.
//
// Not in BENCHMARK.json: on shared hosts its figures spread by 15-50%
// between runs (see perfbench/README.md). It stays runnable and in the
// self-test so the wire layer, admission queue and batcher can still be
// measured by hand.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>

#include "bench.hpp"
#include "core/serve/server.hpp"
#include "dataset/splits.hpp"
#include "io/serial.hpp"
#include "io/wire.hpp"
#include "kernels/polybench.hpp"
#include "model.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace pb {

namespace {

using namespace powergear;

constexpr int kConnections = 4;
constexpr double kTimeoutMs = 2000;  ///< a response later than this is a failure
constexpr double kLadderRatio = 2.0;
constexpr int kWindow = 16; ///< requests in flight per connection at saturation

struct Ladder {
    double base = 0;       ///< lowest rate (requests/s)
    int steps = 0;
    int reference = 0;     ///< step whose latency is reported
    double step_s = 0;     ///< duration of one step
    double saturate_s = 0; ///< duration of the closed-loop capacity probe
    double rate(int k) const { return base * std::pow(kLadderRatio, k); }
};

Ladder ladder_for(const Args& args) {
    Ladder l;
    l.base = args.tiny ? 200 : 500;
    l.steps = args.tiny ? 2 : 3;
    l.reference = 1;
    l.step_s = args.tiny ? 0.3 : 0.5;
    l.saturate_s = args.tiny ? 0.3 : 1.0;
    return l;
}

int connect_unix(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        throw std::runtime_error("serve: socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("serve: socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("serve: connect refused: " + path);
    }
    return fd;
}

/// Owns the daemon, its model artifact and the client connections.
class Rig {
public:
    Rig(const std::string& model_path, const std::string& socket_path)
        : model_path_(model_path),
          server_(core::serve::ServerConfig{socket_path, model_path, 64, 200, 1024}) {
        server_.start();
        for (int c = 0; c < kConnections; ++c) fds_.push_back(connect_unix(socket_path));
    }
    ~Rig() {
        for (const int fd : fds_) ::close(fd);
        server_.stop();
        ::unlink(model_path_.c_str());
    }
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    int fd(int c) const { return fds_[static_cast<std::size_t>(c)]; }
    core::serve::Server& server() { return server_; }

private:
    std::string model_path_;
    core::serve::Server server_;
    std::vector<int> fds_;
};

struct Setup {
    std::vector<dataset::Sample> requests; ///< pre-built request samples
    std::vector<core::Estimate> reference; ///< in-process estimate_batch
    std::unique_ptr<Rig> rig;
};

void setup(const Args& args, Setup& su) {
    su.rig.reset(); // a previous repetition's daemon
    const dataset::GeneratorOptions g = corpus_options(args);
    const std::vector<dataset::Dataset> corpus = generate_corpus(training_kernels(), g);
    core::PowerGear model(model_options(args));
    model.fit(dataset::pool_except(corpus, corpus.size()));
    const std::string dir = run_dir();
    const std::string tag = std::to_string(::getpid());
    const std::string model_path = dir + "/serve-" + tag + ".art";
    model.save(model_path);

    // Seeded draw of design points from the unseen kernels' spaces.
    su.requests.clear();
    util::Rng rng(util::hash_mix(args.seed, 0x5e7e));
    const int per_kernel = args.tiny ? 4 : 16;
    for (const std::string& name : unseen_kernels()) {
        const ir::Function fn = kernels::build_polybench(name, g.problem_size);
        const std::uint64_t size = hls::DesignSpace(fn).size();
        std::vector<std::uint64_t> idx;
        while (static_cast<int>(idx.size()) < per_kernel) {
            const std::uint64_t i = rng.next_below(size);
            if (std::find(idx.begin(), idx.end(), i) == idx.end()) idx.push_back(i);
        }
        for (dataset::Sample& s : dataset::generate_design_points(fn, idx, g))
            su.requests.push_back(std::move(s));
    }
    std::vector<const dataset::Sample*> ptrs;
    for (const dataset::Sample& s : su.requests) ptrs.push_back(&s);
    su.reference = model.estimate_batch(
        core::SamplePool(core::SamplePool::View(ptrs.data(), ptrs.size())));
    su.rig = std::make_unique<Rig>(model_path, dir + "/serve-" + tag + ".sock");
}

struct StepResult {
    double rate = 0;
    std::uint64_t attempted = 0, succeeded = 0, failed = 0;
    std::vector<double> latency_ms; ///< succeeded requests, from due time
    std::vector<double> late_ms;    ///< generator send time minus due time
    std::uint64_t backlog = 0;      ///< outstanding when the last was due
    std::uint64_t requests = 0, batches = 0, errors = 0; ///< server deltas
    double wall_ms = 0;
    double sum_ape = 0; ///< absolute percentage errors vs board labels
    bool mismatch = false;

    double p99() const { return percentile(latency_ms, 99.0); }
};

StepResult run_step(Setup& su, double rate, double seconds, std::uint64_t seed) {
    StepResult r;
    r.rate = rate;
    const std::size_t n = static_cast<std::size_t>(std::llround(rate * seconds));
    util::Rng rng(seed);
    std::vector<std::int64_t> due_ns(n);
    std::vector<std::size_t> pick(n);
    double t = 0;
    for (std::size_t i = 0; i < n; ++i) {
        t += -std::log(1.0 - rng.next_double()) / rate; // exponential gap
        due_ns[i] = static_cast<std::int64_t>(t * 1e9);
        pick[i] = static_cast<std::size_t>(rng.next_below(su.requests.size()));
    }
    const core::serve::Server::Stats before = su.rig->server().stats();

    std::atomic<std::uint64_t> received{0};
    std::mutex mu; // guards r's per-request vectors and counters below
    const Clock::time_point begin = Clock::now();
    const Clock::time_point start = begin + std::chrono::milliseconds(2);
    std::vector<std::thread> readers;
    for (int c = 0; c < kConnections; ++c) {
        std::size_t expect = 0;
        for (std::size_t i = static_cast<std::size_t>(c); i < n; i += kConnections) ++expect;
        readers.emplace_back([&, c, expect] {
            const int fd = su.rig->fd(c);
            for (std::size_t got = 0; got < expect; ++got) {
                pollfd p{fd, POLLIN, 0};
                if (::poll(&p, 1, static_cast<int>(kTimeoutMs)) <= 0) {
                    const std::lock_guard<std::mutex> lock(mu);
                    r.failed += expect - got; // timed out
                    return;
                }
                std::optional<std::vector<std::uint8_t>> frame;
                try {
                    frame = io::recv_frame(fd);
                } catch (const std::exception&) {
                }
                const Clock::time_point now = Clock::now();
                if (!frame) {
                    const std::lock_guard<std::mutex> lock(mu);
                    r.failed += expect - got; // connection lost
                    return;
                }
                io::ServeResponse resp;
                {
                    const Span s("io.decode");
                    resp = io::decode_serve_response(io::unframe(
                        *frame, io::kStageServeResp, io::kServeRespVersion));
                }
                received.fetch_add(1, std::memory_order_relaxed);
                const std::size_t i = static_cast<std::size_t>(resp.id - 1);
                const std::lock_guard<std::mutex> lock(mu);
                if (i >= n || resp.status != 0) {
                    ++r.failed;
                    continue;
                }
                const core::Estimate& ref = su.reference[pick[i]];
                if (!same_bits(resp.watts, ref.watts) ||
                    !same_bits(resp.member_spread, ref.member_spread) ||
                    !std::isfinite(resp.watts))
                    r.mismatch = true;
                const double label = su.requests[pick[i]].dynamic_power_w;
                r.sum_ape += std::abs(resp.watts - label) / std::abs(label);
                ++r.succeeded;
                r.latency_ms.push_back(
                    std::chrono::duration<double, std::milli>(
                        now - (start + std::chrono::nanoseconds(due_ns[i])))
                        .count());
            }
        });
    }

    for (std::size_t i = 0; i < n; ++i) {
        const Clock::time_point due = start + std::chrono::nanoseconds(due_ns[i]);
        {
            // Sleep to just short of the due time, then spin: a plain
            // sleep wakes up to a scheduler tick late.
            const Span s("serve.wait");
            std::this_thread::sleep_until(due - std::chrono::microseconds(200));
            while (Clock::now() < due) {
            }
        }
        r.late_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - due).count());
        std::vector<std::uint8_t> framed;
        {
            const Span s("io.encode");
            io::ServeRequest req;
            req.id = i + 1;
            req.op = io::ServeOp::Estimate;
            req.sample_payload = io::encode_sample(su.requests[pick[i]]);
            framed = io::frame(io::kStageServeReq, io::kServeReqVersion,
                               io::encode_serve_request(req));
        }
        bool sent = false;
        {
            const Span s("io.send");
            try {
                sent = io::send_frame(su.rig->fd(static_cast<int>(i % kConnections)), framed);
            } catch (const std::exception&) {
            }
        }
        ++r.attempted;
        if (!sent) {
            const std::lock_guard<std::mutex> lock(mu);
            ++r.failed; // refused
        }
    }
    r.backlog = r.attempted - received.load(std::memory_order_relaxed);
    {
        const Span s("serve.drain");
        for (std::thread& th : readers) th.join();
    }
    r.wall_ms = ms_since(begin);
    const core::serve::Server::Stats after = su.rig->server().stats();
    r.requests = after.requests - before.requests;
    r.batches = after.batches - before.batches;
    r.errors = after.errors - before.errors;
    return r;
}

/// Closed-loop saturation: every connection keeps kWindow requests in
/// flight for `seconds`; the answers per second are the daemon's capacity.
struct Saturation {
    std::uint64_t attempted = 0, succeeded = 0, failed = 0;
    double per_s = 0;
    bool mismatch = false;
};

Saturation saturate(Setup& su, double seconds, std::uint64_t seed) {
    Saturation out;
    std::mutex mu; // guards `out`
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop = start + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(seconds));
    std::vector<std::thread> conns;
    for (int c = 0; c < kConnections; ++c) {
        conns.emplace_back([&, c] {
            const int fd = su.rig->fd(c);
            util::Rng rng(util::hash_mix(seed, static_cast<std::uint64_t>(c)));
            std::vector<std::size_t> pick; // by request id - 1
            std::uint64_t sent = 0, ok = 0, bad = 0, in_window = 0;
            bool mismatch = false;
            const auto send_one = [&] {
                pick.push_back(static_cast<std::size_t>(rng.next_below(su.requests.size())));
                io::ServeRequest req;
                req.id = pick.size();
                req.op = io::ServeOp::Estimate;
                req.sample_payload = io::encode_sample(su.requests[pick.back()]);
                if (!io::send_frame(fd, io::frame(io::kStageServeReq, io::kServeReqVersion,
                                                  io::encode_serve_request(req))))
                    throw std::runtime_error("serve: connection refused a request");
                ++sent;
            };
            try {
                for (int w = 0; w < kWindow; ++w) send_one();
                while (ok + bad < sent) {
                    pollfd p{fd, POLLIN, 0};
                    if (::poll(&p, 1, static_cast<int>(kTimeoutMs)) <= 0) break;
                    const std::optional<std::vector<std::uint8_t>> frame = io::recv_frame(fd);
                    if (!frame) break;
                    const io::ServeResponse resp = io::decode_serve_response(
                        io::unframe(*frame, io::kStageServeResp, io::kServeRespVersion));
                    const bool live = Clock::now() < stop;
                    if (resp.status != 0 || resp.id == 0 || resp.id > pick.size()) {
                        ++bad;
                    } else {
                        const core::Estimate& ref = su.reference[pick[resp.id - 1]];
                        if (!same_bits(resp.watts, ref.watts) ||
                            !same_bits(resp.member_spread, ref.member_spread))
                            mismatch = true;
                        ++ok;
                        if (live) ++in_window;
                    }
                    if (live) send_one();
                }
            } catch (const std::exception&) {
            }
            const std::lock_guard<std::mutex> lock(mu);
            out.attempted += sent;
            out.succeeded += ok;
            out.failed += sent - ok; // errors, timeouts and refusals
            out.per_s += static_cast<double>(in_window) / seconds;
            out.mismatch = out.mismatch || mismatch;
        });
    }
    for (std::thread& t : conns) t.join();
    return out;
}

std::uint64_t step_seed(const Args& args, int pass, int step) {
    return util::hash_mix(util::hash_mix(args.seed, static_cast<std::uint64_t>(pass)),
                          static_cast<std::uint64_t>(step));
}

void account(Report& rep, const StepResult& s) {
    rep.attempted += s.attempted;
    rep.failed += s.failed;
    if (s.mismatch)
        rep.check_failed("serve: a response differs from in-process estimate_batch");
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "serve: rate %.1f/s attempted %llu succeeded %llu failed %llu "
                  "p50 %.4f ms p99 %.4f ms backlog %llu late_p99 %.4f ms "
                  "batches %llu",
                  s.rate, static_cast<unsigned long long>(s.attempted),
                  static_cast<unsigned long long>(s.succeeded),
                  static_cast<unsigned long long>(s.failed), median(s.latency_ms),
                  s.p99(), static_cast<unsigned long long>(s.backlog),
                  percentile(s.late_ms, 99.0),
                  static_cast<unsigned long long>(s.batches));
    rep.note(buf);
}

/// Per-rate totals pooled over every ladder pass of the run, for the
/// report. Latencies are at reference host speed.
struct RateTotals {
    double rate = 0;
    std::uint64_t attempted = 0, succeeded = 0, failed = 0;
    std::vector<double> latency_ms;
    std::vector<double> backlog;
};

void timed(const Args& args, Report& rep, Setup& su) {
    const Ladder l = ladder_for(args);
    std::vector<RateTotals> totals(static_cast<std::size_t>(l.steps));
    std::vector<double> capacity;
    double ape = 0;
    std::uint64_t ape_n = 0;
    const Clock::time_point t0 = Clock::now();
    for (int pass = 0; capacity.empty() || ms_since(t0) < args.seconds * 1e3; ++pass) {
        for (int k = 0; k < l.steps; ++k) {
            const double hs = host_speed();
            const StepResult s =
                run_step(su, l.rate(k), l.step_s, step_seed(args, pass, k));
            account(rep, s);
            RateTotals& t = totals[static_cast<std::size_t>(k)];
            t.rate = s.rate;
            t.attempted += s.attempted;
            t.succeeded += s.succeeded;
            t.failed += s.failed;
            for (const double ms : s.latency_ms) t.latency_ms.push_back(ms * hs);
            t.backlog.push_back(static_cast<double>(s.backlog));
            ape += s.sum_ape;
            ape_n += s.succeeded;
        }
        const double hs = host_speed();
        const Saturation sat =
            saturate(su, l.saturate_s, step_seed(args, pass, l.steps));

        rep.attempted += sat.attempted;
        rep.failed += sat.failed;
        if (sat.mismatch)
            rep.check_failed("serve: a response differs from in-process estimate_batch");
        // At reference host speed: a host at speed factor h answering r/s
        // stands for r / h on the reference host.
        capacity.push_back(sat.per_s / hs);
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "serve: saturation %d connections x %d in flight: attempted "
                      "%llu succeeded %llu failed %llu, %.1f answers/s",
                      kConnections, kWindow,
                      static_cast<unsigned long long>(sat.attempted),
                      static_cast<unsigned long long>(sat.succeeded),
                      static_cast<unsigned long long>(sat.failed), sat.per_s);
        rep.note(buf);
    }
    for (const RateTotals& t : totals) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "serve: rate %.1f/s over the run: attempted %llu succeeded "
                      "%llu failed %llu p50 %.4f ms p99 %.4f ms median backlog %.1f",
                      t.rate, static_cast<unsigned long long>(t.attempted),
                      static_cast<unsigned long long>(t.succeeded),
                      static_cast<unsigned long long>(t.failed), median(t.latency_ms),
                      percentile(t.latency_ms, 99.0), median(t.backlog));
        rep.note(buf);
    }
    const RateTotals& ref = totals[static_cast<std::size_t>(l.reference)];
    rep.metric("throughput_per_s", median(capacity), "1/s");
    rep.metric("latency_ms", median(ref.latency_ms), "ms");
    rep.metric("error_pct", ape_n ? 100.0 * ape / static_cast<double>(ape_n) : 0.0, "%");
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "serve: %zu passes, capacity %.1f/s; reference rate %.1f/s; "
                  "latency at reference host speed: ",
                  capacity.size(), median(capacity), ref.rate);
    rep.note(buf + describe_latency("request", ref.latency_ms));
    Digest d;
    for (const core::Estimate& e : su.reference) d.add(e.watts).add(e.member_spread);
    rep.note("digest estimates=" + d.hex());
}

void traced(const Args& args, Report& rep, Setup& su) {
    const Ladder l = ladder_for(args);
    const double rate = l.rate(l.reference);
    std::map<std::string, std::vector<double>> per_pass;
    std::vector<double> walls, untraced, attributed;
    obs::set_enabled(true);
    const Clock::time_point t0 = Clock::now();
    for (int pass = 0; walls.empty() || ms_since(t0) < args.seconds * 1e3; ++pass) {
        const std::uint64_t seed = step_seed(args, pass, l.reference);
        const StepResult u = run_step(su, rate, l.step_s, seed);
        account(rep, u);
        untraced.push_back(u.wall_ms);

        obs::reset();
        Tracer::clear();
        Tracer::enable();
        const StepResult s = run_step(su, rate, l.step_s, seed);
        Tracer::disable();
        account(rep, s);
        walls.push_back(s.wall_ms);

        double named = 0.0;
        for (const auto& [name, t] : Tracer::summarize(true)) {
            per_pass[name + "_ms"].push_back(t);
            named += t;
        }
        attributed.push_back(named);
        for (const auto& [name, t] : Tracer::summarize(false))
            if (name == "io.decode") per_pass["io.decode_ms"].push_back(t);
        const obs::Report o = obs::snapshot();
        const auto it = o.phases.find(obs::phase_name(obs::Phase::EstimateBatch));
        per_pass["core.estimate_batch_ms"].push_back(
            it == o.phases.end() ? 0.0 : it->second.total_s * 1e3);
        per_pass["serve.requests"].push_back(static_cast<double>(s.requests));
        per_pass["serve.batches"].push_back(static_cast<double>(s.batches));
        per_pass["serve.mean_batch"].push_back(
            s.batches ? static_cast<double>(s.requests) / static_cast<double>(s.batches) : 0.0);
        per_pass["serve.errors"].push_back(static_cast<double>(s.errors));
        per_pass["serve.backlog"].push_back(static_cast<double>(s.backlog));
        per_pass["serve.generator_late_ms"].push_back(percentile(s.late_ms, 99.0));
        per_pass["serve.p50_ms"].push_back(median(s.latency_ms));
        per_pass["serve.p99_ms"].push_back(s.p99());
        per_pass["core.estimates"].push_back(static_cast<double>(s.requests));
    }
    obs::set_enabled(false);
    for (const auto& [name, v] : per_pass) {
        const bool ms = name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0;
        rep.metric(name, median(v), ms ? "ms" : "count");
    }
    Attribution att;
    att.wall_ms = median(walls);
    att.program_ms = att.wall_ms;
    att.untraced_ms = median(untraced);
    att.attributed_ms = median(attributed);
    report_attribution(rep, att);
}

} // namespace

void run_serve(const Args& args, Report& rep) {
    Setup su;
    const double setup_s =
        median_setup_s(args.trace ? 1 : kSetupReps, [&] { setup(args, su); });
    if (args.trace) {
        traced(args, rep, su);
    } else {
        rep.metric("setup_s", setup_s, "s");
        timed(args, rep, su);
    }
    su.rig.reset();
}

} // namespace pb
