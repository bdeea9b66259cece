// powergear — command-line front end for the library.
//
// The command surface is declared once, as data: kSpecs is the util::cli
// option table (type, default, env fallback, per-command applicability,
// help) and kCommands the command table (name, summary, entry point).
// Parsing, suggestions, type validation and the usage text printed by a
// bare `powergear` all come from those two tables. Where a library config
// struct owns a default (GeneratorOptions, ServerConfig, ...), the spec
// row leaves it empty and the command reads `cfg.x = a.get_int("x",
// cfg.x)`. Exit contract: 0 = success, 1 = operational failure, 2 = usage
// error (unknown/misapplied option, bad value, missing value).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/sarif.hpp"
#include "core/powergear.hpp"
#include "core/serve/client.hpp"
#include "core/serve/server.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "dse/explorer.hpp"
#include "dse/shard.hpp"
#include "dse/stream_explorer.hpp"
#include "io/cache.hpp"
#include "io/serial.hpp"
#include "kernels/polybench.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"

using namespace powergear;
using util::cli::OptType;
using util::cli::Parsed;
using util::cli::UsageError;

namespace {

// Every option, as data. Column order: name, type, default, env fallback,
// applicable commands, help. parse() enforces the applicability column and
// value types; getters resolve command line > env > default.
constexpr util::cli::OptionSpec kSpecs[] = {
    {"kernel", OptType::String, "", "", "gen,estimate,dse,lint",
     "kernel to generate, estimate, explore or lint"},
    {"kernels", OptType::String, "atax,bicg,gemm", "", "train",
     "comma-separated training kernels"},
    {"train", OptType::String, "bicg,gemm,syrk", "", "dse",
     "comma-separated kernels the DSE model trains on"},
    {"samples", OptType::Int, "", "", "gen,train,estimate,dse",
     "designs per dataset"},
    {"size", OptType::Int, "", "", "gen,train,estimate,dse,lint",
     "polybench problem size"},
    {"seed", OptType::Int, "", "", "gen,train,estimate,dse,lint",
     "dataset and stimulus RNG seed"},
    {"csv", OptType::String, "", "", "gen", "also write the table as CSV"},
    {"out", OptType::String, "", "", "train", "model artifact output path"},
    {"model", OptType::String, "", "", "estimate,serve",
     "trained model artifact (.pgm)"},
    {"kind", OptType::String, "total", "", "train,estimate",
     "power label: total | dynamic"},
    {"epochs", OptType::Int, "", "", "train", "training epochs per member"},
    {"folds", OptType::Int, "", "", "train", "cross-validation folds"},
    {"seeds", OptType::Int, "", "", "train", "ensemble seeds per fold"},
    {"hidden", OptType::Int, "", "", "train", "hidden layer width"},
    {"budget", OptType::Double, "", "", "dse",
     "fraction of the design space the budgeted explorer evaluates"},
    {"stream", OptType::Flag, "", "", "dse",
     "use the streaming explorer: bounded memory, incremental Pareto "
     "archive, ground-truth promotion guided by the ensemble spread"},
    {"shard", OptType::String, "", "", "dse",
     "run ground-truth sweep worker i/N into a shared --cache-dir; a "
     "work-stealing manifest lets the N workers run concurrently or in any "
     "order"},
    {"merge", OptType::Int, "", "", "dse",
     "fold the N shard frontiers in --cache-dir into the final Pareto "
     "front, bit-identical to a --shard 1/1 sweep merged with --merge 1"},
    {"chunk", OptType::Int, "", "", "dse",
     "points per scoring batch / work-stealing unit"},
    {"limit", OptType::Int, "", "", "dse",
     "cap swept candidate points (0 = full space)"},
    {"spread-gate", OptType::Double, "", "", "dse",
     "promote frontier entrants only above this x mean ensemble spread"},
    {"epsilon", OptType::Double, "", "", "dse",
     "epsilon-dominance grid width (0 = exact frontier)"},
    {"max-archive", OptType::Int, "", "", "dse",
     "frontier size cap, 0 = unbounded; escalates epsilon when exceeded"},
    {"points", OptType::Int, "", "", "lint", "design points per kernel"},
    {"json", OptType::Flag, "", "", "lint", "emit JSON diagnostics"},
    {"all", OptType::Flag, "", "", "lint",
     "lint every registered kernel, the extended ones too"},
    {"sarif", OptType::String, "", "", "lint",
     "write a SARIF 2.1.0 report"},
    {"jobs", OptType::Int, "", "", "gen,train,estimate,dse,serve",
     "parallel runtime width (1 = serial; default POWERGEAR_JOBS or the "
     "hardware concurrency); results are bit-identical at any width"},
    {"metrics", OptType::String, "", "POWERGEAR_METRICS", "*",
     "write a powergear-obs-v1 JSON report (per-phase latency percentiles, "
     "counters, rates) after the run; serve writes it after draining"},
    {"cache-dir", OptType::String, "", "POWERGEAR_CACHE",
     "gen,train,estimate,dse,cache",
     "content-addressed pipeline cache root: warm re-runs load sim traces, "
     "samples and trained ensembles instead of recomputing them"},
    {"socket", OptType::String, "", "POWERGEAR_SOCKET", "serve",
     "Unix-domain socket the daemon binds / clients dial"},
    {"max-batch", OptType::Int, "", "", "serve",
     "admission-queue coalescing cap"},
    {"batch-window-us", OptType::Int, "", "", "serve",
     "linger for stragglers once a request lands"},
    {"max-queue", OptType::Int, "", "", "serve",
     "pending-request bound (readers block past it)"},
    {"ping", OptType::Flag, "", "", "serve", "probe a running daemon"},
    {"reload", OptType::Flag, "", "", "serve",
     "ask a running daemon to hot-swap its model"},
    {"stop", OptType::Flag, "", "", "serve",
     "ask a running daemon to drain and exit"},
};

/// Apply --jobs before any parallel work.
void apply_jobs(const Parsed& a) {
    if (!a.has("jobs")) return;
    const int jobs = a.get_int("jobs", 0);
    if (jobs < 1) throw UsageError("--jobs must be a positive integer");
    util::set_parallel_jobs(jobs);
}

/// Snapshot and persist the report after the command body finished.
void metrics_end(const std::string& path) {
    if (path.empty()) return;
    const obs::Report rep = obs::snapshot();
    if (rep.write(path))
        std::fprintf(stderr, "metrics: wrote %s (%zu phase%s)\n", path.c_str(),
                     rep.phases.size(), rep.phases.size() == 1 ? "" : "s");
    else
        std::fprintf(stderr, "metrics: error: cannot write %s\n", path.c_str());
}

std::vector<std::string> split_list(const std::string& csv) {
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty()) out.push_back(item);
    return out;
}

dataset::GeneratorOptions generator_options(const Parsed& a) {
    dataset::GeneratorOptions o;
    o.samples_per_dataset = a.get_int("samples", o.samples_per_dataset);
    o.problem_size = a.get_int("size", o.problem_size);
    o.seed = a.get_int("seed", o.seed);
    o.cache_dir = a.get("cache-dir");
    return o;
}

dataset::PowerKind kind_of(const Parsed& a) {
    return a.get("kind") == "dynamic" ? dataset::PowerKind::Dynamic
                                      : dataset::PowerKind::Total;
}

int cmd_gen(const Parsed& a) {
    const std::string kernel = a.get("kernel", "gemm");
    const dataset::Dataset ds =
        dataset::generate_dataset(kernel, generator_options(a));

    util::Table table({"design", "directives", "latency", "nodes", "dyn_W",
                       "static_W", "total_W"});
    for (const auto& s : ds.samples)
        table.add_row({std::to_string(s.design_index),
                       s.directives.to_string(),
                       std::to_string(s.latency_cycles),
                       std::to_string(s.graph.num_nodes),
                       util::Table::num(s.dynamic_power_w, 4),
                       util::Table::num(s.static_power_w, 4),
                       util::Table::num(s.total_power_w, 4)});
    std::printf("%s", table.to_ascii().c_str());
    std::printf("dataset %s: %d samples, avg %.0f graph nodes\n",
                ds.name.c_str(), ds.size(), ds.avg_nodes());
    if (a.has("csv")) {
        if (table.save_csv(a.get("csv")))
            std::printf("saved %s\n", a.get("csv").c_str());
        else {
            std::fprintf(stderr, "error: cannot write %s\n", a.get("csv").c_str());
            return 1;
        }
    }
    return 0;
}

int cmd_train(const Parsed& a) {
    const auto kernels = split_list(a.get("kernels"));
    if (kernels.empty() || !a.has("out")) {
        std::fprintf(stderr, "error: train needs --kernels and --out\n");
        return 1;
    }
    std::vector<dataset::Dataset> suite;
    for (const std::string& k : kernels) {
        std::printf("generating %s...\n", k.c_str());
        suite.push_back(dataset::generate_dataset(k, generator_options(a)));
    }
    std::vector<const dataset::Sample*> ptrs;
    for (const auto& ds : suite)
        for (const auto& s : ds.samples) ptrs.push_back(&s);
    const core::SamplePool pool = core::SamplePool::adopt(std::move(ptrs));

    core::PowerGear::Options opts = core::PowerGear::Options::from_bench_scale(
        util::bench_scale(), kind_of(a));
    opts.epochs = a.get_int("epochs", opts.epochs);
    opts.folds = a.get_int("folds", opts.folds);
    opts.seeds = a.get_int("seeds", opts.seeds);
    opts.hidden = a.get_int("hidden", opts.hidden);

    std::printf("training on %zu samples (%s power, %d folds x %d seeds)...\n",
                pool.size(),
                opts.kind == dataset::PowerKind::Dynamic ? "dynamic" : "total",
                opts.folds, opts.seeds);
    core::PowerGear pg(opts);
    if (pg.fit_cached(pool, io::Cache(a.get("cache-dir"))))
        std::printf("loaded trained ensemble from the pipeline cache\n");
    pg.save(a.get("out"));
    std::printf("saved %d-member ensemble to %s\n", pg.num_members(),
                a.get("out").c_str());
    return 0;
}

int cmd_estimate(const Parsed& a) {
    if (!a.has("model") || !a.has("kernel")) {
        std::fprintf(stderr, "error: estimate needs --model and --kernel\n");
        return 1;
    }
    core::PowerGear::Options opts;
    opts.kind = kind_of(a);
    core::PowerGear pg(opts);
    pg.load(a.get("model"));

    const dataset::Dataset ds =
        dataset::generate_dataset(a.get("kernel"), generator_options(a));
    // One batched call: the ensemble fans out over all designs and reports
    // the member spread as a per-estimate confidence signal.
    const core::SamplePool pool = dataset::pool_of(ds);
    const std::vector<core::Estimate> ests = pg.estimate_batch(pool);
    util::Table table({"design", "directives", "estimated_W", "spread_W",
                       "measured_W", "error_%"});
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const auto& s = pool[i];
        const double truth = static_cast<double>(s.label(opts.kind));
        table.add_row(
            {std::to_string(s.design_index), s.directives.to_string(),
             util::Table::num(ests[i].watts, 4),
             util::Table::num(ests[i].member_spread, 4),
             util::Table::num(truth, 4),
             util::Table::num(100.0 * std::abs(ests[i].watts - truth) / truth,
                              2)});
    }
    std::printf("%s", table.to_ascii().c_str());
    std::printf("MAPE: %.2f%%\n", pg.evaluate_mape(pool));
    return 0;
}

dse::ArchiveConfig archive_config(const Parsed& a) {
    dse::ArchiveConfig cfg;
    cfg.epsilon = a.get_double("epsilon", cfg.epsilon);
    const long long cap = a.get_int<long long>("max-archive", cfg.max_size);
    if (cap < 0) throw UsageError("--max-archive must be >= 0");
    cfg.max_size = static_cast<std::size_t>(cap);
    return cfg;
}

/// Sweep geometry shared by --shard and --merge. Both feed chunk and limit
/// into shard_space_key, so reading them in one place keeps --merge
/// addressing the artifacts the workers wrote.
dse::ShardConfig shard_config(const Parsed& a) {
    dse::ShardConfig cfg;
    cfg.chunk = a.get_int("chunk", cfg.chunk);
    cfg.limit = a.get_int("limit", cfg.limit);
    cfg.archive = archive_config(a);
    return cfg;
}

/// The cache --shard workers meet in and --merge reads; an operational
/// failure (exit 1) without one.
io::Cache shard_cache(const Parsed& a, const std::string& mode) {
    io::Cache cache(a.get("cache-dir"));
    if (!cache.enabled())
        throw std::runtime_error("dse --" + mode +
                                 " needs --cache-dir DIR (or POWERGEAR_CACHE)");
    return cache;
}

/// Frontier rows printed with %.17g so bit-identical frontiers produce
/// byte-identical output — the sharded-vs-unsharded CI check compares these
/// lines with cmp(1).
void print_frontier(const std::vector<dse::Point>& front) {
    std::printf("%-14s %12s %24s\n", "frontier", "latency", "dyn power (W)");
    for (const dse::Point& p : front)
        std::printf("%-14s %12.0f %24.17g\n",
                    ("design#" + std::to_string(p.index)).c_str(), p.latency,
                    p.power);
}

/// Ground-truth sweep worker: claim chunks through the manifest, generate
/// samples into the shared cache, publish this worker's frontier artifact.
int cmd_dse_shard(const Parsed& a, const std::string& kernel) {
    const util::cli::ShardSpec spec = util::cli::parse_shard(a.get("shard"));
    const io::Cache cache = shard_cache(a, "shard");
    const dataset::GeneratorOptions gen = generator_options(a);
    const ir::Function fn = kernels::build_polybench(kernel, gen.problem_size);
    dse::ShardConfig cfg = shard_config(a);
    cfg.worker = spec.index;
    cfg.num_workers = spec.count;
    const dse::ShardOutcome out =
        dse::run_shard(fn, gen, dataset::PowerKind::Dynamic, cache, cfg);
    std::printf("shard %llu/%llu: %llu chunk(s) claimed (%llu stolen), "
                "%llu point(s), frontier %zu\n",
                static_cast<unsigned long long>(spec.index),
                static_cast<unsigned long long>(spec.count),
                static_cast<unsigned long long>(out.chunks_claimed),
                static_cast<unsigned long long>(out.chunks_stolen),
                static_cast<unsigned long long>(out.points),
                out.front.size());
    std::printf("wrote %s\n", out.artifact_path.c_str());
    return 0;
}

int cmd_dse_merge(const Parsed& a, const std::string& kernel) {
    const int n = a.get_int("merge", 0);
    if (n < 1) throw UsageError("--merge expects the shard count N (>= 1)");
    const io::Cache cache = shard_cache(a, "merge");
    const dataset::GeneratorOptions gen = generator_options(a);
    const ir::Function fn = kernels::build_polybench(kernel, gen.problem_size);
    const dse::ShardConfig cfg = shard_config(a);
    const auto workers = static_cast<std::uint64_t>(n);
    const std::uint64_t key =
        dse::shard_space_key(fn, gen, dataset::PowerKind::Dynamic, cfg.chunk,
                             cfg.limit, workers);
    const std::vector<dse::Point> front =
        dse::merge_shards(cache, key, workers, cfg.archive);
    std::printf("merged %d shard(s): frontier %zu point(s)\n", n,
                front.size());
    print_frontier(front);
    return 0;
}

int cmd_dse(const Parsed& a) {
    const std::string target = a.get("kernel", "atax");
    if (a.has("shard")) return cmd_dse_shard(a, target);
    if (a.has("merge")) return cmd_dse_merge(a, target);
    const auto train_kernels = split_list(a.get("train"));
    std::vector<dataset::Dataset> suite;
    for (const std::string& k : train_kernels)
        suite.push_back(dataset::generate_dataset(k, generator_options(a)));
    suite.push_back(dataset::generate_dataset(target, generator_options(a)));
    const std::size_t tgt = suite.size() - 1;

    core::PowerGear::Options opts = core::PowerGear::Options::from_bench_scale(
        util::bench_scale(), dataset::PowerKind::Dynamic);
    core::PowerGear pg(opts);
    if (pg.fit_cached(dataset::pool_except(suite, tgt),
                      io::Cache(a.get("cache-dir"))))
        std::printf("loaded trained ensemble from the pipeline cache\n");

    if (a.flag("stream")) {
        dse::StreamConfig scfg;
        scfg.chunk = a.get_int("chunk", scfg.chunk);
        scfg.spread_gate = a.get_double("spread-gate", scfg.spread_gate);
        scfg.archive = archive_config(a);
        scfg.max_points = a.get_int("limit", scfg.max_points);
        const dse::StreamingExplorer explorer(scfg);
        const dse::StreamResult res = explorer.run(
            dataset::pool_of(suite[tgt]), pg, dataset::PowerKind::Dynamic);
        std::printf("streamed %llu candidate(s): %llu archived, %llu "
                    "promoted to ground truth, ADRS %.4f\n",
                    static_cast<unsigned long long>(res.stats.streamed),
                    static_cast<unsigned long long>(res.stats.archived),
                    static_cast<unsigned long long>(res.stats.promoted),
                    res.adrs_value);
        print_frontier(res.true_front);
        return 0;
    }

    dse::ExplorerConfig cfg;
    cfg.total_budget = a.get_double("budget", cfg.total_budget);
    const dse::Explorer explorer(cfg);
    const dse::DseResult res = explorer.run(
        dataset::pool_of(suite[tgt]), pg, dataset::PowerKind::Dynamic);
    std::printf("explored %zu/%d designs (budget %.0f%%), ADRS %.4f\n",
                res.sampled.size(), suite[tgt].size(), 100 * cfg.total_budget,
                res.adrs_value);
    std::printf("%-14s %12s %14s\n", "frontier", "latency", "dyn power (W)");
    for (const auto& p : res.approx_front)
        std::printf("%-14s %12.0f %14.4f\n",
                    ("design#" + std::to_string(p.index)).c_str(), p.latency,
                    p.power);
    return 0;
}

// The daemon the signal handlers poke. Handlers may only touch lock-free
// atomics, which is exactly what poke_stop/poke_reload are.
core::serve::Server* g_server = nullptr;

void serve_signal(int sig) {
    if (!g_server) return;
    if (sig == SIGHUP)
        g_server->poke_reload();
    else
        g_server->poke_stop();
}

int cmd_serve(const Parsed& a) {
    const std::string socket = a.get("socket");
    if (socket.empty()) {
        std::fprintf(stderr,
                     "error: serve needs --socket PATH (or POWERGEAR_SOCKET)\n");
        return 1;
    }

    // Client one-shots against a running daemon.
    if (a.flag("ping") || a.flag("reload") || a.flag("stop")) {
        core::serve::Client client(socket);
        if (a.flag("ping")) {
            const auto info = client.ping();
            std::printf("pong: generation %llu, %u member(s)\n",
                        static_cast<unsigned long long>(info.generation),
                        info.members);
        }
        if (a.flag("reload")) {
            const auto info = client.reload();
            std::printf("reloaded: generation %llu, %u member(s)\n",
                        static_cast<unsigned long long>(info.generation),
                        info.members);
        }
        if (a.flag("stop")) {
            client.shutdown_server();
            std::printf("server draining\n");
        }
        return 0;
    }

    if (!a.has("model")) {
        std::fprintf(stderr, "error: serve needs --model M.pgm "
                             "(or --ping/--reload/--stop for a running "
                             "daemon)\n");
        return 1;
    }
    core::serve::ServerConfig cfg;
    cfg.socket_path = socket;
    cfg.model_path = a.get("model");
    cfg.max_batch = a.get_int("max-batch", cfg.max_batch);
    cfg.batch_window_us = a.get_int("batch-window-us", cfg.batch_window_us);
    cfg.max_queue = a.get_int("max-queue", cfg.max_queue);

    core::serve::Server server(cfg);
    g_server = &server;
    for (const int sig : {SIGHUP, SIGTERM, SIGINT})
        std::signal(sig, serve_signal);
    server.start();
    std::fprintf(stderr,
                 "serve: listening on %s (model %s, %llu member(s); "
                 "SIGHUP reloads, SIGTERM drains)\n",
                 socket.c_str(), cfg.model_path.c_str(),
                 static_cast<unsigned long long>(server.generation()));
    server.wait();
    for (const int sig : {SIGHUP, SIGTERM, SIGINT}) std::signal(sig, SIG_DFL);
    g_server = nullptr;
    const core::serve::Server::Stats st = server.stats();
    std::fprintf(stderr,
                 "serve: drained: %llu request(s) in %llu batch(es), "
                 "%llu reload(s), %llu error(s)\n",
                 static_cast<unsigned long long>(st.requests),
                 static_cast<unsigned long long>(st.batches),
                 static_cast<unsigned long long>(st.reloads),
                 static_cast<unsigned long long>(st.errors));
    return 0;
}

int cmd_lint(const Parsed& a) {
    // "lint <kernel>" or "lint --kernel <kernel>"; no kernel = the paper's
    // nine-kernel suite; --all = every registered kernel (paper + extended).
    std::vector<std::string> names;
    if (a.flag("all")) {
        names = kernels::polybench_names();
        for (const std::string& n : kernels::extended_kernel_names())
            names.push_back(n);
    } else if (!a.positional().empty()) {
        names.push_back(a.positional().front());
    } else if (a.has("kernel")) {
        names.push_back(a.get("kernel"));
    } else {
        names = kernels::polybench_names();
    }

    analysis::LintOptions lo;
    lo.design_points = a.get_int("points", lo.design_points);
    lo.seed = a.get_int("seed", lo.seed);
    const int size = generator_options(a).problem_size;
    const bool json = a.flag("json");

    analysis::Report all;
    for (const std::string& name : names) {
        const ir::Function fn = kernels::build_polybench(name, size);
        all.merge(analysis::lint_kernel(fn, lo));
    }
    if (a.has("sarif")) {
        const std::string path = a.get("sarif");
        if (!analysis::write_sarif(all, path)) {
            std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
            return 1;
        }
        std::fprintf(stderr, "lint: wrote SARIF report to %s\n", path.c_str());
    }
    if (json) {
        std::printf("%s\n", all.render_json().c_str());
    } else {
        std::printf("%s", all.render_text().c_str());
        std::printf("lint: %d kernel(s), %d design point(s) each: "
                    "%d diagnostic(s) (%d error(s), %d warning(s))\n",
                    static_cast<int>(names.size()), lo.design_points,
                    all.size(), all.errors(), all.warnings());
    }
    // Exit contract: 0 = no Error-severity findings (warnings/notes are
    // advisory), 2 = at least one Error, 1 = operational failure above.
    return all.errors() > 0 ? 2 : 0;
}

int cmd_cache(const Parsed& a) {
    const std::string action =
        a.positional().empty() ? "stats" : a.positional().front();
    if (action != "stats" && action != "clear")
        throw UsageError("cache action must be 'stats' or 'clear' (got '" +
                         action + "')");
    const io::Cache cache(a.get("cache-dir"));
    if (!cache.enabled()) {
        std::fprintf(stderr,
                     "error: cache %s needs --cache-dir DIR or "
                     "POWERGEAR_CACHE=DIR\n",
                     action.c_str());
        return 1;
    }
    if (action == "clear") {
        const std::uint64_t removed = cache.clear();
        std::printf("removed %llu cached artifact(s) from %s\n",
                    static_cast<unsigned long long>(removed),
                    cache.root().c_str());
        return 0;
    }
    const std::vector<io::Cache::StageStats> stats = cache.stats();
    util::Table table({"stage", "artifacts", "bytes"});
    std::uint64_t files = 0, bytes = 0;
    for (const io::Cache::StageStats& st : stats) {
        table.add_row({st.stage, std::to_string(st.files),
                       std::to_string(st.bytes)});
        files += st.files;
        bytes += st.bytes;
    }
    std::printf("%s", table.to_ascii().c_str());
    std::printf("cache %s: %llu artifact(s), %llu bytes\n",
                cache.root().c_str(), static_cast<unsigned long long>(files),
                static_cast<unsigned long long>(bytes));
    return 0;
}

int cmd_version(const Parsed&) {
    // One "name version" pair per line, grep-friendly for scripts and CI.
    std::printf("powergear-artifact %s\n", io::kArtifactFormatName);
    std::printf("powergear-metrics powergear-obs-v1\n");
    std::printf("powergear-model-payload %u\n",
                static_cast<unsigned>(io::kModelPayloadVersion));
    return 0;
}

// Every command, as data: dispatch, "did you mean" and usage all read it.
constexpr util::cli::CommandSpec kCommands[] = {
    {"gen", "generate one dataset and print its designs", cmd_gen},
    {"train", "train an ensemble on --kernels and save it to --out",
     cmd_train},
    {"estimate", "estimate every design of --kernel with --model vs. labels",
     cmd_estimate},
    {"dse",
     "explore a kernel's design space under an estimation --budget, with "
     "--stream, or as a sharded sweep (--shard on each worker, then --merge)",
     cmd_dse},
    {"serve",
     "run the estimation daemon: load --model once and answer batched "
     "requests on --socket; SIGHUP hot-swaps the model, SIGTERM drains. "
     "With --ping, --reload or --stop, talk to a running daemon instead",
     cmd_serve},
    {"lint",
     "static-check the pipeline artifacts of a kernel (positional or "
     "--kernel; default: the paper's nine). Exit 0 = no errors, 2 = error "
     "diagnostics, 1 = operational failure",
     cmd_lint},
    {"cache", "stats | clear: inspect or empty the --cache-dir pipeline cache",
     cmd_cache},
    {"version", "print the on-disk format versions (also: --version)",
     cmd_version},
};

} // namespace

int main(int argc, char** argv) {
    std::vector<const char*> args_v(argv, argv + argc);
    if (argc >= 2 && std::strcmp(argv[1], "--version") == 0)
        args_v[1] = "version";
    try {
        const Parsed args = util::cli::parse(argc, args_v.data(), kSpecs,
                                             kCommands);
        const util::cli::CommandSpec* cmd = args.command_spec();
        if (!cmd) {
            const std::string hint =
                util::cli::closest(args.command(), kCommands);
            if (!args.command().empty() && !hint.empty())
                std::fprintf(stderr,
                             "error: unknown command '%s' (did you mean "
                             "'%s'?)\n\n",
                             args.command().c_str(), hint.c_str());
            std::printf("powergear — early-stage HLS power estimation "
                        "(PowerGear reproduction)\n\n"
                        "usage: powergear <command> [options]\n\n%s",
                        util::cli::render_usage(kSpecs, kCommands).c_str());
            return args.command().empty() ? 0 : 1;
        }
        apply_jobs(args);
        const std::string metrics = args.get("metrics");
        if (!metrics.empty()) {
            obs::set_enabled(true);
            obs::reset();
        }
        const int rc = cmd->run(args);
        metrics_end(metrics);
        return rc;
    } catch (const UsageError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::fprintf(stderr,
                     "run 'powergear' with no arguments for usage\n");
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
