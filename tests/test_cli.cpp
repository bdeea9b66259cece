// util::cli tests: declarative option table parsing, precedence (command
// line > env > spec default > call-site fallback), per-command
// applicability, type validation at parse time, unknown-flag and
// unknown-command suggestions, and the usage text generated from the
// tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "util/cli.hpp"

using namespace powergear::util;

namespace {

constexpr cli::OptionSpec kSpecs[] = {
    {"kernel", cli::OptType::String, "gemm", "", "gen,estimate", "kernel"},
    {"samples", cli::OptType::Int, "24", "", "gen", "sample count"},
    {"budget", cli::OptType::Double, "0.4", "", "dse", "budget"},
    {"json", cli::OptType::Flag, "", "", "gen", "JSON output"},
    {"metrics", cli::OptType::String, "", "PGTEST_METRICS", "*", "metrics"},
};

int run_nothing(const cli::Parsed&) { return 0; }

constexpr cli::CommandSpec kCommands[] = {
    {"gen", "generate a dataset", run_nothing},
    {"estimate", "estimate power", run_nothing},
    {"dse", "explore the design space", run_nothing},
};

cli::Parsed parse(std::initializer_list<const char*> argv) {
    std::vector<const char*> v{"powergear"};
    v.insert(v.end(), argv.begin(), argv.end());
    return cli::parse(static_cast<int>(v.size()), v.data(), kSpecs, kCommands);
}

/// RAII env var for the fallback tests.
struct ScopedEnv {
    std::string name;
    ScopedEnv(const char* n, const char* value) : name(n) {
        ::setenv(n, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

} // namespace

TEST(Cli, ResolvesPrecedenceCommandLineOverEnvOverDefault) {
    ScopedEnv env("PGTEST_METRICS", "from_env.json");
    const cli::Parsed explicit_win =
        parse({"gen", "--metrics", "cli.json", "--samples", "7"});
    EXPECT_EQ(explicit_win.get("metrics"), "cli.json");
    EXPECT_EQ(explicit_win.get_int("samples", -1), 7);
    // get_int returns the fallback's type, so config fields of any integer
    // type read as cfg.x = get_int("x", cfg.x).
    const std::uint64_t wide = explicit_win.get_int("samples", std::uint64_t{1});
    EXPECT_EQ(wide, 7u);

    const cli::Parsed env_win = parse({"gen"});
    EXPECT_EQ(env_win.get("metrics"), "from_env.json");
    EXPECT_TRUE(env_win.has("metrics")); // env counts as explicitly set

    // Spec default, then call-site fallback.
    EXPECT_EQ(env_win.get("kernel"), "gemm");
    EXPECT_FALSE(env_win.has("kernel")); // defaults are not "set"
    EXPECT_EQ(env_win.get_int("samples", -1), 24);
}

TEST(Cli, FlagsPositionalsAndCommand) {
    const cli::Parsed p = parse({"gen", "pos1", "--json", "pos2"});
    EXPECT_EQ(p.command(), "gen");
    ASSERT_NE(p.command_spec(), nullptr);
    EXPECT_STREQ(p.command_spec()->name, "gen");
    EXPECT_EQ(parse({"bogus"}).command_spec(), nullptr);
    EXPECT_EQ(parse({}).command_spec(), nullptr);
    EXPECT_TRUE(p.flag("json"));
    ASSERT_EQ(p.positional().size(), 2u);
    EXPECT_EQ(p.positional()[0], "pos1");
    EXPECT_EQ(p.positional()[1], "pos2");
    EXPECT_FALSE(parse({"gen"}).flag("json"));
}

TEST(Cli, TypeValidationAtParseTime) {
    EXPECT_THROW(parse({"gen", "--samples", "many"}), cli::UsageError);
    EXPECT_THROW(parse({"dse", "--budget", "0.4x"}), cli::UsageError);
    EXPECT_NO_THROW(parse({"dse", "--budget", "0.5"}));
    EXPECT_THROW(parse({"gen", "--samples"}), cli::UsageError); // no value
    // A value that looks like an option is a missing value, not a value.
    EXPECT_THROW(parse({"gen", "--kernel", "--json"}), cli::UsageError);
}

TEST(Cli, ApplicabilityEnforcedPerCommand) {
    EXPECT_NO_THROW(parse({"gen", "--samples", "5"}));
    try {
        parse({"estimate", "--samples", "5"});
        FAIL() << "--samples must not apply to estimate";
    } catch (const cli::UsageError& e) {
        EXPECT_NE(std::string(e.what()).find("does not apply"),
                  std::string::npos);
    }
    // "*" applies everywhere; unknown commands skip the applicability check
    // (the caller rejects the command itself).
    EXPECT_NO_THROW(parse({"dse", "--metrics", "m.json"}));
    EXPECT_NO_THROW(parse({"bogus", "--samples", "5"}));
}

TEST(Cli, UnknownOptionSuggestsNearestName) {
    try {
        parse({"gen", "--sampels", "5"});
        FAIL() << "unknown option accepted";
    } catch (const cli::UsageError& e) {
        EXPECT_NE(std::string(e.what()).find("did you mean --samples"),
                  std::string::npos)
            << e.what();
    }
    // Nothing within distance 2: no misleading suggestion.
    try {
        parse({"gen", "--frobnicate"});
        FAIL() << "unknown option accepted";
    } catch (const cli::UsageError& e) {
        EXPECT_EQ(std::string(e.what()).find("did you mean"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Cli, EditDistanceAndClosest) {
    EXPECT_EQ(cli::edit_distance("kitten", "sitting"), 3u);
    EXPECT_EQ(cli::edit_distance("", "abc"), 3u);
    EXPECT_EQ(cli::edit_distance("same", "same"), 0u);
    const std::vector<std::string> cands = {"serve", "estimate", "gen"};
    EXPECT_EQ(cli::closest("sevre", cands), "serve");
    EXPECT_EQ(cli::closest("zzzzzz", cands), "");
    EXPECT_EQ(cli::closest("gne", kCommands), "gen");
    EXPECT_EQ(cli::closest("zzzzzz", kCommands), "");
}

TEST(Cli, UsageIsGeneratedFromTheTables) {
    const std::string usage = cli::render_usage(kSpecs, kCommands);
    for (const cli::CommandSpec& c : kCommands) {
        EXPECT_NE(usage.find(std::string(c.name) + " "), std::string::npos)
            << c.name;
        EXPECT_NE(usage.find(c.summary), std::string::npos) << c.name;
    }
    // Each option gets exactly one entry: a "--name <placeholder>" line
    // with its help, then a note line with commands, default and env.
    const auto entry_of = [&](const std::string& head) {
        std::size_t count = 0, at = std::string::npos;
        for (std::size_t pos = usage.find("\n  " + head + " ");
             pos != std::string::npos;
             pos = usage.find("\n  " + head + " ", pos + 1)) {
            ++count;
            at = pos + 1;
        }
        EXPECT_EQ(count, 1u) << head;
        if (at == std::string::npos) return std::string();
        const std::size_t next = usage.find("\n  --", at);
        return usage.substr(at, next == std::string::npos ? std::string::npos
                                                          : next - at);
    };
    const std::string kernel = entry_of("--kernel <text>");
    EXPECT_NE(kernel.find("[gen,estimate; default gemm]"), std::string::npos)
        << kernel;
    const std::string samples = entry_of("--samples <int>");
    EXPECT_NE(samples.find("sample count"), std::string::npos) << samples;
    EXPECT_NE(samples.find("[gen; default 24]"), std::string::npos)
        << samples;
    EXPECT_NE(entry_of("--budget <num>").find("[dse; default 0.4]"),
              std::string::npos);
    const std::string json = entry_of("--json");
    EXPECT_NE(json.find("JSON output"), std::string::npos) << json;
    EXPECT_NE(json.find("[gen]"), std::string::npos) << json;
    EXPECT_NE(entry_of("--metrics <text>")
                  .find("[all commands; env PGTEST_METRICS]"),
              std::string::npos);
}
