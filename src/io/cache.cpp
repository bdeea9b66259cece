#include "io/cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "obs/obs.hpp"

namespace fs = std::filesystem;

namespace powergear::io {

namespace {

std::string hex_key(std::uint64_t key) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

} // namespace

std::string Cache::path_of(const std::string& stage, std::uint64_t key) const {
    return root_ + "/" + stage + "/" + hex_key(key) + ".art";
}

std::optional<std::vector<std::uint8_t>> Cache::load(
    const std::string& stage, std::uint64_t key,
    std::uint32_t payload_version) const {
    if (!enabled()) return std::nullopt;
    std::optional<std::vector<std::uint8_t>> file =
        read_file(path_of(stage, key));
    if (!file) {
        obs::add(obs::Phase::Cache, "misses");
        return std::nullopt;
    }
    try {
        std::vector<std::uint8_t> payload =
            unframe(*file, stage, payload_version);
        obs::add(obs::Phase::Cache, "hits");
        return payload;
    } catch (const std::runtime_error&) {
        // A damaged cache entry must never fail the run: count it and let
        // the caller recompute (the store below will overwrite it).
        obs::add(obs::Phase::Cache, "corrupt");
        obs::add(obs::Phase::Cache, "misses");
        return std::nullopt;
    }
}

std::optional<std::uint64_t> Cache::peek_checksum(
    const std::string& stage, std::uint64_t key,
    std::uint32_t payload_version) const {
    if (!enabled()) return std::nullopt;
    const std::optional<ArtifactInfo> info = peek_file(path_of(stage, key));
    if (!info || info->stage != stage ||
        info->payload_version != payload_version) {
        obs::add(obs::Phase::Cache, "misses");
        return std::nullopt;
    }
    obs::add(obs::Phase::Cache, "hits");
    return info->checksum;
}

std::uint64_t Cache::store(const std::string& stage, std::uint64_t key,
                           std::uint32_t payload_version,
                           std::vector<std::uint8_t> payload) const {
    const std::uint64_t checksum = fnv1a(payload.data(), payload.size());
    if (!enabled()) return checksum;
    std::error_code ec;
    fs::create_directories(fs::path(root_) / stage, ec);
    if (ec) return checksum; // unwritable cache degrades to a no-op
    try {
        write_file_atomic(path_of(stage, key),
                          frame(stage, payload_version, std::move(payload)));
        obs::add(obs::Phase::Cache, "stores");
    } catch (const std::runtime_error&) {
        // Disk-full or permission trouble: the run proceeds uncached.
    }
    return checksum;
}

std::string Cache::sidecar_path(const std::string& stage,
                                const std::string& name) const {
    if (!enabled())
        throw std::runtime_error(
            "cache: sidecar_path requires an enabled cache (set --cache-dir "
            "or POWERGEAR_CACHE)");
    std::error_code ec;
    fs::create_directories(fs::path(root_) / stage, ec);
    if (ec)
        throw std::runtime_error("cache: cannot create " + root_ + "/" +
                                 stage + ": " + ec.message());
    return root_ + "/" + stage + "/" + name;
}

std::vector<Cache::StageStats> Cache::stats() const {
    std::vector<StageStats> out;
    if (!enabled()) return out;
    std::error_code ec;
    for (const fs::directory_entry& stage_dir :
         fs::directory_iterator(root_, ec)) {
        if (!stage_dir.is_directory()) continue;
        StageStats s;
        s.stage = stage_dir.path().filename().string();
        std::error_code ec2;
        for (const fs::directory_entry& f :
             fs::directory_iterator(stage_dir.path(), ec2)) {
            if (!f.is_regular_file() || f.path().extension() != ".art")
                continue;
            ++s.files;
            s.bytes += static_cast<std::uint64_t>(f.file_size());
        }
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const StageStats& a, const StageStats& b) {
                  return a.stage < b.stage;
              });
    return out;
}

std::uint64_t Cache::clear() const {
    std::uint64_t removed = 0;
    if (!enabled()) return removed;
    std::error_code ec;
    for (const fs::directory_entry& stage_dir :
         fs::directory_iterator(root_, ec)) {
        if (!stage_dir.is_directory()) continue;
        std::error_code ec2;
        for (const fs::directory_entry& f :
             fs::directory_iterator(stage_dir.path(), ec2)) {
            if (!f.is_regular_file() || f.path().extension() != ".art")
                continue;
            std::error_code ec3;
            if (fs::remove(f.path(), ec3)) ++removed;
        }
    }
    return removed;
}

} // namespace powergear::io
