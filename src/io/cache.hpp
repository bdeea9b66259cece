// Content-addressed pipeline cache.
//
// Each pipeline stage's output is stored as one powergear-art-v1 artifact
// under `<root>/<stage>/<16-hex-key>.art`, where the key is a FNV-1a hash
// (io::Hasher) of everything the stage's output depends on: container and
// payload format versions, kernel IR hash, stage options, and the upstream
// stage's artifact checksum. Re-running with identical inputs therefore
// resolves to the same file, and any input change (different pragma config,
// new stimulus seed, bumped payload schema) misses cleanly — there is no
// invalidation protocol, stale entries are simply never addressed again.
//
// The cache is advisory: lookups that find a missing, truncated or corrupt
// file report a miss (counted separately) and the caller recomputes, so a
// damaged cache can slow a run down but never change its results. Stores
// write a unique temp file and rename it into place, which makes concurrent
// stores of the same key from parallel workers benign.
//
// Hits, misses, stores and corrupt-file rejections are counted through
// src/obs under the "cache" phase and surface in `--metrics` reports; the
// CLI's `powergear cache {stats,clear}` operates on the same directory
// layout. A default-constructed (or empty-rooted) cache is disabled: every
// lookup misses silently and stores are dropped. The library never reads
// POWERGEAR_CACHE itself: the CLI resolves --cache-dir and its env fallback
// through its option table and passes the root in.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/artifact.hpp"

namespace powergear::io {

class Cache {
public:
    /// Disabled cache (all lookups miss, stores drop).
    Cache() = default;

    /// Cache rooted at `root`; empty = disabled. The directory tree is
    /// created lazily on first store.
    explicit Cache(std::string root) : root_(std::move(root)) {}

    bool enabled() const { return !root_.empty(); }
    const std::string& root() const { return root_; }

    /// File that would hold (stage, key).
    std::string path_of(const std::string& stage, std::uint64_t key) const;

    /// Validated payload lookup. Returns the artifact payload on a hit;
    /// nullopt on a miss. A file that exists but fails validation (wrong
    /// stage, version drift, checksum mismatch, truncation) is a miss and
    /// additionally bumps the "corrupt" counter.
    std::optional<std::vector<std::uint8_t>> load(
        const std::string& stage, std::uint64_t key,
        std::uint32_t payload_version) const;

    /// Header-only probe: the stored artifact's payload checksum, without
    /// reading or verifying the payload. Used to chain a downstream stage's
    /// key off the upstream artifact hash without materializing it.
    std::optional<std::uint64_t> peek_checksum(
        const std::string& stage, std::uint64_t key,
        std::uint32_t payload_version) const;

    /// Frame and persist a stage payload under its key (atomic rename).
    /// Returns the payload checksum (the downstream chaining hash).
    /// Disabled caches still return the checksum but write nothing.
    std::uint64_t store(const std::string& stage, std::uint64_t key,
                        std::uint32_t payload_version,
                        std::vector<std::uint8_t> payload) const;

    struct StageStats {
        std::string stage;
        std::uint64_t files = 0;
        std::uint64_t bytes = 0;
    };

    /// Per-stage entry counts and sizes (sorted by stage name).
    std::vector<StageStats> stats() const;

    /// Delete every cached artifact; returns the number of files removed.
    std::uint64_t clear() const;

    /// Path of a named (non-content-addressed) sidecar file inside a stage
    /// directory, creating the directory on the way. Used for coordination
    /// files that live next to the artifacts they govern — e.g. the DSE
    /// shard manifest (io::Manifest) under `<root>/dse/`. Throws
    /// std::runtime_error on a disabled cache.
    std::string sidecar_path(const std::string& stage,
                             const std::string& name) const;

private:
    std::string root_;
};

} // namespace powergear::io
