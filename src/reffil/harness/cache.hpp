// On-disk experiment-result cache.
//
// Several bench binaries share experiment cells (Table 1 and Table 3 are two
// views of the same runs; Figures 4-6 reuse Table 1's curricula). Each cell
// — (dataset, domain order, method, seed, scale) — is memoised in a small
// binary file under REFFIL_CACHE_DIR (default: ./reffil_cache), so running
// the whole bench suite costs one federated run per unique cell.
#pragma once

#include <optional>
#include <string>

#include "reffil/fed/runtime.hpp"

namespace reffil::harness {

/// Cache directory (creates it on first use). Overridable with the
/// REFFIL_CACHE_DIR environment variable; caching is disabled entirely when
/// REFFIL_CACHE_DIR=off.
std::string cache_directory();
bool cache_enabled();

/// Cache file header: every `.cell` entry starts with kCacheMagic then
/// kCacheVersion (little-endian u32 each). Foreign files fail the magic;
/// entries from other format revisions fail the version — both are rejected
/// (and deleted by cache_load) instead of being decoded into garbage. The
/// body is a walk over RunResult's field list (fed/result.hpp): the list is
/// the encoding, so a member added to a listed struct is cached without any
/// serializer edit, and changes the layout — bump kCacheVersion with it.
/// v1–v5 were hand-written encodings that each fixed a forgotten field; v6
/// is the field-list walk; v7 drops MonitorSummary's three time-series
/// sample counts; v8 adds RoundStats' messages and raw-equivalent bytes; v9
/// has the same layout, but faulted dense and uncompressed DES cells changed
/// low bits (every round folds through the one streaming sink).
inline constexpr std::uint32_t kCacheMagic = 0x4C464652u;  // "RFFL"
inline constexpr std::uint32_t kCacheVersion = 9;

/// Stable key for one experiment cell. `fault_tag` is the canonical
/// FaultProfile::tag() of the run, with DesConfig::tag() appended when the
/// discrete-event federation is enabled — empty for the default dense
/// zero-fault run, so every pre-existing cell key is unchanged; an armed
/// profile or DES config hashes to a distinct key instead of aliasing the
/// clean run's cached result.
std::string cache_key(const std::string& dataset_name,
                      const std::string& domain_order_tag,
                      const std::string& method_name, std::uint64_t seed,
                      const std::string& scale_tag,
                      const std::string& fault_tag = "");

std::optional<fed::RunResult> cache_load(const std::string& key);
void cache_store(const std::string& key, const fed::RunResult& result);

/// Serialization of RunResult (used by the cache and tested directly).
void serialize_run_result(const fed::RunResult& result, util::ByteWriter& writer);
fed::RunResult deserialize_run_result(util::ByteReader& reader);

}  // namespace reffil::harness
