#include "reffil/harness/cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "reffil/util/error.hpp"
#include "reffil/util/logging.hpp"

namespace reffil::harness {

namespace fs = std::filesystem;

std::string cache_directory() {
  const char* env = std::getenv("REFFIL_CACHE_DIR");
  std::string dir = env != nullptr ? env : "reffil_cache";
  if (dir == "off") return dir;
  std::error_code ec;
  fs::create_directories(dir, ec);  // best effort; load/store handle failure
  return dir;
}

bool cache_enabled() {
  const char* env = std::getenv("REFFIL_CACHE_DIR");
  return env == nullptr || std::string(env) != "off";
}

std::string cache_key(const std::string& dataset_name,
                      const std::string& domain_order_tag,
                      const std::string& method_name, std::uint64_t seed,
                      const std::string& scale_tag,
                      const std::string& fault_tag) {
  // FNV-1a over the identifying string keeps file names short and safe.
  // The fault tag is appended only when non-empty so zero-fault runs keep
  // the exact keys (and thus cached cells) they had before faults existed.
  const std::string id = dataset_name + "|" + domain_order_tag + "|" +
                         method_name + "|" + std::to_string(seed) + "|" +
                         scale_tag +
                         (fault_tag.empty() ? "" : "|" + fault_tag);
  std::uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : id) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buffer) + ".cell";
}

namespace {

// The cache encoding is a walk over RunResult's field list: each listed
// member in order, little-endian; bools as one byte (0/1), strings and
// vectors as a u64 length then their contents, nested structs inline.
struct Encoder {
  util::ByteWriter& out;

  template <class T>
  void operator()(const char*, const T& v) {
    put(v);
  }
  template <class T>
  void put(const T& v) {
    if constexpr (util::HasFields<T>) {
      T::fields(v, *this);
    } else if constexpr (util::kIsVector<T>) {
      out.write_u64(v.size());
      for (const auto& e : v) put(e);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out.write_string(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      out.write_pod<std::uint8_t>(v ? 1 : 0);
    } else {
      out.write_pod(v);
    }
  }
};

struct Decoder {
  util::ByteReader& in;

  template <class T>
  void operator()(const char*, T& v) {
    get(v);
  }
  template <class T>
  void get(T& v) {
    if constexpr (util::HasFields<T>) {
      T::fields(v, *this);
    } else if constexpr (util::kIsVector<T>) {
      // Every element encodes to at least one byte, so a count beyond the
      // remaining bytes is corrupt; growing one element at a time keeps a
      // truncated entry from allocating more than it decodes.
      const std::uint64_t n = in.read_u64();
      if (n > in.remaining()) {
        throw SerializationError("implausible element count " +
                                 std::to_string(n));
      }
      v.clear();
      for (std::uint64_t i = 0; i < n; ++i) get(v.emplace_back());
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = in.read_string();
    } else if constexpr (std::is_same_v<T, bool>) {
      const auto byte = in.read_pod<std::uint8_t>();
      if (byte > 1) throw SerializationError("corrupt bool field");
      v = byte == 1;
    } else {
      v = in.read_pod<T>();
    }
  }
};

}  // namespace

void serialize_run_result(const fed::RunResult& result, util::ByteWriter& writer) {
  writer.write_u32(kCacheMagic);
  writer.write_u32(kCacheVersion);
  Encoder{writer}.put(result);
}

fed::RunResult deserialize_run_result(util::ByteReader& reader) {
  const auto magic = reader.read_u32();
  if (magic != kCacheMagic) {
    throw SerializationError("not a reffil cache entry (bad magic)");
  }
  const auto version = reader.read_u32();
  if (version != kCacheVersion) {
    throw SerializationError("unsupported cache format version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kCacheVersion) + ")");
  }
  fed::RunResult result;
  Decoder{reader}.get(result);
  return result;
}

std::optional<fed::RunResult> cache_load(const std::string& key) {
  if (!cache_enabled()) return std::nullopt;
  const fs::path path = fs::path(cache_directory()) / key;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  in.close();
  try {
    util::ByteReader reader(bytes);
    fed::RunResult result = deserialize_run_result(reader);
    if (!reader.exhausted()) {
      // Field sizes of a foreign/old format can happen to line up with ours;
      // trailing bytes are the tell that this entry is not a clean v-current
      // encoding, so treat it as corrupt rather than returning garbage.
      throw SerializationError("trailing bytes after run result");
    }
    return result;
  } catch (const Error& e) {
    // Delete, don't just skip: a corrupt/old-format entry would otherwise be
    // re-read and re-rejected on every invocation of every bench binary.
    REFFIL_LOG_WARN << "deleting unreadable cache entry " << path.string()
                    << " (" << e.what() << ")";
    std::error_code ec;
    fs::remove(path, ec);
    return std::nullopt;
  }
}

void cache_store(const std::string& key, const fed::RunResult& result) {
  if (!cache_enabled()) return;
  util::ByteWriter writer;
  serialize_run_result(result, writer);
  const fs::path path = fs::path(cache_directory()) / key;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    REFFIL_LOG_WARN << "cannot write cache entry " << path.string();
    return;
  }
  out.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.bytes().size()));
}

}  // namespace reffil::harness
