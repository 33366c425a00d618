#include "harness/artifact_store.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include <unistd.h>

#include "common/logging.hh"
#include "common/serial.hh"
#include "telemetry/profiler.hh"
#include "telemetry/stat_registry.hh"

namespace mcd
{

namespace
{

// Process-wide disk I/O counters: every DiskStore instance feeds the
// same pair, so `metrics` reports total artifact-store traffic.
telemetry::Counter &
diskReadBytes()
{
    static telemetry::Counter &c =
        telemetry::StatRegistry::instance().counter(
            "store.disk.read_bytes");
    return c;
}

telemetry::Counter &
diskWriteBytes()
{
    static telemetry::Counter &c =
        telemetry::StatRegistry::instance().counter(
            "store.disk.write_bytes");
    return c;
}

} // namespace

namespace fs = std::filesystem;

// ------------------------------------------------------- MemoryStore

bool
MemoryStore::get(const std::string &key, std::string &blob)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end())
        return false;
    blob = it->second;
    return true;
}

void
MemoryStore::put(const std::string &key, const std::string &blob,
                 const std::string &provenance)
{
    (void)provenance; // meaningful only for persistent backends
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end())
        bytes_ -= it->second.size();
    bytes_ += blob.size();
    map_[key] = blob;
}

std::size_t
MemoryStore::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

std::uint64_t
MemoryStore::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

void
MemoryStore::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    bytes_ = 0;
}

// --------------------------------------------------------- DiskStore

namespace
{

/**
 * Entry file layout (everything after the magic built with
 * common/serial.hh): magic "MCDA", u64 format version, length-prefixed
 * key, length-prefixed blob, u64 FNV-1a checksum of all preceding
 * bytes. The key makes 64-bit-hash file-name collisions detectable
 * (the stored key simply wins the file; the loser re-reads as a miss
 * and recomputes), and the trailing checksum catches torn or
 * bit-rotted files.
 */
constexpr char MAGIC[4] = {'M', 'C', 'D', 'A'};
constexpr std::uint64_t FORMAT_VERSION = 1;

constexpr const char *ENTRY_EXT = ".mcda";
constexpr const char *SIDECAR_EXT = ".meta";

std::string
hexHash(const std::string &key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(serial::fnv1a(key)));
    return buf;
}

bool
isHexStem(const std::string &stem)
{
    if (stem.size() != 16)
        return false;
    for (char c : stem)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return true;
}

/** Exactly `<16 hex>` + `ext` — the only names the store writes. */
bool
hasStoreName(const std::string &name, const char *ext)
{
    std::string suffix(ext);
    if (name.size() != 16 + suffix.size() ||
        name.compare(16, suffix.size(), suffix) != 0)
        return false;
    return isHexStem(name.substr(0, 16));
}

/**
 * A temp file this store wrote: `<16 hex>.<mcda|meta>.tmp.<pid>.<n>`.
 * The prefix must match exactly so a sweep can never unlink a foreign
 * file that merely contains ".tmp." somewhere in its name.
 */
bool
isTempName(const std::string &name)
{
    for (const char *ext : {ENTRY_EXT, SIDECAR_EXT}) {
        std::string prefix = std::string(ext) + ".tmp.";
        if (name.size() > 16 + prefix.size() &&
            name.compare(16, prefix.size(), prefix) == 0 &&
            isHexStem(name.substr(0, 16)))
            return true;
    }
    return false;
}

std::int64_t
fileAgeSeconds(const fs::path &path, std::error_code &ec)
{
    auto mtime = fs::last_write_time(path, ec);
    if (ec)
        return 0;
    auto age = std::chrono::duration_cast<std::chrono::seconds>(
        fs::file_time_type::clock::now() - mtime);
    return std::max<std::int64_t>(0, age.count());
}

/**
 * Unique-temp-then-rename: the only write pattern in the store, so
 * readers never observe partial files. Fatal when `fatal_on_error`
 * (entry writes must not be silently lost); best-effort otherwise
 * (sidecars are advisory metadata).
 */
void
atomicWrite(const fs::path &final_path, const std::string &data,
            bool fatal_on_error)
{
    static std::atomic<std::uint64_t> counter{0};
    fs::path tmp_path = final_path;
    tmp_path += ".tmp." + std::to_string(::getpid()) + "." +
                std::to_string(counter.fetch_add(1));

    {
        std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
        if (!out.good()) {
            std::error_code ec;
            fs::remove(tmp_path, ec);
            if (fatal_on_error)
                mcd_fatal("cannot write artifact store entry '%s'",
                          tmp_path.string().c_str());
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
        fs::remove(tmp_path, ec);
        if (fatal_on_error)
            mcd_fatal("cannot finalize artifact store entry '%s'",
                      final_path.string().c_str());
    }
}

} // namespace

DiskStore::DiskStore(const std::string &root)
    : root_(root)
{
    if (root_.empty())
        mcd_fatal("DiskStore needs a non-empty root directory");
    std::error_code ec;
    fs::create_directories(root_, ec);
    if (ec || !fs::is_directory(root_))
        mcd_fatal("cannot create artifact store root '%s': %s",
                  root_.c_str(), ec.message().c_str());
}

std::string
DiskStore::pathFor(const std::string &key) const
{
    return (fs::path(root_) / (hexHash(key) + ENTRY_EXT)).string();
}

std::string
DiskStore::sidecarPathFor(const std::string &key) const
{
    return (fs::path(root_) / (hexHash(key) + SIDECAR_EXT)).string();
}

bool
DiskStore::get(const std::string &key, std::string &blob)
{
    telemetry::ScopedTimer timer(telemetry::Phase::DiskRead);
    std::ifstream in(pathFor(key), std::ios::binary);
    if (!in)
        return false;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    diskReadBytes().inc(data.size());
    if (!in.good() && !in.eof())
        return false;

    if (data.size() < sizeof(MAGIC) + sizeof(std::uint64_t) ||
        data.compare(0, sizeof(MAGIC), MAGIC, sizeof(MAGIC)) != 0)
        return false;
    std::string body = data.substr(
        sizeof(MAGIC), data.size() - sizeof(MAGIC) - sizeof(std::uint64_t));
    std::string tail = data.substr(data.size() - sizeof(std::uint64_t));
    serial::Reader checks(tail);
    if (checks.readU64() !=
        serial::fnv1a(data.substr(0, data.size() - sizeof(std::uint64_t))))
        return false;

    serial::Reader reader(body);
    if (reader.readU64() != FORMAT_VERSION || !reader.ok())
        return false;
    if (reader.readString() != key || !reader.ok())
        return false; // hash collision with a different key: a miss
    std::string payload = reader.readString();
    if (!reader.atEnd())
        return false;
    blob = std::move(payload);
    return true;
}

void
DiskStore::put(const std::string &key, const std::string &blob,
               const std::string &provenance)
{
    telemetry::ScopedTimer timer(telemetry::Phase::DiskWrite);
    std::string data(MAGIC, sizeof(MAGIC));
    std::string body;
    serial::appendU64(body, FORMAT_VERSION);
    serial::appendString(body, key);
    serial::appendString(body, blob);
    data += body;
    serial::appendU64(data, serial::fnv1a(data));

    atomicWrite(pathFor(key), data, /*fatal_on_error=*/true);
    diskWriteBytes().inc(data.size());

    if (!provenance.empty()) {
        // The sidecar exists for humans and external tooling; losing
        // one never loses a result, so its write is best-effort.
        std::string meta = "key_fnv1a=" + hexHash(key) + "\n" +
                           "blob_bytes=" + std::to_string(blob.size()) +
                           "\n" + provenance + "\n";
        atomicWrite(sidecarPathFor(key), meta,
                    /*fatal_on_error=*/false);
    }
}

std::size_t
DiskStore::entries() const
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(root_, ec))
        if (entry.is_regular_file() &&
            hasStoreName(entry.path().filename().string(), ENTRY_EXT))
            ++n;
    return n;
}

std::uint64_t
DiskStore::bytes() const
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(root_, ec)) {
        if (!entry.is_regular_file() ||
            !hasStoreName(entry.path().filename().string(), ENTRY_EXT))
            continue;
        std::error_code size_ec;
        auto size = entry.file_size(size_ec);
        // A file can vanish between iteration and stat (another
        // process pruning); skip it rather than adding uintmax(-1).
        if (!size_ec)
            total += size;
    }
    return total;
}

DiskStore::PruneReport
DiskStore::prune(const PruneOptions &options)
{
    PruneReport report;

    struct Victim
    {
        fs::path path;
        std::string stem;
        std::uint64_t bytes = 0;
        std::int64_t age = 0;
    };
    std::vector<Victim> kept;
    std::set<std::string> sidecar_stems;

    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(root_, ec)) {
        if (!entry.is_regular_file())
            continue;
        std::string name = entry.path().filename().string();

        if (isTempName(name)) {
            std::error_code age_ec;
            std::int64_t age = fileAgeSeconds(entry.path(), age_ec);
            if (age_ec)
                continue;
            if (age >= options.tmpAgeSeconds) {
                std::error_code rm_ec;
                if (fs::remove(entry.path(), rm_ec) && !rm_ec)
                    ++report.tmpsRemoved;
            }
            continue;
        }
        if (hasStoreName(name, SIDECAR_EXT)) {
            sidecar_stems.insert(name.substr(0, 16));
            continue;
        }
        if (!hasStoreName(name, ENTRY_EXT))
            continue; // not ours: never touch foreign files

        Victim v;
        v.path = entry.path();
        v.stem = name.substr(0, 16);
        std::error_code stat_ec;
        auto size = entry.file_size(stat_ec);
        if (stat_ec)
            continue;
        v.bytes = size;
        v.age = fileAgeSeconds(entry.path(), stat_ec);
        kept.push_back(std::move(v));
    }

    auto evict = [&](const Victim &v) {
        std::error_code rm_ec;
        if (fs::remove(v.path, rm_ec) && !rm_ec) {
            ++report.entriesRemoved;
            report.bytesRemoved += v.bytes;
        }
    };

    // Age-based eviction first: it is unconditional.
    if (options.maxAgeSeconds >= 0) {
        std::vector<Victim> young;
        for (auto &v : kept) {
            if (v.age > options.maxAgeSeconds)
                evict(v);
            else
                young.push_back(std::move(v));
        }
        kept = std::move(young);
    }

    // Size budget: evict by descending (age+1) x bytes until the
    // store fits. Pure age ordering starves small entries once bulky
    // checkpoint blobs join the store — a few megabyte snapshots
    // written five minutes ago would outlive hundreds of kilobyte
    // stats entries written six — so cost is weighted by the bytes an
    // eviction actually recovers: among same-age entries the largest
    // go first, and a large entry must be proportionally younger than
    // a small one to outrank it. Stems are the deterministic tiebreak
    // for same-score files.
    if (options.maxBytes > 0) {
        auto score = [](const Victim &v) {
            return static_cast<double>(std::max<std::int64_t>(v.age, 0)
                                       + 1) *
                   static_cast<double>(v.bytes);
        };
        std::sort(kept.begin(), kept.end(),
                  [&score](const Victim &a, const Victim &b) {
                      double sa = score(a);
                      double sb = score(b);
                      if (sa != sb)
                          return sa > sb;
                      return a.stem < b.stem;
                  });
        std::uint64_t total = 0;
        for (const auto &v : kept)
            total += v.bytes;
        std::vector<Victim> survivors;
        for (auto &v : kept) {
            if (total > options.maxBytes) {
                total -= v.bytes;
                evict(v);
            } else {
                survivors.push_back(std::move(v));
            }
        }
        kept = std::move(survivors);
    }

    std::set<std::string> kept_stems;
    for (const auto &v : kept) {
        ++report.entriesKept;
        report.bytesKept += v.bytes;
        kept_stems.insert(v.stem);
    }

    // Sidecars follow their entries; an orphan describes nothing.
    for (const auto &stem : sidecar_stems) {
        if (kept_stems.count(stem))
            continue;
        std::error_code rm_ec;
        if (fs::remove(fs::path(root_) / (stem + SIDECAR_EXT), rm_ec) &&
            !rm_ec)
            ++report.sidecarsRemoved;
    }
    return report;
}

} // namespace mcd
