#include "harness/experiment.hh"

#include "common/logging.hh"
#include "common/serial.hh"
#include "harness/artifact.hh"
#include "harness/parallel_sweep.hh"

namespace mcd
{

namespace
{

using serial::appendDouble;
using serial::appendI64;
using serial::appendString;
using serial::appendU64;

// Methodology + machine bytes come from RunnerConfig::appendTo
// (harness/runner.cc), the single definition of that layout shared
// with extension spec types (src/eval/).
void
appendRunnerConfig(std::string &out, const RunnerConfig &config)
{
    config.appendTo(out);
}

std::string
describeConfig(const RunnerConfig &config)
{
    return config.describe();
}

std::string
describeController(const ControllerSpec &controller)
{
    std::string out = controller.name;
    if (!controller.params.empty()) {
        out += "{";
        bool first = true;
        for (const auto &[key, value] : controller.params) {
            out += first ? "" : ",";
            first = false;
            out += key + "=" + logging_detail::format("%g", value);
        }
        out += "}";
    }
    if (!controller.schedule.empty())
        out += logging_detail::format("+schedule[%zu]",
                                      controller.schedule.size());
    return out;
}

/** Typed re-decode used to validate candidate blobs from the store. */
template <typename T>
bool
validBlob(const std::string &blob)
{
    T value;
    return decodeArtifact(blob, value);
}

/** Decode a blob the cache already validated (failure is a bug). */
template <typename T>
T
decodeValidated(const std::string &blob)
{
    T value;
    if (!decodeArtifact(blob, value))
        mcd_panic("validated artifact blob failed to decode");
    return value;
}

} // namespace

std::string
ExperimentSpec::cacheKey() const
{
    std::string key;
    key.reserve(512 + controller.schedule.size() *
                          sizeof(FrequencyVector));
    appendString(key, "experiment");
    appendString(key, benchmark);
    appendI64(key, static_cast<std::int64_t>(mode));
    appendDouble(key, resolvedStartFreq());
    controller.appendTo(key);
    appendRunnerConfig(key, config);
    return key;
}

std::uint64_t
ExperimentSpec::hash() const
{
    return serial::fnv1a(cacheKey());
}

std::string
ExperimentSpec::describe() const
{
    return logging_detail::format(
        "type=experiment benchmark=%s mode=%s controller=%s "
        "start_freq=%g %s",
        benchmark.c_str(), mode == ClockMode::Mcd ? "mcd" : "sync",
        describeController(controller).c_str(), resolvedStartFreq(),
        describeConfig(config).c_str());
}

ExperimentSpec
ProfileSpec::experimentSpec() const
{
    ExperimentSpec spec;
    spec.benchmark = benchmark;
    spec.mode = ClockMode::Mcd;
    spec.controller.name = "profiling";
    spec.config = config;
    return spec;
}

std::string
ProfileSpec::cacheKey() const
{
    std::string key;
    appendString(key, "profile");
    appendString(key, benchmark);
    appendRunnerConfig(key, config);
    return key;
}

std::string
ProfileSpec::describe() const
{
    return logging_detail::format("type=profile benchmark=%s %s",
                                  benchmark.c_str(),
                                  describeConfig(config).c_str());
}

std::string
OfflineSearchSpec::cacheKey() const
{
    // Key format v2: the baseline stats and interval profile enter as
    // fixed-width (digest, length) pairs over their exact payload
    // serializations instead of the payloads themselves — v1 embedded
    // both, which made every search key (and therefore every disk
    // entry, which stores its full key) grow with the profile. The
    // bumped namespace retires all v1 entries as plain misses.
    std::string key;
    appendString(key, "offline_search/2");
    appendString(key, benchmark);
    appendDouble(key, targetDeg);
    std::string base;
    ArtifactTraits<SimStats>::encodePayload(base, mcdBase);
    appendU64(key, serial::fnv1a(base));
    appendU64(key, base.size());
    std::string prof;
    ArtifactTraits<std::vector<IntervalProfile>>::encodePayload(prof,
                                                                profile);
    appendU64(key, serial::fnv1a(prof));
    appendU64(key, prof.size());
    appendRunnerConfig(key, config);
    return key;
}

std::string
OfflineSearchSpec::describe() const
{
    return logging_detail::format(
        "type=offline_search benchmark=%s target_deg=%g "
        "profile_intervals=%zu %s",
        benchmark.c_str(), targetDeg, profile.size(),
        describeConfig(config).c_str());
}

std::string
GlobalMatchSpec::cacheKey() const
{
    std::string key;
    appendString(key, "global_match");
    appendString(key, benchmark);
    appendI64(key, targetTime);
    appendRunnerConfig(key, config);
    return key;
}

std::string
GlobalMatchSpec::describe() const
{
    return logging_detail::format(
        "type=global_match benchmark=%s target_time=%lld %s",
        benchmark.c_str(), static_cast<long long>(targetTime),
        describeConfig(config).c_str());
}

SimStats
runExperiment(const ExperimentSpec &spec, ArtifactCache &cache)
{
    auto controller = ControllerRegistry::instance().create(
        spec.controller);
    Runner runner(spec.config, cache);
    return runner.runWithOptionalController(
        spec.benchmark, spec.mode, spec.resolvedStartFreq(),
        controller.get());
}

std::vector<SimStats>
runExperiments(const std::vector<ExperimentSpec> &specs, int jobs,
               ArtifactCache &cache)
{
    ParallelSweep sweep(jobs);
    return sweep.map<SimStats>(specs.size(), [&](std::size_t i) {
        return cache.getOrRun(specs[i]);
    });
}

ArtifactCache &
ArtifactCache::instance()
{
    static ArtifactCache *cache = [] {
        auto *c = new ArtifactCache();
        // Only the process-wide instance publishes into the registry:
        // test-local caches (cold-process emulation) must not shadow
        // the real metrics.
        c->bindStats();
        return c;
    }();
    return *cache;
}

void
ArtifactCache::bindStats()
{
    telemetry::StatRegistry &reg = telemetry::StatRegistry::instance();
    reg.bindCounter("store.lookups", &lookups_);
    reg.bindCounter("store.disk_hits", &disk_hits_);
    reg.bindCounter("store.inflight_joins", &inflight_joins_);
    reg.bindCounter("sim.runs", &sims_);
    reg.bindCounter("sim.commit.insns", &sim_insns_);
    reg.bindFn("store.hits", [this] { return hits(); });
    reg.bindFn("store.memory_entries", [this] {
        return static_cast<std::uint64_t>(size());
    });
    reg.bindFn("store.disk.entries", [this] {
        return static_cast<std::uint64_t>(diskEntries());
    });
    reg.bindFn("store.disk.bytes", [this] { return diskBytes(); });
}

std::string
ArtifactCache::fetch(
    const std::string &key,
    const std::function<bool(const std::string &)> &validate,
    const std::function<std::string()> &build,
    const std::string &provenance)
{
    lookups_.inc();
    std::shared_ptr<Inflight> flight;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &slot = inflight_[key];
        // A caller that finds another caller's slot joins that
        // caller's resolution of the key: an in-flight join, the
        // cross-client dedup event the serve layer reports. It counts
        // on arrival, so it is visible while the fetch is still in
        // flight; each slot is resolved once, so the total equals the
        // number of callers that did not resolve. (Requests after
        // the slot's retirement get a fresh slot and resolve it
        // themselves against the memory layer, so they never count.)
        if (slot)
            inflight_joins_.inc();
        else
            slot = std::make_shared<Inflight>();
        flight = slot;
    }
    // Concurrent requests for one key block here while the first
    // caller resolves it; the build never runs under the map lock, so
    // distinct artifacts still fan out in parallel, and nested
    // requests (a search's probes, always for *other* keys) recurse
    // freely.
    std::call_once(flight->once, [&] {
        std::string blob;
        if (memory_.get(key, blob) && validate(blob))
            return; // published earlier as another artifact's by-product
        std::shared_ptr<DiskStore> disk;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            disk = disk_;
        }
        if (disk && disk->get(key, blob) && validate(blob)) {
            memory_.put(key, blob); // promote: never re-read disk
            disk_hits_.inc();
            return;
        }
        blob = build();
        memory_.put(key, blob);
        if (disk)
            disk->put(key, blob, provenance);
        computes_.inc();
    });
    // Resolved: retire the inflight slot so the map stays bounded by
    // concurrency, not by distinct keys ever requested. Late waiters
    // each erase-if-same (idempotent); a fresh request after the erase
    // makes a new slot whose call_once body hits the memory layer.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = inflight_.find(key);
        if (it != inflight_.end() && it->second == flight)
            inflight_.erase(it);
    }
    std::string blob;
    if (!memory_.get(key, blob))
        mcd_panic("artifact vanished from the memory layer");
    return blob;
}

void
ArtifactCache::publish(const std::string &key, const std::string &blob,
                       const std::string &provenance)
{
    memory_.put(key, blob);
    std::shared_ptr<DiskStore> disk;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        disk = disk_;
    }
    if (disk)
        disk->put(key, blob, provenance);
}

void
ArtifactCache::noteSimulation()
{
    sims_.inc();
}

void
ArtifactCache::noteInstructions(std::uint64_t count)
{
    sim_insns_.inc(count);
}

SimStats
ArtifactCache::getOrRun(const ExperimentSpec &spec)
{
    attachDiskStore(spec.config.store);
    std::string blob = fetch(
        spec.cacheKey(), validBlob<SimStats>,
        [&] {
            SimStats stats = runExperiment(spec, *this);
            noteSimulation();
            return encodeArtifact(stats);
        },
        spec.describe());
    return decodeValidated<SimStats>(blob);
}

std::vector<IntervalProfile>
ArtifactCache::getOrRun(const ProfileSpec &spec)
{
    attachDiskStore(spec.config.store);
    std::string blob = fetch(
        spec.cacheKey(), validBlob<std::vector<IntervalProfile>>,
        [&] {
            // One profiling simulation yields two artifacts: the
            // interval profile (this key) and the baseline MCD
            // SimStats, published under the paired experiment key so
            // requesting both costs one run.
            ExperimentSpec run = spec.experimentSpec();
            auto controller =
                ControllerRegistry::instance().create(run.controller);
            Runner runner(spec.config, *this);
            SimStats stats = runner.runWithOptionalController(
                spec.benchmark, run.mode, run.resolvedStartFreq(),
                controller.get());
            noteSimulation();
            publish(run.cacheKey(), encodeArtifact(stats),
                    run.describe());
            return encodeArtifact(
                dynamic_cast<ProfilingController &>(*controller)
                    .profile());
        },
        spec.describe());
    return decodeValidated<std::vector<IntervalProfile>>(blob);
}

OfflineResult
ArtifactCache::getOrRun(const OfflineSearchSpec &spec)
{
    attachDiskStore(spec.config.store);
    std::string blob = fetch(
        spec.cacheKey(), validBlob<OfflineResult>,
        [&] {
            // The search itself runs no simulation directly: its grid
            // probes are nested ExperimentSpec requests that memoize
            // (and count) themselves.
            Runner runner(spec.config, *this);
            return encodeArtifact(runner.searchOfflineDynamic(
                spec.benchmark, spec.targetDeg, spec.mcdBase,
                spec.profile));
        },
        spec.describe());
    return decodeValidated<OfflineResult>(blob);
}

GlobalResult
ArtifactCache::getOrRun(const GlobalMatchSpec &spec)
{
    attachDiskStore(spec.config.store);
    std::string blob = fetch(
        spec.cacheKey(), validBlob<GlobalResult>,
        [&] {
            Runner runner(spec.config, *this);
            return encodeArtifact(runner.searchGlobalMatching(
                spec.benchmark, spec.targetTime));
        },
        spec.describe());
    return decodeValidated<GlobalResult>(blob);
}

void
ArtifactCache::attachDiskStore(const std::string &root)
{
    if (root.empty())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (disk_) {
        if (disk_->root() == root)
            return;
        // A silent swap would strand everything already written to the
        // attached root and blend diskHits() across unrelated stores —
        // two specs naming different stores in one process is a
        // configuration error, not a preference.
        mcd_fatal("artifact store root changed mid-process: '%s' is "
                  "attached, refusing to swap to '%s' (use one store "
                  "per process, or detachDiskStore() first)",
                  disk_->root().c_str(), root.c_str());
    }
    disk_ = std::make_shared<DiskStore>(root);
}

void
ArtifactCache::detachDiskStore()
{
    std::lock_guard<std::mutex> lock(mutex_);
    disk_.reset();
}

std::uint64_t
ArtifactCache::lookups() const
{
    return lookups_.value();
}

std::uint64_t
ArtifactCache::hits() const
{
    return lookups_.value() - computes_.value();
}

std::uint64_t
ArtifactCache::diskHits() const
{
    return disk_hits_.value();
}

std::uint64_t
ArtifactCache::inflightJoins() const
{
    return inflight_joins_.value();
}

bool
ArtifactCache::cachedHint(const std::string &key)
{
    std::string blob;
    if (memory_.get(key, blob))
        return true;
    std::shared_ptr<DiskStore> disk;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        disk = disk_;
    }
    return disk && disk->get(key, blob);
}

std::uint64_t
ArtifactCache::simulationsRun() const
{
    return sims_.value();
}

std::uint64_t
ArtifactCache::simulatedInstructions() const
{
    return sim_insns_.value();
}

std::size_t
ArtifactCache::size() const
{
    return memory_.entries();
}

std::size_t
ArtifactCache::inflightEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return inflight_.size();
}

std::string
ArtifactCache::storeRoot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return disk_ ? disk_->root() : "";
}

std::size_t
ArtifactCache::diskEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return disk_ ? disk_->entries() : 0;
}

std::uint64_t
ArtifactCache::diskBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return disk_ ? disk_->bytes() : 0;
}

void
ArtifactCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.clear();
    memory_.clear();
    lookups_.reset();
    computes_.reset();
    disk_hits_.reset();
    sims_.reset();
    sim_insns_.reset();
    inflight_joins_.reset();
}

std::string
storeStatsLine(const ArtifactCache &cache)
{
    std::string line = logging_detail::format(
        "store: lookups=%llu hits=%llu disk_hits=%llu "
        "simulations=%llu instructions=%llu",
        static_cast<unsigned long long>(cache.lookups()),
        static_cast<unsigned long long>(cache.hits()),
        static_cast<unsigned long long>(cache.diskHits()),
        static_cast<unsigned long long>(cache.simulationsRun()),
        static_cast<unsigned long long>(
            cache.simulatedInstructions()));
    std::string root = cache.storeRoot();
    if (!root.empty())
        line += logging_detail::format(
            " disk_entries=%zu disk_bytes=%llu root=%s",
            cache.diskEntries(),
            static_cast<unsigned long long>(cache.diskBytes()),
            root.c_str());
    return line;
}

} // namespace mcd
