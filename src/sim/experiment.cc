#include "experiment.hh"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <variant>

#include "common/log.hh"
#include "common/worker_pool.hh"
#include "knobs.hh"
#include "system.hh"

namespace mcsim {

ExperimentRunner::ExperimentRunner(std::string cachePath)
    : cachePath_(std::move(cachePath))
{
    if (cachePath_.empty()) {
        const char *env = std::getenv("CLOUDMC_CACHE");
        cachePath_ = env ? env : "cloudmc_results_cache.csv";
    }
    cachingEnabled_ = cachePath_ != "-";
    if (cachingEnabled_)
        loadCache();
    // Pool workers read CLOUDMC_FAST too; fail here, on one thread.
    (void)fastDivisor();
    (void)defaultThreads();
}

std::uint64_t
ExperimentRunner::fastDivisor()
{
    const char *env = std::getenv("CLOUDMC_FAST");
    std::uint64_t v = 1;
    if (env && (!parseUint(env, v) || v == 0))
        mc_fatal("CLOUDMC_FAST needs a nonzero divisor, got '", env, "'");
    return v;
}

unsigned
ExperimentRunner::defaultThreads()
{
    if (const char *env = std::getenv("CLOUDMC_THREADS")) {
        std::uint64_t v = 0;
        if (!parseUint(env, v) || v == 0 || v > kMaxThreads) {
            mc_fatal("CLOUDMC_THREADS needs an integer in [1, ",
                     kMaxThreads, "], got '", env, "'");
        }
        return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

SimConfig
ExperimentRunner::runConfig(const SimConfig &cfg,
                            std::uint32_t kernelThreads)
{
    SimConfig run = cfg;
    run.shortenWindows(fastDivisor());
    if (kernelThreads)
        run.kernelThreads = kernelThreads;
    return run;
}

namespace {

/** 64-bit FNV-1a of @p text, as 16 lowercase hex digits. */
std::string
fnv1aHex(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

} // namespace

std::string
ExperimentRunner::configKey(WorkloadId workload, const SimConfig &cfg)
{
    // The hash covers the config the simulation actually runs, so the
    // CLOUDMC_FAST windows and full windows of equal length share a row.
    const Point p(workload, runConfig(cfg));
    return std::string(workloadAcronym(workload)) + '|' +
           fnv1aHex(canonicalPointText(p));
}

std::string
ExperimentRunner::pointKey(const Point &p)
{
    if (p.makeGenerator)
        return p.customKey; // Empty: never memoized.
    if (!p.customKey.empty())
        return p.customKey;
    std::string key = configKey(p.workload, p.cfg);
    if (p.presetCores) {
        key = "ALONE|" + std::to_string(p.presetCores) + "c|" + key;
    }
    return key;
}

namespace {

/** Opens every cache section header line. */
constexpr const char *kCacheTag = "#cloudmc-cache ";

void
writeValue(std::ostream &out, double v)
{
    out << v;
}

void
writeValue(std::ostream &out, std::uint64_t v)
{
    out << v;
}

void
writeValue(std::ostream &out, const std::vector<double> &values)
{
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? ";" : "") << values[i];
}

/** Parse one field starting at @p p, leaving @p p just past it. */
bool
readValue(const char *&p, double &v)
{
    char *end = nullptr;
    v = std::strtod(p, &end);
    const bool ok = end != p;
    p = end;
    return ok;
}

bool
readValue(const char *&p, std::uint64_t &v)
{
    if (!std::isdigit(static_cast<unsigned char>(*p)))
        return false;
    char *end = nullptr;
    v = std::strtoull(p, &end, 10);
    p = end;
    return true;
}

/** A ';'-joined list of doubles; an empty field is an empty list. */
bool
readValue(const char *&p, std::vector<double> &values)
{
    values.clear();
    if (*p == ',' || *p == '\0')
        return true;
    while (true) {
        double v = 0.0;
        if (!readValue(p, v))
            return false;
        values.push_back(v);
        if (*p != ';')
            return true;
        ++p;
    }
}

/** Parse one cache row: the key, then one field per metricFields()
 *  entry, comma-separated. */
bool
parseCacheRow(const std::string &line, std::string &key, MetricSet &m)
{
    const std::size_t comma = line.find(',');
    if (comma == 0 || comma == std::string::npos)
        return false;
    key.assign(line, 0, comma);
    m = MetricSet{};
    const char *p = line.c_str() + comma;
    for (const MetricField &f : metricFields()) {
        if (*p++ != ',')
            return false;
        const bool ok = std::visit(
            [&](auto member) { return readValue(p, m.*member); }, f.member);
        if (!ok)
            return false;
    }
    return *p == '\0';
}

} // namespace

const std::string &
ExperimentRunner::cacheHeader()
{
    static const std::string header = [] {
        std::string columns = "key";
        for (const MetricField &f : metricFields())
            columns.append(",").append(f.name);
        return kCacheTag + fnv1aHex(columns) + ' ' + columns;
    }();
    return header;
}

void
ExperimentRunner::loadCache()
{
    std::ifstream in(cachePath_);
    if (!in)
        return;
    // Rows load only inside a section this schema opened; rows of any
    // other schema (or written before headers existed) are skipped,
    // never migrated: the cache is derived data.
    bool current = false;
    std::string line, key;
    while (std::getline(in, line)) {
        if (line.rfind(kCacheTag, 0) == 0) {
            current = line == cacheHeader();
            continue;
        }
        MetricSet m;
        if (current && parseCacheRow(line, key, m))
            cache_[key] = std::move(m);
    }
    sectionOpen_ = current;
}

void
ExperimentRunner::appendToCache(const std::string &key, const MetricSet &m)
{
    std::ostringstream rec;
    // Open a section first unless the file already ends inside one.
    if (!sectionOpen_)
        rec << cacheHeader() << '\n';
    rec << key;
    for (const MetricField &f : metricFields()) {
        rec << ',';
        std::visit([&](auto member) { writeValue(rec, m.*member); },
                   f.member);
    }
    rec << '\n';
    const std::string line = rec.str();

    // One fwrite on an O_APPEND stream keeps the record contiguous
    // even when several processes share the cache file.
    std::FILE *f = std::fopen(cachePath_.c_str(), "ae");
    if (!f)
        f = std::fopen(cachePath_.c_str(), "a");
    if (!f) {
        mc_warn("cannot append to results cache '", cachePath_, "'");
        return;
    }
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size())
        mc_warn("short write to results cache '", cachePath_, "'");
    else
        sectionOpen_ = true;
    std::fclose(f);
}

MetricSet
ExperimentRunner::simulatePoint(const Point &p, std::uint32_t kernelThreads)
{
    const SimConfig cfg = runConfig(p.cfg, kernelThreads);
    if (p.makeGenerator) {
        const auto generator = p.makeGenerator();
        mc_assert(generator && p.customCores >= 1,
                  "custom experiment point needs a generator and cores");
        System system(cfg, *generator, p.customCores);
        return system.run();
    }
    WorkloadParams params = workloadPreset(p.workload);
    if (p.presetCores)
        params.cores = p.presetCores;
    System system(cfg, params);
    return system.run();
}

ExperimentRunner::ThreadSplit
ExperimentRunner::planThreadSplit(std::size_t jobs, unsigned threads)
{
    if (threads <= 1 || jobs == 0)
        return {1, 1};
    if (jobs >= threads)
        return {threads, 1};
    // Fewer points than threads: run every point concurrently and
    // hand each the same share of the leftover budget. The product
    // sweepWorkers * shardThreads never exceeds the budget.
    const unsigned sweep = static_cast<unsigned>(jobs);
    return {sweep, threads / sweep};
}

void
ExperimentRunner::attachAloneBaseline(Point &p)
{
    mc_assert(!p.makeGenerator,
              "attachAloneBaseline handles preset points only; build "
              "custom points' baselines explicitly");
    Point::AloneBaseline b;
    b.firstCore = 0;
    b.numCores =
        p.presetCores ? p.presetCores : workloadPreset(p.workload).cores;
    b.run.workload = p.workload;
    b.run.cfg = p.cfg;
    b.run.presetCores = 1;
    p.baselines.clear();
    p.baselines.push_back(std::move(b));
}

ExperimentRunner::Point
ExperimentRunner::mixedFairnessPoint(const std::vector<MixPart> &parts,
                                     const SimConfig &cfg,
                                     Addr addressSpace,
                                     std::uint64_t seedSalt)
{
    mc_assert(!parts.empty(), "a mixed point needs at least one part");
    Point p;
    p.cfg = cfg;
    const std::vector<MixPart> partsCopy = parts;
    p.makeGenerator = [partsCopy, addressSpace, seedSalt] {
        return std::make_unique<MixedWorkload>(partsCopy, addressSpace,
                                               seedSalt);
    };

    // The key names every part (the generator's full identity) plus
    // the configuration fingerprint; the acronym slot of configKey()
    // is irrelevant for a custom generator, so reuse the first part's.
    std::ostringstream key;
    key << "MIX|";
    std::uint32_t firstCore = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        key << (i ? "+" : "") << workloadAcronym(parts[i].workload) << ':'
            << parts[i].cores;

        Point::AloneBaseline b;
        b.firstCore = firstCore;
        b.numCores = parts[i].cores;
        b.run.workload = parts[i].workload;
        b.run.cfg = cfg;
        b.run.presetCores = parts[i].cores;
        p.baselines.push_back(std::move(b));
        firstCore += parts[i].cores;
    }
    key << "|as" << (addressSpace >> 20) << "m|salt" << seedSalt << '|'
        << configKey(parts.front().workload, cfg);
    p.customKey = key.str();
    p.customCores = firstCore;
    return p;
}

MetricSet
ExperimentRunner::run(WorkloadId workload, const SimConfig &cfg)
{
    return runAll({Point(workload, cfg)}, 1).front();
}

std::vector<MetricSet>
ExperimentRunner::runAll(const std::vector<Point> &points)
{
    return runAll(points, defaultThreads());
}

std::vector<MetricSet>
ExperimentRunner::runAll(const std::vector<Point> &points, unsigned threads)
{
    // Work list: the caller's points followed by every alone-run
    // baseline they carry. Baselines run through the same worker pool
    // and dedup/memoize like any other point: duplicate points in one
    // batch and repeated sweeps across invocations share baseline
    // simulations via the cache. (Each scheduler still runs its own
    // baseline — the alone run deliberately keeps the shared run's
    // full configuration, scheduler included.)
    struct WorkItem
    {
        const Point *point;
        /** Fairness point: its CSV row is appended after derivation so
         *  the on-disk cache carries the fairness columns. */
        bool deferAppend;
    };
    std::vector<WorkItem> work;
    work.reserve(points.size());
    std::vector<std::vector<std::size_t>> baselineAt(points.size());
    for (const Point &p : points)
        work.push_back({&p, !p.baselines.empty()});
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (const Point::AloneBaseline &b : points[i].baselines) {
            mc_assert(b.run.baselines.empty(),
                      "baseline runs must not carry baselines");
            baselineAt[i].push_back(work.size());
            work.push_back({&b.run, false});
        }
    }

    std::vector<MetricSet> res(work.size());

    // One job per simulation that must actually run. With caching on,
    // duplicate uncached keys collapse into one job and the repeats
    // resolve from the memo cache afterwards — exactly what a serial
    // run() loop would do (first occurrence simulates, the rest hit).
    struct Job
    {
        std::size_t workIdx;
        std::string key;
        bool deferAppend;
    };
    std::vector<Job> jobs;
    std::vector<std::size_t> jobOf(work.size(), SIZE_MAX);

    {
        std::lock_guard<std::mutex> lock(mu_);
        std::map<std::string, std::size_t> pendingByKey;
        for (std::size_t i = 0; i < work.size(); ++i) {
            std::string key = pointKey(*work[i].point);
            // Keyless custom points are never memoized: each runs.
            if (!cachingEnabled_ || key.empty()) {
                jobOf[i] = jobs.size();
                jobs.push_back({i, std::move(key), work[i].deferAppend});
                continue;
            }
            auto it = cache_.find(key);
            if (it != cache_.end()) {
                ++cacheHits_;
                res[i] = it->second;
                continue;
            }
            auto pending = pendingByKey.find(key);
            if (pending != pendingByKey.end()) {
                // Will hit the memo cache once its job completes.
                ++cacheHits_;
                jobOf[i] = pending->second;
                continue;
            }
            pendingByKey.emplace(key, jobs.size());
            jobOf[i] = jobs.size();
            jobs.push_back({i, std::move(key), work[i].deferAppend});
        }
    }

    if (!jobs.empty()) {
        // One budget feeds both parallelism layers: sweep workers
        // here, epoch shards inside each simulation. The split keeps
        // their product within `threads` so the batch never runs more
        // runnable threads than the caller budgeted for.
        const ThreadSplit split = planThreadSplit(jobs.size(), threads);
        std::vector<MetricSet> jobResults(jobs.size());
        std::atomic<std::size_t> next{0};
        auto workerLoop = [&]() {
            while (true) {
                const std::size_t j =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (j >= jobs.size())
                    return;
                const Point &p = *work[jobs[j].workIdx].point;
                const MetricSet m = simulatePoint(p, split.shardThreads);
                jobResults[j] = m;

                std::lock_guard<std::mutex> lock(mu_);
                ++simulationsRun_;
                if (cachingEnabled_ && !jobs[j].key.empty()) {
                    cache_[jobs[j].key] = m;
                    if (!jobs[j].deferAppend)
                        appendToCache(jobs[j].key, m);
                }
            }
        };

        if (split.sweepWorkers <= 1) {
            workerLoop();
        } else {
            WorkerPool pool(split.sweepWorkers - 1);
            pool.run(split.sweepWorkers,
                     [&](unsigned) { workerLoop(); });
        }

        for (std::size_t i = 0; i < work.size(); ++i) {
            if (jobOf[i] != SIZE_MAX)
                res[i] = jobResults[jobOf[i]];
        }
    }

    // Derive the slowdown/fairness block of every point that carries
    // baselines, then persist the enriched row (once per key: a row
    // already carrying fairness columns is left alone).
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        if (p.baselines.empty())
            continue;
        std::vector<AloneBaselineMetrics> alone;
        alone.reserve(p.baselines.size());
        for (std::size_t j = 0; j < p.baselines.size(); ++j) {
            alone.push_back({p.baselines[j].firstCore,
                             p.baselines[j].numCores,
                             &res[baselineAt[i][j]]});
        }
        if (!deriveFairnessMetrics(res[i], alone)) {
            mc_warn("alone-run baselines of point ", i,
                    " do not cover its cores; fairness metrics stay 0");
        }
        const std::string key = pointKey(p);
        if (cachingEnabled_ && !key.empty()) {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = cache_.find(key);
            if (it == cache_.end() || !it->second.hasFairness()) {
                cache_[key] = res[i];
                appendToCache(key, res[i]);
            }
        }
    }

    res.resize(points.size());
    return res;
}

} // namespace mcsim
