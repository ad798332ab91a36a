#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/knobs.hh"

namespace mcsim::bench {

using Point = ExperimentRunner::Point;

std::vector<Series>
runConfigStudy(ExperimentRunner &runner,
               const std::vector<LabeledConfig> &configs,
               const std::vector<WorkloadId> &workloads)
{
    std::vector<Point> points;
    points.reserve(configs.size() * workloads.size());
    for (const auto &lc : configs) {
        for (auto wl : workloads)
            points.push_back({wl, lc.cfg});
    }
    const auto metrics = runner.runAll(points);

    std::vector<Series> out;
    std::size_t i = 0;
    for (const auto &lc : configs) {
        Series s;
        s.label = lc.label;
        for (auto wl : workloads)
            s.results[wl] = metrics[i++];
        out.push_back(std::move(s));
    }
    return out;
}

void
prefetchSweep(ExperimentRunner &runner,
              const std::vector<SimConfig> &configs,
              const std::vector<WorkloadId> &workloads)
{
    // With caching disabled there is no memo cache to warm: the
    // batch's work would be thrown away and re-simulated by the
    // caller's run() loop.
    if (!runner.cachingEnabled())
        return;
    std::vector<Point> points;
    points.reserve(configs.size() * workloads.size());
    for (const auto &cfg : configs) {
        for (auto wl : workloads)
            points.push_back({wl, cfg});
    }
    (void)runner.runAll(points);
}

std::vector<Series>
runSchedulerStudy(ExperimentRunner &runner)
{
    std::vector<LabeledConfig> configs;
    for (auto kind : kPaperSchedulers) {
        SimConfig cfg = SimConfig::baseline();
        cfg.scheduler = kind;
        configs.push_back({schedulerKindName(kind), cfg});
    }
    return runConfigStudy(runner, configs);
}

std::vector<Series>
runPagePolicyStudy(ExperimentRunner &runner)
{
    std::vector<LabeledConfig> configs;
    for (auto kind : kPaperPagePolicies) {
        SimConfig cfg = SimConfig::baseline();
        cfg.pagePolicy = kind;
        configs.push_back({pagePolicyKindName(kind), cfg});
    }
    return runConfigStudy(runner, configs);
}

std::vector<Series>
runChannelStudy(ExperimentRunner &runner)
{
    // One batch covers the whole study: the 1-channel baseline plus
    // every (workload, scheme) point at 2 and 4 channels. The
    // per-workload best columns are then assembled from the batch
    // results without further simulation.
    std::vector<Point> points;
    for (auto wl : kAllWorkloads)
        points.push_back({wl, SimConfig::baseline()});
    for (std::uint32_t channels : {2u, 4u}) {
        for (auto wl : kAllWorkloads) {
            for (auto scheme : kAllMappingSchemes) {
                SimConfig cfg = SimConfig::baseline();
                cfg.dram.channels = channels;
                cfg.mapping = scheme;
                points.push_back({wl, cfg});
            }
        }
    }
    const auto metrics = runner.runAll(points);

    std::vector<Series> out;
    std::size_t i = 0;
    {
        Series s;
        s.label = "1_channel";
        for (auto wl : kAllWorkloads)
            s.results[wl] = metrics[i++];
        out.push_back(std::move(s));
    }
    for (std::uint32_t channels : {2u, 4u}) {
        Series s;
        s.label = std::to_string(channels) + "_channel";
        for (auto wl : kAllWorkloads) {
            double bestIpc = -1.0;
            MetricSet bestMetrics;
            for (auto scheme : kAllMappingSchemes) {
                (void)scheme;
                const MetricSet &m = metrics[i++];
                if (m.userIpc > bestIpc) {
                    bestIpc = m.userIpc;
                    bestMetrics = m;
                }
            }
            s.results[wl] = bestMetrics;
        }
        out.push_back(std::move(s));
    }
    return out;
}

namespace {

double
categoryAverage(const Series &s, const Series *base, MetricFn metric,
                WorkloadCategory cat)
{
    double sum = 0.0;
    int n = 0;
    for (auto wl : workloadsInCategory(cat)) {
        double v = metric(s.results.at(wl));
        if (base)
            v /= metric(base->results.at(wl));
        sum += v;
        ++n;
    }
    return n ? sum / n : 0.0;
}

} // namespace

void
printFigure(const std::string &title, const std::string &metricName,
            const std::vector<Series> &series, MetricFn metric,
            bool normalizeToFirst, int precision, bool csv)
{
    TextTable table;
    std::vector<std::string> header{"workload"};
    for (const auto &s : series)
        header.push_back(s.label);
    table.setHeader(header);

    const Series *base = normalizeToFirst ? &series.front() : nullptr;
    for (auto wl : kAllWorkloads) {
        std::vector<std::string> row{workloadAcronym(wl)};
        for (const auto &s : series) {
            double v = metric(s.results.at(wl));
            if (base)
                v /= metric(base->results.at(wl));
            row.push_back(TextTable::num(v, precision));
        }
        table.addRow(std::move(row));
    }
    for (auto cat :
         {WorkloadCategory::ScaleOut, WorkloadCategory::Transactional,
          WorkloadCategory::DecisionSupport}) {
        std::vector<std::string> row{std::string("Avg_") +
                                     workloadCategoryAcronym(cat)};
        for (const auto &s : series) {
            row.push_back(TextTable::num(
                categoryAverage(s, base, metric, cat), precision));
        }
        table.addRow(std::move(row));
    }

    if (!csv) {
        std::printf("%s\n%s%s\n", title.c_str(),
                    normalizeToFirst ? "(normalized to the first column) "
                                     : "",
                    metricName.c_str());
    }
    std::printf("%s\n",
                csv ? table.renderCsv().c_str() : table.render().c_str());
}

bool
parseBenchFlags(int argc, char **argv, bool takesCsv)
{
    const auto fail = [&](const std::string &err) {
        std::fprintf(stderr,
                     "%s: %s\nusage: %s%s [--fast D] [--threads N]\n",
                     argv[0], err.c_str(), argv[0],
                     takesCsv ? " [--csv]" : "");
        std::exit(2);
    };
    bool csv = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--csv" && takesCsv) {
            csv = true;
            continue;
        }
        if (flag != "--fast" && flag != "--threads")
            fail("unknown flag '" + flag + "'");
        if (i + 1 == argc)
            fail(flag + " needs a value");
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        if (!parseUint(value, n) || n == 0) {
            fail(flag + (flag == "--fast" ? ": needs a nonzero divisor"
                                          : ": needs at least one thread") +
                 ", got '" + value + "'");
        }
        setenv(flag == "--fast" ? "CLOUDMC_FAST" : "CLOUDMC_THREADS",
               value.c_str(), 1);
    }
    return csv;
}

int
figureMain(int argc, char **argv, const std::string &title,
           const std::string &metricName,
           std::vector<Series> (*study)(ExperimentRunner &),
           MetricFn metric, bool normalizeToFirst, int precision)
{
    const bool csv = parseBenchFlags(argc, argv);
    ExperimentRunner runner;
    const auto series = study(runner);
    printFigure(title, metricName, series, metric, normalizeToFirst,
                precision, csv);
    std::fprintf(stderr, "[bench] %llu simulations run, %llu from cache\n",
                 static_cast<unsigned long long>(runner.simulationsRun()),
                 static_cast<unsigned long long>(runner.cacheHits()));
    return 0;
}

} // namespace mcsim::bench
