#include "bench_common.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

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
    // One batch covers the 1-channel baseline plus every mapping
    // scheme at 2 and 4 channels; each multi-channel column then keeps
    // every workload's best-IPC scheme without further simulation.
    std::vector<LabeledConfig> configs = {
        {"1_channel", SimConfig::baseline()}};
    for (std::uint32_t channels : {2u, 4u}) {
        for (auto scheme : kAllMappingSchemes) {
            SimConfig cfg = SimConfig::baseline();
            cfg.dram.channels = channels;
            cfg.mapping = scheme;
            configs.push_back({std::to_string(channels) + "_channel", cfg});
        }
    }
    const auto all = runConfigStudy(runner, configs);

    std::vector<Series> out = {all.front()};
    for (auto s = all.begin() + 1; s != all.end();
         s += kAllMappingSchemes.size()) {
        Series best{s->label, {}};
        for (auto wl : kAllWorkloads) {
            double bestIpc = -1.0;
            for (auto it = s; it != s + kAllMappingSchemes.size(); ++it) {
                const MetricSet &m = it->results.at(wl);
                if (m.userIpc > bestIpc) {
                    bestIpc = m.userIpc;
                    best.results[wl] = m;
                }
            }
        }
        out.push_back(std::move(best));
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

int
figureMain(int argc, char **argv, const std::string &title,
           const std::string &metricName,
           std::vector<Series> (*study)(ExperimentRunner &),
           MetricFn metric, bool normalizeToFirst, int precision)
{
    bool csv = false;
    FlagSet().flag("--csv", csv).fast().threads().parse(argc, argv);
    ExperimentRunner runner;
    const auto series = study(runner);
    printFigure(title, metricName, series, metric, normalizeToFirst,
                precision, csv);
    std::fprintf(stderr, "[bench] %llu simulations run, %llu from cache\n",
                 static_cast<unsigned long long>(runner.simulationsRun()),
                 static_cast<unsigned long long>(runner.cacheHits()));
    return 0;
}

std::string
gitSha()
{
    if (const char *sha = std::getenv("CLOUDMC_GIT_SHA"))
        return sha;
    if (const char *sha = std::getenv("GITHUB_SHA"))
        return sha;
    if (std::FILE *p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[64] = {};
        const bool got = std::fgets(buf, sizeof(buf), p) != nullptr;
        const bool clean = pclose(p) == 0;
        if (got && clean) {
            std::string sha(buf);
            while (!sha.empty() &&
                   std::isspace(static_cast<unsigned char>(sha.back()))) {
                sha.pop_back();
            }
            if (sha.size() == 40)
                return sha;
        }
    }
#ifdef CLOUDMC_GIT_SHA_CONFIGURED
    if (CLOUDMC_GIT_SHA_CONFIGURED[0] != '\0')
        return CLOUDMC_GIT_SHA_CONFIGURED;
#endif
    return "unknown";
}

} // namespace mcsim::bench
