#include "knobs.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/bitutils.hh"
#include "dram/devices.hh"
#include "spec.hh"

namespace mcsim {

namespace {

using Point = ExperimentRunner::Point;

/** Split a comma-separated value list, trimming each element. */
std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::istringstream in(value);
    std::string item;
    while (std::getline(in, item, ',')) {
        item = trimSpace(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** Look @p name up among the values of @p All by @p NameOf. */
template <const auto &All, auto NameOf>
bool
byName(const std::string &name,
       typename std::decay_t<decltype(All)>::value_type &out)
{
    for (const auto v : All) {
        if (name == NameOf(v)) {
            out = v;
            return true;
        }
    }
    return false;
}

bool
findDevice(const std::string &name, std::string &out)
{
    if (!findDramDevice(name))
        return false;
    out = name;
    return true;
}

/** A count stored as uint32: a power of two that fits the type. */
bool
powerOfTwoCount(const std::string &text, std::uint32_t &out)
{
    std::uint64_t v = 0;
    if (!parseUint(text, v) || !isPowerOf2(v) ||
        v > std::numeric_limits<std::uint32_t>::max()) {
        return false;
    }
    out = static_cast<std::uint32_t>(v);
    return true;
}

/**
 * An axis knob over the spec list @p list. @p item parses one element;
 * a miss is "unknown <what> '<element>'", plus @p hint when set.
 * @p apply sets one value on a point and @p format prints it back.
 * Callers name T explicitly, so lambdas convert to the pointers.
 */
template <typename T>
Knob
axisKnob(Knob k, std::vector<T> ExperimentSpec::*list, const char *what,
         const char *hint, bool (*item)(const std::string &, T &),
         void (*apply)(Point &, const T &),
         std::string (*format)(const Point &))
{
    k.axis = true;
    k.parse = [key = k.key, list, what, hint,
               item](const std::string &value, ExperimentSpec &s) {
        const std::vector<std::string> texts = splitList(value);
        std::vector<T> values(texts.size());
        std::size_t i = 0;
        while (i < texts.size() && item(texts[i], values[i]))
            ++i;
        if (i < texts.size()) {
            return "unknown " + std::string(what) + " '" + texts[i] + "'" +
                   (hint ? std::string(" (") + hint + ")" : "");
        }
        if (values.empty())
            return "empty " + std::string(key) + " list";
        s.*list = std::move(values);
        return std::string();
    };
    k.count = [list](const ExperimentSpec &s) { return (s.*list).size(); };
    k.pick = [list, apply](const ExperimentSpec &s, std::size_t i,
                           Point &p) { apply(p, (s.*list)[i]); };
    k.format = format;
    return k;
}

/** Read/write access to one integer or bool field of a SimConfig,
 *  and the largest value the field's type stores. */
struct Field
{
    std::uint64_t (*get)(const SimConfig &);
    void (*set)(SimConfig &, std::uint64_t);
    std::uint64_t max;
};

/** The Field for the SimConfig member @p M. */
template <auto M>
constexpr Field field = {
    [](const SimConfig &c) -> std::uint64_t { return c.*M; },
    [](SimConfig &c, std::uint64_t v) {
        c.*M = static_cast<std::decay_t<decltype(c.*M)>>(v);
    },
    std::numeric_limits<
        std::decay_t<decltype(std::declval<SimConfig &>().*M)>>::max()};

/** The Field for member @p Inner of the SimConfig member @p Outer. */
template <auto Outer, auto Inner>
constexpr Field subfield = {
    [](const SimConfig &c) -> std::uint64_t { return c.*Outer.*Inner; },
    [](SimConfig &c, std::uint64_t v) {
        c.*Outer.*Inner =
            static_cast<std::decay_t<decltype(c.*Outer.*Inner)>>(v);
    },
    std::numeric_limits<std::decay_t<
        decltype(std::declval<SimConfig &>().*Outer.*Inner)>>::max()};

/** An on|off knob stored in @p f. */
Knob
onOffKnob(Knob k, Field f)
{
    k.parse = [key = k.key, f](const std::string &v, ExperimentSpec &s) {
        if (v != "on" && v != "off")
            return std::string(key) + " must be 'on' or 'off', got '" + v +
                   "'";
        f.set(s.base, v == "on");
        return std::string();
    };
    k.format = [f](const Point &p) {
        return std::string(f.get(p.cfg) ? "on" : "off");
    };
    return k;
}

/**
 * An unsigned knob stored in @p f, range-checked to [lo, hi] clamped
 * to the field's own type. @p noun describes the value in errors ("a
 * percentage").
 */
Knob
uintKnob(Knob k, const char *noun, std::uint64_t lo, std::uint64_t hi,
         Field f)
{
    hi = std::min(hi, f.max);
    k.parse = [key = k.key, noun, lo, hi, f](const std::string &v,
                                              ExperimentSpec &s) {
        std::uint64_t n = 0;
        if (parseUint(v, n) && n >= lo && n <= hi) {
            f.set(s.base, n);
            return std::string();
        }
        std::string range;
        if (hi != f.max) {
            range = " in [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]";
        }
        return std::string(key) + " needs " + noun + range + ", got '" +
               v + "'";
    };
    k.format = [f](const Point &p) { return std::to_string(f.get(p.cfg)); };
    return k;
}

/** A knob with a hand-written parser and formatter. */
Knob
customKnob(Knob k,
           std::string (*parse)(const std::string &value,
                                ExperimentSpec &spec),
           std::string (*format)(const Point &p))
{
    k.parse = parse;
    k.format = format;
    return k;
}

/** @p k as a flag that takes no argument and means @p value. */
Knob
bareFlag(Knob k, const char *value)
{
    k.bareFlag = value;
    return k;
}

/** @p k marked execution-only (see Knob::execOnly). */
Knob
execOnly(Knob k)
{
    k.execOnly = true;
    return k;
}

std::vector<Knob>
buildKnobTable()
{
    constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
    return {
        // Sweep axes, in expansion order (device-major).
        axisKnob<std::string>(
            {"device", "devices", "NAME[,...]",
             "DRAM device registry name (see --list)"},
            &ExperimentSpec::devices, "device", "try --list", findDevice,
            [](Point &p, const std::string &name) {
                p.cfg.applyDevice(dramDeviceOrDie(name));
            },
            [](const Point &p) { return p.cfg.deviceName; }),
        axisKnob<SchedulerKind>(
            {"scheduler", "schedulers", "NAME[,...]",
             "memory scheduler (see --list)"},
            &ExperimentSpec::schedulers, "scheduler", nullptr,
            byName<kAllSchedulers, schedulerKindName>,
            [](Point &p, const SchedulerKind &v) { p.cfg.scheduler = v; },
            [](const Point &p) {
                return std::string(schedulerKindName(p.cfg.scheduler));
            }),
        axisKnob<PagePolicyKind>(
            {"policy", "policies", "NAME[,...]",
             "page policy (see --list)"},
            &ExperimentSpec::policies, "page policy", nullptr,
            byName<kAllPagePolicies, pagePolicyKindName>,
            [](Point &p, const PagePolicyKind &v) { p.cfg.pagePolicy = v; },
            [](const Point &p) {
                return std::string(pagePolicyKindName(p.cfg.pagePolicy));
            }),
        axisKnob<MappingScheme>(
            {"mapping", "mappings", "NAME[,...]",
             "address mapping scheme (see --list)"},
            &ExperimentSpec::mappings, "mapping scheme", nullptr,
            byName<kExtendedMappingSchemes, mappingSchemeName>,
            [](Point &p, const MappingScheme &v) { p.cfg.mapping = v; },
            [](const Point &p) {
                return std::string(mappingSchemeName(p.cfg.mapping));
            }),
        axisKnob<BankGroupMapping>(
            {"group_mapping", "group_mappings", "NAME[,...]",
             "bank-group bit placement (GroupInterleaved | GroupPacked, "
             "or interleaved | packed)",
             KnobScope::Grouped},
            &ExperimentSpec::groupMappings, "bank-group mapping", nullptr,
            tryBankGroupMappingFromName,
            [](Point &p, const BankGroupMapping &v) {
                p.cfg.bankGroupMapping = v;
            },
            [](const Point &p) {
                return std::string(
                    bankGroupMappingName(p.cfg.bankGroupMapping));
            }),
        axisKnob<std::uint32_t>(
            {"channels", nullptr, "N[,...]",
             "channels (stacks on a stacked part), powers of two"},
            &ExperimentSpec::channelCounts, "channel count",
            "need a power-of-two integer in [1, 2147483648]",
            powerOfTwoCount,
            [](Point &p, const std::uint32_t &n) {
                p.cfg.dram.channels = n;
            },
            [](const Point &p) {
                return std::to_string(p.cfg.dram.channels);
            }),
        axisKnob<std::uint32_t>(
            {"vaults", nullptr, "N[,...]",
             "vaults per stack, powers of two; rows per bank scale so "
             "capacity is preserved",
             KnobScope::Stacked},
            &ExperimentSpec::vaultCounts, "vault count",
            "need a power-of-two integer in [1, 2147483648]",
            powerOfTwoCount,
            [](Point &p, const std::uint32_t &n) {
                // A flat base under a multi-device stacked sweep takes
                // the vault count per point instead.
                if (p.cfg.dram.vaultsPerStack)
                    p.cfg.setVaults(n);
            },
            [](const Point &p) {
                return std::to_string(p.cfg.dram.vaultsPerStack);
            }),
        axisKnob<WorkloadId>(
            {"workload", "workloads", "ACRONYM[,...]",
             "paper workload (see --list); also a bare argument"},
            &ExperimentSpec::workloads, "workload", nullptr,
            tryWorkloadFromAcronym,
            [](Point &p, const WorkloadId &w) { p.workload = w; },
            [](const Point &p) {
                return std::string(workloadAcronym(p.workload));
            }),

        // Scalars.
        customKnob(
            {"core_mhz", nullptr, "MHZ", "core clock frequency"},
            [](const std::string &v, ExperimentSpec &s) {
                std::uint64_t n = 0;
                if (!parseUint(v, n) || n == 0 || n > 1'000'000)
                    return "core_mhz needs an integer in [1, 1000000] "
                           "MHz, got '" +
                           v + "'";
                s.base.setCoreMhz(static_cast<std::uint32_t>(n));
                return std::string();
            },
            [](const Point &p) {
                return std::to_string(p.cfg.clocks.coreMhz);
            }),
        uintKnob({"warmup", nullptr, "CYCLES",
                  "warmup window, core cycles"},
                 "a cycle count", 0, kMax,
                 field<&SimConfig::warmupCoreCycles>),
        uintKnob({"measure", nullptr, "CYCLES",
                  "measurement window, core cycles"},
                 "a nonzero cycle count", 1, kMax,
                 field<&SimConfig::measureCoreCycles>),
        uintKnob({"seed", nullptr, "N", "workload random seed"},
                 "an integer", 0, kMax, field<&SimConfig::seed>),
        execOnly(uintKnob(
            {"kernel_threads", nullptr, "N",
             "threads inside one simulation; results are identical at "
             "any count, so it is not part of the cache key"},
            "an integer", 1, ExperimentRunner::kMaxThreads,
            field<&SimConfig::kernelThreads>)),
        onOffKnob({"refresh", nullptr, "on|off", "DRAM refresh"},
                  field<&SimConfig::refreshEnabled>),
        bareFlag(
            customKnob(
                {"fairness", nullptr, "on|off",
                 "attach alone-run baselines and report "
                 "slowdown/fairness (flag: bare --fairness)"},
                [](const std::string &v, ExperimentSpec &s) {
                    if (v != "on" && v != "off")
                        return "fairness must be 'on' or 'off', got '" +
                               v + "'";
                    s.fairness = v == "on";
                    return std::string();
                },
                nullptr),
            "on"),
        customKnob(
            {"backend", nullptr, "flat|stacked",
             "assert every swept device composes this backend; "
             "stacked with no device selects HMC2-8GB"},
            [](const std::string &v, ExperimentSpec &s) {
                if (v != "flat" && v != "stacked")
                    return "backend must be 'flat' or 'stacked', got '" +
                           v + "'";
                s.backend = v == "flat" ? MemBackendKind::FlatDram
                                        : MemBackendKind::StackedDram;
                return std::string();
            },
            [](const Point &p) {
                return std::string(knobInScope(KnobScope::Stacked, p.cfg)
                                       ? "stacked"
                                       : "flat");
            }),
        onOffKnob({"remap", nullptr, "on|off",
                   "dynamic hot-bank vault remapping", KnobScope::Stacked},
                  subfield<&SimConfig::remap, &RemapConfig::enabled>),
        onOffKnob({"tier", nullptr, "on|off",
                   "put a slow CXL/NVM-like tier behind the device"},
                  subfield<&SimConfig::tier, &TierConfig::enabled>),
        customKnob(
            {"tier_policy", nullptr,
             "static_split|hotness_based|alloy_cache",
             "tier placement policy", KnobScope::Tiered},
            [](const std::string &v, ExperimentSpec &s) {
                if (!tryTierPolicyFromName(v, s.base.tier.policy))
                    return "tier_policy must be 'static_split', "
                           "'hotness_based', or 'alloy_cache', got '" +
                           v + "'";
                return std::string();
            },
            [](const Point &p) {
                return std::string(tierPolicyName(p.cfg.tier.policy));
            }),
        uintKnob({"tier_latency", nullptr, "CYCLES",
                  "extra slow-tier read return latency, DRAM cycles",
                  KnobScope::Tiered},
                 "a DRAM cycle count", 0, 1'000'000,
                 subfield<&SimConfig::tier,
                          &TierConfig::slowLatencyDramCycles>),
        uintKnob({"tier_bw", nullptr, "PCT",
                  "slow-tier service rate, percent of the fast tier's",
                  KnobScope::Tiered},
                 "a percentage", 1, 100,
                 subfield<&SimConfig::tier, &TierConfig::slowBwPct>),
        uintKnob({"tier_capacity_pct", nullptr, "PCT",
                  "fast tier's share of the address space",
                  KnobScope::Tiered},
                 "a percentage", 1, 100,
                 subfield<&SimConfig::tier, &TierConfig::fastCapacityPct>),
        customKnob(
            {"tier_hot_factor", nullptr, "X",
             "promote when hot density exceeds X times the cold one",
             KnobScope::Tiered},
            [](const std::string &v, ExperimentSpec &s) {
                char *end = nullptr;
                const double x = std::strtod(v.c_str(), &end);
                if (end != v.c_str() + v.size() || !(x > 0.0))
                    return "tier_hot_factor needs a number > 0, got '" +
                           v + "'";
                s.base.tier.hotFactor = x;
                return std::string();
            },
            [](const Point &p) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%.17g",
                              p.cfg.tier.hotFactor);
                return std::string(buf);
            }),
        uintKnob({"tier_migration_cycles", nullptr, "CYCLES",
                  "DRAM cycles per migrated row", KnobScope::Tiered},
                 "a DRAM cycle count", 1, 1'000'000,
                 subfield<&SimConfig::tier,
                          &TierConfig::migrationCyclesPerRow>),
        uintKnob({"monitor_sample", nullptr, "N",
                  "hotness monitor counts every Nth access",
                  KnobScope::Tiered},
                 "an integer", 1, 1'000'000,
                 subfield<&SimConfig::tier,
                          &TierConfig::monitorSampleEvery>),
        uintKnob({"monitor_window", nullptr, "N",
                  "counted samples per monitor window", KnobScope::Tiered},
                 "an integer", 1, 100'000'000,
                 subfield<&SimConfig::tier,
                          &TierConfig::monitorWindowSamples>),
        uintKnob({"monitor_min_regions", nullptr, "N",
                  "monitor region-count floor", KnobScope::Tiered},
                 "an integer", 1, 1'000'000,
                 subfield<&SimConfig::tier,
                          &TierConfig::monitorMinRegions>),
        uintKnob({"monitor_max_regions", nullptr, "N",
                  "monitor region-count ceiling", KnobScope::Tiered},
                 "an integer", 1, 1'000'000,
                 subfield<&SimConfig::tier,
                          &TierConfig::monitorMaxRegions>),
    };
}

} // namespace

bool
parseUint(const std::string &text, std::uint64_t &out)
{
    // Digits only: strtoull would silently wrap "-1" to 2^64-1.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return *end == '\0' && errno != ERANGE;
}

std::string
trimSpace(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
knobInScope(KnobScope scope, const SimConfig &cfg)
{
    switch (scope) {
        case KnobScope::Grouped:
            return cfg.dram.bankGroupsPerRank > 1;
        case KnobScope::Stacked:
            return cfg.backend == MemBackendKind::StackedDram;
        case KnobScope::Tiered:
            return cfg.tier.enabled;
        case KnobScope::Any:
            break;
    }
    return true;
}

const std::vector<Knob> &
knobTable()
{
    static const std::vector<Knob> table = buildKnobTable();
    return table;
}

const Knob *
findKnob(const std::string &name)
{
    for (const Knob &k : knobTable()) {
        if (name == k.key || (k.plural && name == k.plural))
            return &k;
    }
    return nullptr;
}

std::string
canonicalPointText(const Point &p)
{
    std::ostringstream out;
    out.precision(17);
    for (const Knob &k : knobTable()) {
        if (k.keyed() && knobInScope(k.scope, p.cfg))
            out << k.key << '=' << k.format(p) << ';';
    }
    const auto put = [&out](const char *name, auto value) {
        out << name << '=' << value << ';';
    };
    const SimConfig &c = p.cfg;
    put("cores", c.numCores);
    put("mlp_override", c.coreMlpOverride);
    put("dram_mhz", c.clocks.dramMhz);
    const SchedulerParams &sp = c.schedulerParams;
    put("parbs.cap", sp.parBs.batchingCap);
    put("atlas.quantum", sp.atlas.quantumCycles);
    put("atlas.alpha", sp.atlas.alpha);
    put("atlas.starvation", sp.atlas.starvationCycles);
    put("atlas.units_per_cas", sp.atlas.serviceUnitsPerCas);
    put("rl.tables", sp.rl.numTables);
    put("rl.table_size", sp.rl.tableSize);
    put("rl.alpha", sp.rl.alpha);
    put("rl.gamma", sp.rl.gamma);
    put("rl.epsilon", sp.rl.epsilon);
    put("rl.explore_no_action", sp.rl.exploreNoAction);
    put("rl.starvation", sp.rl.starvationCycles);
    put("rl.seed", sp.rl.seed);
    put("tcm.quantum", sp.tcm.quantumCycles);
    put("tcm.shuffle", sp.tcm.shuffleCycles);
    put("tcm.cluster_frac", sp.tcm.clusterFrac);
    put("tcm.starvation", sp.tcm.starvationCycles);
    put("tcm.seed", sp.tcm.seed);
    put("stfm.alpha", sp.stfm.alpha);
    put("stfm.decay", sp.stfm.decayCycles);
    put("stfm.decay_factor", sp.stfm.decayFactor);
    put("stfm.starvation", sp.stfm.starvationCycles);
    put("mc.drain_high", c.controller.writeDrainHigh);
    put("mc.drain_low", c.controller.writeDrainLow);
    put("mc.drain_idle", c.controller.writeDrainIdle);
    put("mc.idle_drain_cycles", c.controller.writeIdleDrainCycles);
    put("mc.forward_latency", c.controller.forwardLatencyCycles);
    put("xbar_latency", c.xbarLatencyCycles);
    put("ranks", c.dram.ranksPerChannel);
    put("banks", c.dram.banksPerRank);
    put("bank_groups", c.dram.bankGroupsPerRank);
    put("rows", c.dram.rowsPerBank);
    put("row_bytes", c.dram.rowBufferBytes);
    put("block_bytes", c.dram.blockBytes);
    put("tTSV", c.timings.tTSV);
    for (const CacheConfig *cache :
         {&c.hierarchy.l1i, &c.hierarchy.l1d, &c.hierarchy.l2}) {
        put("cache.bytes", cache->sizeBytes);
        put("cache.ways", cache->ways);
        put("cache.block", cache->blockBytes);
    }
    put("l2_banks", c.hierarchy.l2Banks);
    put("core.mlp", c.core.mlpWindow);
    put("core.store_buffer", c.core.storeBufferEntries);
    put("core.l2_hit_latency", c.core.l2HitLatency);
    put("core.instrs_per_fetch", c.core.instrsPerFetchBlock);
    if (knobInScope(KnobScope::Stacked, c)) {
        put("remap.window", c.remap.windowAccesses);
        put("remap.hot_factor", c.remap.hotFactor);
        put("remap.rows", c.remap.migrationRows);
        put("remap.cycles_per_row", c.remap.migrationCyclesPerRow);
    }
    return out.str();
}

std::string
pointSpecText(const Point &p)
{
    std::ostringstream out;
    for (const Knob &k : knobTable()) {
        if (k.format && knobInScope(k.scope, p.cfg))
            out << k.key << " = " << k.format(p) << '\n';
    }
    return out.str();
}

std::string
knobHelpText()
{
    std::ostringstream out;
    for (const Knob &k : knobTable()) {
        out << "  " << k.key;
        if (k.plural)
            out << ", " << k.plural;
        out << ' ' << k.syntax << "\n        ";
        if (k.axis)
            out << "[axis] ";
        if (k.scope == KnobScope::Stacked)
            out << "[stacked only] ";
        if (k.scope == KnobScope::Tiered)
            out << "[tier = on only] ";
        out << k.help << '\n';
    }
    return out.str();
}

} // namespace mcsim
