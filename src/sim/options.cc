#include "options.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "knobs.hh"

namespace mcsim {

std::string
FlagSet::uintIn(const std::string &v, std::uint64_t lo, std::uint64_t hi,
                std::uint64_t &n)
{
    if (parseUint(v, n) && n >= lo && n <= hi)
        return {};
    return "needs an integer " +
           (hi == UINT64_MAX ? ">= " + std::to_string(lo)
                             : "in [" + std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
}

FlagSet &
FlagSet::flag(const char *spelling, bool &on)
{
    return add(spelling, [&on](const std::string &) {
        on = true;
        return std::string();
    });
}

FlagSet &
FlagSet::flag(const char *spelling, double &x, double lo, double hi)
{
    return add(spelling, [&x, lo, hi](const std::string &v) {
        char *end = nullptr;
        x = std::strtod(v.c_str(), &end);
        if (!v.empty() && *end == '\0' && x >= lo && x < hi)
            return std::string();
        char need[64];
        std::snprintf(need, sizeof(need), "needs a number in [%g, %g)", lo,
                      hi);
        return std::string(need);
    });
}

FlagSet &
FlagSet::flag(const char *spelling, std::string &text)
{
    return add(spelling, [&text](const std::string &v) {
        text = v;
        return std::string();
    });
}

FlagSet &
FlagSet::flag(const char *spelling, WorkloadId &workload)
{
    return add(spelling, [&workload](const std::string &v) {
        if (tryWorkloadFromAcronym(v, workload))
            return std::string();
        std::string need = "needs one of";
        for (WorkloadId id : kAllWorkloads)
            need.append(" ").append(workloadAcronym(id));
        return need;
    });
}

FlagSet &
FlagSet::flag(const char *spelling, const DramDevice *&device)
{
    return add(spelling, [&device](const std::string &v) {
        device = findDramDevice(v);
        return std::string(device ? ""
                                  : "needs a DRAM device registry name");
    });
}

FlagSet &
FlagSet::fast()
{
    return add("--fast D", [](const std::string &v) {
        std::uint64_t divisor = 0;
        if (!parseUint(v, divisor) || divisor == 0)
            return std::string("needs a nonzero divisor");
        setenv("CLOUDMC_FAST", v.c_str(), 1);
        return std::string();
    });
}

FlagSet &
FlagSet::threads()
{
    return add("--threads N", [](const std::string &v) {
        std::uint64_t n = 0;
        const std::string err =
            uintIn(v, 1, ExperimentRunner::kMaxThreads, n);
        if (err.empty())
            setenv("CLOUDMC_THREADS", v.c_str(), 1);
        return err;
    });
}

void
FlagSet::parse(int argc, char **argv) const
{
    std::string usage = std::string("usage: ") + argv[0];
    for (const auto &f : positionals_)
        usage += " [" + f.first + "]";
    for (const auto &f : flags_)
        usage += " [" + f.first + "]";
    if (!help_.empty())
        usage += " [--help] [--list]";
    const auto fail = [&](const std::string &err) {
        std::fprintf(stderr, "%s: %s\n%s\n", argv[0], err.c_str(),
                     usage.c_str());
        std::exit(2);
    };
    auto positional = positionals_.begin();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!help_.empty() && (arg == "--help" || arg == "--list")) {
            std::printf("%s\n\n%s", usage.c_str(), help_.c_str());
            std::exit(0);
        }
        if (arg.rfind('-', 0) != 0) {
            if (positional == positionals_.end())
                fail("unexpected argument '" + arg + "'");
            const std::string err = positional->second(arg);
            if (!err.empty()) {
                fail(positional->first + ": " + err + ", got '" + arg +
                     "'");
            }
            ++positional;
            continue;
        }
        const auto f = std::find_if(
            flags_.begin(), flags_.end(), [&](const Flag &flag) {
                return arg == flag.first.substr(0, flag.first.find(' '));
            });
        if (f == flags_.end())
            fail("unknown flag '" + arg + "'");
        const bool bare = f->first.find(' ') == std::string::npos;
        if (!bare && i + 1 == argc)
            fail(arg + " needs a value");
        const std::string value = bare ? "" : argv[++i];
        const std::string err = f->second(value);
        if (!err.empty())
            fail(arg + ": " + err + ", got '" + value + "'");
    }
}

std::string
ExperimentOptions::parse(int argc, char **argv)
{
    const auto flagError = [](const std::string &flag,
                              const std::string &err) {
        return flag + ": " + err;
    };
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            helpRequested = true;
            continue;
        }
        if (arg == "--list") {
            listRequested = true;
            continue;
        }
        if (arg == "--csv") {
            csv = true;
            continue;
        }
        if (arg.rfind("--", 0) != 0) {
            // A bare acronym selects the workload; anything else stays
            // positional for the tool to interpret.
            if (!spec.set("workload", arg).empty())
                positional.push_back(arg);
            continue;
        }

        std::string key = arg.substr(2);
        std::replace(key.begin(), key.end(), '-', '_');
        const Knob *knob = findKnob(key);
        if (!knob && key != "config" && key != "fast")
            return "unknown flag '" + arg + "'";
        const bool bare = knob && knob->bareFlag;
        if (!bare && i + 1 == argc)
            return arg + " needs a value";
        const std::string value = bare ? knob->bareFlag : argv[++i];

        std::string err;
        if (knob) {
            err = spec.set(knob->key, value);
        } else if (key == "config") {
            err = applySpecFile(value, spec);
            hasSpec = true;
        } else {
            std::uint64_t divisor = 0;
            if (!parseUint(value, divisor) || divisor == 0)
                err = "needs a nonzero divisor, got '" + value + "'";
            else
                spec.base.shortenWindows(divisor);
        }
        if (!err.empty())
            return flagError(arg, err);
    }

    const std::string err = spec.finish();
    if (!err.empty())
        return err;
    config = spec.base;
    if (spec.workloads.size() == 1)
        workload = spec.workloads.front();
    fairness = spec.fairness;
    return {};
}

std::string
ExperimentOptions::listText()
{
    std::ostringstream out;
    out << "schedulers:";
    for (auto k : kAllSchedulers)
        out << ' ' << schedulerKindName(k);
    out << "\npolicies:";
    for (auto k : kAllPagePolicies)
        out << ' ' << pagePolicyKindName(k);
    out << "\nmappings:";
    for (auto s : kExtendedMappingSchemes)
        out << ' ' << mappingSchemeName(s);
    out << "\ngroup mappings:";
    for (auto m : kAllBankGroupMappings)
        out << ' ' << bankGroupMappingName(m);
    out << "\nworkloads:";
    for (auto w : kAllWorkloads)
        out << ' ' << workloadAcronym(w);
    out << "\ndevices:\n";
    for (const DramDevice &d : dramDeviceRegistry()) {
        out << "  " << d.name << " (" << d.dataRateMtps << " MT/s, "
            << d.busMhz << " MHz bus, CL" << d.timings.tCAS << '-'
            << d.timings.tRCD << '-' << d.timings.tRP << ", "
            << d.geometry.banksPerRank << " banks/rank";
        if (d.geometry.bankGroupsPerRank > 1) {
            out << " in " << d.geometry.bankGroupsPerRank
                << " groups, tCCD " << d.timings.tCCD << '/'
                << d.timings.tCCDL;
        }
        if (d.timings.perBankRefresh)
            out << ", per-bank refresh";
        // Backend + vault-geometry columns; flat parts show '-'.
        out << ", " << (d.geometry.vaultsPerStack ? "stacked" : "flat")
            << " backend, vaults ";
        if (d.geometry.vaultsPerStack) {
            out << d.geometry.vaultsPerStack << " x "
                << d.geometry.banksPerRank << " banks";
            if (d.timings.tTSV)
                out << ", tTSV " << d.timings.tTSV;
        } else {
            out << '-';
        }
        out << ") — " << d.source << '\n';
    }
    return out.str();
}

std::string
ExperimentOptions::usage(const std::string &tool)
{
    std::ostringstream out;
    out << "usage: " << tool
        << " [workload] [--KEY VALUE ...] [--config SPEC] [--fast D]\n"
        << "       [--csv] [--list] [--help]\n\n"
        << "Every knob below is a spec-file key (key = value) and a "
           "flag (--key value,\n"
        << "'-' for '_'). Axis knobs take comma-separated lists and "
           "expand a sweep.\n\n"
        << knobHelpText()
        << "\nOther flags:\n"
        << "  --config SPEC   apply a spec file's keys here; later flags "
           "override them\n"
        << "  --fast D        divide the warmup/measure windows by D "
           "(>= 100000 measured)\n"
        << "  --csv           CSV output\n"
        << "  --list          every legal name, below\n\n";
    out << listText();
    return out.str();
}

} // namespace mcsim
