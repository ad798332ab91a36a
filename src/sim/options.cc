#include "options.hh"

#include <algorithm>
#include <sstream>

#include "dram/devices.hh"
#include "knobs.hh"

namespace mcsim {

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
