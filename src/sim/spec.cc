#include "spec.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "dram/devices.hh"
#include "knobs.hh"

namespace mcsim {

std::string
ExperimentSpec::set(const std::string &key, const std::string &value)
{
    const Knob *k = findKnob(key);
    if (!k)
        return "unknown key '" + key + "'";
    std::string err = k->parse(value, *this);
    if (err.empty() && std::find(given.begin(), given.end(), k->key) ==
                           given.end()) {
        given.push_back(k->key);
    }
    return err;
}

namespace {

/**
 * The first problem with sweeping @p name under @p spec: a backend
 * key the device does not compose, a given knob out of the device's
 * scope, or a vault count that cannot keep its capacity. "" if none.
 */
std::string
sweptDeviceError(const ExperimentSpec &spec, const std::string &name)
{
    SimConfig cfg = spec.base;
    cfg.applyDevice(dramDeviceOrDie(name));
    const bool stacked = knobInScope(KnobScope::Stacked, cfg);
    if (spec.backend &&
        (*spec.backend == MemBackendKind::StackedDram) != stacked) {
        return stacked ? "backend = flat, but device '" + name +
                             "' is a stacked part"
                       : "backend = stacked, but device '" + name +
                             "' is a flat JEDEC part";
    }
    const auto offender = std::find_if(
        spec.given.begin(), spec.given.end(), [&](const std::string &key) {
            const KnobScope scope = findKnob(key)->scope;
            return scope != KnobScope::Grouped && !knobInScope(scope, cfg);
        });
    if (offender != spec.given.end()) {
        if (findKnob(*offender)->scope == KnobScope::Stacked)
            return "'" + *offender +
                   "' applies to the stacked backend only, but device '" +
                   name +
                   "' is a flat JEDEC part (set backend = stacked or pick "
                   "a stacked device)";
        return "'" + *offender +
               "' applies to the tiered backend only, but the spec does "
               "not enable it (put 'tier = on' first)";
    }
    const auto lossy = std::find_if(
        spec.vaultCounts.begin(), spec.vaultCounts.end(),
        [&](std::uint32_t vc) {
            return cfg.dram.rowsPerBank * cfg.dram.vaultsPerStack % vc != 0;
        });
    if (lossy != spec.vaultCounts.end())
        return "vault count " + std::to_string(*lossy) +
               " cannot preserve device '" + name + "' capacity";
    return {};
}

} // namespace

std::string
ExperimentSpec::finish()
{
    if (backend == MemBackendKind::StackedDram && devices.empty())
        base.applyDevice(dramDeviceOrDie("HMC2-8GB"));

    // Check every device the sweep will actually build: a knob that
    // silently did nothing would masquerade as a null result.
    for (const std::string &d :
         devices.empty() ? std::vector<std::string>{base.deviceName}
                         : devices) {
        const std::string err = sweptDeviceError(*this, d);
        if (!err.empty())
            return err;
    }
    if (base.tier.enabled &&
        base.tier.monitorMaxRegions < base.tier.monitorMinRegions) {
        return "monitor_max_regions (" +
               std::to_string(base.tier.monitorMaxRegions) +
               ") must be >= monitor_min_regions (" +
               std::to_string(base.tier.monitorMinRegions) + ")";
    }

    ExperimentRunner::Point shaped(WorkloadId::DS, base);
    for (const Knob &k : knobTable()) {
        if (k.axis && k.count(*this) == 1)
            k.pick(*this, 0, shaped);
    }
    base = std::move(shaped.cfg);
    return {};
}

std::size_t
ExperimentSpec::pointCount() const
{
    std::size_t n = 1;
    for (const Knob &k : knobTable()) {
        if (k.axis)
            n *= std::max<std::size_t>(k.count(*this), 1);
    }
    return n;
}

std::vector<ExperimentRunner::Point>
ExperimentSpec::points() const
{
    // An odometer over the swept axes, the last one turning fastest;
    // an unset axis keeps the base configuration's value.
    std::vector<const Knob *> axes;
    for (const Knob &k : knobTable()) {
        if (k.axis && k.count(*this) > 0)
            axes.push_back(&k);
    }
    std::vector<std::size_t> at(axes.size(), 0);
    std::vector<ExperimentRunner::Point> out;
    out.reserve(pointCount());
    while (true) {
        ExperimentRunner::Point p(WorkloadId::DS, base);
        for (std::size_t a = 0; a < axes.size(); ++a)
            axes[a]->pick(*this, at[a], p);
        if (fairness)
            ExperimentRunner::attachAloneBaseline(p);
        out.push_back(std::move(p));

        std::size_t a = axes.size();
        while (a > 0 && ++at[a - 1] == axes[a - 1]->count(*this))
            at[--a] = 0;
        if (a == 0)
            return out;
    }
}

namespace {

/** Apply one spec line (comments and blanks allowed); "" or an error. */
std::string
applySpecLine(const std::string &raw, ExperimentSpec &spec)
{
    const std::string line = trimSpace(raw.substr(0, raw.find('#')));
    if (line.empty())
        return {};
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
        return "expected 'key = value', got '" + line + "'";
    const std::string key = trimSpace(line.substr(0, eq));
    const std::string value = trimSpace(line.substr(eq + 1));
    if (key.empty())
        return "missing key before '='";
    if (value.empty())
        return "missing value for '" + key + "'";
    return spec.set(key, value);
}

/** Apply spec text's lines in order; "" or a "line N: ..." error. */
std::string
applySpecText(const std::string &text, ExperimentSpec &spec)
{
    std::istringstream in(text);
    std::string line, err;
    int lineNo = 0;
    while (err.empty() && std::getline(in, line)) {
        ++lineNo;
        err = applySpecLine(line, spec);
    }
    return err.empty() ? err
                       : "line " + std::to_string(lineNo) + ": " + err;
}

} // namespace

std::string
parseExperimentSpec(const std::string &text, ExperimentSpec &out)
{
    out = ExperimentSpec{};
    const std::string err = applySpecText(text, out);
    return err.empty() ? out.finish() : err;
}

std::string
applySpecFile(const std::string &path, ExperimentSpec &spec)
{
    std::ifstream in(path);
    if (!in)
        return "cannot open spec file '" + path + "'";
    std::ostringstream text;
    text << in.rdbuf();
    const std::string err = applySpecText(text.str(), spec);
    return err.empty() ? err : "spec '" + path + "' " + err;
}

std::string
loadExperimentSpec(const std::string &path, ExperimentSpec &out)
{
    out = ExperimentSpec{};
    const std::string err = applySpecFile(path, out);
    return err.empty() ? out.finish() : err;
}

} // namespace mcsim
