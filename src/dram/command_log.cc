#include "command_log.hh"

#include <algorithm>
#include <sstream>

#include "channel.hh"
#include "timing_checker.hh"

namespace mcsim {

namespace {

/** Command @p i of channel @p c, or "none" past its end. */
std::string
describe(std::size_t c, const std::vector<CommandLog::Entry> &v,
         std::size_t i)
{
    std::ostringstream os;
    os << "channel " << c << " command " << i << ": ";
    if (i >= v.size())
        return os.str() + "none";
    os << dramCommandName(v[i].cmd.type) << " rank " << v[i].cmd.rank
       << " bank " << v[i].cmd.bank << " row " << v[i].cmd.row << " col "
       << v[i].cmd.column << " at tick " << v[i].tick;
    return os.str();
}

} // namespace

void
CommandLog::attach(Channel &ch)
{
    channels.push_back({ch.geometry(), ch.timings(), ch.clocks(), {}});
    std::vector<Entry> *entries = &channels.back().entries;
    ch.setCommandHook([entries](const DramCommand &cmd, Tick now) {
        entries->push_back({now, cmd});
    });
}

std::size_t
CommandLog::count(std::optional<DramCommandType> type) const
{
    std::size_t n = 0;
    for (const ChannelLog &c : channels) {
        for (const Entry &e : c.entries)
            n += !type || type == e.cmd.type;
    }
    return n;
}

std::string
CommandLog::firstDivergence(const CommandLog &other) const
{
    if (channels.size() != other.channels.size())
        return "the logs hold different numbers of channels";
    for (std::size_t c = 0; c < channels.size(); ++c) {
        const std::vector<Entry> &a = channels[c].entries;
        const std::vector<Entry> &b = other.channels[c].entries;
        const auto i = static_cast<std::size_t>(
            std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
            a.begin());
        if (i < a.size() || i < b.size())
            return describe(c, a, i) + " vs " + describe(c, b, i);
    }
    return "";
}

std::string
CommandLog::firstViolation() const
{
    for (std::size_t c = 0; c < channels.size(); ++c) {
        const ChannelLog &log = channels[c];
        TimingChecker checker(log.geometry, log.timings, log.clocks);
        for (std::size_t i = 0; i < log.entries.size(); ++i) {
            const Entry &e = log.entries[i];
            const std::string err = checker.check(e.cmd, e.tick);
            if (!err.empty())
                return describe(c, log.entries, i) + ": " + err;
        }
    }
    return "";
}

} // namespace mcsim
