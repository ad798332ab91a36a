/**
 * @file
 * CommandLog: each channel's DRAM commands with its own geometry,
 * timings and clocks, to compare runs and to referee them afterwards.
 */

#ifndef CLOUDMC_DRAM_COMMAND_LOG_HH
#define CLOUDMC_DRAM_COMMAND_LOG_HH

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "commands.hh"

namespace mcsim {

class Channel;

struct CommandLog
{
    struct Entry
    {
        Tick tick;
        DramCommand cmd;

        bool
        operator==(const Entry &o) const
        {
            return tick == o.tick && cmd.type == o.cmd.type &&
                   cmd.rank == o.cmd.rank && cmd.bank == o.cmd.bank &&
                   cmd.row == o.cmd.row && cmd.column == o.cmd.column;
        }
    };

    struct ChannelLog
    {
        DramGeometry geometry;
        DramTimings timings;
        ClockDomains clocks;
        std::vector<Entry> entries;
    };

    /** Log @p ch via its command hook from now on, as the next channel
     *  (only @p ch appends to it, so kernel shards never share one). */
    void attach(Channel &ch);

    /** attach() every channel of System @p sys, in controller order. */
    template <typename SystemT>
    void
    attachAll(SystemT &sys)
    {
        for (std::uint32_t c = 0; c < sys.numControllers(); ++c)
            attach(sys.controller(c).channel());
    }

    /** One per channel, in a deque: none moves as it grows or is moved. */
    std::deque<ChannelLog> channels;

    /** Commands over every channel, or only those of @p type. */
    std::size_t count(std::optional<DramCommandType> type = {}) const;

    /** "", or the first command (or channel) where @p other differs. */
    std::string firstDivergence(const CommandLog &other) const;

    /** "", or the first command its channel's TimingChecker rejects. */
    std::string firstViolation() const;
};

} // namespace mcsim

#endif // CLOUDMC_DRAM_COMMAND_LOG_HH
