/**
 * @file
 * Tests for the home directory's storage: per-page entry blocks
 * (presence, stable addresses, canonical walk order, geometry), the
 * table-owned blocked-request queues, and the machine's per-line
 * version table built on the same page blocks.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "proto/directory.hh"
#include "sim/log.hh"

namespace pimdsm
{
namespace
{

constexpr Addr kLine = 128;
constexpr Addr kPage = 4096;

DirectoryTable
defaultTable()
{
    const MachineConfig cfg;
    return DirectoryTable(cfg.mem.lineBytes, cfg.pageBytes);
}

TEST(Directory, NodeFieldsHold16BitIdsAndPanicPastThem)
{
    static_assert(sizeof(DirEntry) == 24);
    DirEntry e;
    EXPECT_EQ(e.owner, kInvalidNode);
    e.owner = 63;
    e.busyFor = std::numeric_limits<std::int16_t>::max();
    EXPECT_EQ(e.owner, 63);
    EXPECT_EQ(e.busyFor, 32767);
    try {
        e.fwdTo = 40000;
        ADD_FAILURE() << "a node id past int16 was stored";
    } catch (const PanicError &p) {
        EXPECT_NE(std::string(p.what()).find("(range -32768..32767)"),
                  std::string::npos)
            << p.what();
    }
    EXPECT_EQ(e.fwdTo, kInvalidNode);
}

/** Text of the panic @p fn raises ("" if none). */
template <typename F>
std::string
panicText(F fn)
{
    try {
        fn();
    } catch (const PanicError &p) {
        return p.what();
    }
    return "";
}

TEST(Message, NarrowFieldsHoldTheirRangeAndPanicPastIt)
{
    static_assert(sizeof(Message) == 40);
    Message m;
    m.src = 63;
    m.ackCount = 65535;
    m.retryAttempt = 65535;
    m.legs = 255;
    m.cimCount = std::uint64_t{0xffffffffu};
    EXPECT_EQ(m.src, 63);
    EXPECT_EQ(m.ackCount, 65535);
    EXPECT_EQ(m.retryAttempt, 65535);
    EXPECT_EQ(m.legs, 255);
    EXPECT_EQ(m.cimCount, 0xffffffffu);

    EXPECT_NE(panicText([&] { m.ackCount = 65536; })
                  .find("value 65536 does not fit a 16-bit field"),
              std::string::npos);
    EXPECT_NE(panicText([&] { m.retryAttempt = -1; })
                  .find("(range 0..65535)"),
              std::string::npos);
    EXPECT_NE(panicText([&] { m.legs = 256; }).find("8-bit"),
              std::string::npos);
    EXPECT_NE(panicText([&] { m.cimCount = std::uint64_t{1} << 32; })
                  .find("value 4294967296 does not fit a 32-bit field"),
              std::string::npos);
    EXPECT_NE(panicText([&] { m.dst = 32768; }).find("16-bit"),
              std::string::npos);
    // A refused value leaves the field as it was.
    EXPECT_EQ(m.ackCount, 65535);
    EXPECT_EQ(m.legs, 255);
    EXPECT_EQ(m.dst, kInvalidNode);
}

TEST(Directory, FindIsNullForLinesNeverCreated)
{
    DirectoryTable dir = defaultTable();
    EXPECT_EQ(dir.find(5 * kPage), nullptr); // untouched page

    dir.entry(5 * kPage + 3 * kLine);
    EXPECT_NE(dir.find(5 * kPage + 3 * kLine), nullptr);
    // Same page, other lines: the block exists, the entries do not.
    EXPECT_EQ(dir.find(5 * kPage), nullptr);
    EXPECT_EQ(dir.find(5 * kPage + 4 * kLine), nullptr);
    EXPECT_EQ(dir.size(), 1u);

    dir.entry(5 * kPage + 3 * kLine); // existing entry: no new line
    EXPECT_EQ(dir.size(), 1u);
}

TEST(Directory, NewEntriesStartUncached)
{
    DirectoryTable dir = defaultTable();
    const DirEntry &e = dir.entry(kPage);
    EXPECT_EQ(e.state, DirEntry::State::Uncached);
    EXPECT_EQ(e.sharers, 0u);
    EXPECT_EQ(e.owner, kInvalidNode);
    EXPECT_EQ(e.localPtr, kNilPtr);
    EXPECT_FALSE(e.busy);
}

TEST(Directory, ForEachVisitsLinesInAscendingOrder)
{
    DirectoryTable dir = defaultTable();
    // Pages created out of order, lines within a page out of order.
    const std::vector<Addr> created = {
        9 * kPage + 2 * kLine, 2 * kPage + 31 * kLine, 9 * kPage,
        40 * kPage + kLine,    2 * kPage,              0,
    };
    for (Addr line : created)
        dir.entry(line);

    std::vector<Addr> seen;
    dir.forEach([&](Addr line, const DirEntry &) { seen.push_back(line); });
    const std::vector<Addr> want = {
        0,         2 * kPage,          2 * kPage + 31 * kLine,
        9 * kPage, 9 * kPage + 2 * kLine, 40 * kPage + kLine,
    };
    EXPECT_EQ(seen, want);
}

TEST(Directory, ForEachWalksASnapshot)
{
    DirectoryTable dir = defaultTable();
    dir.entry(0);
    dir.entry(kPage);
    std::vector<Addr> seen;
    dir.forEach([&](Addr line, DirEntry &) {
        seen.push_back(line);
        dir.entry(line + kLine); // created mid-walk: not visited
    });
    EXPECT_EQ(seen, (std::vector<Addr>{0, kPage}));
    EXPECT_EQ(dir.size(), 4u);
}

TEST(Directory, EntryStaysValidWhileOthersAreCreated)
{
    DirectoryTable dir = defaultTable();
    DirEntry &e = dir.entry(7 * kLine);
    e.sharers = 0x5;
    e.version = 42;
    for (Addr i = 0; i < 1000; ++i)
        dir.entry(kPage + i * kLine);
    EXPECT_EQ(&e, dir.find(7 * kLine));
    EXPECT_EQ(e.sharers, 0x5u);
    EXPECT_EQ(e.version, 42u);
    EXPECT_EQ(dir.size(), 1001u);
}

TEST(Directory, QueuesKeepFifoOrderAndCounts)
{
    DirectoryTable dir = defaultTable();
    EXPECT_EQ(dir.queued(kLine), 0u);
    for (NodeId src = 0; src < 3; ++src) {
        Message m;
        m.src = src;
        m.lineAddr = kLine;
        dir.queue(kLine).push_back(m);
    }
    EXPECT_EQ(dir.queued(kLine), 3u);
    EXPECT_EQ(dir.queued(2 * kLine), 0u);

    std::vector<Message> &q = dir.queue(kLine);
    EXPECT_EQ(q.front().src, 0);
    q.erase(q.begin());
    EXPECT_EQ(dir.queued(kLine), 2u);
    EXPECT_EQ(dir.queue(kLine).front().src, 1);
    EXPECT_EQ(dir.queue(kLine).back().src, 2);
}

TEST(Directory, ClearDropsEntriesAndQueues)
{
    DirectoryTable dir = defaultTable();
    dir.entry(kLine).version = 3;
    dir.entry(3 * kPage);
    dir.queue(kLine).push_back(Message{});
    dir.clear();

    EXPECT_EQ(dir.size(), 0u);
    EXPECT_EQ(dir.find(kLine), nullptr);
    EXPECT_EQ(dir.find(3 * kPage), nullptr);
    EXPECT_EQ(dir.queued(kLine), 0u);
    int visits = 0;
    dir.forEach([&](Addr, const DirEntry &) { ++visits; });
    EXPECT_EQ(visits, 0);

    // Recreated entries start afresh.
    EXPECT_EQ(dir.entry(kLine).version, 0u);
    EXPECT_EQ(dir.size(), 1u);
}

/** Every line of two adjacent pages maps to its own entry and walks
 *  back at its own address. */
void
checkGeometry(std::uint64_t line_bytes, std::uint64_t page_bytes)
{
    DirectoryTable dir(line_bytes, page_bytes);
    const Addr base = 3 * page_bytes;
    const Addr lines = 2 * page_bytes / line_bytes;
    for (Addr i = 0; i < lines; ++i)
        dir.entry(base + i * line_bytes).version = i + 1;
    EXPECT_EQ(dir.size(), lines);
    EXPECT_EQ(dir.find(base - line_bytes), nullptr);
    EXPECT_EQ(dir.find(base + 2 * page_bytes), nullptr);

    Addr next = base;
    dir.forEach([&](Addr line, const DirEntry &e) {
        EXPECT_EQ(line, next);
        EXPECT_EQ(e.version, (line - base) / line_bytes + 1);
        next += line_bytes;
    });
    EXPECT_EQ(next, base + 2 * page_bytes);
}

TEST(Directory, Geometry64BLines4KiBPages) { checkGeometry(64, 4096); }

TEST(Directory, Geometry128BLines8KiBPages) { checkGeometry(128, 8192); }

TEST(Directory, UnwrittenLineOnWrittenPageReadsVersionZero)
{
    MachineConfig cfg = makeBaseConfig(ArchKind::Agg);
    cfg.validate();
    Machine m(cfg);
    const Addr line = 4 * kPage + 5 * kLine;
    EXPECT_EQ(m.latestVersion(line), 0u);

    EXPECT_EQ(m.bumpVersion(line), 1u);
    EXPECT_EQ(m.bumpVersion(line), 2u);
    EXPECT_EQ(m.latestVersion(line), 2u);
    EXPECT_EQ(m.latestVersion(line + kLine), 0u); // same page
    EXPECT_EQ(m.latestVersion(line + kPage), 0u); // untouched page
}

} // namespace
} // namespace pimdsm
