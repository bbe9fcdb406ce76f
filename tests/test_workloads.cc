/** @file Unit tests for workload profiles, streams, and mixes. */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "workloads/mixes.hh"
#include "workloads/workload.hh"

using namespace bear;

TEST(Profiles, SixteenBenchmarksWithTableTwoFigures)
{
    const auto &profiles = allProfiles();
    ASSERT_EQ(profiles.size(), 16u);
    EXPECT_EQ(profiles.front().name, "mcf");
    EXPECT_DOUBLE_EQ(profiles.front().l3Mpki, 74.6);
    EXPECT_EQ(profileByName("libquantum").footprintBytes, 256ULL << 20);
    EXPECT_DOUBLE_EQ(profileByName("xalancbmk").l3Mpki, 2.3);
}

TEST(Profiles, ProbabilitiesAreSane)
{
    for (const auto &p : allProfiles()) {
        EXPECT_LE(p.hotProb + p.warmProb + p.reuseProb, 1.0) << p.name;
        EXPECT_GT(p.writeFraction, 0.0) << p.name;
        EXPECT_LT(p.writeFraction, 1.0) << p.name;
        EXPECT_GE(p.spatialRunMean, 1.0) << p.name;
    }
}

TEST(ProfilesDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(profileByName("nosuchbench"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(WorkloadStream, Deterministic)
{
    const WorkloadProfile &p = profileByName("soplex");
    WorkloadStream a(p, 7, 0.0625), b(p, 7, 0.0625);
    for (int i = 0; i < 1000; ++i) {
        const MemRef ra = a.next(), rb = b.next();
        EXPECT_EQ(ra.vaddr, rb.vaddr);
        EXPECT_EQ(ra.pc, rb.pc);
        EXPECT_EQ(ra.instGap, rb.instGap);
        EXPECT_EQ(ra.isWrite, rb.isWrite);
    }
}

TEST(WorkloadStream, SeedsDecorrelate)
{
    const WorkloadProfile &p = profileByName("soplex");
    WorkloadStream a(p, 1, 0.0625), b(p, 2, 0.0625);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next().vaddr == b.next().vaddr ? 1 : 0;
    EXPECT_LT(same, 100);
}

TEST(WorkloadStream, StaysWithinScaledFootprint)
{
    const WorkloadProfile &p = profileByName("sphinx3");
    WorkloadStream s(p, 3, 0.0625);
    const std::uint64_t bound = s.footprintLines();
    for (int i = 0; i < 50000; ++i)
        EXPECT_LT(lineOf(s.next().vaddr), bound);
}

TEST(WorkloadStream, WriteFractionMatchesProfile)
{
    const WorkloadProfile &p = profileByName("lbm"); // 45% stores
    WorkloadStream s(p, 5, 0.0625);
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        writes += s.next().isWrite ? 1 : 0;
    EXPECT_NEAR(writes / static_cast<double>(n), p.writeFraction, 0.02);
}

TEST(WorkloadStream, InstructionGapTracksMpki)
{
    const WorkloadProfile &p = profileByName("mcf");
    WorkloadStream s(p, 5, 0.0625);
    double inst = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        inst += s.next().instGap + 1;
    const double apki = 1000.0 * n / inst;
    EXPECT_NEAR(apki, p.l3Mpki * p.apkiFactor, p.l3Mpki * 0.15);
}

TEST(WorkloadStream, ReuseRetouchesRecentLines)
{
    WorkloadProfile p = profileByName("GemsFDTD"); // reuse 0.38
    WorkloadStream s(p, 9, 0.0625);
    std::set<LineAddr> seen;
    int retouch = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const LineAddr l = lineOf(s.next().vaddr);
        retouch += seen.count(l) ? 1 : 0;
        seen.insert(l);
    }
    // Reuse plus hot/warm region revisits: well above the reuse share.
    EXPECT_GT(retouch / static_cast<double>(n), p.reuseProb * 0.8);
}

TEST(Mixes, TableThreeIsExact)
{
    const auto &mixes = tableThreeMixes();
    ASSERT_EQ(mixes.size(), 8u);
    EXPECT_EQ(mixes[0].name, "MIX1");
    EXPECT_EQ(mixes[0].klass, "8H");
    EXPECT_EQ(mixes[0].benchmarks[0], "libquantum");
    EXPECT_EQ(mixes[7].klass, "8M");
    EXPECT_EQ(mixes[7].benchmarks[7], "sphinx3");
}

TEST(Mixes, ThirtyEightTotalAllResolvable)
{
    const auto &mixes = allMixes();
    ASSERT_EQ(mixes.size(), 38u);
    std::set<std::string> names;
    for (const auto &mix : mixes) {
        EXPECT_TRUE(names.insert(mix.name).second) << mix.name;
        for (const auto &b : mix.benchmarks)
            profileByName(b); // fatal if unknown
    }
}

namespace
{

/** One pinned reference: vaddr, pc, instGap, isWrite, dependent. */
struct GoldenRef
{
    std::uint64_t vaddr;
    std::uint64_t pc;
    std::uint32_t instGap;
    int isWrite;
    int dependent;
};

/**
 * The first 64 references of two representative profiles (streaming
 * libquantum, pointer-chasing mcf) for seed 42 at scale 0.0625.
 * These pins are the generator's compatibility contract with recorded
 * .beartrace corpora: any change to WorkloadStream's drawing order
 * breaks replay equivalence of existing traces, and must fail HERE —
 * at the generator — rather than as a mysterious report diff in a
 * bench.  If a change is intentional, re-pin these values AND bump
 * the trace users' expectations consciously.
 */
const GoldenRef kGoldenMcf[64] = {
    {0x63080ULL, 0x400098ULL, 13, 0, 1},
    {0x630C0ULL, 0x400098ULL, 15, 0, 1},
    {0x63100ULL, 0x400098ULL, 14, 0, 0},
    {0x63140ULL, 0x400098ULL, 6, 1, 1},
    {0x4A9C0ULL, 0x400094ULL, 6, 0, 1},
    {0x268BD1C0ULL, 0x4000E8ULL, 43, 1, 1},
    {0x268BD200ULL, 0x4000E8ULL, 20, 0, 0},
    {0x54500ULL, 0x40009CULL, 4, 0, 1},
    {0x12AB400ULL, 0x4000D4ULL, 11, 0, 1},
    {0x8F0C000ULL, 0x4000B4ULL, 7, 1, 1},
    {0x8F0C040ULL, 0x4000B4ULL, 15, 0, 1},
    {0xD33CF00ULL, 0x4000ACULL, 6, 1, 0},
    {0x150F7E80ULL, 0x4000D8ULL, 1, 0, 0},
    {0x68A00ULL, 0x400064ULL, 20, 0, 0},
    {0x24BA880ULL, 0x4000F4ULL, 2, 0, 1},
    {0x70800ULL, 0x400054ULL, 21, 0, 1},
    {0x47B00ULL, 0x400058ULL, 2, 0, 0},
    {0x129C0ULL, 0x40005CULL, 9, 1, 1},
    {0x12A00ULL, 0x40005CULL, 15, 0, 1},
    {0xEB47F80ULL, 0x4000F0ULL, 29, 1, 1},
    {0x0ULL, 0x4000F0ULL, 11, 0, 0},
    {0x687FD00ULL, 0x4000D4ULL, 15, 0, 1},
    {0x687FD40ULL, 0x4000D4ULL, 28, 0, 1},
    {0x1ED80ULL, 0x400084ULL, 28, 0, 1},
    {0x286EA4C0ULL, 0x4000A8ULL, 0, 1, 1},
    {0x7AB9840ULL, 0x4000B4ULL, 21, 0, 0},
    {0x64780ULL, 0x40006CULL, 13, 1, 0},
    {0x3BB80ULL, 0x4000A4ULL, 14, 0, 1},
    {0xBD48180ULL, 0x4000ECULL, 11, 1, 1},
    {0x4500ULL, 0x400048ULL, 10, 0, 1},
    {0x64800ULL, 0x40007CULL, 1, 0, 0},
    {0x1E0D4780ULL, 0x4000E0ULL, 0, 1, 1},
    {0x178D2F00ULL, 0x4000B0ULL, 12, 0, 1},
    {0x2350740ULL, 0x4000DCULL, 34, 0, 1},
    {0x200980C0ULL, 0x4000E4ULL, 2, 0, 1},
    {0xC9A7D00ULL, 0x4000C0ULL, 5, 0, 1},
    {0x2269E000ULL, 0x4000C4ULL, 0, 0, 1},
    {0x87500ULL, 0x400058ULL, 0, 0, 1},
    {0x347F380ULL, 0x4000DCULL, 14, 0, 1},
    {0x347F3C0ULL, 0x4000DCULL, 1, 0, 1},
    {0xE717D40ULL, 0x4000A8ULL, 12, 0, 1},
    {0x25B80ULL, 0x400080ULL, 2, 0, 0},
    {0x0ULL, 0x400080ULL, 0, 0, 0},
    {0x84FC0ULL, 0x400078ULL, 23, 0, 1},
    {0x16BF0700ULL, 0x4000E8ULL, 0, 0, 0},
    {0x16BF0740ULL, 0x4000E8ULL, 13, 0, 1},
    {0x28862E00ULL, 0x4000F4ULL, 9, 0, 1},
    {0x163D2380ULL, 0x4000D8ULL, 1, 0, 1},
    {0xFA9D600ULL, 0x4000ACULL, 17, 0, 1},
    {0x26444840ULL, 0x4000DCULL, 4, 0, 0},
    {0x26444880ULL, 0x4000DCULL, 42, 0, 1},
    {0x264448C0ULL, 0x4000DCULL, 17, 0, 1},
    {0x818E000ULL, 0x4000D8ULL, 15, 0, 1},
    {0x20373200ULL, 0x4000ACULL, 20, 1, 1},
    {0x1157BC00ULL, 0x4000C8ULL, 9, 0, 1},
    {0x7FD00ULL, 0x400098ULL, 8, 0, 1},
    {0x32F80ULL, 0x400084ULL, 9, 1, 1},
    {0x6DEC0ULL, 0x400070ULL, 29, 0, 1},
    {0xAC40ULL, 0x400034ULL, 3, 0, 1},
    {0xAC80ULL, 0x400034ULL, 7, 0, 1},
    {0xACC0ULL, 0x400034ULL, 1, 0, 1},
    {0xAD00ULL, 0x400034ULL, 26, 0, 1},
    {0xAD40ULL, 0x400034ULL, 7, 0, 1},
    {0xAD80ULL, 0x400034ULL, 9, 1, 0},
};

const GoldenRef kGoldenLibquantum[64] = {
    {0x63080ULL, 0x400078ULL, 46, 0, 0},
    {0x630C0ULL, 0x400078ULL, 5, 0, 0},
    {0x63100ULL, 0x400078ULL, 67, 0, 0},
    {0x63140ULL, 0x400078ULL, 39, 0, 0},
    {0x63180ULL, 0x400078ULL, 57, 0, 0},
    {0x631C0ULL, 0x400078ULL, 109, 0, 0},
    {0x63200ULL, 0x400078ULL, 7, 0, 0},
    {0x63240ULL, 0x400078ULL, 6, 0, 0},
    {0x63280ULL, 0x400078ULL, 33, 0, 0},
    {0x632C0ULL, 0x400078ULL, 2, 0, 0},
    {0x63300ULL, 0x400078ULL, 23, 0, 0},
    {0x63340ULL, 0x400078ULL, 32, 0, 0},
    {0x63380ULL, 0x400078ULL, 31, 0, 0},
    {0x633C0ULL, 0x400078ULL, 9, 0, 0},
    {0x63400ULL, 0x400078ULL, 15, 0, 0},
    {0x63440ULL, 0x400078ULL, 111, 1, 0},
    {0x63480ULL, 0x400078ULL, 32, 1, 0},
    {0x634C0ULL, 0x400078ULL, 1, 0, 0},
    {0x63500ULL, 0x400078ULL, 38, 0, 0},
    {0x63540ULL, 0x400078ULL, 2, 0, 0},
    {0x63580ULL, 0x400078ULL, 60, 0, 0},
    {0x635C0ULL, 0x400078ULL, 0, 1, 0},
    {0x63600ULL, 0x400078ULL, 29, 1, 0},
    {0x63640ULL, 0x400078ULL, 48, 0, 0},
    {0x63680ULL, 0x400078ULL, 2, 0, 0},
    {0x636C0ULL, 0x400078ULL, 93, 1, 0},
    {0x0ULL, 0x400078ULL, 36, 0, 0},
    {0x63700ULL, 0x400078ULL, 85, 0, 0},
    {0x63740ULL, 0x400078ULL, 3, 0, 0},
    {0x63780ULL, 0x400078ULL, 8, 0, 0},
    {0x637C0ULL, 0x400078ULL, 6, 0, 0},
    {0x63800ULL, 0x400078ULL, 1, 0, 0},
    {0x63840ULL, 0x400078ULL, 180, 0, 0},
    {0x63880ULL, 0x400078ULL, 25, 1, 0},
    {0x638C0ULL, 0x400078ULL, 7, 0, 0},
    {0x63900ULL, 0x400078ULL, 105, 1, 0},
    {0x3A840ULL, 0x40006CULL, 42, 1, 0},
    {0x3A880ULL, 0x40006CULL, 53, 1, 0},
    {0x0ULL, 0x4000ECULL, 35, 1, 0},
    {0x40ULL, 0x4000ECULL, 25, 1, 0},
    {0x80ULL, 0x4000ECULL, 31, 0, 0},
    {0xC0ULL, 0x4000ECULL, 18, 1, 0},
    {0x100ULL, 0x4000ECULL, 3, 0, 0},
    {0x140ULL, 0x4000ECULL, 28, 0, 0},
    {0x31D40ULL, 0x400090ULL, 35, 0, 0},
    {0x180ULL, 0x4000BCULL, 41, 0, 0},
    {0x1C0ULL, 0x4000BCULL, 58, 0, 0},
    {0x200ULL, 0x4000BCULL, 37, 0, 0},
    {0x240ULL, 0x4000BCULL, 14, 0, 0},
    {0x280ULL, 0x4000BCULL, 10, 0, 0},
    {0x4E5C0ULL, 0x400080ULL, 6, 0, 0},
    {0x4E600ULL, 0x400080ULL, 0, 0, 0},
    {0x4E640ULL, 0x400080ULL, 57, 0, 0},
    {0x0ULL, 0x400080ULL, 46, 0, 0},
    {0x4E680ULL, 0x400080ULL, 3, 0, 0},
    {0x4E6C0ULL, 0x400080ULL, 6, 0, 0},
    {0x0ULL, 0x400080ULL, 30, 0, 0},
    {0x4E700ULL, 0x400080ULL, 31, 1, 0},
    {0x2C0ULL, 0x4000C4ULL, 2, 0, 0},
    {0x300ULL, 0x4000C4ULL, 15, 1, 0},
    {0x340ULL, 0x4000C4ULL, 42, 0, 0},
    {0x380ULL, 0x4000C4ULL, 12, 0, 0},
    {0x3C0ULL, 0x4000C4ULL, 29, 0, 0},
    {0x400ULL, 0x4000C4ULL, 2, 0, 0},
};

void
expectGolden(const char *profile, const GoldenRef (&golden)[64])
{
    WorkloadStream stream(profileByName(profile), 42, 0.0625);
    for (int i = 0; i < 64; ++i) {
        const MemRef ref = stream.next();
        EXPECT_EQ(ref.vaddr, golden[i].vaddr)
            << profile << " record " << i;
        EXPECT_EQ(ref.pc, golden[i].pc) << profile << " record " << i;
        EXPECT_EQ(ref.instGap, golden[i].instGap)
            << profile << " record " << i;
        EXPECT_EQ(ref.isWrite, golden[i].isWrite != 0)
            << profile << " record " << i;
        EXPECT_EQ(ref.dependent, golden[i].dependent != 0)
            << profile << " record " << i;
    }
}

} // namespace

TEST(WorkloadStream, GoldenFirst64RefsMcf)
{
    expectGolden("mcf", kGoldenMcf);
}

TEST(WorkloadStream, GoldenFirst64RefsLibquantum)
{
    expectGolden("libquantum", kGoldenLibquantum);
}
