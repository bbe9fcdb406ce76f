/**
 * @file
 * Unit tests for the binary trace subsystem (src/trace): encoding
 * round-trips, the RecordingStream tee, per-core replay, corruption
 * rejection, and the headline guarantee — a recorded workload
 * replayed through TraceReplayStream produces a byte-identical
 * schema-v2 JSON report to the live-generator run.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/report.hh"
#include "sim/runner.hh"
#include "trace/trace_format.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"
#include "workloads/workload.hh"

using namespace bear;
using namespace bear::trace;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "beartrace-" + name;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Write a small multi-core trace from real generators. */
std::string
writeSampleTrace(const std::string &name, std::uint32_t cores,
                 std::uint64_t refs_per_core)
{
    const std::string path = tempPath(name);
    TraceMeta meta;
    meta.workload = "mcf";
    meta.seed = 0x5EED;
    meta.coreCount = cores;
    auto created = TraceWriter::create(path, meta);
    EXPECT_TRUE(created.hasValue());
    TraceWriter writer = std::move(created.value());
    for (CoreId c = 0; c < cores; ++c) {
        WorkloadStream stream(profileByName("mcf"),
                              0x5EED + 0x1000 * (c + 1), 0.015625);
        for (std::uint64_t i = 0; i < refs_per_core; ++i)
            EXPECT_TRUE(writer.append(c, stream.next()).hasValue());
    }
    EXPECT_TRUE(writer.finish().hasValue());
    return path;
}

/** Fully decode @p path; returns the terminal Expected result. */
Expected<bool, TraceError>
decodeAll(const std::string &path, std::uint64_t *records = nullptr)
{
    auto opened = TraceReader::open(path);
    if (!opened.hasValue())
        return unexpected(opened.error());
    TraceReader reader = std::move(opened.value());
    std::uint64_t n = 0;
    for (;;) {
        MemRef ref;
        CoreId core = 0;
        auto r = reader.next(&ref, &core);
        if (!r.hasValue() || !*r) {
            if (records)
                *records = n;
            return r;
        }
        ++n;
    }
}

} // namespace

TEST(TraceFormat, VarintRoundTripsEdgeValues)
{
    const std::uint64_t values[] = {0,  1,  127, 128, 300,
                                    UINT32_MAX,
                                    UINT64_MAX - 1, UINT64_MAX};
    for (const std::uint64_t v : values) {
        std::vector<std::uint8_t> buf;
        putVarint(buf, v);
        const std::uint8_t *p = buf.data();
        std::uint64_t out = 0;
        ASSERT_TRUE(getVarint(&p, buf.data() + buf.size(), &out));
        EXPECT_EQ(out, v);
        EXPECT_EQ(p, buf.data() + buf.size());
    }
}

TEST(TraceFormat, VarintRejectsTruncationAndOverflow)
{
    // All continuation bits, no terminator: runs off the buffer.
    std::vector<std::uint8_t> endless(9, 0xFF);
    const std::uint8_t *p = endless.data();
    std::uint64_t out = 0;
    EXPECT_FALSE(
        getVarint(&p, endless.data() + endless.size(), &out));

    // A 10th byte with magnitude above bit 63 would overflow.
    std::vector<std::uint8_t> wide(10, 0xFF);
    wide.back() = 0x02;
    p = wide.data();
    EXPECT_FALSE(getVarint(&p, wide.data() + wide.size(), &out));
}

TEST(TraceFormat, Crc32MatchesKnownVector)
{
    // The classic check value: CRC32("123456789") = 0xCBF43926.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926U);
}

TEST(TraceWriterReader, RoundTripsExtremeRecords)
{
    const std::string path = tempPath("extremes");
    std::vector<MemRef> refs;
    MemRef ref;
    ref.vaddr = 0;
    ref.pc = UINT64_MAX;
    ref.instGap = 0;
    refs.push_back(ref);
    ref.vaddr = UINT64_MAX; // max positive delta
    ref.pc = 0;             // max negative delta
    ref.instGap = UINT32_MAX;
    ref.isWrite = true;
    refs.push_back(ref);
    ref.vaddr = 1; // near-max negative delta
    ref.dependent = true;
    refs.push_back(ref);

    TraceMeta meta;
    meta.workload = "extremes";
    meta.seed = 1;
    meta.coreCount = 1;
    auto created = TraceWriter::create(path, meta);
    ASSERT_TRUE(created.hasValue());
    TraceWriter writer = std::move(created.value());
    for (const MemRef &r : refs)
        ASSERT_TRUE(writer.append(0, r).hasValue());
    auto finished = writer.finish();
    ASSERT_TRUE(finished.hasValue());
    EXPECT_EQ(*finished, refs.size());

    auto opened = TraceReader::open(path);
    ASSERT_TRUE(opened.hasValue());
    TraceReader reader = std::move(opened.value());
    EXPECT_EQ(reader.meta().workload, "extremes");
    EXPECT_EQ(reader.meta().recordCount, refs.size());
    for (const MemRef &expected : refs) {
        MemRef got;
        CoreId core = 1;
        auto r = reader.next(&got, &core);
        ASSERT_TRUE(r.hasValue() && *r);
        EXPECT_EQ(core, 0u);
        EXPECT_EQ(got.vaddr, expected.vaddr);
        EXPECT_EQ(got.pc, expected.pc);
        EXPECT_EQ(got.instGap, expected.instGap);
        EXPECT_EQ(got.isWrite, expected.isWrite);
        EXPECT_EQ(got.dependent, expected.dependent);
    }
    MemRef got;
    CoreId core = 0;
    auto r = reader.next(&got, &core);
    ASSERT_TRUE(r.hasValue());
    EXPECT_FALSE(*r); // clean end, count check passed
}

TEST(TraceWriterReader, GeneratorStreamsRoundTripExactly)
{
    // Spans multiple chunks (kMaxChunkRecords = 4096 per core).
    const std::uint64_t refs_per_core = 6000;
    const std::string path =
        writeSampleTrace("generators", 2, refs_per_core);

    auto opened = TraceReader::open(path);
    ASSERT_TRUE(opened.hasValue());
    TraceReader reader = std::move(opened.value());
    EXPECT_EQ(reader.meta().recordCount, 2 * refs_per_core);

    // Replaying each core must reproduce the generator bit-exactly.
    for (CoreId c = 0; c < 2; ++c) {
        auto stream = TraceReplayStream::open(path, c);
        ASSERT_TRUE(stream.hasValue());
        EXPECT_EQ((*stream)->coreRecords(), refs_per_core);
        WorkloadStream fresh(profileByName("mcf"),
                             0x5EED + 0x1000 * (c + 1), 0.015625);
        for (std::uint64_t i = 0; i < refs_per_core; ++i) {
            const MemRef expected = fresh.next();
            const MemRef got = (*stream)->next();
            ASSERT_EQ(got.vaddr, expected.vaddr)
                << "core " << c << " record " << i;
            ASSERT_EQ(got.pc, expected.pc);
            ASSERT_EQ(got.instGap, expected.instGap);
            ASSERT_EQ(got.isWrite, expected.isWrite);
            ASSERT_EQ(got.dependent, expected.dependent);
        }
        EXPECT_EQ((*stream)->wrapCount(), 0u);
    }
}

TEST(TraceWriterReader, RecordingStreamTeesWithoutPerturbing)
{
    const std::string path = tempPath("tee");
    TraceMeta meta;
    meta.workload = "tee";
    meta.seed = 9;
    meta.coreCount = 1;
    auto created = TraceWriter::create(path, meta);
    ASSERT_TRUE(created.hasValue());
    TraceWriter writer = std::move(created.value());

    RecordingStream tee(
        std::make_unique<WorkloadStream>(profileByName("libquantum"),
                                         9, 0.015625),
        writer, 0);
    WorkloadStream control(profileByName("libquantum"), 9, 0.015625);
    std::vector<MemRef> seen;
    for (int i = 0; i < 500; ++i) {
        const MemRef ref = tee.next();
        const MemRef expected = control.next();
        EXPECT_EQ(ref.vaddr, expected.vaddr); // tee is transparent
        seen.push_back(ref);
    }
    ASSERT_TRUE(writer.finish().hasValue());

    auto stream = TraceReplayStream::open(path, 0);
    ASSERT_TRUE(stream.hasValue());
    for (const MemRef &expected : seen) {
        const MemRef got = (*stream)->next();
        EXPECT_EQ(got.vaddr, expected.vaddr);
        EXPECT_EQ(got.instGap, expected.instGap);
    }
}

TEST(TraceReplay, WrapsAroundAtEndOfTrace)
{
    const std::string path = writeSampleTrace("wrap", 1, 100);
    auto stream = TraceReplayStream::open(path, 0);
    ASSERT_TRUE(stream.hasValue());

    std::vector<std::uint64_t> first_pass;
    for (int i = 0; i < 100; ++i)
        first_pass.push_back((*stream)->next().vaddr);
    EXPECT_EQ((*stream)->wrapCount(), 0u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ((*stream)->next().vaddr, first_pass[
            static_cast<std::size_t>(i)]);
    EXPECT_EQ((*stream)->wrapCount(), 1u);
}

TEST(TraceReplay, OutOfRangeCoreIsRejected)
{
    const std::string path = writeSampleTrace("core-range", 2, 50);
    auto stream = TraceReplayStream::open(path, 7);
    ASSERT_FALSE(stream.hasValue());
    EXPECT_EQ(stream.error().kind, TraceErrorKind::BadHeader);
    EXPECT_NE(stream.error().message().find("2 cores"),
              std::string::npos);
}

TEST(TraceCorruption, MissingFileIsIoError)
{
    auto opened = TraceReader::open(tempPath("does-not-exist"));
    ASSERT_FALSE(opened.hasValue());
    EXPECT_EQ(opened.error().kind, TraceErrorKind::Io);
}

TEST(TraceCorruption, EmptyAndTinyFilesAreTruncated)
{
    const std::string path = tempPath("tiny");
    spit(path, {});
    auto opened = TraceReader::open(path);
    ASSERT_FALSE(opened.hasValue());
    EXPECT_EQ(opened.error().kind, TraceErrorKind::Truncated);

    spit(path, {'B', 'E', 'A', 'R'});
    opened = TraceReader::open(path);
    ASSERT_FALSE(opened.hasValue());
    EXPECT_EQ(opened.error().kind, TraceErrorKind::Truncated);
}

TEST(TraceCorruption, WrongMagicIsRejected)
{
    const std::string sample = writeSampleTrace("magic", 1, 50);
    std::vector<char> bytes = slurp(sample);
    bytes[0] = 'X';
    const std::string path = tempPath("magic-bad");
    spit(path, bytes);
    auto opened = TraceReader::open(path);
    ASSERT_FALSE(opened.hasValue());
    EXPECT_EQ(opened.error().kind, TraceErrorKind::BadMagic);
}

TEST(TraceCorruption, FutureVersionIsRejectedWithBothVersions)
{
    const std::string sample = writeSampleTrace("version", 1, 50);
    std::vector<char> bytes = slurp(sample);
    bytes[8] = static_cast<char>(bytes[8] + 3);
    const std::string path = tempPath("version-bad");
    spit(path, bytes);
    auto opened = TraceReader::open(path);
    ASSERT_FALSE(opened.hasValue());
    EXPECT_EQ(opened.error().kind, TraceErrorKind::BadVersion);
    EXPECT_NE(opened.error().message().find("v4"), std::string::npos);
    EXPECT_NE(opened.error().message().find("v1"), std::string::npos);
}

TEST(TraceCorruption, FlippedHeaderByteFailsHeaderCrc)
{
    const std::string sample = writeSampleTrace("header-flip", 1, 50);
    std::vector<char> bytes = slurp(sample);
    bytes[16] = static_cast<char>(bytes[16] ^ 0x01); // seed field
    const std::string path = tempPath("header-flip-bad");
    spit(path, bytes);
    auto opened = TraceReader::open(path);
    ASSERT_FALSE(opened.hasValue());
    EXPECT_EQ(opened.error().kind, TraceErrorKind::BadCrc);
}

TEST(TraceCorruption, FlippedChunkByteNamesChunkAndOffset)
{
    const std::string sample = writeSampleTrace("chunk-flip", 1, 50);
    std::vector<char> bytes = slurp(sample);
    // Flip a byte well inside the single chunk's payload.
    const std::size_t target = bytes.size() - 20;
    bytes[target] = static_cast<char>(bytes[target] ^ 0x80);
    const std::string path = tempPath("chunk-flip-bad");
    spit(path, bytes);

    std::uint64_t records = 0;
    auto r = decodeAll(path, &records);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().kind, TraceErrorKind::BadCrc);
    EXPECT_EQ(r.error().chunk, 0);
    EXPECT_GT(r.error().offset, 0u);
    EXPECT_EQ(records, 0u); // nothing decoded from the bad chunk
}

TEST(TraceCorruption, TruncationMidChunkIsNamed)
{
    const std::string sample = writeSampleTrace("truncate", 2, 200);
    const std::vector<char> bytes = slurp(sample);
    const std::string path = tempPath("truncate-bad");

    // Cut at several depths: inside the last chunk's payload, inside
    // a chunk header, and one byte short of the end.
    for (const std::size_t keep :
         {bytes.size() - 1, bytes.size() - 30, bytes.size() / 2}) {
        spit(path,
             std::vector<char>(bytes.begin(),
                               bytes.begin()
                                   + static_cast<std::ptrdiff_t>(keep)));
        auto r = decodeAll(path);
        ASSERT_FALSE(r.hasValue()) << "kept " << keep << " bytes";
        EXPECT_TRUE(r.error().kind == TraceErrorKind::Truncated
                    || r.error().kind == TraceErrorKind::CountMismatch)
            << "kept " << keep << " bytes, got "
            << traceErrorKindName(r.error().kind);
    }
}

TEST(TraceCorruption, ChunkBoundaryTruncationFailsCountCheck)
{
    const std::string sample = writeSampleTrace("boundary", 1, 5000);
    const std::vector<char> bytes = slurp(sample);

    // Recover the first chunk's frame length from its header to cut
    // the file exactly between two chunks: framing stays intact, so
    // only the header's total record count can catch the loss.
    auto opened = TraceReader::open(sample);
    ASSERT_TRUE(opened.hasValue());
    const std::uint64_t header_size = kHeaderFixedBytes
        + opened.value().meta().workload.size() + kChunkCrcBytes;
    const auto *head = reinterpret_cast<const std::uint8_t *>(
        bytes.data() + header_size);
    const std::uint64_t first_frame = kChunkHeaderBytes
        + getU32(head + 8) + kChunkCrcBytes;

    const std::string path = tempPath("boundary-bad");
    spit(path,
         std::vector<char>(bytes.begin(),
                           bytes.begin()
                               + static_cast<std::ptrdiff_t>(
                                   header_size + first_frame)));
    auto r = decodeAll(path);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().kind, TraceErrorKind::CountMismatch);
}

TEST(TraceCorruption, ReplayOpenValidatesForeignCoresChunks)
{
    // Corrupt core 1's data; opening a replay stream for core 0 must
    // still fail — the full-file validation pass covers every chunk.
    const std::string sample = writeSampleTrace("foreign", 2, 100);
    std::vector<char> bytes = slurp(sample);
    const std::size_t target = bytes.size() - 20; // core 1's chunk
    bytes[target] = static_cast<char>(bytes[target] ^ 0x10);
    const std::string path = tempPath("foreign-bad");
    spit(path, bytes);

    auto stream = TraceReplayStream::open(path, 0);
    ASSERT_FALSE(stream.hasValue());
    EXPECT_EQ(stream.error().kind, TraceErrorKind::BadCrc);
}

TEST(TraceCorruption, GarbageChunkHeaderIsBadChunkNotCrash)
{
    const std::string sample = writeSampleTrace("garbage", 1, 50);
    std::vector<char> bytes = slurp(sample);
    auto opened = TraceReader::open(sample);
    ASSERT_TRUE(opened.hasValue());
    const std::size_t header_size = kHeaderFixedBytes
        + opened.value().meta().workload.size() + kChunkCrcBytes;

    // Absurd payload length field.
    std::vector<char> mutated = bytes;
    for (std::size_t i = 0; i < 4; ++i)
        mutated[header_size + 8 + i] = static_cast<char>(0xFF);
    const std::string path = tempPath("garbage-bad");
    spit(path, mutated);
    auto r = decodeAll(path);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().kind, TraceErrorKind::BadChunk);

    // Core id beyond the header's core count.
    mutated = bytes;
    mutated[header_size] = 5;
    spit(path, mutated);
    r = decodeAll(path);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().kind, TraceErrorKind::BadChunk);
}

namespace
{

/**
 * Replace chunk @p index of the trace file in @p bytes with a frame
 * carrying @p payload under a header that claims @p records records,
 * resealed with a fresh CRC so only the record decoder can object.
 * Returns the frame's byte offset.
 */
std::uint64_t
rewriteChunkPayload(std::vector<char> &bytes, std::uint64_t header_size,
                    std::size_t index, std::uint32_t records,
                    const std::vector<std::uint8_t> &payload)
{
    const auto frameAt = [&](std::uint64_t offset) {
        return reinterpret_cast<const std::uint8_t *>(bytes.data()
                                                      + offset);
    };
    std::uint64_t offset = header_size;
    for (std::size_t i = 0; i < index; ++i)
        offset += kChunkHeaderBytes + getU32(frameAt(offset) + 8)
            + kChunkCrcBytes;
    const std::uint64_t old_frame = kChunkHeaderBytes
        + getU32(frameAt(offset) + 8) + kChunkCrcBytes;

    std::vector<std::uint8_t> frame;
    putU32(frame, getU32(frameAt(offset))); // core id
    putU32(frame, records);
    putU32(frame, static_cast<std::uint32_t>(payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());
    putU32(frame, crc32(frame.data(), frame.size()));

    const auto at = static_cast<std::ptrdiff_t>(offset);
    bytes.erase(bytes.begin() + at,
                bytes.begin() + at
                    + static_cast<std::ptrdiff_t>(old_frame));
    bytes.insert(bytes.begin() + at, frame.begin(), frame.end());
    return offset;
}

/** One encoded record: flags byte, vaddr and PC deltas, then gap. */
std::vector<std::uint8_t>
encodedRecord(std::uint8_t flags, std::uint64_t gap)
{
    std::vector<std::uint8_t> out{flags};
    putVarint(out, zigzag(64));
    putVarint(out, zigzag(4));
    putVarint(out, gap);
    return out;
}

} // namespace

TEST(TraceCorruption, ChunkPayloadRejectionsNameTheChunk)
{
    // Every payload below passes the frame checks and a valid CRC, so
    // each of the decoder's five BadChunk branches must catch it.
    const std::string sample = writeSampleTrace("payload", 2, 100);
    const std::vector<char> bytes = slurp(sample);
    auto opened = TraceReader::open(sample);
    ASSERT_TRUE(opened.hasValue());
    const std::uint64_t header_size = kHeaderFixedBytes
        + opened.value().meta().workload.size() + kChunkCrcBytes;

    std::vector<std::uint8_t> trailing = encodedRecord(0, 1);
    trailing.push_back(0);
    struct Case
    {
        std::uint32_t records;
        std::vector<std::uint8_t> payload;
        const char *detail;
    };
    const Case cases[] = {
        {2, encodedRecord(0, 1), "payload ends after 1 of 2 records"},
        {1, encodedRecord(0x04, 1), "reserved flag bits set in record 0"},
        // A continuation bit with no byte after it.
        {1, {0x00, 0x80}, "malformed varint in record 0"},
        {1, encodedRecord(0, 1ULL << 32),
         "instruction gap overflows 32 bits in record 0"},
        {1, trailing, "1 trailing bytes after the last record"},
    };
    const std::string path = tempPath("payload-bad");
    for (const Case &c : cases) {
        std::vector<char> mutated = bytes;
        const std::uint64_t offset =
            rewriteChunkPayload(mutated, header_size, 1, c.records,
                                c.payload);
        spit(path, mutated);
        std::uint64_t records = 0;
        auto r = decodeAll(path, &records);
        ASSERT_FALSE(r.hasValue()) << c.detail;
        EXPECT_EQ(r.error().kind, TraceErrorKind::BadChunk)
            << r.error().message();
        EXPECT_EQ(r.error().chunk, 1) << r.error().message();
        EXPECT_EQ(r.error().offset, offset) << r.error().message();
        EXPECT_NE(r.error().message().find(c.detail), std::string::npos)
            << r.error().message();
        EXPECT_EQ(records, 100u) << c.detail; // chunk 0 decodes whole
    }
}

namespace
{

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.scale = 0.015625;
    options.warmupRefsPerCore = 20000;
    options.measureRefsPerCore = 10000;
    options.workers = 1;
    return options;
}

/**
 * The headline guarantee: record a synthetic workload, replay it, and
 * the full schema-v2 JSON report is byte-identical to the live run.
 */
void
expectReportRoundTrip(const std::string &benchmark, DesignKind design)
{
    const RunnerOptions options = fastOptions();

    // Live run.
    Runner live(options);
    const std::string live_json =
        runResultToJson(live.runRate(design, benchmark));

    // Record through the runner's own tee (BEAR_TRACE_OUT path).
    const std::string path = tempPath("roundtrip-" + benchmark);
    RunnerOptions recording = options;
    recording.traceOutPath = path;
    Runner recorder(recording);
    const std::string recorded_json =
        runResultToJson(recorder.runRate(design, benchmark));
    EXPECT_EQ(live_json, recorded_json)
        << "the recording tee perturbed the run";

    // Replay from the recorded corpus.
    RunnerOptions replaying = options;
    replaying.traceInPath = path;
    Runner replayer(replaying);
    const std::string replay_json =
        runResultToJson(replayer.runRate(design, benchmark));
    EXPECT_EQ(live_json, replay_json)
        << benchmark << " replay diverged from the live generator";
}

} // namespace

TEST(TraceRoundTrip, BearReportByteIdenticalMcf)
{
    expectReportRoundTrip("mcf", DesignKind::Bear);
}

TEST(TraceRoundTrip, AlloyReportByteIdenticalLibquantum)
{
    expectReportRoundTrip("libquantum", DesignKind::Alloy);
}

TEST(TraceRoundTrip, ReplayedTraceCarriesRunnersMetadata)
{
    const RunnerOptions options = fastOptions();
    const std::string path = tempPath("metadata");
    RunnerOptions recording = options;
    recording.traceOutPath = path;
    Runner recorder(recording);
    recorder.runRate(DesignKind::Alloy, "wrf");

    auto opened = TraceReader::open(path);
    ASSERT_TRUE(opened.hasValue());
    EXPECT_EQ(opened.value().meta().workload, "wrf");
    EXPECT_EQ(opened.value().meta().seed, options.seed);
    EXPECT_EQ(opened.value().meta().coreCount, options.cores);
    EXPECT_EQ(opened.value().meta().recordCount,
              (options.warmupRefsPerCore + options.measureRefsPerCore)
                  * options.cores);
}

TEST(TraceRoundTrip, ReplayRejectsCoreCountMismatch)
{
    const std::string path = writeSampleTrace("cores-mismatch", 2, 50);
    RunnerOptions options = fastOptions();
    options.traceInPath = path;
    // The preflight in the Runner constructor (DESIGN.md §11) rejects
    // the corpus before any simulation — or worker thread — starts.
    EXPECT_EXIT(Runner runner(options),
                ::testing::ExitedWithCode(1), "recorded with 2 cores");
}

TEST(TraceRoundTrip, ReplayRejectsMissingCorpusBeforeSimulation)
{
    RunnerOptions options = fastOptions();
    options.traceInPath = tempPath("no-such-corpus");
    EXPECT_EXIT(Runner runner(options),
                ::testing::ExitedWithCode(1), "BEAR_TRACE_IN");
}

TEST(TraceRoundTrip, ReplayRejectsCorruptCorpusBeforeSimulation)
{
    const std::string path = tempPath("corrupt-corpus");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a beartrace file at all............";
    }
    RunnerOptions options = fastOptions();
    options.traceInPath = path;
    EXPECT_EXIT(Runner runner(options),
                ::testing::ExitedWithCode(1), "BEAR_TRACE_IN");
}

TEST(TraceEnv, TracePathsParsedAndEmptyRejected)
{
    setenv("BEAR_TRACE_IN", "/tmp/in.beartrace", 1);
    setenv("BEAR_TRACE_OUT", "/tmp/out.beartrace", 1);
    auto options = RunnerOptions::tryFromEnv();
    ASSERT_TRUE(options.hasValue());
    EXPECT_EQ(options->traceInPath, "/tmp/in.beartrace");
    EXPECT_EQ(options->traceOutPath, "/tmp/out.beartrace");

    setenv("BEAR_TRACE_IN", "", 1);
    const auto empty = RunnerOptions::tryFromEnv();
    ASSERT_FALSE(empty.hasValue());
    EXPECT_EQ(empty.error().variable, "BEAR_TRACE_IN");
    unsetenv("BEAR_TRACE_IN");
    unsetenv("BEAR_TRACE_OUT");
}
