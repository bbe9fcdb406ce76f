#include "trace/trace_reader.hh"

#include <cstring>

#include "common/log.hh"

namespace bear::trace
{

namespace
{

/** Read exactly @p size bytes at @p offset; false on stream failure. */
bool
readAt(std::ifstream &in, std::uint64_t offset, std::uint8_t *out,
       std::size_t size)
{
    in.clear();
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char *>(out),
            static_cast<std::streamsize>(size));
    return in.gcount() == static_cast<std::streamsize>(size);
}

/**
 * Decode the delta-encoded records of one chunk payload (flags byte +
 * three varints per record, zigzag address/PC deltas).  A malformed
 * payload is a BadChunk; the error is its detail text, and the caller
 * attaches the chunk's offset and index.
 */
[[nodiscard]] Expected<std::vector<MemRef>, std::string>
decodeChunkRecords(const std::uint8_t *payload,
                   std::size_t payload_bytes, std::uint32_t records)
{
    std::vector<MemRef> out;
    out.reserve(records);
    const std::uint8_t *p = payload;
    const std::uint8_t *end = payload + payload_bytes;
    std::uint64_t prev_vaddr = 0;
    std::uint64_t prev_pc = 0;
    for (std::uint32_t i = 0; i < records; ++i) {
        if (p == end) {
            return unexpected("payload ends after " + std::to_string(i)
                              + " of " + std::to_string(records)
                              + " records");
        }
        const std::uint8_t flags = *p++;
        if (flags & static_cast<std::uint8_t>(~kFlagMask)) {
            return unexpected("reserved flag bits set in record "
                              + std::to_string(i));
        }
        std::uint64_t vaddr_zz = 0;
        std::uint64_t pc_zz = 0;
        std::uint64_t gap = 0;
        if (!getVarint(&p, end, &vaddr_zz)
            || !getVarint(&p, end, &pc_zz)
            || !getVarint(&p, end, &gap)) {
            return unexpected("malformed varint in record "
                              + std::to_string(i));
        }
        if (gap > UINT32_MAX) {
            return unexpected(
                "instruction gap overflows 32 bits in record "
                + std::to_string(i));
        }
        prev_vaddr += static_cast<std::uint64_t>(unzigzag(vaddr_zz));
        prev_pc += static_cast<std::uint64_t>(unzigzag(pc_zz));
        MemRef ref;
        ref.vaddr = prev_vaddr;
        ref.pc = prev_pc;
        ref.instGap = static_cast<std::uint32_t>(gap);
        ref.isWrite = (flags & kFlagWrite) != 0;
        ref.dependent = (flags & kFlagDependent) != 0;
        out.push_back(ref);
    }
    if (p != end) {
        return unexpected(std::to_string(end - p)
                          + " trailing bytes after the last record");
    }
    return out;
}

} // namespace

Expected<TraceReader, TraceError>
TraceReader::open(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot open " + path, 0, -1});
    }
    in.seekg(0, std::ios::end);
    const auto end_pos = in.tellg();
    if (end_pos < 0) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot determine size of " + path,
                                     0, -1});
    }
    const auto file_size = static_cast<std::uint64_t>(end_pos);

    if (file_size < kHeaderFixedBytes) {
        return unexpected(TraceError{
            TraceErrorKind::Truncated,
            "file ends inside the fixed header (" +
                std::to_string(file_size) + " of " +
                std::to_string(kHeaderFixedBytes) + " bytes)",
            0, -1});
    }

    std::uint8_t fixed[kHeaderFixedBytes];
    if (!readAt(in, 0, fixed, sizeof(fixed))) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot read header of " + path, 0,
                                     -1});
    }
    if (std::memcmp(fixed, kMagic, sizeof(kMagic)) != 0) {
        return unexpected(TraceError{TraceErrorKind::BadMagic,
                                     "not a .beartrace file", 0, -1});
    }
    const std::uint32_t version = getU32(fixed + 8);
    if (version != kFormatVersion) {
        return unexpected(TraceError{
            TraceErrorKind::BadVersion,
            "file is format v" + std::to_string(version) +
                ", this build reads v" +
                std::to_string(kFormatVersion),
            8, -1});
    }

    TraceMeta meta;
    meta.coreCount = getU32(fixed + 12);
    meta.seed = getU64(fixed + 16);
    meta.recordCount = getU64(fixed + 24);
    const std::size_t name_len = fixed[32];
    if (meta.coreCount == 0) {
        return unexpected(TraceError{TraceErrorKind::BadHeader,
                                     "core count is zero", 12, -1});
    }

    const std::uint64_t header_size =
        kHeaderFixedBytes + name_len + kChunkCrcBytes;
    if (file_size < header_size) {
        return unexpected(TraceError{
            TraceErrorKind::Truncated,
            "file ends inside the workload name / header checksum",
            kHeaderFixedBytes, -1});
    }

    std::vector<std::uint8_t> header(header_size);
    if (!readAt(in, 0, header.data(), header.size())) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot read header of " + path, 0,
                                     -1});
    }
    const std::uint32_t stored =
        getU32(header.data() + header_size - kChunkCrcBytes);
    const std::uint32_t computed =
        crc32(header.data(), header_size - kChunkCrcBytes);
    if (stored != computed) {
        return unexpected(TraceError{
            TraceErrorKind::BadCrc, "header checksum mismatch", 0, -1});
    }
    meta.workload.assign(
        reinterpret_cast<const char *>(header.data())
            + kHeaderFixedBytes,
        name_len);

    return TraceReader(std::move(in), std::move(meta), file_size,
                       header_size);
}

TraceReader::TraceReader(std::ifstream in, TraceMeta meta,
                         std::uint64_t file_size,
                         std::uint64_t first_chunk_offset)
    : in_(std::move(in)), meta_(std::move(meta)),
      file_size_(file_size), first_chunk_offset_(first_chunk_offset),
      position_(first_chunk_offset)
{
}

TraceError
TraceReader::errorAt(TraceErrorKind kind, std::string detail) const
{
    return TraceError{kind, std::move(detail), position_,
                      static_cast<std::int64_t>(chunk_index_)};
}

void
TraceReader::filterCore(CoreId core)
{
    filter_ = core;
    rewind();
}

void
TraceReader::rewind()
{
    position_ = first_chunk_offset_;
    chunk_index_ = 0;
    chunks_seen_ = 0;
    records_seen_ = 0;
    buffer_.clear();
    buffer_pos_ = 0;
}

Expected<bool, TraceError>
TraceReader::loadChunk()
{
    for (;;) {
        if (position_ == file_size_) {
            if (records_seen_ != meta_.recordCount) {
                return unexpected(errorAt(
                    TraceErrorKind::CountMismatch,
                    "header promises " +
                        std::to_string(meta_.recordCount) +
                        " records, chunks hold " +
                        std::to_string(records_seen_) +
                        " (unfinished or truncated recording?)"));
            }
            return false; // clean end of trace
        }
        if (position_ + kChunkHeaderBytes > file_size_) {
            return unexpected(errorAt(
                TraceErrorKind::Truncated,
                "file ends inside a chunk header"));
        }

        std::uint8_t head[kChunkHeaderBytes];
        if (!readAt(in_, position_, head, sizeof(head))) {
            return unexpected(
                errorAt(TraceErrorKind::Io, "chunk header read failed"));
        }
        const CoreId core = getU32(head);
        const std::uint32_t records = getU32(head + 4);
        const std::uint32_t payload_bytes = getU32(head + 8);
        if (core >= meta_.coreCount) {
            return unexpected(errorAt(
                TraceErrorKind::BadChunk,
                "chunk claims core " + std::to_string(core) +
                    " of a " + std::to_string(meta_.coreCount) +
                    "-core trace"));
        }
        if (records == 0 || records > kMaxChunkRecords) {
            return unexpected(errorAt(
                TraceErrorKind::BadChunk,
                "chunk record count " + std::to_string(records) +
                    " outside 1.." +
                    std::to_string(kMaxChunkRecords)));
        }
        if (payload_bytes == 0
            || payload_bytes > kMaxChunkPayloadBytes) {
            return unexpected(errorAt(
                TraceErrorKind::BadChunk,
                "chunk payload size " + std::to_string(payload_bytes) +
                    " outside 1.." +
                    std::to_string(kMaxChunkPayloadBytes)));
        }
        const std::uint64_t frame_end = position_ + kChunkHeaderBytes
            + payload_bytes + kChunkCrcBytes;
        if (frame_end > file_size_) {
            return unexpected(errorAt(
                TraceErrorKind::Truncated,
                "file ends inside chunk payload (need " +
                    std::to_string(frame_end - file_size_) +
                    " more bytes)"));
        }

        if (filter_ != kAllCores && core != filter_) {
            // Skip by frame: the payload stays unread (and its CRC
            // unchecked; replay relies on the full-file validation
            // pass TraceReplayStream::open performed).
            records_seen_ += records;
            position_ = frame_end;
            ++chunk_index_;
            ++chunks_seen_;
            continue;
        }

        std::vector<std::uint8_t> frame(
            kChunkHeaderBytes + payload_bytes + kChunkCrcBytes);
        std::memcpy(frame.data(), head, kChunkHeaderBytes);
        if (!readAt(in_, position_ + kChunkHeaderBytes,
                    frame.data() + kChunkHeaderBytes,
                    payload_bytes + kChunkCrcBytes)) {
            return unexpected(
                errorAt(TraceErrorKind::Io, "chunk read failed"));
        }
        const std::uint32_t stored =
            getU32(frame.data() + frame.size() - kChunkCrcBytes);
        const std::uint32_t computed = crc32(
            frame.data(), frame.size() - kChunkCrcBytes);
        if (stored != computed) {
            return unexpected(errorAt(
                TraceErrorKind::BadCrc,
                "chunk checksum mismatch (stored " +
                    std::to_string(stored) + ", computed " +
                    std::to_string(computed) + ")"));
        }

        auto decoded = decodeChunkRecords(
            frame.data() + kChunkHeaderBytes, payload_bytes, records);
        if (!decoded.hasValue()) {
            return unexpected(
                errorAt(TraceErrorKind::BadChunk, decoded.error()));
        }
        buffer_ = std::move(decoded.value());

        buffer_pos_ = 0;
        buffer_core_ = core;
        records_seen_ += records;
        position_ = frame_end;
        ++chunk_index_;
        ++chunks_seen_;
        return true;
    }
}

Expected<bool, TraceError>
TraceReader::next(MemRef *out, CoreId *core)
{
    if (buffer_pos_ == buffer_.size()) {
        auto loaded = loadChunk();
        if (!loaded.hasValue())
            return unexpected(loaded.error());
        if (!*loaded)
            return false;
    }
    *out = buffer_[buffer_pos_++];
    *core = buffer_core_;
    return true;
}

Expected<std::unique_ptr<TraceReplayStream>, TraceError>
TraceReplayStream::open(const std::string &path, CoreId core)
{
    auto opened = TraceReader::open(path);
    if (!opened.hasValue())
        return unexpected(opened.error());
    TraceReader reader = std::move(opened.value());

    if (core >= reader.meta().coreCount) {
        return unexpected(TraceError{
            TraceErrorKind::BadHeader,
            "replay core " + std::to_string(core) +
                " out of range: the trace was recorded with " +
                std::to_string(reader.meta().coreCount) + " cores",
            0, -1});
    }

    // Full validation pass: decode every chunk (all cores) once so
    // that corruption anywhere in the file fails here, loudly, and
    // never as a fatal in the middle of a simulation.
    std::uint64_t core_records = 0;
    for (;;) {
        MemRef ref;
        CoreId c = 0;
        auto r = reader.next(&ref, &c);
        if (!r.hasValue())
            return unexpected(r.error());
        if (!*r)
            break;
        if (c == core)
            ++core_records;
    }
    if (core_records == 0) {
        return unexpected(TraceError{
            TraceErrorKind::CountMismatch,
            "trace holds no records for core " + std::to_string(core),
            0, -1});
    }

    reader.filterCore(core);
    return std::unique_ptr<TraceReplayStream>(
        new TraceReplayStream(std::move(reader), core_records));
}

MemRef
TraceReplayStream::next()
{
    for (int attempt = 0; attempt < 2; ++attempt) {
        MemRef ref;
        CoreId core = 0;
        auto r = reader_.next(&ref, &core);
        if (!r.hasValue()) {
            // open() validated the whole file; reaching this means the
            // file changed underneath us.
            bear_fatal("trace replay failed mid-run: ",
                       r.error().message());
        }
        if (*r)
            return ref;
        ++wrap_count_;
        reader_.rewind();
    }
    bear_fatal("trace replay: no records after rewind (file changed "
               "mid-run?)");
}

} // namespace bear::trace
