#include "journal/journal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "journal/crc32.h"
#include "wire/codec.h"

namespace cosmos::journal {

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kIo: return "io";
    case ErrorCode::kBadMagic: return "bad_magic";
    case ErrorCode::kBadVersion: return "bad_version";
    case ErrorCode::kBadHeader: return "bad_header";
    case ErrorCode::kCorruptRecord: return "corrupt_record";
    case ErrorCode::kNoCheckpoint: return "no_checkpoint";
  }
  return "unknown";
}

namespace {

[[noreturn]] void throw_errno(ErrorCode code, const std::string& what) {
  throw Error(code, "journal: " + what + ": " + std::strerror(errno));
}

std::string segment_path(const std::string& dir, std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08" PRIu64 ".cjl", seq);
  return dir + "/" + name;
}

/// Parses "seg-NNNNNNNN.cjl" back to its sequence; nullopt for other names.
std::optional<std::uint64_t> segment_seq_of(const char* name) {
  std::uint64_t seq = 0;
  int len = 0;
  if (std::sscanf(name, "seg-%8" SCNu64 ".cjl%n", &seq, &len) != 1) {
    return std::nullopt;
  }
  if (name[len] != '\0') return std::nullopt;
  return seq;
}

std::vector<std::pair<std::uint64_t, std::string>> list_segments(
    const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    throw_errno(ErrorCode::kIo, "cannot open directory '" + dir + "'");
  }
  std::vector<std::pair<std::uint64_t, std::string>> segs;
  while (dirent* e = ::readdir(d)) {
    if (auto seq = segment_seq_of(e->d_name)) {
      segs.emplace_back(*seq, dir + "/" + e->d_name);
    }
  }
  ::closedir(d);
  std::sort(segs.begin(), segs.end());
  return segs;
}

void put_u32_le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_u64_le(std::uint8_t* p, std::uint64_t v) {
  put_u32_le(p, static_cast<std::uint32_t>(v));
  put_u32_le(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t get_u64_le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32_le(p)) |
         (static_cast<std::uint64_t>(get_u32_le(p + 4)) << 32);
}

void put_u16_le(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint16_t get_u16_le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

// --- record payload codecs (reusing the wire primitive writer/reader) -----

void encode_meta(wire::Writer& w, const Meta& m) {
  w.u16(m.protocol);
  w.u64(m.batch_size);
  w.i64(m.tick_ms);
  w.u32(m.worker_shards);
  w.u8(m.peer_links ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(m.endpoints.size()));
  for (const auto& e : m.endpoints) w.str(e);
}

Meta decode_meta(wire::Reader& r) {
  Meta m;
  m.protocol = r.u16();
  m.batch_size = r.u64();
  m.tick_ms = r.i64();
  m.worker_shards = r.u32();
  m.peer_links = r.u8() != 0;
  const std::uint32_t n = r.u32();
  m.endpoints.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.endpoints.push_back(r.str());
  r.done();
  return m;
}

void encode_engine_state(wire::Writer& w, const EngineState& s) {
  w.u32(s.engine.value());
  w.u32(s.worker);
  w.u64(s.exec_seq);
  w.u32(static_cast<std::uint32_t>(s.units.size()));
  for (const auto& u : s.units) {
    w.u32(u.unit_id);
    wire::encode_join_state(w, u.joins);
  }
}

EngineState decode_engine_state(wire::Reader& r) {
  EngineState s;
  s.engine = NodeId{r.u32()};
  s.worker = r.u32();
  s.exec_seq = r.u64();
  const std::uint32_t n = r.u32();
  s.units.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    wire::UnitStateMsg u;
    u.unit_id = r.u32();
    u.joins = wire::decode_join_state(r);
    s.units.push_back(std::move(u));
  }
  r.done();
  return s;
}

void encode_commit(wire::Writer& w, const CheckpointCommit& c) {
  w.u64(c.checkpoint_id);
  w.u64(c.events_consumed);
  w.u64(c.chunk_index);
  w.i64(c.watermark);
  w.u8(c.has_watermark ? 1 : 0);
  w.u64(c.engine_states);
}

CheckpointCommit decode_commit(wire::Reader& r) {
  CheckpointCommit c;
  c.checkpoint_id = r.u64();
  c.events_consumed = r.u64();
  c.chunk_index = r.u64();
  c.watermark = r.i64();
  c.has_watermark = r.u8() != 0;
  c.engine_states = r.u64();
  r.done();
  return c;
}

void encode_chunk_routed(wire::Writer& w, const ChunkRouted& m) {
  w.u64(m.chunk_index);
  w.u64(m.events_through);
  w.i64(m.last_ts);
}

ChunkRouted decode_chunk_routed(wire::Reader& r) {
  ChunkRouted m;
  m.chunk_index = r.u64();
  m.events_through = r.u64();
  m.last_ts = r.i64();
  r.done();
  return m;
}

void encode_delivered(wire::Writer& w,
                      const std::vector<DeliveredCount>& counts) {
  w.u32(static_cast<std::uint32_t>(counts.size()));
  for (const auto& c : counts) {
    w.str(c.stream);
    w.u64(c.count);
  }
}

std::vector<DeliveredCount> decode_delivered(wire::Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<DeliveredCount> counts;
  counts.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    DeliveredCount c;
    c.stream = r.str();
    c.count = r.u64();
    counts.push_back(std::move(c));
  }
  r.done();
  return counts;
}

/// Re-parses a verbatim wire frame stored as a record payload.
wire::Frame decode_frame_bytes(const std::uint8_t* data, std::size_t size) {
  if (size < wire::kFrameHeaderBytes) {
    throw wire::Error("journal frame record shorter than a frame header");
  }
  std::uint8_t header[wire::kFrameHeaderBytes];
  std::memcpy(header, data, wire::kFrameHeaderBytes);
  wire::FrameType type;
  const std::uint32_t len = wire::decode_frame_header(header, type);
  if (size != wire::kFrameHeaderBytes + len) {
    throw wire::Error("journal frame record length mismatch");
  }
  wire::Frame f;
  f.type = type;
  f.payload.assign(data + wire::kFrameHeaderBytes, data + size);
  return f;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer.

Writer::Writer(std::string dir, Options opts)
    : dir_(std::move(dir)), opts_(opts) {}

std::unique_ptr<Writer> Writer::create(const std::string& dir,
                                       const Meta& meta, const Options& opts) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw_errno(ErrorCode::kIo, "cannot create directory '" + dir + "'");
  }
  std::unique_ptr<Writer> w{new Writer(dir, opts)};
  w->meta_ = meta;
  // A reused directory holds a previous run's segments: wipe them so the
  // fresh run's recovery lineage starts at this run's segment 1.
  for (const auto& [seq, path] : list_segments(dir)) {
    (void)seq;
    ::unlink(path.c_str());
  }
  w->dir_fd_ = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (w->dir_fd_ < 0) {
    throw_errno(ErrorCode::kIo, "cannot open directory '" + dir + "'");
  }
  w->open_segment(1, /*pending=*/false);
  return w;
}

std::unique_ptr<Writer> Writer::continue_at(const std::string& dir,
                                            std::uint64_t segment_seq,
                                            const Meta& meta,
                                            const Options& opts) {
  std::unique_ptr<Writer> w{new Writer(dir, opts)};
  w->meta_ = meta;
  // Surviving segments are the recovery lineage; remember them so commits
  // prune them on the usual retain schedule once this run checkpoints.
  for (const auto& [seq, path] : list_segments(dir)) {
    (void)path;
    w->segments_.insert(seq);
  }
  w->dir_fd_ = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (w->dir_fd_ < 0) {
    throw_errno(ErrorCode::kIo, "cannot open directory '" + dir + "'");
  }
  w->open_segment(segment_seq, /*pending=*/false);
  return w;
}

Writer::~Writer() {
  if (pending_fd_ >= 0) ::close(pending_fd_);
  if (fd_ >= 0) ::close(fd_);
  if (dir_fd_ >= 0) ::close(dir_fd_);
}

void Writer::open_segment(std::uint64_t seq, bool pending) {
  const std::string path = segment_path(dir_, seq);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw_errno(ErrorCode::kIo, "cannot create segment '" + path + "'");
  }
  std::uint8_t header[kSegmentHeaderBytes];
  put_u32_le(header, kSegmentMagic);
  put_u16_le(header + 4, kFormatVersion);
  put_u16_le(header + 6, 0);  // reserved
  put_u64_le(header + 8, seq);
  if (pending) {
    pending_fd_ = fd;
    pending_path_ = path;
    pending_seq_ = seq;
  } else {
    fd_ = fd;
    path_ = path;
    seq_ = seq;
  }
  write_all(fd, header, sizeof(header), path);
  // The segment preamble: meta first, then (for rolled segments) the cached
  // registrations, so every segment is self-contained for recovery.
  wire::Writer mw;
  encode_meta(mw, meta_);
  const auto meta_bytes = mw.take();
  append(RecordType::kMeta, meta_bytes.data(), meta_bytes.size());
  if (pending) {
    for (const auto& frame : reg_frames_) {
      append(RecordType::kRegistration, frame.data(), frame.size());
    }
  }
}

void Writer::write_all(int fd, const std::uint8_t* data, std::size_t size,
                       const std::string& path) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(ErrorCode::kIo, "write to '" + path + "' failed");
    }
    off += static_cast<std::size_t>(n);
  }
  bytes_ += size;
}

void Writer::append(RecordType type, const std::uint8_t* payload,
                    std::size_t size) {
  const std::uint32_t body_len = static_cast<std::uint32_t>(1 + size);
  std::vector<std::uint8_t> rec(8 + body_len);
  rec[8] = static_cast<std::uint8_t>(type);
  if (size > 0) std::memcpy(rec.data() + 9, payload, size);
  put_u32_le(rec.data(), body_len);
  put_u32_le(rec.data() + 4, crc32(rec.data() + 8, body_len));
  const bool to_pending = pending_fd_ >= 0;
  const int fd = to_pending ? pending_fd_ : fd_;
  const std::string& path = to_pending ? pending_path_ : path_;
  write_all(fd, rec.data(), rec.size(), path);
  ++records_;
  if (opts_.fsync == Fsync::kEvery) sync_fd(fd, path);
}

void Writer::sync_fd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    throw_errno(ErrorCode::kIo, "fsync of '" + path + "' failed");
  }
  ++fsyncs_;
}

void Writer::sync_dir() {
  if (opts_.fsync == Fsync::kNever) return;
  if (::fsync(dir_fd_) != 0) {
    throw_errno(ErrorCode::kIo, "fsync of directory '" + dir_ + "' failed");
  }
  ++fsyncs_;
}

void Writer::registration(const wire::Frame& frame) {
  auto bytes = wire::encode_frame(frame);
  append(RecordType::kRegistration, bytes.data(), bytes.size());
  reg_frames_.push_back(std::move(bytes));
}

void Writer::execute(const wire::Frame& bundle) {
  if (bundle.type != wire::FrameType::kExecuteBundle) {
    throw std::logic_error{"journal: execute record must be an execute bundle"};
  }
  const auto bytes = wire::encode_frame(bundle);
  append(RecordType::kExecuteBundle, bytes.data(), bytes.size());
}

void Writer::execute(const wire::ExecuteMsg& m) {
  execute(wire::encode_execute_bundle(wire::bundle_of(m)));
}

void Writer::chunk_routed(const ChunkRouted& m) {
  wire::Writer w;
  encode_chunk_routed(w, m);
  const auto bytes = w.take();
  append(RecordType::kChunkRouted, bytes.data(), bytes.size());
  if (opts_.fsync == Fsync::kChunk) sync_fd(fd_, path_);
}

void Writer::delivered(const std::vector<DeliveredCount>& counts) {
  wire::Writer w;
  encode_delivered(w, counts);
  const auto bytes = w.take();
  append(RecordType::kDelivered, bytes.data(), bytes.size());
}

void Writer::begin_checkpoint() {
  if (!committed_) return;  // initial cut commits into the active segment
  open_segment(seq_ + 1, /*pending=*/true);
}

void Writer::engine_state(const EngineState& m) {
  wire::Writer w;
  encode_engine_state(w, m);
  const auto bytes = w.take();
  append(RecordType::kEngineState, bytes.data(), bytes.size());
}

void Writer::commit_checkpoint(const CheckpointCommit& m) {
  wire::Writer w;
  encode_commit(w, m);
  const auto bytes = w.take();
  append(RecordType::kCheckpointCommit, bytes.data(), bytes.size());
  const bool from_pending = pending_fd_ >= 0;
  if (opts_.fsync != Fsync::kNever) {
    sync_fd(from_pending ? pending_fd_ : fd_,
            from_pending ? pending_path_ : path_);
  }
  if (from_pending) {
    ::close(fd_);
    fd_ = pending_fd_;
    path_ = std::move(pending_path_);
    seq_ = pending_seq_;
    pending_fd_ = -1;
    pending_path_.clear();
    pending_seq_ = 0;
  }
  committed_ = true;
  segments_.insert(seq_);
  prune_segments();
}

void Writer::abort_checkpoint() {
  if (pending_fd_ < 0) return;
  ::close(pending_fd_);
  ::unlink(pending_path_.c_str());
  pending_fd_ = -1;
  pending_path_.clear();
  pending_seq_ = 0;
}

void Writer::prune_segments() {
  while (segments_.size() > opts_.retain_segments) {
    const std::uint64_t oldest = *segments_.begin();
    ::unlink(segment_path(dir_, oldest).c_str());
    segments_.erase(segments_.begin());
  }
  // One directory fsync covers the new segment's dirent and the unlinks.
  sync_dir();
}

// ---------------------------------------------------------------------------
// Recovery.

namespace {

struct ParsedSegment {
  bool has_meta = false;
  Meta meta;
  std::vector<wire::Frame> registrations;
  std::vector<EngineState> pending_states;
  std::vector<EngineState> engines;
  bool has_commit = false;
  CheckpointCommit commit;

  std::vector<wire::ExecuteBundleMsg> bundles;      ///< whole-chunk prefix
  std::vector<wire::ExecuteBundleMsg> pending_exec;  ///< since the last marker
  std::map<std::string, std::uint64_t> delivered;
  std::uint64_t resume_events = 0;
  std::uint64_t resume_chunk = 0;
  stream::Timestamp watermark = 0;
  bool has_watermark = false;

  bool torn = false;
  bool corrupt = false;
  std::string corrupt_detail;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw_errno(ErrorCode::kIo, "cannot open segment '" + path + "'");
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno(ErrorCode::kIo, "read of segment '" + path + "' failed");
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

/// Parses one segment. Header-level failures (too short, bad magic, version
/// skew) throw; record-level failures stop the scan and mark the segment
/// torn or corrupt — whether that matters depends on whether a commit was
/// already seen, which the caller decides.
ParsedSegment parse_segment(const std::string& path, std::uint64_t file_seq) {
  const auto bytes = read_file(path);
  if (bytes.size() < kSegmentHeaderBytes) {
    throw Error(ErrorCode::kBadHeader,
                "journal: segment '" + path + "' shorter than its header (" +
                    std::to_string(bytes.size()) + " bytes)");
  }
  if (get_u32_le(bytes.data()) != kSegmentMagic) {
    throw Error(ErrorCode::kBadMagic,
                "journal: segment '" + path + "' has wrong magic");
  }
  const std::uint16_t version = get_u16_le(bytes.data() + 4);
  if (version != kFormatVersion) {
    throw Error(ErrorCode::kBadVersion,
                "journal: segment '" + path + "' has format version " +
                    std::to_string(version) + ", expected " +
                    std::to_string(kFormatVersion));
  }
  if (get_u64_le(bytes.data() + 8) != file_seq) {
    throw Error(ErrorCode::kBadHeader,
                "journal: segment '" + path +
                    "' header sequence disagrees with its filename");
  }

  ParsedSegment seg;
  std::size_t pos = kSegmentHeaderBytes;
  const auto fail = [&](const std::string& detail) {
    seg.corrupt = true;
    seg.corrupt_detail = "journal: segment '" + path + "' at offset " +
                         std::to_string(pos) + ": " + detail;
  };
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      seg.torn = true;  // partial record frame at EOF: torn final write
      break;
    }
    const std::uint32_t body_len = get_u32_le(&bytes[pos]);
    const std::uint32_t crc = get_u32_le(&bytes[pos + 4]);
    if (body_len == 0 || body_len > kMaxRecordBytes) {
      fail("record length " + std::to_string(body_len) + " out of range");
      break;
    }
    if (bytes.size() - pos - 8 < body_len) {
      seg.torn = true;  // body claims more bytes than the file holds
      break;
    }
    const std::uint8_t* body = &bytes[pos + 8];
    if (crc32(body, body_len) != crc) {
      fail("record CRC mismatch");
      break;
    }
    const auto type = static_cast<RecordType>(body[0]);
    const std::uint8_t* payload = body + 1;
    const std::size_t payload_len = body_len - 1;
    try {
      switch (type) {
        case RecordType::kMeta: {
          if (seg.has_meta) {
            fail("duplicate meta record");
            break;
          }
          wire::Reader r(payload, payload_len);
          seg.meta = decode_meta(r);
          if (seg.meta.protocol != wire::kProtocolVersion) {
            throw Error(ErrorCode::kBadVersion,
                        "journal: segment '" + path +
                            "' was written for wire protocol " +
                            std::to_string(seg.meta.protocol) +
                            ", this build speaks " +
                            std::to_string(wire::kProtocolVersion));
          }
          seg.has_meta = true;
          break;
        }
        case RecordType::kRegistration: {
          if (seg.has_commit) {
            fail("registration record after the commit");
            break;
          }
          seg.registrations.push_back(decode_frame_bytes(payload, payload_len));
          break;
        }
        case RecordType::kEngineState: {
          if (seg.has_commit) {
            fail("engine-state record after the commit");
            break;
          }
          wire::Reader r(payload, payload_len);
          seg.pending_states.push_back(decode_engine_state(r));
          break;
        }
        case RecordType::kCheckpointCommit: {
          if (seg.has_commit) {
            fail("second commit record in one segment");
            break;
          }
          wire::Reader r(payload, payload_len);
          auto commit = decode_commit(r);
          if (commit.engine_states != seg.pending_states.size()) {
            fail("commit claims " + std::to_string(commit.engine_states) +
                 " engine states, segment holds " +
                 std::to_string(seg.pending_states.size()));
            break;
          }
          seg.commit = commit;
          seg.has_commit = true;
          seg.engines = std::move(seg.pending_states);
          seg.pending_states.clear();
          seg.resume_events = commit.events_consumed;
          seg.resume_chunk = commit.chunk_index;
          seg.watermark = commit.watermark;
          seg.has_watermark = commit.has_watermark;
          break;
        }
        case RecordType::kExecuteBundle: {
          if (!seg.has_commit) {
            fail("execute-bundle record before the commit");
            break;
          }
          auto frame = decode_frame_bytes(payload, payload_len);
          seg.pending_exec.push_back(wire::decode_execute_bundle(frame));
          break;
        }
        case RecordType::kChunkRouted: {
          if (!seg.has_commit) {
            fail("chunk-routed record before the commit");
            break;
          }
          wire::Reader r(payload, payload_len);
          const auto m = decode_chunk_routed(r);
          // The marker proves every bundle of this chunk was journaled:
          // promote the held-back bundles into the replayable prefix.
          for (auto& b : seg.pending_exec) seg.bundles.push_back(std::move(b));
          seg.pending_exec.clear();
          seg.resume_events = m.events_through;
          seg.resume_chunk = m.chunk_index + 1;
          seg.watermark = m.last_ts;
          seg.has_watermark = true;
          break;
        }
        case RecordType::kDelivered: {
          if (!seg.has_commit) {
            fail("delivered record before the commit");
            break;
          }
          wire::Reader r(payload, payload_len);
          for (auto& c : decode_delivered(r)) {
            seg.delivered[c.stream] += c.count;
          }
          break;
        }
        default:
          fail("unknown record type " + std::to_string(body[0]));
          break;
      }
    } catch (const wire::Error& e) {
      fail(std::string{"record decode failed: "} + e.what());
    }
    if (seg.corrupt) break;
    if (!seg.has_meta) {
      fail("first record is not meta");
      break;
    }
    pos += 8 + body_len;
  }
  return seg;
}

}  // namespace

RecoveredRun recover(const std::string& dir) {
  auto segs = list_segments(dir);  // throws kIo if the dir is unreadable
  if (segs.empty()) {
    throw Error(ErrorCode::kNoCheckpoint,
                "journal: no segments in '" + dir + "'");
  }
  std::sort(segs.begin(), segs.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::optional<Error> newest_failure;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto& [seq, path] = segs[i];
    ParsedSegment seg;
    try {
      seg = parse_segment(path, seq);
    } catch (const Error& e) {
      if (e.code() == ErrorCode::kIo) throw;  // syscall trouble, not content
      if (i == 0) newest_failure = e;
      continue;  // header-level damage: roll back to the previous segment
    }
    if (!seg.has_commit) {
      // Pending segment a crash abandoned mid-checkpoint, or corruption
      // reached the commit: either way the previous segment is the cut.
      if (i == 0) {
        newest_failure =
            seg.corrupt
                ? Error(ErrorCode::kCorruptRecord, seg.corrupt_detail)
                : Error(ErrorCode::kNoCheckpoint,
                        "journal: newest segment '" + path +
                            "' holds no checkpoint commit");
      }
      continue;
    }

    RecoveredRun run;
    run.meta = std::move(seg.meta);
    run.registrations = std::move(seg.registrations);
    run.engines = std::move(seg.engines);
    run.checkpoint = seg.commit;
    run.bundles = std::move(seg.bundles);
    run.delivered.reserve(seg.delivered.size());
    for (auto& [stream, count] : seg.delivered) {
      run.delivered.push_back(DeliveredCount{stream, count});
    }
    run.resume_events = seg.resume_events;
    run.resume_chunk = seg.resume_chunk;
    run.watermark = seg.watermark;
    run.has_watermark = seg.has_watermark;
    run.torn_tail = seg.torn;
    run.records_dropped =
        seg.pending_exec.size() + ((seg.torn || seg.corrupt) ? 1 : 0);
    run.segments_rolled_back = i;
    run.next_segment = segs.front().first + 1;
    return run;
  }
  if (newest_failure) throw *newest_failure;
  throw Error(ErrorCode::kNoCheckpoint,
              "journal: no segment in '" + dir +
                  "' holds a valid checkpoint commit");
}

}  // namespace cosmos::journal
