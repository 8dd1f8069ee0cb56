// Wire format of the distributed federation: versioned, length-prefixed
// frames carrying the registration, data and control payloads the driver
// and node daemons exchange (tools/cosmos_noded).
//
// Layout rules (docs/federation.md documents the full format):
//  - all integers are little-endian fixed width; doubles travel as their
//    IEEE-754 bit pattern in a u64;
//  - strings are u32 length + raw bytes (no terminator);
//  - every frame is a 12-byte header (u32 magic "COSM", u16 version,
//    u16 type, u32 payload length) followed by the payload bytes.
// Decoding is strict: bad magic, unsupported version, truncated payloads,
// trailing bytes, unknown enum tags and oversized lengths all throw
// wire::Error — a corrupt or mismatched peer can never be half-read.
//
// Everything serialized here is *schema-relative derived state by design*:
// a remote node rebuilds compiled predicates, subscription indexes and
// query plans from (filter, schema) and (spec, result stream) pairs rather
// than receiving compiled artifacts, so both sides always execute exactly
// what they would have compiled locally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "pubsub/broker_partition.h"
#include "pubsub/subscription.h"
#include "query/query_spec.h"
#include "runtime/tuple_batch.h"
#include "stream/operators.h"
#include "stream/predicate.h"
#include "stream/schema.h"

namespace cosmos::wire {

/// Any wire-level failure: codec violations, socket errors, peer faults.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kMagic = 0x434F534Du;  // "COSM"
/// v2: peer-to-peer execute shipping (kPeerTable/kRouteDecision/kPeerHello),
/// per-engine execute sequence numbers, flush/watermark ordering floors and
/// checkpointing migrate-out — the header check (and the explicit echo in
/// kHello) refuses mixed-version fleets at the first frame.
/// v3: liveness — kHeartbeat keepalives with per-peer deadlines (kHello
/// carries the knobs), kPeerHelloAck completing the peer-link handshake,
/// kPeerDown reporting a wedged peer link to the driver, and kSeqGap
/// requesting replay of executes lost on a live-but-lossy link.
/// v4: the chunk is the unit of data traffic — one kMatchRequest /
/// kMatchResponse per (chunk, owner worker) carrying all of that owner's
/// runs, one kExecuteBundle per (chunk, target worker) carrying each run
/// once plus per-engine (seq, run, rows) slices (it replaces the
/// per-engine kExecute), and one kRouteDecision per (chunk, owner).
inline constexpr std::uint16_t kProtocolVersion = 4;
/// Upper bound on one frame's payload; decode rejects larger claims so a
/// corrupt length prefix cannot trigger a giant allocation.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

enum class FrameType : std::uint16_t {
  kHello = 1,          ///< driver -> node: version + link emulation knobs
  kHelloAck = 2,       ///< node -> driver: version + daemon info string
  kTopology = 3,       ///< participants + dense latency matrix + options
  kRegisterStream = 4, ///< advertise: stream, publisher, schema
  kSubscribe = 5,      ///< full Subscription (p1 registration)
  kDeployUnit = 6,     ///< unit id, host, result stream, QuerySpec
  kMatchRequest = 7,   ///< job seq + one owner's runs of a chunk
  kMatchResponse = 8,  ///< job seq + per-run, per-subscription row sets
  kExecuteBundle = 9,  ///< a chunk's runs + per-engine (seq, run, rows)
  kResult = 10,        ///< batch of (result stream, tuple) events
  kWatermark = 11,     ///< stream-time watermark: prune idle join state
  kFlush = 12,         ///< seq: drain runtime, ship results, then ack
  kFlushAck = 13,      ///< seq echo
  kMigrateOut = 14,    ///< engine node: serialize + drop its units
  kStateHandoff = 15,  ///< engine node + serialized unit states
  kMigrateIn = 16,     ///< engine node + unit deployments + state blob
  kMigrateAck = 17,    ///< engine node echo
  kTrafficRequest = 18,///< ask for the node's merged TrafficStats
  kTrafficReport = 19, ///< serialized TrafficStats
  kError = 20,         ///< node-side failure description (session is dead)
  kBye = 21,           ///< orderly end of session
  kStatsSample = 22,   ///< node -> driver: metrics snapshot + trace spans
  kPeerTable = 23,     ///< driver -> node: worker-index -> endpoint table
  kRouteDecision = 24, ///< driver -> owner: per-target slices of a match job
  kPeerHello = 25,     ///< worker -> worker: first frame of a peer link
  kHeartbeat = 26,     ///< either direction: liveness keepalive / echo probe
  kPeerHelloAck = 27,  ///< worker -> worker: peer link is live end to end
  kPeerDown = 28,      ///< worker -> driver: a peer execute link is wedged
  kSeqGap = 29,        ///< worker -> driver: unmet seq floors past deadline
};

[[nodiscard]] const char* to_string(FrameType type) noexcept;

struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

// ---------------------------------------------------------------------------
// Primitive writer/reader over a byte buffer.

class Writer {
 public:
  Writer() = default;
  explicit Writer(std::vector<std::uint8_t>&& buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked sequential reader; every accessor throws wire::Error on
/// underrun. Call done() after the last field to reject trailing garbage.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  /// Throws wire::Error if any bytes remain unconsumed.
  void done() const;

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Frame envelope.

/// Serializes header + payload into one contiguous buffer ready to write.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Parses and validates the 12-byte header; returns the payload length.
/// Throws wire::Error on bad magic, version mismatch or oversize payload.
[[nodiscard]] std::uint32_t decode_frame_header(
    const std::uint8_t (&header)[12], FrameType& type);

inline constexpr std::size_t kFrameHeaderBytes = 12;

// ---------------------------------------------------------------------------
// Domain payload codecs. Each encode_x appends to a Writer; each decode_x
// consumes from a Reader (throwing wire::Error on malformed input).

void encode_value(Writer& w, const stream::Value& v);
[[nodiscard]] stream::Value decode_value(Reader& r);

void encode_tuple(Writer& w, const stream::Tuple& t);
[[nodiscard]] stream::Tuple decode_tuple(Reader& r);

void encode_schema(Writer& w, const stream::Schema& s);
[[nodiscard]] stream::Schema decode_schema(Reader& r);

void encode_window(Writer& w, const stream::WindowSpec& ws);
[[nodiscard]] stream::WindowSpec decode_window(Reader& r);

void encode_field_ref(Writer& w, const stream::FieldRef& f);
[[nodiscard]] stream::FieldRef decode_field_ref(Reader& r);

void encode_predicate(Writer& w, const stream::PredicatePtr& p);
/// Depth-limited (64 levels) so hostile input cannot blow the stack.
[[nodiscard]] stream::PredicatePtr decode_predicate(Reader& r);

void encode_query_spec(Writer& w, const query::QuerySpec& spec);
[[nodiscard]] query::QuerySpec decode_query_spec(Reader& r);

void encode_subscription(Writer& w, const pubsub::Subscription& sub);
[[nodiscard]] pubsub::Subscription decode_subscription(Reader& r);

/// Full column payload: stream name, row count, width, the contiguous ts
/// column (ts_data()) and the row-major value arena (values_data()).
void encode_batch(Writer& w, const runtime::TupleBatch& batch);
[[nodiscard]] runtime::TupleBatch decode_batch(Reader& r);

void encode_traffic(Writer& w, const pubsub::TrafficStats& t);
[[nodiscard]] pubsub::TrafficStats decode_traffic(Reader& r);

/// One plan's window-join state (CompiledQuery::export_join_state order).
void encode_join_state(Writer& w,
                       const std::vector<stream::WindowJoinOp::State>& joins);
[[nodiscard]] std::vector<stream::WindowJoinOp::State> decode_join_state(
    Reader& r);

/// Serialized size in bytes of a plan's live join state — the measured
/// migration payload (what adapt reports as state_bytes_migrated, and what
/// a federated handoff actually ships).
[[nodiscard]] std::size_t serialized_state_bytes(
    const std::vector<stream::WindowJoinOp::State>& joins);

}  // namespace cosmos::wire
