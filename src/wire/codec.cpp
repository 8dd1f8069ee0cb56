#include "wire/codec.h"

#include <bit>
#include <cstring>

namespace cosmos::wire {
namespace {

constexpr std::size_t kMaxPredicateDepth = 64;

stream::PredicatePtr decode_predicate_rec(Reader& r, std::size_t depth);

}  // namespace

void check_count(std::uint64_t count, std::size_t remaining,
                 const char* what) {
  if (count > remaining) {
    throw Error{std::string{"wire: implausible "} + what + " count " +
                std::to_string(count)};
  }
}

const char* to_string(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello: return "Hello";
    case FrameType::kHelloAck: return "HelloAck";
    case FrameType::kTopology: return "Topology";
    case FrameType::kRegisterStream: return "RegisterStream";
    case FrameType::kSubscribe: return "Subscribe";
    case FrameType::kDeployUnit: return "DeployUnit";
    case FrameType::kMatchRequest: return "MatchRequest";
    case FrameType::kMatchResponse: return "MatchResponse";
    case FrameType::kExecuteBundle: return "ExecuteBundle";
    case FrameType::kResult: return "Result";
    case FrameType::kWatermark: return "Watermark";
    case FrameType::kFlush: return "Flush";
    case FrameType::kFlushAck: return "FlushAck";
    case FrameType::kMigrateOut: return "MigrateOut";
    case FrameType::kStateHandoff: return "StateHandoff";
    case FrameType::kMigrateIn: return "MigrateIn";
    case FrameType::kMigrateAck: return "MigrateAck";
    case FrameType::kTrafficRequest: return "TrafficRequest";
    case FrameType::kTrafficReport: return "TrafficReport";
    case FrameType::kError: return "Error";
    case FrameType::kBye: return "Bye";
    case FrameType::kStatsSample: return "StatsSample";
    case FrameType::kPeerTable: return "PeerTable";
    case FrameType::kRouteDecision: return "RouteDecision";
    case FrameType::kPeerHello: return "PeerHello";
    case FrameType::kHeartbeat: return "Heartbeat";
    case FrameType::kPeerHelloAck: return "PeerHelloAck";
    case FrameType::kPeerDown: return "PeerDown";
    case FrameType::kSeqGap: return "SeqGap";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Writer / Reader

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& s) {
  if (s.size() > kMaxPayloadBytes) {
    throw Error{"wire: string too long to encode"};
  }
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Reader::need(std::size_t n) const {
  if (size_ - pos_ < n) {
    throw Error{"wire: truncated payload (need " + std::to_string(n) +
                " bytes, have " + std::to_string(size_ - pos_) + ")"};
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

void Reader::done() const {
  if (pos_ != size_) {
    throw Error{"wire: " + std::to_string(size_ - pos_) +
                " trailing bytes after payload"};
  }
}

// ---------------------------------------------------------------------------
// Frame envelope

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxPayloadBytes) {
    throw Error{"wire: frame payload too large"};
  }
  Writer w;
  w.u32(kMagic);
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(frame.type));
  w.u32(static_cast<std::uint32_t>(frame.payload.size()));
  auto buf = w.take();
  buf.insert(buf.end(), frame.payload.begin(), frame.payload.end());
  return buf;
}

std::uint32_t decode_frame_header(const std::uint8_t (&header)[12],
                                  FrameType& type) {
  Reader r{header, kFrameHeaderBytes};
  if (const std::uint32_t magic = r.u32(); magic != kMagic) {
    throw Error{"wire: bad frame magic 0x" + std::to_string(magic) +
                " (not a cosmos peer?)"};
  }
  if (const std::uint16_t version = r.u16(); version != kProtocolVersion) {
    throw Error{"wire: protocol version mismatch (peer speaks v" +
                std::to_string(version) + ", this build speaks v" +
                std::to_string(kProtocolVersion) + ")"};
  }
  const std::uint16_t raw_type = r.u16();
  if (raw_type < static_cast<std::uint16_t>(FrameType::kHello) ||
      raw_type > static_cast<std::uint16_t>(FrameType::kSeqGap)) {
    throw Error{"wire: unknown frame type " + std::to_string(raw_type)};
  }
  type = static_cast<FrameType>(raw_type);
  const std::uint32_t len = r.u32();
  if (len > kMaxPayloadBytes) {
    throw Error{"wire: frame payload length " + std::to_string(len) +
                " exceeds cap"};
  }
  return len;
}

// ---------------------------------------------------------------------------
// Values / tuples / schemas

void encode_value(Writer& w, const stream::Value& v) {
  switch (v.type()) {
    case stream::ValueType::kInt:
      w.u8(0);
      w.i64(v.as_int());
      return;
    case stream::ValueType::kDouble:
      w.u8(1);
      w.f64(v.as_double());
      return;
    case stream::ValueType::kString:
      w.u8(2);
      w.str(v.as_string());
      return;
  }
}

stream::Value decode_value(Reader& r) {
  switch (r.u8()) {
    case 0: return stream::Value{r.i64()};
    case 1: return stream::Value{r.f64()};
    case 2: return stream::Value{r.str()};
    default: throw Error{"wire: unknown Value tag"};
  }
}

void encode_tuple(Writer& w, const stream::Tuple& t) {
  w.i64(t.ts);
  w.u32(static_cast<std::uint32_t>(t.values.size()));
  for (const auto& v : t.values) encode_value(w, v);
}

stream::Tuple decode_tuple(Reader& r) {
  stream::Tuple t;
  t.ts = r.i64();
  const std::uint32_t n = r.u32();
  check_count(n, r.remaining(), "tuple value");
  t.values.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) t.values.push_back(decode_value(r));
  return t;
}

void encode_schema(Writer& w, const stream::Schema& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  for (const auto& f : s.fields()) {
    w.str(f.name);
    w.u8(static_cast<std::uint8_t>(f.type));
  }
}

stream::Schema decode_schema(Reader& r) {
  const std::uint32_t n = r.u32();
  check_count(n, r.remaining(), "schema field");
  std::vector<stream::Field> fields;
  fields.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    stream::Field f;
    f.name = r.str();
    const std::uint8_t t = r.u8();
    if (t > 2) throw Error{"wire: unknown ValueType tag"};
    f.type = static_cast<stream::ValueType>(t);
    fields.push_back(std::move(f));
  }
  return stream::Schema{std::move(fields)};
}

void encode_window(Writer& w, const stream::WindowSpec& ws) {
  w.u8(static_cast<std::uint8_t>(ws.kind));
  w.i64(ws.range_ms);
}

stream::WindowSpec decode_window(Reader& r) {
  const std::uint8_t kind = r.u8();
  if (kind > 2) throw Error{"wire: unknown WindowSpec kind"};
  stream::WindowSpec ws;
  ws.kind = static_cast<stream::WindowSpec::Kind>(kind);
  ws.range_ms = r.i64();
  return ws;
}

void encode_field_ref(Writer& w, const stream::FieldRef& f) {
  w.str(f.alias);
  w.str(f.field);
}

stream::FieldRef decode_field_ref(Reader& r) {
  stream::FieldRef f;
  f.alias = r.str();
  f.field = r.str();
  return f;
}

// ---------------------------------------------------------------------------
// Predicates

void encode_predicate(Writer& w, const stream::PredicatePtr& p) {
  using K = stream::Predicate::Kind;
  w.u8(static_cast<std::uint8_t>(p->kind()));
  switch (p->kind()) {
    case K::kTrue:
      return;
    case K::kCompareConst: {
      const auto& cc = static_cast<const stream::CompareConst&>(*p);
      encode_field_ref(w, cc.lhs());
      w.u8(static_cast<std::uint8_t>(cc.op()));
      encode_value(w, cc.rhs());
      return;
    }
    case K::kCompareField: {
      const auto& cf = static_cast<const stream::CompareField&>(*p);
      encode_field_ref(w, cf.lhs());
      w.u8(static_cast<std::uint8_t>(cf.op()));
      encode_field_ref(w, cf.rhs());
      return;
    }
    case K::kTimeBand: {
      const auto& tb = static_cast<const stream::TimeBand&>(*p);
      encode_field_ref(w, tb.newer());
      encode_field_ref(w, tb.older());
      w.i64(tb.band_ms());
      return;
    }
    case K::kAnd:
    case K::kOr: {
      const auto& bj = static_cast<const stream::BoolJunction&>(*p);
      w.u32(static_cast<std::uint32_t>(bj.children().size()));
      for (const auto& c : bj.children()) encode_predicate(w, c);
      return;
    }
    case K::kNot: {
      const auto& np = static_cast<const stream::NotPredicate&>(*p);
      encode_predicate(w, np.child());
      return;
    }
  }
}

namespace {

stream::CmpOp decode_cmp_op(Reader& r) {
  const std::uint8_t op = r.u8();
  if (op > static_cast<std::uint8_t>(stream::CmpOp::kNe)) {
    throw Error{"wire: unknown CmpOp tag"};
  }
  return static_cast<stream::CmpOp>(op);
}

stream::PredicatePtr decode_predicate_rec(Reader& r, std::size_t depth) {
  using K = stream::Predicate::Kind;
  if (depth > kMaxPredicateDepth) {
    throw Error{"wire: predicate tree deeper than " +
                std::to_string(kMaxPredicateDepth)};
  }
  const std::uint8_t kind = r.u8();
  switch (static_cast<K>(kind)) {
    case K::kTrue:
      return stream::Predicate::always_true();
    case K::kCompareConst: {
      auto lhs = decode_field_ref(r);
      const auto op = decode_cmp_op(r);
      return stream::Predicate::cmp(std::move(lhs), op, decode_value(r));
    }
    case K::kCompareField: {
      auto lhs = decode_field_ref(r);
      const auto op = decode_cmp_op(r);
      return stream::Predicate::cmp(std::move(lhs), op, decode_field_ref(r));
    }
    case K::kTimeBand: {
      auto newer = decode_field_ref(r);
      auto older = decode_field_ref(r);
      return stream::Predicate::time_band(std::move(newer), std::move(older),
                                          r.i64());
    }
    case K::kAnd:
    case K::kOr: {
      const std::uint32_t n = r.u32();
      check_count(n, r.remaining(), "junction child");
      std::vector<stream::PredicatePtr> children;
      children.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        children.push_back(decode_predicate_rec(r, depth + 1));
      }
      return static_cast<K>(kind) == K::kAnd
                 ? stream::Predicate::conj(std::move(children))
                 : stream::Predicate::disj(std::move(children));
    }
    case K::kNot:
      return stream::Predicate::negate(decode_predicate_rec(r, depth + 1));
  }
  throw Error{"wire: unknown Predicate kind tag"};
}

}  // namespace

stream::PredicatePtr decode_predicate(Reader& r) {
  return decode_predicate_rec(r, 0);
}

// ---------------------------------------------------------------------------
// Query specs / subscriptions

void encode_query_spec(Writer& w, const query::QuerySpec& spec) {
  w.u32(spec.id.value());
  w.u32(spec.proxy.value());
  w.u32(static_cast<std::uint32_t>(spec.sources.size()));
  for (const auto& s : spec.sources) {
    w.str(s.stream);
    w.str(s.alias);
    encode_window(w, s.window);
  }
  w.u8(spec.select_all ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(spec.select.size()));
  for (const auto& item : spec.select) {
    w.str(item.alias);
    w.str(item.field);
  }
  encode_predicate(w, spec.where);
  w.str(spec.text);
}

query::QuerySpec decode_query_spec(Reader& r) {
  query::QuerySpec spec;
  spec.id = QueryId{r.u32()};
  spec.proxy = NodeId{r.u32()};
  const std::uint32_t sources = r.u32();
  check_count(sources, r.remaining(), "query source");
  spec.sources.reserve(sources);
  for (std::uint32_t i = 0; i < sources; ++i) {
    query::SourceRef s;
    s.stream = r.str();
    s.alias = r.str();
    s.window = decode_window(r);
    spec.sources.push_back(std::move(s));
  }
  spec.select_all = r.u8() != 0;
  const std::uint32_t selects = r.u32();
  check_count(selects, r.remaining(), "select item");
  spec.select.reserve(selects);
  for (std::uint32_t i = 0; i < selects; ++i) {
    query::SelectItem item;
    item.alias = r.str();
    item.field = r.str();
    spec.select.push_back(std::move(item));
  }
  spec.where = decode_predicate(r);
  spec.text = r.str();
  return spec;
}

void encode_subscription(Writer& w, const pubsub::Subscription& sub) {
  w.u32(sub.id.value());
  w.u32(sub.subscriber.value());
  w.u32(static_cast<std::uint32_t>(sub.streams.size()));
  for (const auto& s : sub.streams) w.str(s);
  w.u32(static_cast<std::uint32_t>(sub.projection.size()));
  for (const auto& a : sub.projection) w.str(a);
  encode_predicate(w, sub.filter);
}

pubsub::Subscription decode_subscription(Reader& r) {
  pubsub::Subscription sub;
  sub.id = SubscriptionId{r.u32()};
  sub.subscriber = NodeId{r.u32()};
  const std::uint32_t streams = r.u32();
  check_count(streams, r.remaining(), "subscription stream");
  for (std::uint32_t i = 0; i < streams; ++i) sub.streams.insert(r.str());
  const std::uint32_t attrs = r.u32();
  check_count(attrs, r.remaining(), "subscription attribute");
  for (std::uint32_t i = 0; i < attrs; ++i) sub.projection.insert(r.str());
  sub.filter = decode_predicate(r);
  return sub;
}

// ---------------------------------------------------------------------------
// Tuple batches

void encode_batch(Writer& w, const runtime::TupleBatch& batch) {
  w.str(batch.stream());
  const std::size_t rows = batch.size();
  const std::size_t width = batch.width();
  w.u32(static_cast<std::uint32_t>(rows));
  w.u32(static_cast<std::uint32_t>(width));
  const stream::Timestamp* ts = batch.ts_data();
  for (std::size_t i = 0; i < rows; ++i) w.i64(ts[i]);
  const stream::Value* values = batch.values_data();
  for (std::size_t i = 0; i < rows * width; ++i) encode_value(w, values[i]);
}

runtime::TupleBatch decode_batch(Reader& r) {
  runtime::TupleBatch batch{r.str()};
  const std::uint32_t rows = r.u32();
  const std::uint32_t width = r.u32();
  check_count(rows, r.remaining(), "batch row");
  if (width != 0) check_count(width, r.remaining(), "batch column");
  std::vector<stream::Timestamp> ts(rows);
  for (std::uint32_t i = 0; i < rows; ++i) ts[i] = r.i64();
  std::vector<stream::Value> row;
  for (std::uint32_t i = 0; i < rows; ++i) {
    row.clear();
    row.reserve(width);
    for (std::uint32_t c = 0; c < width; ++c) row.push_back(decode_value(r));
    batch.push_row(ts[i], std::move(row));
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Traffic stats

void encode_traffic(Writer& w, const pubsub::TrafficStats& t) {
  w.f64(t.bytes);
  w.f64(t.weighted_cost);
  w.u64(t.messages_sent);
  w.u32(static_cast<std::uint32_t>(t.links.size()));
  for (const auto& [link, lt] : t.links) {
    w.u32(link.first.value());
    w.u32(link.second.value());
    w.f64(lt.bytes);
    w.f64(lt.weighted_cost);
    w.u64(lt.messages_sent);
  }
}

pubsub::TrafficStats decode_traffic(Reader& r) {
  pubsub::TrafficStats t;
  t.bytes = r.f64();
  t.weighted_cost = r.f64();
  t.messages_sent = static_cast<std::size_t>(r.u64());
  const std::uint32_t links = r.u32();
  check_count(links, r.remaining(), "traffic link");
  for (std::uint32_t i = 0; i < links; ++i) {
    const NodeId from{r.u32()};
    const NodeId to{r.u32()};
    pubsub::LinkTraffic lt;
    lt.bytes = r.f64();
    lt.weighted_cost = r.f64();
    lt.messages_sent = static_cast<std::size_t>(r.u64());
    t.links.emplace(std::make_pair(from, to), lt);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Join state

void encode_join_state(Writer& w,
                       const std::vector<stream::WindowJoinOp::State>& joins) {
  w.u32(static_cast<std::uint32_t>(joins.size()));
  for (const auto& j : joins) {
    w.i64(j.watermark);
    w.u32(static_cast<std::uint32_t>(j.left.size()));
    for (const auto& t : j.left) encode_tuple(w, t);
    w.u32(static_cast<std::uint32_t>(j.right.size()));
    for (const auto& t : j.right) encode_tuple(w, t);
  }
}

std::vector<stream::WindowJoinOp::State> decode_join_state(Reader& r) {
  const std::uint32_t joins = r.u32();
  check_count(joins, r.remaining(), "join state");
  std::vector<stream::WindowJoinOp::State> out;
  out.reserve(joins);
  for (std::uint32_t i = 0; i < joins; ++i) {
    stream::WindowJoinOp::State s;
    s.watermark = r.i64();
    const std::uint32_t left = r.u32();
    check_count(left, r.remaining(), "join left tuple");
    s.left.reserve(left);
    for (std::uint32_t j = 0; j < left; ++j) s.left.push_back(decode_tuple(r));
    const std::uint32_t right = r.u32();
    check_count(right, r.remaining(), "join right tuple");
    s.right.reserve(right);
    for (std::uint32_t j = 0; j < right; ++j) {
      s.right.push_back(decode_tuple(r));
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t serialized_state_bytes(
    const std::vector<stream::WindowJoinOp::State>& joins) {
  Writer w;
  encode_join_state(w, joins);
  return w.size();
}

}  // namespace cosmos::wire
