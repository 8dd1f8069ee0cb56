// Journal round-trip: everything the Writer appends must come back from
// recover() — meta, registrations, engine states, the commit cut, the
// whole-chunk execute prefix, summed delivered floors — and the segment
// lifecycle (roll on checkpoint, abort, pruning, continue_at) must behave
// as docs/durability.md describes. Corruption handling has its own suite
// (journal_corruption_test.cpp).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "journal/journal.h"
#include "wire/codec.h"
#include "wire/messages.h"

namespace cosmos::journal {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/cosmos_journal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string dir_;
};

Meta test_meta() {
  Meta m;
  m.batch_size = 16;
  m.tick_ms = 60'000;
  m.worker_shards = 2;
  m.peer_links = true;
  m.endpoints = {"unix:/tmp/w0.sock", "unix:/tmp/w1.sock"};
  return m;
}

runtime::TupleBatch small_batch(const std::string& stream,
                                stream::Timestamp ts) {
  runtime::TupleBatch batch{stream};
  stream::Tuple t;
  t.ts = ts;
  t.values.push_back(stream::Value{std::int64_t{42}});
  t.values.push_back(stream::Value{std::string{"abc"}});
  batch.push_back(std::move(t));
  return batch;
}

wire::ExecuteMsg make_exec(std::uint32_t engine, std::uint64_t seq,
                           stream::Timestamp ts) {
  wire::ExecuteMsg exec;
  exec.engine = NodeId{engine};
  exec.batch = small_batch("S" + std::to_string(engine), ts);
  exec.ingest_ns = 1'000 + seq;
  exec.seq = seq;
  return exec;
}

wire::Frame reg_frame(const std::string& stream) {
  wire::RegisterStreamMsg m;
  m.stream = stream;
  m.publisher = NodeId{1};
  return wire::encode_register_stream(m);
}

std::size_t segment_count(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".cjl") ++n;
  }
  return n;
}

TEST_F(JournalTest, FreshRunRoundTrips) {
  Writer::Options opts;
  {
    auto w = Writer::create(dir_, test_meta(), opts);
    w->registration(reg_frame("S3"));
    w->registration(reg_frame("S4"));
    // Initial (zero-engine) commit, then a post-commit tail: two whole
    // chunks of executes and one delivered floor.
    CheckpointCommit c;
    c.checkpoint_id = 1;
    w->commit_checkpoint(c);
    w->execute(make_exec(3, 0, 10));
    w->execute(make_exec(4, 0, 10));
    w->chunk_routed({0, 7, 120'000});
    w->execute(make_exec(3, 1, 20));
    w->chunk_routed({1, 13, 180'000});
    w->delivered({{"q.0", 4}, {"q.1", 1}});
    w->delivered({{"q.0", 2}});
    EXPECT_GT(w->bytes_written(), 0u);
    EXPECT_EQ(w->segment_seq(), 1u);
  }

  const auto rec = recover(dir_);
  EXPECT_EQ(rec.meta.batch_size, 16u);
  EXPECT_EQ(rec.meta.tick_ms, 60'000);
  EXPECT_EQ(rec.meta.worker_shards, 2u);
  EXPECT_TRUE(rec.meta.peer_links);
  ASSERT_EQ(rec.meta.endpoints.size(), 2u);
  EXPECT_EQ(rec.meta.endpoints[1], "unix:/tmp/w1.sock");

  ASSERT_EQ(rec.registrations.size(), 2u);
  EXPECT_EQ(rec.registrations[0].type, wire::FrameType::kRegisterStream);
  EXPECT_EQ(wire::decode_register_stream(rec.registrations[0]).stream, "S3");
  EXPECT_EQ(wire::decode_register_stream(rec.registrations[1]).stream, "S4");

  EXPECT_EQ(rec.checkpoint.checkpoint_id, 1u);
  EXPECT_TRUE(rec.engines.empty());

  ASSERT_EQ(rec.bundles.size(), 3u);
  EXPECT_EQ(rec.bundles[0].entries[0].engine.value(), 3u);
  EXPECT_EQ(rec.bundles[0].entries[0].seq, 0u);
  EXPECT_EQ(rec.bundles[2].entries[0].seq, 1u);
  EXPECT_EQ(rec.bundles[2].runs[0]->size(), 1u);
  EXPECT_EQ(rec.bundles[2].runs[0]->ts(0), 20);

  // Delivered floors sum per stream, in stream order.
  ASSERT_EQ(rec.delivered.size(), 2u);
  EXPECT_EQ(rec.delivered[0].stream, "q.0");
  EXPECT_EQ(rec.delivered[0].count, 6u);
  EXPECT_EQ(rec.delivered[1].count, 1u);

  // Resume cut advanced through the last marker.
  EXPECT_EQ(rec.resume_events, 13u);
  EXPECT_EQ(rec.resume_chunk, 2u);
  EXPECT_TRUE(rec.has_watermark);
  EXPECT_EQ(rec.watermark, 180'000);
  EXPECT_FALSE(rec.torn_tail);
  EXPECT_EQ(rec.records_dropped, 0u);
  EXPECT_EQ(rec.segments_rolled_back, 0u);
  EXPECT_EQ(rec.next_segment, 2u);
}

TEST_F(JournalTest, PartialChunkExecutesAreDiscarded) {
  {
    auto w = Writer::create(dir_, test_meta(), Writer::Options{});
    w->commit_checkpoint({});
    w->execute(make_exec(3, 0, 10));
    w->chunk_routed({0, 5, 60'000});
    // Chunk 1's executes journaled, but the crash lands before its marker:
    // recovery must regenerate them by re-ingesting from event 5.
    w->execute(make_exec(3, 1, 20));
    w->execute(make_exec(4, 0, 20));
  }
  const auto rec = recover(dir_);
  ASSERT_EQ(rec.bundles.size(), 1u);
  EXPECT_EQ(rec.bundles[0].entries[0].seq, 0u);
  EXPECT_EQ(rec.resume_events, 5u);
  EXPECT_EQ(rec.resume_chunk, 1u);
  EXPECT_EQ(rec.records_dropped, 2u);
}

TEST_F(JournalTest, CheckpointRollsASelfContainedSegment) {
  {
    auto w = Writer::create(dir_, test_meta(), Writer::Options{});
    w->registration(reg_frame("S3"));
    w->commit_checkpoint({});
    w->execute(make_exec(3, 0, 10));
    w->chunk_routed({0, 5, 60'000});

    // Periodic cut: rolls segment 2 with the cached registration replayed
    // into its preamble and one engine state.
    w->begin_checkpoint();
    EngineState es;
    es.engine = NodeId{3};
    es.worker = 1;
    es.exec_seq = 1;
    w->engine_state(es);
    CheckpointCommit c;
    c.checkpoint_id = 2;
    c.events_consumed = 5;
    c.chunk_index = 1;
    c.watermark = 60'000;
    c.has_watermark = true;
    c.engine_states = 1;
    w->commit_checkpoint(c);
    EXPECT_EQ(w->segment_seq(), 2u);
    w->execute(make_exec(3, 1, 70));
    w->chunk_routed({1, 9, 120'000});
  }

  const auto rec = recover(dir_);
  EXPECT_EQ(rec.checkpoint.checkpoint_id, 2u);
  ASSERT_EQ(rec.registrations.size(), 1u);  // replayed into the new preamble
  ASSERT_EQ(rec.engines.size(), 1u);
  EXPECT_EQ(rec.engines[0].engine.value(), 3u);
  EXPECT_EQ(rec.engines[0].worker, 1u);
  EXPECT_EQ(rec.engines[0].exec_seq, 1u);
  ASSERT_EQ(rec.bundles.size(), 1u);  // only the new epoch's tail
  EXPECT_EQ(rec.bundles[0].entries[0].seq, 1u);
  EXPECT_EQ(rec.resume_events, 9u);
  EXPECT_EQ(rec.resume_chunk, 2u);
  EXPECT_EQ(rec.next_segment, 3u);
}

TEST_F(JournalTest, AbortedCheckpointFallsBackToActiveSegment) {
  {
    auto w = Writer::create(dir_, test_meta(), Writer::Options{});
    w->commit_checkpoint({});
    w->execute(make_exec(3, 0, 10));
    w->chunk_routed({0, 5, 60'000});
    w->begin_checkpoint();
    EngineState es;
    es.engine = NodeId{3};
    w->engine_state(es);
    w->abort_checkpoint();  // recovery raced the cut
    // Appends resume into segment 1.
    w->execute(make_exec(3, 1, 70));
    w->chunk_routed({1, 9, 120'000});
    EXPECT_EQ(w->segment_seq(), 1u);
  }
  EXPECT_EQ(segment_count(dir_), 1u);  // pending segment unlinked
  const auto rec = recover(dir_);
  EXPECT_EQ(rec.bundles.size(), 2u);
  EXPECT_EQ(rec.resume_events, 9u);
}

TEST_F(JournalTest, RetentionPrunesOldSegments) {
  Writer::Options opts;
  opts.retain_segments = 2;
  {
    auto w = Writer::create(dir_, test_meta(), opts);
    w->commit_checkpoint({});
    for (std::uint64_t ck = 2; ck <= 5; ++ck) {
      w->execute(make_exec(3, ck - 2, 10));
      w->chunk_routed({ck - 2, 2 * (ck - 1), 60'000});
      w->begin_checkpoint();
      CheckpointCommit c;
      c.checkpoint_id = ck;
      c.events_consumed = 2 * (ck - 1);
      c.chunk_index = ck - 1;
      w->commit_checkpoint(c);
    }
    EXPECT_EQ(w->segment_seq(), 5u);
  }
  // Only the newest two segments survive; recovery reads the newest.
  EXPECT_EQ(segment_count(dir_), 2u);
  const auto rec = recover(dir_);
  EXPECT_EQ(rec.checkpoint.checkpoint_id, 5u);
  EXPECT_EQ(rec.next_segment, 6u);
}

TEST_F(JournalTest, CreateWipesAPreviousRunsSegments) {
  {
    auto w = Writer::create(dir_, test_meta(), Writer::Options{});
    w->commit_checkpoint({});
  }
  {
    auto w = Writer::create(dir_, test_meta(), Writer::Options{});
    CheckpointCommit c;
    c.checkpoint_id = 7;
    w->commit_checkpoint(c);
  }
  EXPECT_EQ(segment_count(dir_), 1u);
  EXPECT_EQ(recover(dir_).checkpoint.checkpoint_id, 7u);
}

TEST_F(JournalTest, ContinueAtExtendsTheChain) {
  {
    auto w = Writer::create(dir_, test_meta(), Writer::Options{});
    w->registration(reg_frame("S3"));
    w->commit_checkpoint({});
    w->execute(make_exec(3, 0, 10));
    w->chunk_routed({0, 5, 60'000});
  }
  const auto first = recover(dir_);
  EXPECT_EQ(first.next_segment, 2u);

  // The resumed run re-journals registrations, seals its resume cut, then
  // journals a fresh tail — like resume_replicate does.
  {
    auto w = Writer::continue_at(dir_, first.next_segment, test_meta(),
                                 Writer::Options{});
    for (const auto& f : first.registrations) w->registration(f);
    EngineState es;
    es.engine = NodeId{3};
    es.exec_seq = 1;
    w->engine_state(es);
    CheckpointCommit c;
    c.checkpoint_id = 2;
    c.events_consumed = 5;
    c.chunk_index = 1;
    c.engine_states = 1;
    w->commit_checkpoint(c);
    w->execute(make_exec(3, 1, 70));
    w->chunk_routed({1, 9, 120'000});
  }
  const auto rec = recover(dir_);
  EXPECT_EQ(rec.checkpoint.checkpoint_id, 2u);
  ASSERT_EQ(rec.engines.size(), 1u);
  EXPECT_EQ(rec.resume_events, 9u);
  EXPECT_EQ(rec.segments_rolled_back, 0u);
  EXPECT_EQ(rec.next_segment, 3u);
}

TEST_F(JournalTest, FsyncPolicyCounts) {
  auto count_with = [&](Fsync f) {
    std::filesystem::remove_all(dir_);
    Writer::Options opts;
    opts.fsync = f;
    auto w = Writer::create(dir_, test_meta(), opts);
    w->commit_checkpoint({});
    w->execute(make_exec(3, 0, 10));
    w->chunk_routed({0, 5, 60'000});
    return w->fsyncs();
  };
  const auto never = count_with(Fsync::kNever);
  const auto commit = count_with(Fsync::kCommit);
  const auto chunk = count_with(Fsync::kChunk);
  const auto every = count_with(Fsync::kEvery);
  EXPECT_EQ(never, 0u);
  EXPECT_GT(commit, never);
  EXPECT_GT(chunk, commit);
  EXPECT_GT(every, chunk);
}

/// Chunk-shaped bundles: worker 0's bundle for chunk k is journaled but the
/// crash lands before chunk k's marker (worker 1's bundle never made it).
/// Recovery drops that bundle, counts it, and replays whole chunks only.
TEST_F(JournalTest, BundleWithoutChunkMarkerIsDropped) {
  const auto run = [](const std::string& stream, stream::Timestamp ts) {
    return std::make_shared<const runtime::TupleBatch>(small_batch(stream, ts));
  };
  const auto bundle = [&](std::uint64_t seq, stream::Timestamp ts,
                          std::vector<std::uint32_t> engines) {
    wire::ExecuteBundleMsg b;
    b.ingest_ns = 500 + seq;
    const auto shared = run("S" + std::to_string(ts), ts);
    for (const auto e : engines) b.add(NodeId{e}, seq, shared, {});
    return wire::encode_execute_bundle(b);
  };
  {
    auto w = Writer::create(dir_, test_meta(), Writer::Options{});
    w->commit_checkpoint({});
    // Chunk 0: one bundle per worker, then its marker.
    w->execute(bundle(0, 10, {2, 4}));
    w->execute(bundle(0, 10, {3}));
    w->chunk_routed({0, 5, 60'000});
    // Chunk 1: worker 0's bundle only — no marker.
    w->execute(bundle(1, 20, {2, 4}));
  }
  const auto rec = recover(dir_);
  ASSERT_EQ(rec.bundles.size(), 2u);
  const auto& w0 = rec.bundles[0];
  ASSERT_EQ(w0.runs.size(), 1u);  // the run travelled once for both engines
  ASSERT_EQ(w0.entries.size(), 2u);
  EXPECT_EQ(w0.entries[0].engine.value(), 2u);
  EXPECT_EQ(w0.entries[1].engine.value(), 4u);
  EXPECT_EQ(w0.entries[1].run, 0u);
  EXPECT_EQ(w0.ingest_ns, 500u);
  EXPECT_EQ(rec.bundles[1].entries[0].engine.value(), 3u);
  EXPECT_EQ(rec.records_dropped, 1u);
  EXPECT_FALSE(rec.torn_tail);
  EXPECT_EQ(rec.resume_events, 5u);
  EXPECT_EQ(rec.resume_chunk, 1u);
}

/// A journal written for wire protocol v4 is refused with a typed error.
TEST_F(JournalTest, RefusesV4Journal) {
  {
    auto meta = test_meta();
    meta.protocol = 4;
    auto w = Writer::create(dir_, meta, Writer::Options{});
    w->commit_checkpoint({});
  }
  try {
    (void)recover(dir_);
    ADD_FAILURE() << "a v4 journal was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadVersion);
  }
}

}  // namespace
}  // namespace cosmos::journal
