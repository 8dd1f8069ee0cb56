// Driver-crash durability differential: a federated driver SIGKILLed at a
// deterministic chunk boundary must be restartable with
// Cosmos::resume_federated from its on-disk journal, and the pre-crash plus
// resumed runs' combined per-query result sequences must be byte-identical
// to the synchronous push() oracle — across seeds, worker counts, star and
// peer-link routing, and with mid-run checkpoints rolling journal segments.
//
// Harness shape: the push() baseline is computed first (single-threaded),
// then the test fork()s. The child runs the federated driver with
// journaling on, appending every delivered result to a shared file (each
// line write()n before the callback returns, so kill -9 loses nothing),
// and SIGKILLs itself from the on_chunk hook. The parent reaps the child,
// kills + reaps the worker fleet (NodeProcess::kill is the endpoint-free
// barrier), then resumes from the journal in-process and compares the
// concatenation.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cosmos/cosmos.h"
#include "cql/parser.h"
#include "journal/journal.h"
#include "node/spawn.h"
#include "sim/workload.h"
#include "support/random_workload.h"

namespace cosmos::middleware {
namespace {

using testsupport::ResultLog;
using testsupport::RandomWorkload;
using testsupport::build_system;
using testsupport::make_workload;
using testsupport::station;

struct Fleet {
  std::vector<node::NodeProcess> procs;
  std::vector<std::string> endpoints;
};

Fleet spawn_fleet(std::size_t n, const std::string& tag) {
  static int counter = 0;
  Fleet fleet;
  const std::string noded = node::default_noded_path();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string endpoint = "unix:/tmp/cosmos_durtest_" + tag + "_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(counter++) + ".sock";
    fleet.procs.push_back(node::spawn_noded(noded, endpoint));
    fleet.endpoints.push_back(endpoint);
  }
  return fleet;
}

/// build_system with a caller-supplied delivery callback (the shared
/// helper hard-wires an in-memory ResultLog; the crash child needs a
/// file-backed one).
std::unique_ptr<Cosmos> build_system_cb(
    const RandomWorkload& w,
    const std::function<void(QueryId, const stream::Tuple&)>& cb) {
  auto sys = std::make_unique<Cosmos>(w.nodes, w.lat);
  for (std::size_t st = 0; st < w.stations; ++st) {
    sys->register_source(station(st), sim::sensor_schema(), w.nodes[st % 2]);
  }
  std::size_t qid = 0;
  for (const auto& [text, host, proxy] : w.queries) {
    const QueryId id{static_cast<QueryId::value_type>(qid++)};
    sys->submit(cql::parse_query(text, id, proxy), host, cb);
  }
  return sys;
}

std::string result_line(const stream::Tuple& t) {
  std::string line = std::to_string(t.ts);
  for (const auto& v : t.values) line += "|" + v.to_string();
  return line;
}

/// Reads the child's crash-surviving result file back into a ResultLog.
/// Format: one "<query id>\t<result line>\n" per delivered tuple.
ResultLog read_result_file(const std::string& path) {
  ResultLog log;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) {
      ADD_FAILURE() << "malformed result line: " << line;
      continue;
    }
    const auto q = static_cast<QueryId::value_type>(
        std::strtoull(line.substr(0, tab).c_str(), nullptr, 10));
    log[QueryId{q}].push_back(line.substr(tab + 1));
  }
  return log;
}

std::string fresh_dir(const std::string& what) {
  std::string tmpl = "/tmp/cosmos_dur_" + what + "_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error{"mkdtemp failed"};
  }
  return tmpl;
}

struct CrashConfig {
  std::uint64_t seed = 1;
  std::size_t workers = 2;
  bool peer_links = false;
  /// SIGKILL after this chunk dispatches. Must exceed the in-flight window
  /// (pinned to 2 below): a chunk's resume marker is journaled only when it
  /// *retires*, so an earlier kill would resume from the initial commit and
  /// never exercise a nonzero cut.
  std::size_t kill_chunk = 5;
  stream::Timestamp checkpoint_ms = 0;  ///< journal checkpoint cadence
  std::vector<Cosmos::FederationOptions::Migration> migrations;
  /// Inspects the journal the crash left, before resume reads it.
  std::function<void(const journal::RecoveredRun&)> check_journal;
};

/// The full kill -9 + resume differential for one configuration. Child exit
/// protocol: death by SIGKILL = the crash landed; exit 77 = the trace was
/// too short to reach kill_chunk (a config bug worth failing loudly on).
void run_crash_resume_case(const CrashConfig& cfg, const std::string& tag) {
  SCOPED_TRACE("seed=" + std::to_string(cfg.seed) +
               " workers=" + std::to_string(cfg.workers) +
               " peer=" + std::to_string(cfg.peer_links) +
               " ckpt_ms=" + std::to_string(cfg.checkpoint_ms));
  const auto w = make_workload(cfg.seed);

  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  const std::string journal_dir = fresh_dir(tag);
  const std::string results_path = journal_dir + "/pre_crash_results.txt";
  auto fleet = spawn_fleet(cfg.workers, tag);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // --- crash child: journaled federated run, suicide at kill_chunk.
    std::ofstream out(results_path, std::ios::app);
    auto sys = build_system_cb(w, [&](QueryId q, const stream::Tuple& t) {
      out << q.value() << '\t' << result_line(t) << '\n' << std::flush;
    });
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = 16;  // small chunks: the kill lands mid-trace
    opts.tick_ms = 20 * 60'000;
    opts.max_inflight_chunks = 2;
    opts.peer_links = cfg.peer_links;
    opts.journal.dir = journal_dir;
    opts.journal.checkpoint_every_ms = cfg.checkpoint_ms;
    opts.migrations = cfg.migrations;
    opts.on_chunk = [&](std::size_t chunk) {
      if (chunk == cfg.kill_chunk) ::kill(::getpid(), SIGKILL);
    };
    try {
      (void)sys->run_federated(w.events, opts);
    } catch (...) {
      ::_exit(76);
    }
    ::_exit(77);  // ran to completion: the kill never landed
  }

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child did not die on its own SIGKILL (status " << status << ")";

  // The orphaned fleet must be fully gone before resume re-binds the same
  // endpoints — NodeProcess::kill's reap is that barrier.
  for (auto& p : fleet.procs) p.kill();

  const ResultLog pre_crash = read_result_file(results_path);
  if (cfg.check_journal) cfg.check_journal(journal::recover(journal_dir));

  // COSMOS_DURABILITY_JOURNAL, when set, exports the first crashed run's
  // journal segments (pre-resume, exactly as the kill left them) for CI to
  // upload as an artifact.
  if (const char* exp = std::getenv("COSMOS_DURABILITY_JOURNAL")) {
    static bool exported = false;
    if (!exported) {
      exported = true;
      std::error_code ec;
      std::filesystem::create_directories(exp, ec);
      for (const auto& entry :
           std::filesystem::directory_iterator(journal_dir, ec)) {
        std::filesystem::copy_file(
            entry.path(), std::filesystem::path(exp) / entry.path().filename(),
            std::filesystem::copy_options::overwrite_existing, ec);
      }
    }
  }

  ResultLog resumed;
  Cosmos::RunReport report;
  {
    auto sys = build_system(w, resumed);
    Cosmos::FederationOptions opts;
    opts.journal.dir = journal_dir;
    // resume_federated spawns its own fleet on the journaled endpoints;
    // point it at the test build's daemon binary.
    opts.recovery.noded_path = node::default_noded_path();
    report = sys->resume_federated(w.events, opts);
  }
  EXPECT_GT(report.federation.resume_skipped_events, 0u);
  EXPECT_GT(report.federation.journal_bytes, 0u);

  // Byte-identity of the concatenation, per query.
  ResultLog combined = pre_crash;
  for (const auto& [q, lines] : resumed) {
    auto& dst = combined[q];
    dst.insert(dst.end(), lines.begin(), lines.end());
  }
  ASSERT_EQ(combined, push_log) << "crash+resume differential mismatch";

  std::error_code ec;
  std::filesystem::remove_all(journal_dir, ec);
}

TEST(FederationDurability, CrashAtChunkBoundaryResumesByteIdentical) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
      CrashConfig cfg;
      cfg.seed = seed;
      cfg.workers = workers;
      run_crash_resume_case(cfg, "star");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FederationDurability, CrashResumesByteIdenticalOverPeerLinks) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    CrashConfig cfg;
    cfg.seed = seed;
    cfg.workers = 2;
    cfg.peer_links = true;
    run_crash_resume_case(cfg, "peer");
    if (HasFatalFailure()) return;
  }
  CrashConfig cfg;
  cfg.seed = 3;
  cfg.workers = 4;
  cfg.peer_links = true;
  run_crash_resume_case(cfg, "peer4");
}

TEST(FederationDurability, LateCrashResumesFromRolledCheckpointSegment) {
  // Mid-run checkpoints roll journal segments; a late kill then resumes
  // from a rolled cut (replaying only the last epoch), not from the top.
  CrashConfig cfg;
  cfg.seed = 4;
  cfg.workers = 2;
  cfg.kill_chunk = 6;
  cfg.checkpoint_ms = 2 * 20 * 60'000;  // every ~2 chunks of stream time
  run_crash_resume_case(cfg, "rolled");
}

TEST(FederationDurability, CrashAfterMigrationResumesByteIdentical) {
  // A scripted migration, then the driver's SIGKILL. With a cut between
  // them, resume places the moved engine where the cut's state record
  // says: on its destination. Without one, the newest cut predates the
  // migration, so resume places the engine from that cut — back on its
  // source — and re-splits the journaled bundles accordingly.
  constexpr std::size_t kBatch = 16;
  constexpr stream::Timestamp kTick = 20 * 60'000;
  constexpr std::size_t kMigrateChunk = 2;
  constexpr std::size_t kCutChunk = 4;
  const auto w = make_workload(2);
  std::vector<stream::Timestamp> first_ts;
  runtime::Driver::replay(w.events, {kBatch, kTick},
                          [&](runtime::Chunk&& c) {
                            first_ts.push_back(c.first_ts);
                          });
  ASSERT_GT(first_ts.size(), 10u);
  const NodeId engine = std::get<1>(w.queries.front());
  const std::uint32_t dst = 1 - engine.value() % 2;

  for (const bool cut_between : {true, false}) {
    CrashConfig cfg;
    cfg.seed = 2;
    cfg.workers = 2;
    cfg.kill_chunk = 7;
    cfg.migrations = {{first_ts[kMigrateChunk], engine, dst}};
    // The cadence starts at chunk 0, so this period first cuts at chunk 4:
    // after the migration, before the kill.
    cfg.checkpoint_ms = cut_between ? first_ts[kCutChunk] - first_ts[0] : 0;
    cfg.check_journal = [&](const journal::RecoveredRun& rec) {
      std::optional<std::uint32_t> placed;
      for (const auto& es : rec.engines) {
        if (es.engine == engine) placed = es.worker;
      }
      if (cut_between) {
        EXPECT_EQ(placed, std::optional<std::uint32_t>{dst});
      } else {
        EXPECT_EQ(placed, std::nullopt);  // the initial, state-free cut
      }
    };
    run_crash_resume_case(cfg, cut_between ? "migcut" : "mig");
    if (HasFatalFailure()) return;
  }
}

TEST(FederationDurability, ResumeOfCompletedRunDeliversNothingNew) {
  // Resume is idempotent at the limit: a journal whose run finished has
  // every result under the delivered floor, so the resumed run re-ingests
  // the empty trace suffix and suppresses all replay re-emissions.
  const auto w = make_workload(5);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  const std::string journal_dir = fresh_dir("completed");
  auto fleet = spawn_fleet(2, "completed");
  ResultLog fed_log;
  {
    auto sys = build_system(w, fed_log);
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = 16;
    opts.tick_ms = 20 * 60'000;
    opts.journal.dir = journal_dir;
    const auto report = sys->run_federated(w.events, opts);
    EXPECT_GT(report.federation.journal_bytes, 0u);
    EXPECT_GT(report.federation.journal_fsyncs, 0u);
    // Nothing replays a fresh journal-only star run's in-memory data log
    // (resume seeds its own from the journal), so none is kept.
    EXPECT_EQ(report.federation.data_log_appended, 0u);
  }
  ASSERT_EQ(fed_log, push_log);
  for (auto& p : fleet.procs) p.kill();

  ResultLog resumed;
  {
    auto sys = build_system(w, resumed);
    Cosmos::FederationOptions opts;
    opts.journal.dir = journal_dir;
    opts.recovery.noded_path = node::default_noded_path();
    const auto report = sys->resume_federated(w.events, opts);
    EXPECT_EQ(report.federation.resume_skipped_events, w.events.size());
  }
  EXPECT_TRUE(resumed.empty()) << "completed-run resume re-delivered results";

  std::error_code ec;
  std::filesystem::remove_all(journal_dir, ec);
}

TEST(FederationDurability, ResumeWithoutJournalDirThrows) {
  const auto w = make_workload(1);
  ResultLog log;
  auto sys = build_system(w, log);
  Cosmos::FederationOptions opts;
  EXPECT_THROW((void)sys->resume_federated(w.events, opts),
               std::invalid_argument);
}

TEST(FederationDurability, ResumeOfCorruptJournalThrowsTyped) {
  // End-to-end face of the corruption matrix: resume_federated surfaces
  // recover()'s typed error instead of spawning anything.
  const std::string journal_dir = fresh_dir("corrupt");
  {
    journal::Meta meta;
    meta.endpoints = {"unix:/tmp/never_dialed.sock"};
    auto jw = journal::Writer::create(journal_dir, meta,
                                      journal::Writer::Options{});
    jw->commit_checkpoint({});
  }
  // Stamp a wrong format version into the only segment's header.
  const std::string seg = journal_dir + "/seg-00000001.cjl";
  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(4);
    const char bad = static_cast<char>(journal::kFormatVersion + 9);
    f.write(&bad, 1);
  }

  const auto w = make_workload(1);
  ResultLog log;
  auto sys = build_system(w, log);
  Cosmos::FederationOptions opts;
  opts.journal.dir = journal_dir;
  try {
    (void)sys->resume_federated(w.events, opts);
    FAIL() << "resume of a version-skewed journal did not throw";
  } catch (const journal::Error& e) {
    EXPECT_EQ(e.code(), journal::ErrorCode::kBadVersion);
  }
  std::error_code ec;
  std::filesystem::remove_all(journal_dir, ec);
}

}  // namespace
}  // namespace cosmos::middleware
