// Socket + FrameChannel transport: endpoint parsing, TCP and Unix-domain
// round trips, clean-close vs mid-frame-disconnect semantics, and the
// bounded-queue discipline of FrameChannel (send blocks, never drops; a
// dead peer surfaces as an error, never a hang).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "wire/channel.h"
#include "wire/messages.h"
#include "wire/socket.h"

namespace cosmos::wire {
namespace {

std::string test_socket_path(const char* tag) {
  return "/tmp/cosmos_transport_" + std::string{tag} + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(Endpoint, ParsesAndPrints) {
  const auto uds = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(uds.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(uds.path, "/tmp/x.sock");
  EXPECT_EQ(uds.to_string(), "unix:/tmp/x.sock");

  const auto tcp = Endpoint::parse("tcp:127.0.0.1:9000");
  EXPECT_EQ(tcp.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 9000);
  EXPECT_EQ(tcp.to_string(), "tcp:127.0.0.1:9000");

  EXPECT_THROW((void)Endpoint::parse(""), Error);
  EXPECT_THROW((void)Endpoint::parse("carrier-pigeon:coop"), Error);
}

void round_trip_over(const Endpoint& at) {
  Listener listener{at};
  std::thread server{[&] {
    Socket conn = listener.accept();
    while (auto f = recv_frame(conn)) {
      if (f->type == FrameType::kBye) break;
      send_frame(conn, *f);  // echo
    }
  }};
  Socket client = connect_to(listener.endpoint());
  for (int i = 0; i < 50; ++i) {
    send_frame(client, encode_watermark({i}));
    const auto back = recv_frame(client);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(decode_watermark(*back).watermark, i);
  }
  send_frame(client, encode_bye());
  server.join();
}

TEST(Transport, UnixDomainRoundTrip) {
  round_trip_over(Endpoint::parse("unix:" + test_socket_path("uds")));
}

TEST(Transport, TcpEphemeralPortRoundTrip) {
  const Endpoint at = Endpoint::parse("tcp:127.0.0.1:0");
  Listener listener{at};
  // The listener must report the resolved ephemeral port.
  EXPECT_NE(listener.endpoint().port, 0);
  std::thread server{[&] {
    Socket conn = listener.accept();
    while (auto f = recv_frame(conn)) send_frame(conn, *f);
  }};
  Socket client = connect_to(listener.endpoint());
  send_frame(client, encode_flush({9}));
  const auto back = recv_frame(client);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(decode_flush(*back).seq, 9u);
  client.close();  // EOF ends the server loop
  server.join();
}

TEST(Transport, CleanCloseBetweenFramesIsNotAnError) {
  Listener listener{Endpoint::parse("unix:" + test_socket_path("clean"))};
  std::thread server{[&] {
    Socket conn = listener.accept();
    send_frame(conn, encode_watermark({1}));
    // Orderly close at a frame boundary.
  }};
  Socket client = connect_to(listener.endpoint());
  EXPECT_TRUE(recv_frame(client).has_value());
  EXPECT_FALSE(recv_frame(client).has_value());  // EOF, not a throw
  server.join();
}

TEST(Transport, DisconnectMidFrameThrows) {
  Listener listener{Endpoint::parse("unix:" + test_socket_path("midframe"))};
  std::thread server{[&] {
    Socket conn = listener.accept();
    // Half a header, then hang up: the peer must see a hard error.
    const std::uint8_t partial[5] = {0x4D, 0x53, 0x4F, 0x43, 0x01};
    conn.send_all(partial, sizeof partial);
  }};
  Socket client = connect_to(listener.endpoint());
  EXPECT_THROW((void)recv_frame(client), Error);
  server.join();
}

TEST(FrameChannel, PingPongAndCounters) {
  Listener listener{Endpoint::parse("unix:" + test_socket_path("chan"))};
  std::thread server{[&] {
    FrameChannel serve{listener.accept()};
    while (auto f = serve.recv()) {
      if (f->type == FrameType::kBye) break;
      serve.send(std::move(*f));
    }
    serve.close();
  }};
  FrameChannel client{connect_to(listener.endpoint())};
  std::mutex mu;
  std::condition_variable cv;
  std::vector<stream::Timestamp> got;
  std::atomic<bool> closed{false};
  client.start_reader(
      [&](Frame f) {
        std::lock_guard lock{mu};
        got.push_back(decode_watermark(f).watermark);
        cv.notify_all();
      },
      [&](const std::string&) { closed = true; });
  constexpr std::size_t kFrames = 200;
  for (std::size_t i = 0; i < kFrames; ++i) {
    client.send(encode_watermark({static_cast<stream::Timestamp>(i)}));
  }
  {
    std::unique_lock lock{mu};
    cv.wait(lock, [&] { return got.size() == kFrames; });
  }
  // FIFO: echoed frames arrive in send order.
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i], static_cast<stream::Timestamp>(i));
  }
  EXPECT_EQ(client.frames_sent(), kFrames);
  EXPECT_EQ(client.frames_received(), kFrames);
  EXPECT_GT(client.bytes_sent(), kFrames * kFrameHeaderBytes);
  EXPECT_EQ(client.bytes_sent(), client.bytes_received());  // echo symmetry
  client.send(encode_bye());
  server.join();
  client.close();
}

TEST(FrameChannel, PeerDeathSurfacesAsCloseNotHang) {
  Listener listener{Endpoint::parse("unix:" + test_socket_path("death"))};
  std::thread server{[&] {
    Socket conn = listener.accept();
    // Die without a word mid-session.
    conn.close();
  }};
  FrameChannel client{connect_to(listener.endpoint())};
  std::mutex mu;
  std::condition_variable cv;
  bool closed = false;
  client.start_reader([&](Frame) {},
                      [&](const std::string&) {
                        std::lock_guard lock{mu};
                        closed = true;
                        cv.notify_all();
                      });
  {
    std::unique_lock lock{mu};
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return closed; }));
  }
  server.join();
  // Sends to the dead peer eventually throw instead of blocking forever.
  EXPECT_THROW(
      {
        for (int i = 0; i < 10'000; ++i) client.send(encode_watermark({i}));
      },
      Error);
  client.close();
}

TEST(FrameChannel, CloseDeliversQueuedFramesToSlowReader) {
  // Regression: close() used to shut the socket down with frames still
  // sitting in the send queue, silently dropping a final kStatsSample or
  // kFlushAck. The frames here are big enough that the socket buffer
  // cannot absorb them all, so some are genuinely queued at close().
  Listener listener{Endpoint::parse("unix:" + test_socket_path("drain"))};
  constexpr std::size_t kFrames = 40;
  std::size_t received = 0;
  std::thread server{[&] {
    Socket conn = listener.accept();
    // Slow reader: let the client queue up and close first.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    while (recv_frame(conn).has_value()) ++received;
  }};
  {
    FrameChannel client{connect_to(listener.endpoint())};
    Frame big;
    big.type = FrameType::kStatsSample;
    big.payload.assign(64 * 1024, 0xAB);
    for (std::size_t i = 0; i < kFrames; ++i) client.send(big);
    client.close();  // must drain the queued tail, not drop it
  }
  server.join();
  EXPECT_EQ(received, kFrames);
}

TEST(FrameChannel, CloseIsBoundedAgainstAWedgedPeer) {
  // The flip side of drain-on-close: a peer that stops reading must not
  // turn close() into a hang. Past close_drain_ms the socket is shut down
  // and the remaining frames are dropped.
  Listener listener{Endpoint::parse("unix:" + test_socket_path("wedge"))};
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::thread server{[&] {
    Socket conn = listener.accept();
    // Accept, then never read: the client's sender wedges in send_all.
    std::unique_lock lock{mu};
    cv.wait(lock, [&] { return release; });
  }};
  FrameChannel::Options opts;
  opts.send_queue_capacity = 8;
  opts.close_drain_ms = 200;
  FrameChannel client{connect_to(listener.endpoint()), opts};
  Frame big;
  big.type = FrameType::kExecuteBundle;
  big.payload.assign(1024 * 1024, 0x5A);  // far beyond the socket buffer
  for (int i = 0; i < 4; ++i) client.send(big);
  const auto t0 = std::chrono::steady_clock::now();
  client.close();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  {
    std::lock_guard lock{mu};
    release = true;
    cv.notify_all();
  }
  server.join();
}

TEST(Listener, RebindsOverStaleSocketFile) {
  // A SIGKILLed daemon leaves its bound socket file behind; the respawn
  // must be able to bind the same path. Simulate the corpse with a raw
  // bind that is closed without unlinking.
  const std::string path = test_socket_path("stale");
  ::unlink(path.c_str());
  const int corpse = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(corpse, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(corpse, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ::close(corpse);  // the file at `path` survives, exactly like kill -9

  Listener listener{Endpoint::parse("unix:" + path)};  // must not throw
  std::thread server{[&] {
    Socket conn = listener.accept();
    if (auto f = recv_frame(conn)) send_frame(conn, *f);
  }};
  Socket client = connect_to(listener.endpoint());
  send_frame(client, encode_watermark({7}));
  const auto back = recv_frame(client);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(decode_watermark(*back).watermark, 7);
  server.join();
}

TEST(Listener, RefusesToUnlinkNonSocketFile) {
  // Stale-socket cleanup must never eat a regular file that happens to sit
  // at the endpoint path.
  const std::string path = test_socket_path("notasock");
  ::unlink(path.c_str());
  {
    std::ofstream out{path};
    out << "precious data\n";
  }
  EXPECT_THROW(Listener{Endpoint::parse("unix:" + path)}, Error);
  struct stat st{};
  EXPECT_EQ(::lstat(path.c_str(), &st), 0);  // still there, untouched
  EXPECT_TRUE(S_ISREG(st.st_mode));
  ::unlink(path.c_str());
}

TEST(FrameChannel, SendAfterCloseThrows) {
  Listener listener{Endpoint::parse("unix:" + test_socket_path("closed"))};
  std::thread server{[&] { Socket conn = listener.accept(); }};
  FrameChannel client{connect_to(listener.endpoint())};
  server.join();
  client.close();
  EXPECT_THROW(client.send(encode_watermark({1})), Error);
}

TEST(FrameChannel, OriginatesHeartbeatsWhenSendIdle) {
  Listener listener{Endpoint::parse("unix:" + test_socket_path("hb"))};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t probes = 0;
  std::thread server{[&] {
    Socket conn = listener.accept();
    while (auto f = recv_frame(conn)) {
      if (f->type == FrameType::kBye) break;
      if (f->type == FrameType::kHeartbeat &&
          decode_heartbeat(*f).probe != 0) {
        std::lock_guard lock{mu};
        ++probes;
        cv.notify_all();
      }
    }
  }};
  FrameChannel::Options opts;
  opts.heartbeat_every_ms = 30;
  FrameChannel client{connect_to(listener.endpoint()), opts};
  // The channel is send-idle; probes must flow without any send() call.
  {
    std::unique_lock lock{mu};
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return probes >= 3; }));
  }
  client.send(encode_bye());
  server.join();
  client.close();
}

TEST(FrameChannel, LivenessDeadlineSurfacesAsErrorNotHang) {
  // A peer that accepts and then goes completely silent (the SIGSTOP
  // shape) must become a thrown error within the deadline — on both the
  // recv() path and the reader-callback path.
  Listener listener{Endpoint::parse("unix:" + test_socket_path("silent"))};
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::thread server{[&] {
    Socket conn = listener.accept();
    std::unique_lock lock{mu};  // never sends, never closes
    cv.wait(lock, [&] { return release; });
  }};
  FrameChannel::Options opts;
  opts.liveness_deadline_ms = 150;
  opts.close_drain_ms = 200;
  FrameChannel client{connect_to(listener.endpoint()), opts};
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)client.recv();
    FAIL() << "silent peer did not trip the liveness deadline";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("liveness deadline"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  EXPECT_TRUE(client.liveness_expired());
  client.close();
  {
    std::lock_guard lock{mu};
    release = true;
    cv.notify_all();
  }
  server.join();
}

TEST(FrameChannel, HeartbeatsHoldOffTheDeadline) {
  // The healthy case: a peer that says nothing *but* echoes probes must
  // never be declared dead.
  Listener listener{Endpoint::parse("unix:" + test_socket_path("echoer"))};
  std::thread server{[&] {
    Socket conn = listener.accept();
    while (auto f = recv_frame(conn)) {
      if (f->type == FrameType::kBye) break;
      if (f->type == FrameType::kHeartbeat &&
          decode_heartbeat(*f).probe != 0) {
        send_frame(conn, encode_heartbeat({0}));
      }
    }
  }};
  FrameChannel::Options opts;
  opts.heartbeat_every_ms = 40;
  opts.liveness_deadline_ms = 200;
  FrameChannel client{connect_to(listener.endpoint()), opts};
  std::atomic<bool> closed{false};
  client.start_reader([](Frame) {},
                      [&](const std::string&) { closed = true; });
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_FALSE(client.liveness_expired());
  EXPECT_FALSE(closed);
  client.send(encode_bye());
  server.join();
  client.close();
}

TEST(FrameChannel, DropFaultCountsDroppedFramesAndPeerSeesNothing) {
  Listener listener{Endpoint::parse("unix:" + test_socket_path("dropf"))};
  std::vector<stream::Timestamp> seen;
  std::thread server{[&] {
    Socket conn = listener.accept();
    while (auto f = recv_frame(conn)) {
      if (f->type == FrameType::kBye) break;
      seen.push_back(decode_watermark(*f).watermark);
    }
  }};
  FrameChannel::Options opts;
  opts.fault = std::make_shared<fault::LinkFault>(
      fault::FaultPlan::parse("send:drop@after=2,for=3"));
  FrameChannel client{connect_to(listener.endpoint()), opts};
  for (int i = 0; i < 8; ++i) client.send(encode_watermark({i}));
  client.send(encode_bye());
  server.join();
  // Frames 2,3,4 vanished; the peer saw the rest in order.
  EXPECT_EQ(seen, (std::vector<stream::Timestamp>{0, 1, 5, 6, 7}));
  EXPECT_EQ(client.frames_dropped(), 3u);
  client.close();
}

TEST(FrameChannel, ReorderFaultSwapsOneFramePair) {
  Listener listener{Endpoint::parse("unix:" + test_socket_path("reorder"))};
  std::vector<stream::Timestamp> seen;
  std::thread server{[&] {
    Socket conn = listener.accept();
    while (auto f = recv_frame(conn)) {
      if (f->type == FrameType::kBye) break;
      seen.push_back(decode_watermark(*f).watermark);
    }
  }};
  FrameChannel::Options opts;
  opts.fault = std::make_shared<fault::LinkFault>(
      fault::FaultPlan::parse("send:reorder@after=1"));
  FrameChannel client{connect_to(listener.endpoint()), opts};
  for (int i = 0; i < 4; ++i) client.send(encode_watermark({i}));
  client.send(encode_bye());
  server.join();
  EXPECT_EQ(seen, (std::vector<stream::Timestamp>{0, 2, 1, 3}));
  client.close();
}

TEST(FrameChannel, DuplicateFaultDeliversTheFrameTwice) {
  Listener listener{Endpoint::parse("unix:" + test_socket_path("dupf"))};
  std::vector<stream::Timestamp> seen;
  std::thread server{[&] {
    Socket conn = listener.accept();
    while (auto f = recv_frame(conn)) {
      if (f->type == FrameType::kBye) break;
      seen.push_back(decode_watermark(*f).watermark);
    }
  }};
  FrameChannel::Options opts;
  opts.fault = std::make_shared<fault::LinkFault>(
      fault::FaultPlan::parse("send:dup@after=1,for=1"));
  FrameChannel client{connect_to(listener.endpoint()), opts};
  for (int i = 0; i < 3; ++i) client.send(encode_watermark({i}));
  client.send(encode_bye());
  server.join();
  EXPECT_EQ(seen, (std::vector<stream::Timestamp>{0, 1, 1, 2}));
  client.close();
}

TEST(FrameChannel, CorruptFaultIsDetectedByThePeerDecoder) {
  Listener listener{Endpoint::parse("unix:" + test_socket_path("corrupt"))};
  std::mutex mu;
  std::condition_variable cv;
  bool threw = false;
  std::thread server{[&] {
    Socket conn = listener.accept();
    try {
      while (recv_frame(conn).has_value()) {
      }
    } catch (const Error&) {
      std::lock_guard lock{mu};
      threw = true;
      cv.notify_all();
    }
  }};
  FrameChannel::Options opts;
  opts.fault = std::make_shared<fault::LinkFault>(
      fault::FaultPlan::parse("send:corrupt@after=2,for=1,seed=7"));
  FrameChannel client{connect_to(listener.endpoint()), opts};
  for (int i = 0; i < 3; ++i) client.send(encode_watermark({i}));
  {
    std::unique_lock lock{mu};
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return threw; }));
  }
  server.join();
  client.close();
}

TEST(FrameChannel, PartitionFaultTripsThePeersDeadline) {
  // One-way partition end to end: A's sends vanish but A's socket stays
  // open. B hears nothing — not even heartbeats — and must declare A dead
  // by deadline instead of waiting forever.
  Listener listener{Endpoint::parse("unix:" + test_socket_path("part"))};
  std::thread server{[&] {
    Socket conn = listener.accept();
    FrameChannel::Options bopts;
    bopts.liveness_deadline_ms = 200;
    bopts.close_drain_ms = 200;
    FrameChannel b{std::move(conn), bopts};
    EXPECT_THROW(
        {
          while (b.recv().has_value()) {
          }
        },
        Error);
    EXPECT_TRUE(b.liveness_expired());
    b.close();
  }};
  FrameChannel::Options aopts;
  aopts.heartbeat_every_ms = 40;  // originated, then blackholed
  aopts.fault = std::make_shared<fault::LinkFault>(
      fault::FaultPlan::parse("send:partition"));
  aopts.close_drain_ms = 200;
  FrameChannel a{connect_to(listener.endpoint()), aopts};
  server.join();
  EXPECT_GT(a.frames_dropped(), 0u);  // the blackholed heartbeats
  a.close();
}

}  // namespace
}  // namespace cosmos::wire
