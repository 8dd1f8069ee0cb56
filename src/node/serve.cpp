#include "node/serve.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>
#include <vector>

#include "node/site.h"
#include "wire/channel.h"
#include "wire/messages.h"

namespace cosmos::node {
namespace {

/// Bounds a raw-socket read with SO_RCVTIMEO (0 clears the bound); a
/// timed-out recv fails with EAGAIN, which surfaces as a wire::Error.
void set_recv_timeout(const wire::Socket& sock, std::int64_t ms) {
  timeval tv{};
  tv.tv_sec = ms / 1'000;
  tv.tv_usec = (ms % 1'000) * 1'000;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

bool serve_connection(wire::Socket socket) {
  wire::FrameChannel channel{std::move(socket)};
  try {
    // The session opens with kHello: it carries the shard count the Site's
    // runtime should use and the emulated one-way delay this side applies
    // to its own outgoing frames.
    auto first = channel.recv();
    if (!first) return true;  // connected, then closed: nothing to serve
    const auto hello = wire::decode_hello(*first);
    channel.set_send_delay_ms(hello.send_delay_ms);
    // Symmetric liveness: this side also probes when send-idle and applies
    // the same silence deadline to the driver — a worker whose driver died
    // mid-session errors out within the deadline instead of lingering.
    channel.set_liveness(hello.heartbeat_every_ms, hello.liveness_deadline_ms);
    Site site{{hello.shards == 0 ? 1 : hello.shards, 64}};
    std::vector<wire::Frame> out;
    bool keep_going = site.handle(*first, out);
    for (auto& f : out) channel.send(std::move(f));
    while (keep_going) {
      auto frame = channel.recv();
      if (!frame) break;  // clean peer close
      out.clear();
      keep_going = site.handle(*frame, out);
      for (auto& f : out) channel.send(std::move(f));
    }
    channel.close();
    return true;
  } catch (const std::exception& e) {
    // Best effort: tell the driver why before tearing the session down. A
    // send failure here means the peer is already gone.
    try {
      channel.send(wire::encode_error({e.what()}));
    } catch (...) {
    }
    channel.close();
    return false;
  }
}

NodeServer::NodeServer(wire::Listener& listener, Options options)
    : listener_(listener), options_(std::move(options)) {}

NodeServer::~NodeServer() { shutdown(); }

bool NodeServer::run() {
  accept_thread_ = std::thread([this] { accept_loop(); });
  bool ok = true;
  {
    std::unique_lock lock{mu_};
    done_cv_.wait(lock, [&] { return driver_done_; });
    ok = driver_ok_;
  }
  shutdown();
  return ok;
}

void NodeServer::accept_loop() {
  while (true) {
    wire::Socket sock;
    try {
      sock = listener_.accept();
    } catch (const std::exception&) {
      return;  // listener closed: orderly shutdown
    }
    // First-frame handshake, read inline — but bounded: a dialer whose
    // hello was swallowed (SIGSTOP, an injected send partition) would
    // otherwise wedge this loop, and with it every later peer dial and the
    // final shutdown join, on a connection that will never speak.
    std::optional<wire::Frame> first;
    set_recv_timeout(sock, 2'000);
    try {
      first = wire::recv_frame(sock);
    } catch (const std::exception&) {
      continue;  // died (or stayed silent) mid-handshake: forget it
    }
    if (!first) continue;
    set_recv_timeout(sock, 0);
    if (first->type == wire::FrameType::kHello) {
      std::lock_guard lock{mu_};
      if (driver_started_ || shutting_down_) {
        try {
          wire::send_frame(sock,
                           wire::encode_error({"node: driver session "
                                               "already active"}));
        } catch (const std::exception&) {
        }
        continue;
      }
      driver_started_ = true;
      driver_thread_ = std::thread(
          [this, s = std::move(sock), f = std::move(*first)]() mutable {
            drive_session(std::move(s), std::move(f));
          });
    } else if (first->type == wire::FrameType::kPeerHello) {
      wire::PeerHelloMsg ph;
      try {
        ph = wire::decode_peer_hello(*first);
      } catch (const std::exception&) {
        continue;
      }
      if (ph.protocol != wire::kProtocolVersion) {
        try {
          wire::send_frame(
              sock, wire::encode_error(
                        {"node: peer protocol version mismatch: v" +
                         std::to_string(ph.protocol) + " vs v" +
                         std::to_string(wire::kProtocolVersion)}));
        } catch (const std::exception&) {
        }
        continue;
      }
      std::uint32_t self = 0;
      {
        std::lock_guard lock{mu_};
        if (shutting_down_) continue;
        self = worker_index_;
      }
      // Acknowledge before serving: connect() alone proves nothing (a
      // listener backlog accepts for a stopped process too); the ack is
      // what tells the dialer this worker actually serves. Sent before the
      // receive thread exists, so this is the socket's only writer here.
      try {
        wire::send_frame(sock, wire::encode_peer_hello_ack({self}));
      } catch (const std::exception&) {
        continue;
      }
      std::lock_guard lock{mu_};
      if (shutting_down_) continue;
      auto& slot = peer_ins_.emplace_back();
      slot.sock = std::move(sock);
      slot.th = std::thread([this, &slot] { peer_in_loop(slot.sock); });
    }
    // Any other first frame: drop the connection.
  }
}

void NodeServer::drive_session(wire::Socket sock, wire::Frame hello_frame) {
  bool ok = true;
  wire::FrameChannel* channel = nullptr;
  try {
    const auto hello = wire::decode_hello(hello_frame);
    worker_index_ = hello.worker_index;
    send_delay_ms_ = hello.send_delay_ms;
    heartbeat_every_ms_ = hello.heartbeat_every_ms;
    liveness_deadline_ms_ = hello.liveness_deadline_ms;
    auto ch = std::make_unique<wire::FrameChannel>(std::move(sock));
    channel = ch.get();
    channel->set_send_delay_ms(hello.send_delay_ms);
    channel->set_liveness(hello.heartbeat_every_ms,
                          hello.liveness_deadline_ms);
    if (!options_.driver_fault.empty()) {
      channel->set_fault(
          std::make_shared<fault::LinkFault>(options_.driver_fault));
    }
    auto site = std::make_unique<Site>(
        Site::Options{hello.shards == 0 ? 1 : hello.shards, 64});
    // Wire every callback before publishing the Site to the peer reader
    // threads: a peer execute must never find a half-initialized sink.
    site->set_emit([channel](wire::Frame f) { channel->send(std::move(f)); });
    site->set_peer_ship(
        [this](std::uint32_t w, wire::Frame f) { ship(w, std::move(f)); });
    site->set_peer_table_cb([this](wire::PeerTableMsg t) {
      std::lock_guard lock{mu_};
      table_ = std::move(t);
    });
    site->set_peer_traffic([this] { return peer_traffic(); });
    {
      std::lock_guard lock{mu_};
      driver_channel_ = std::move(ch);
      site_owned_ = std::move(site);
      site_ = site_owned_.get();
    }
    site_cv_.notify_all();
    std::vector<wire::Frame> out;  // stays empty: the emit sink is installed
    bool keep_going = site_->handle(hello_frame, out);
    while (keep_going) {
      auto frame = channel->recv();
      if (!frame) break;  // clean peer close
      keep_going = site_->handle(*frame, out);
    }
    // Hang up now (the last frames drain first): after kBye the driver
    // waits for this EOF before it shuts its side down. Peer threads that
    // still emit get a closed-channel error, which they already handle.
    channel->close();
  } catch (const std::exception& e) {
    ok = false;
    if (channel != nullptr) {
      try {
        channel->send(wire::encode_error({e.what()}));
      } catch (...) {
      }
    }
  }
  // The channel and Site stay alive for shutdown(): peer reader threads
  // may still be inside apply_peer_bundle / the emit sink until they are
  // joined there.
  std::lock_guard lock{mu_};
  driver_done_ = true;
  driver_ok_ = ok;
  done_cv_.notify_all();
}

Site* NodeServer::wait_site() {
  std::unique_lock lock{mu_};
  site_cv_.wait(lock, [&] { return site_ != nullptr || shutting_down_; });
  return shutting_down_ ? nullptr : site_;
}

void NodeServer::peer_in_loop(wire::Socket& sock) {
  try {
    while (auto frame = wire::recv_frame(sock)) {
      if (frame->type == wire::FrameType::kHeartbeat) {
        // Echo probes: the dialer's watchdog counts received frames, and
        // this echo is the only traffic it ever gets back — a stopped or
        // wedged receiver goes silent, which is how the dialer detects it.
        // Single-writer safe: the ack went out before this thread started.
        const auto hb = wire::decode_heartbeat(*frame);
        if (hb.probe != 0) wire::send_frame(sock, wire::encode_heartbeat({0}));
        continue;
      }
      if (frame->type != wire::FrameType::kExecuteBundle) {
        continue;  // peer links carry execute bundles and heartbeats only
      }
      const auto m = wire::decode_execute_bundle(*frame);
      Site* site = wait_site();
      if (site == nullptr) return;
      site->apply_peer_bundle(m);
    }
  } catch (const std::exception&) {
    // A dying peer (or our own shutdown's socket shutdown) lands here; the
    // driver's recovery path owns the consequences.
  }
}

namespace {

/// Shared between dial_peer and its channel's reader thread: flipped when
/// the accept side's kPeerHelloAck arrives.
struct AckGate {
  std::mutex mu;
  std::condition_variable cv;
  bool acked = false;
};

}  // namespace

NodeServer::PeerOut NodeServer::dial_peer(std::uint32_t worker) {
  std::string endpoint;
  {
    std::lock_guard lock{mu_};
    if (worker < table_.endpoints.size()) endpoint = table_.endpoints[worker];
  }
  if (endpoint.empty()) return {};
  try {
    auto sock = wire::connect_to(wire::Endpoint::parse(endpoint), 5'000);
    PeerOut out;
    wire::FrameChannel::Options copts;
    copts.send_delay_ms = send_delay_ms_;
    copts.heartbeat_every_ms = heartbeat_every_ms_;
    copts.liveness_deadline_ms = liveness_deadline_ms_;
    if (!options_.peer_fault.empty()) {
      // One persistent schedule per destination (caller holds
      // peer_out_mu_): counters survive re-dials, so a partition does not
      // "heal" for one handshake frame on every reconnect.
      auto& fault = peer_faults_[worker];
      if (!fault) fault = std::make_shared<fault::LinkFault>(
          options_.peer_fault);
      copts.fault = fault;
    }
    out.ch = std::make_unique<wire::FrameChannel>(std::move(sock), copts);
    out.ch->send(
        wire::encode_peer_hello({wire::kProtocolVersion, worker_index_}));
    // The reader has two jobs: eager death detection — EOF flips `dead`
    // the moment the peer goes away, and the next ship() re-dials instead
    // of enqueueing into a channel whose sender would drop the frame — and
    // fielding the kPeerHelloAck / heartbeat echoes that feed the
    // channel's liveness watchdog.
    out.dead = std::make_shared<std::atomic<bool>>(false);
    auto gate = std::make_shared<AckGate>();
    out.ch->start_reader(
        [gate](wire::Frame f) {
          if (f.type == wire::FrameType::kPeerHelloAck) {
            std::lock_guard lock{gate->mu};
            gate->acked = true;
            gate->cv.notify_all();
          }
        },
        [flag = out.dead](const std::string&) { flag->store(true); });
    // Wait (bounded) for the ack: a listener backlog happily accepts
    // connections for a SIGSTOPped process, so connect() success proves
    // nothing about the peer actually serving. ship() holds the frame
    // loop while we wait, and nothing feeds our own serve-channel
    // watchdog while we are not reading — so both ship attempts together
    // must stay well under the liveness deadline, hence deadline/4 each.
    const std::int64_t budget =
        liveness_deadline_ms_ > 0
            ? std::max<std::int64_t>(liveness_deadline_ms_ / 4, 10)
            : 5'000;
    std::unique_lock lock{gate->mu};
    if (!gate->cv.wait_for(lock, std::chrono::milliseconds(budget),
                           [&] { return gate->acked; })) {
      lock.unlock();
      out.ch->close();
      return {};
    }
    return out;
  } catch (const std::exception&) {
    return {};
  }
}

void NodeServer::retire_peer_out(PeerOut& slot) {
  retired_peer_frames_ += slot.ch->frames_sent();
  retired_peer_bytes_ += slot.ch->bytes_sent();
  slot.ch->close();
  slot.ch.reset();
  slot.dead.reset();
}

void NodeServer::ship(std::uint32_t worker, wire::Frame frame) {
  std::lock_guard lock{peer_out_mu_};
  if (peer_down_.contains(worker)) return;  // the driver owns this traffic
  // One live attempt + one re-dial: a freshly respawned worker re-binds
  // the same endpoint, so the second attempt covers recovery. A frame
  // dropped in the death instant itself is re-sent by the driver's
  // data-log replay.
  std::string last_error = "peer link dial/handshake failed";
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto& slot = peer_out_[worker];
    if (slot.ch && slot.dead->load()) {
      if (const auto err = slot.ch->send_error(); !err.empty()) {
        last_error = err;
      }
      retire_peer_out(slot);
    }
    if (!slot.ch) {
      slot = dial_peer(worker);
      if (!slot.ch) continue;
    }
    try {
      slot.ch->send(frame);
      return;
    } catch (const std::exception& e) {
      last_error = e.what();
      retire_peer_out(slot);
    }
  }
  mark_peer_down(worker, last_error);
}

void NodeServer::mark_peer_down(std::uint32_t worker,
                                const std::string& reason) {
  if (!peer_down_.insert(worker).second) return;  // already reported
  wire::FrameChannel* driver = nullptr;
  {
    std::lock_guard lock{mu_};
    driver = driver_channel_.get();
  }
  if (driver == nullptr) return;
  try {
    driver->send(wire::encode_peer_down({worker_index_, worker, reason}));
  } catch (const std::exception&) {
    // Driver channel down too; that failure has its own owner.
  }
}

std::pair<std::uint64_t, std::uint64_t> NodeServer::peer_traffic() {
  std::lock_guard lock{peer_out_mu_};
  std::uint64_t frames = retired_peer_frames_;
  std::uint64_t bytes = retired_peer_bytes_;
  for (const auto& [w, slot] : peer_out_) {
    if (slot.ch) {
      frames += slot.ch->frames_sent();
      bytes += slot.ch->bytes_sent();
    }
  }
  return {frames, bytes};
}

void NodeServer::shutdown() {
  {
    std::lock_guard lock{mu_};
    if (shutting_down_) {
      // Re-entrant (run() then destructor): nothing left to tear down.
      return;
    }
    shutting_down_ = true;
    site_cv_.notify_all();
  }
  listener_.close();  // accept() throws, accept_loop returns
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<PeerIn> peers;
  std::thread driver;
  {
    std::lock_guard lock{mu_};
    for (auto& p : peer_ins_) p.sock.shutdown_both();
    peers = std::move(peer_ins_);  // list nodes survive the move; the
                                   // threads' &slot references stay valid
    driver = std::move(driver_thread_);
  }
  for (auto& p : peers) {
    if (p.th.joinable()) p.th.join();
  }
  if (driver.joinable()) driver.join();
  {
    std::lock_guard lock{peer_out_mu_};
    for (auto& [w, slot] : peer_out_) {
      if (slot.ch) slot.ch->close();
    }
    peer_out_.clear();
  }
  // Safe now: every thread that could touch the Site or the driver channel
  // has been joined. close() drains the channel's queued tail (final
  // results / stats sample) within its bounded deadline.
  std::lock_guard lock{mu_};
  site_ = nullptr;
  site_owned_.reset();
  if (driver_channel_) driver_channel_->close();
  driver_channel_.reset();
}

}  // namespace cosmos::node
