// FrameChannel: one federation connection with the same bounded-queue
// discipline the in-process shard queues have.
//
// Sending goes through a runtime::BoundedQueue<Frame> drained by a
// dedicated sender thread, so send() exerts exactly the backpressure that
// Runtime::dispatch() exerts on a full shard queue — the driver blocks
// instead of buffering without limit, and per-channel FIFO order is
// preserved (which is what keeps per-engine input order, and hence result
// byte-identity, across processes). An optional per-frame delay emulates a
// one-way link latency in *pipelined* fashion: each frame departs at
// enqueue time + delay, so consecutive frames overlap in flight like they
// would on a real link instead of serializing the delays.
//
// Liveness (protocol v3): the sender thread doubles as the channel's
// watchdog. When the channel is send-idle for heartbeat_every_ms it emits
// a kHeartbeat directly onto the socket; when nothing has been *received*
// for liveness_deadline_ms it declares the peer dead — the socket is shut
// down, which surfaces on the read side as a thrown wire::Error naming the
// deadline, so the same mark-dead/recovery machinery that handles EOF
// handles silence. A SIGSTOPped or partitioned peer is therefore an error
// within a bounded time, never a hang.
//
// Fault injection: an optional fault::LinkFault is consulted for every
// frame in each direction and the channel applies the returned action
// (drop, duplicate, reorder, corrupt, extra delay, pacing, hang) — the
// deterministic-chaos hook; see src/fault/fault.h.
//
// Receiving has two modes sharing one socket:
//  - recv(): blocking pull of the next frame (the daemon's serve loop);
//  - start_reader(on_frame, on_close): a dedicated reader thread invoking
//    the callback per frame (the driver side, which must never stop
//    draining the socket — that invariant is the transport's deadlock
//    freedom argument: both endpoints always have a reader running).
//
// Byte/frame counters are atomic and readable from any thread; they are
// what RunReport's per-link wire stats surface.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/clock.h"
#include "fault/fault.h"
#include "runtime/queues.h"
#include "wire/socket.h"

namespace cosmos::wire {

class FrameChannel {
 public:
  struct Options {
    /// Send-queue capacity in frames (the bounded-queue backpressure knob,
    /// mirroring RunOptions::queue_capacity).
    std::size_t send_queue_capacity = 64;
    /// Emulated one-way link latency applied to every outgoing frame.
    std::int64_t send_delay_ms = 0;
    /// Upper bound on how long close() waits for queued frames to drain
    /// onto the socket. Within the deadline every queued frame is
    /// delivered (so a final kStatsSample/kFlushAck ordered before close
    /// survives a shutdown race); past it the socket is shut down to
    /// unblock a sender wedged on a dead or stalled peer, and the
    /// remaining frames are dropped (counted in frames_dropped(), named in
    /// send_error()). <= 0: wait forever (old behavior).
    std::int64_t close_drain_ms = 5'000;
    /// Emit a kHeartbeat whenever the channel has been send-idle this
    /// long. 0 disables origination (an echoing peer never originates).
    std::int64_t heartbeat_every_ms = 0;
    /// Declare the peer dead when nothing was received for this long.
    /// 0 disables the watchdog.
    std::int64_t liveness_deadline_ms = 0;
    /// Deterministic fault schedule for this link (nullptr = none).
    fault::LinkFaultPtr fault;
  };

  /// Takes ownership of a connected socket and starts the sender thread.
  FrameChannel(Socket socket, Options options);
  explicit FrameChannel(Socket socket) : FrameChannel(std::move(socket),
                                                      Options{}) {}
  ~FrameChannel();
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  /// Enqueues a frame; blocks while the send queue is full. Throws
  /// wire::Error if the channel is closed or the sender hit a socket error.
  void send(Frame frame);

  /// Blocking receive (serve-loop mode; do not mix with start_reader).
  /// Returns nullopt on clean peer close. Throws wire::Error on transport
  /// or codec failures — including a liveness-deadline trip, which arrives
  /// here as a thrown Error naming the silence, never as a silent EOF.
  [[nodiscard]] std::optional<Frame> recv();

  /// Reader-thread mode: `on_frame` runs on the reader thread per frame;
  /// `on_close` runs once when the peer closes or errors (the what()
  /// string is passed, empty for a clean close).
  using FrameHandler = std::function<void(Frame)>;
  using CloseHandler = std::function<void(const std::string& error)>;
  void start_reader(FrameHandler on_frame, CloseHandler on_close);

  /// Flushes queued frames (bounded by Options::close_drain_ms), shuts the
  /// socket down and joins the threads. Safe to call repeatedly and from
  /// either side of a peer close.
  void close();

  /// First sender-side error, if any ("" = none) — send() rethrows it.
  [[nodiscard]] std::string send_error() const;

  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_sent() const noexcept {
    return frames_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_received() const noexcept {
    return frames_received_.load(std::memory_order_relaxed);
  }
  /// Frames this channel discarded without transmitting: the tail dropped
  /// at the close-drain deadline, frames queued behind a send error, and
  /// injected drop/partition faults. Teardown reports non-zero values.
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept {
    return frames_dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t send_delay_ms() const noexcept {
    return send_delay_ms_.load(std::memory_order_relaxed);
  }
  /// Applies to frames enqueued after the call. The daemon side learns its
  /// emulated link delay from the kHello frame, after the channel exists.
  void set_send_delay_ms(std::int64_t delay_ms) noexcept {
    send_delay_ms_.store(delay_ms, std::memory_order_relaxed);
  }
  /// Arms (or re-arms) heartbeat origination and the silence watchdog.
  /// The daemon side learns both knobs from kHello, after the channel
  /// exists; takes effect at the watchdog's next tick.
  void set_liveness(std::int64_t heartbeat_every_ms,
                    std::int64_t liveness_deadline_ms) noexcept {
    heartbeat_every_ms_.store(heartbeat_every_ms, std::memory_order_relaxed);
    liveness_deadline_ms_.store(liveness_deadline_ms,
                                std::memory_order_relaxed);
  }
  /// Installs (or replaces) the link's fault schedule. Applies to frames
  /// processed after the call — the driver uses this to arm stream-time
  /// keyed fault events at chunk boundaries.
  void set_fault(fault::LinkFaultPtr fault);
  [[nodiscard]] fault::LinkFaultPtr fault() const;

  /// True once the liveness watchdog declared the peer dead.
  [[nodiscard]] bool liveness_expired() const noexcept {
    return liveness_expired_.load(std::memory_order_relaxed);
  }

 private:
  struct Outgoing {
    Frame frame;
    TimePoint enqueued;
    std::int64_t delay_ms = 0;  ///< snapshot of send_delay_ms_ at enqueue
  };
  void sender_loop();
  /// Dedicated silence-deadline enforcer. It must not live on the sender
  /// thread: a sender wedged in send_all() against a stopped peer would
  /// never tick, and the wedge is exactly the failure the deadline exists
  /// to detect.
  void watchdog_loop();
  /// One queue item through the fault schedule and onto the socket.
  /// Returns false when the sender must exit (error or hang).
  bool transmit(Outgoing item, std::optional<Outgoing>& held);
  void write_encoded(FrameType type, const std::vector<std::uint8_t>& buf);
  void record_send_error(const std::string& what);
  /// Counts everything still queued (and a held reorder frame) as dropped.
  void drain_dropped(std::optional<Outgoing>& held);
  void note_received(std::size_t payload_bytes);
  /// Park until close(): the injected-hang behavior — the socket stays
  /// open, frames just stop moving.
  void park_until_closed();

  Options options_;
  std::atomic<std::int64_t> send_delay_ms_{0};
  std::atomic<std::int64_t> heartbeat_every_ms_{0};
  std::atomic<std::int64_t> liveness_deadline_ms_{0};
  Socket socket_;
  runtime::BoundedQueue<Outgoing> send_queue_;
  std::thread sender_;
  std::thread reader_;
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> liveness_expired_{false};
  mutable std::mutex error_mu_;
  std::string send_error_;
  mutable std::mutex fault_mu_;
  fault::LinkFaultPtr fault_;
  /// Signaled when sender_loop returns; close() waits on it with the drain
  /// deadline (std::thread has no timed join).
  std::mutex sender_done_mu_;
  std::condition_variable sender_done_cv_;
  bool sender_done_ = false;
  /// now_ns() of the last socket write / last received frame — the
  /// heartbeat and watchdog clocks.
  std::atomic<std::uint64_t> last_send_ns_{0};
  std::atomic<std::uint64_t> last_recv_ns_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
};

}  // namespace cosmos::wire
