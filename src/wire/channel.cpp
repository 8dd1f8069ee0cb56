#include "wire/channel.h"

#include <algorithm>

#include "obs/trace.h"
#include "wire/messages.h"

namespace cosmos::wire {

FrameChannel::FrameChannel(Socket socket, Options options)
    : options_(options),
      send_delay_ms_(options.send_delay_ms),
      heartbeat_every_ms_(options.heartbeat_every_ms),
      liveness_deadline_ms_(options.liveness_deadline_ms),
      socket_(std::move(socket)),
      send_queue_(options.send_queue_capacity),
      fault_(std::move(options.fault)) {
  if (!socket_.valid()) {
    throw Error{"wire: FrameChannel needs a connected socket"};
  }
  const std::uint64_t now = now_ns();
  last_send_ns_.store(now, std::memory_order_relaxed);
  last_recv_ns_.store(now, std::memory_order_relaxed);
  sender_ = std::thread([this] { sender_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

FrameChannel::~FrameChannel() { close(); }

void FrameChannel::set_fault(fault::LinkFaultPtr fault) {
  std::lock_guard lock{fault_mu_};
  fault_ = std::move(fault);
}

fault::LinkFaultPtr FrameChannel::fault() const {
  std::lock_guard lock{fault_mu_};
  return fault_;
}

void FrameChannel::record_send_error(const std::string& what) {
  std::lock_guard lock{error_mu_};
  if (send_error_.empty()) send_error_ = what;
}

void FrameChannel::drain_dropped(std::optional<Outgoing>& held) {
  if (held.has_value()) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    held.reset();
  }
  while (send_queue_.try_pop().has_value()) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FrameChannel::write_encoded(FrameType type,
                                 const std::vector<std::uint8_t>& buf) {
  {
    // to_string returns a static literal, as the tracer requires.
    const obs::Span span{to_string(type), "wire_send", buf.size()};
    socket_.send_all(buf.data(), buf.size());
  }
  last_send_ns_.store(now_ns(), std::memory_order_relaxed);
  bytes_sent_.fetch_add(buf.size(), std::memory_order_relaxed);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
}

void FrameChannel::park_until_closed() {
  // Injected hang: stop moving frames but keep the socket open. The
  // watchdog thread still enforces our own silence deadline, so a hung
  // link becomes a detected failure on both sides, never a wedge.
  while (!closed_.load(std::memory_order_relaxed) &&
         !liveness_expired_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void FrameChannel::watchdog_loop() {
  std::unique_lock lock{watchdog_mu_};
  while (!closed_.load(std::memory_order_relaxed) &&
         !liveness_expired_.load(std::memory_order_relaxed)) {
    const std::int64_t deadline = liveness_deadline_ms_.load();
    if (deadline > 0) {
      // Signed: the reader thread's stamp may read a little ahead of this
      // thread's clock, and that must count as just heard from.
      const auto silent_ns = static_cast<std::int64_t>(
          now_ns() - last_recv_ns_.load(std::memory_order_relaxed));
      if (silent_ns > deadline * 1'000'000) {
        liveness_expired_.store(true, std::memory_order_relaxed);
        record_send_error(
            "wire: liveness deadline (" + std::to_string(deadline) +
            " ms) exceeded: nothing received from peer for " +
            std::to_string(silent_ns / 1'000'000) + " ms");
        // Close the queue so blocked senders throw, and shut the socket
        // down so both the wedged sender and the read side wake — the
        // silence surfaces as a thrown Error and the EOF-driven failure
        // machinery takes over from there.
        send_queue_.close();
        socket_.shutdown_both();
        return;
      }
    }
    const std::int64_t tick =
        deadline > 0 ? std::clamp<std::int64_t>(deadline / 8, 5, 50) : 50;
    watchdog_cv_.wait_for(lock, std::chrono::milliseconds(tick), [&] {
      return closed_.load(std::memory_order_relaxed) ||
             liveness_expired_.load(std::memory_order_relaxed);
    });
  }
}

bool FrameChannel::transmit(Outgoing item, std::optional<Outgoing>& held) {
  fault::SendAction action;
  if (const auto f = fault()) action = f->on_send();
  if (action.hang) {
    park_until_closed();
    return false;
  }
  if (action.drop) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (item.delay_ms > 0 || action.extra_delay_ms > 0) {
    // Departure at enqueue + delay: frames already "in flight" while this
    // one waits, so the emulated latency pipelines instead of accumulating
    // per frame.
    std::this_thread::sleep_until(
        item.enqueued +
        std::chrono::milliseconds(item.delay_ms + action.extra_delay_ms));
  }
  if (action.pace_ms > 0) {
    const auto release =
        TimePoint{DurationNs{static_cast<DurationNs::rep>(
            last_send_ns_.load(std::memory_order_relaxed))}} +
        std::chrono::milliseconds(action.pace_ms);
    std::this_thread::sleep_until(release);
  }
  if (action.reorder_hold) {
    held = std::move(item);
    return true;
  }
  auto buf = encode_frame(item.frame);
  if (action.corrupt) {
    fault::corrupt_frame_bytes(buf, action.corrupt_seed, action.frame_index);
  }
  write_encoded(item.frame.type, buf);
  if (action.duplicate) write_encoded(item.frame.type, buf);
  if (held.has_value()) {
    const auto held_buf = encode_frame(held->frame);
    write_encoded(held->frame.type, held_buf);
    held.reset();
  }
  return true;
}

void FrameChannel::sender_loop() {
  struct DoneSignal {
    FrameChannel* ch;
    ~DoneSignal() {
      std::lock_guard lock{ch->sender_done_mu_};
      ch->sender_done_ = true;
      ch->sender_done_cv_.notify_all();
    }
  } done_signal{this};
  std::optional<Outgoing> held;
  while (true) {
    // Tick fast enough to originate heartbeats on time when idle.
    std::int64_t tick_ms = 100;
    if (const auto hb = heartbeat_every_ms_.load(); hb > 0) {
      tick_ms = std::min(tick_ms, std::max<std::int64_t>(5, hb / 4));
    }
    Outgoing item;
    const auto got =
        send_queue_.pop_for(item, std::chrono::milliseconds(tick_ms));
    if (got == decltype(send_queue_)::WaitResult::kClosed) {
      drain_dropped(held);
      return;
    }
    try {
      if (got == decltype(send_queue_)::WaitResult::kTimeout) {
        const std::int64_t hb = heartbeat_every_ms_.load();
        if (hb > 0 && static_cast<std::int64_t>(
                          now_ns() - last_send_ns_.load(
                                         std::memory_order_relaxed)) >=
                          hb * 1'000'000) {
          // Originate a keepalive. It runs through the same fault schedule
          // as data (a partitioned link must swallow heartbeats too — that
          // is exactly what makes the partition detectable).
          Outgoing beat{encode_heartbeat({}), Clock::now(),
                        send_delay_ms_.load(std::memory_order_relaxed)};
          if (!transmit(std::move(beat), held)) {
            drain_dropped(held);
            return;
          }
        }
        continue;
      }
      if (!transmit(std::move(item), held)) {
        drain_dropped(held);
        return;
      }
    } catch (const std::exception& e) {
      record_send_error(e.what());
      send_queue_.close();
      drain_dropped(held);
      return;
    }
  }
}

void FrameChannel::send(Frame frame) {
  Outgoing out{std::move(frame), Clock::now(),
               send_delay_ms_.load(std::memory_order_relaxed)};
  if (!send_queue_.push(std::move(out))) {
    const std::string err = send_error();
    throw Error{err.empty() ? "wire: send on closed channel"
                            : "wire: send failed: " + err};
  }
}

void FrameChannel::note_received(std::size_t payload_bytes) {
  last_recv_ns_.store(now_ns(), std::memory_order_relaxed);
  bytes_received_.fetch_add(kFrameHeaderBytes + payload_bytes,
                            std::memory_order_relaxed);
  frames_received_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<Frame> FrameChannel::recv() {
  while (true) {
    std::optional<Frame> frame;
    try {
      frame = recv_frame(socket_);
    } catch (const std::exception&) {
      if (liveness_expired_.load(std::memory_order_relaxed)) {
        throw Error{send_error()};
      }
      throw;
    }
    if (!frame) {
      // A local watchdog shutdown surfaces to recv_frame as a clean EOF;
      // report the deadline, not a lying "peer closed".
      if (liveness_expired_.load(std::memory_order_relaxed)) {
        throw Error{send_error()};
      }
      return std::nullopt;
    }
    if (const auto f = fault()) {
      const auto action = f->on_recv();
      if (action.hang) {
        // Stop reading: to the peer this side looks wedged. The watchdog
        // (sender thread) still enforces our own deadline.
        while (!closed_.load(std::memory_order_relaxed) &&
               !liveness_expired_.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (liveness_expired_.load(std::memory_order_relaxed)) {
          throw Error{send_error()};
        }
        return std::nullopt;
      }
      if (action.drop) continue;  // inbound partition: it never arrived
    }
    note_received(frame->payload.size());
    obs::Tracer::instance().instant(to_string(frame->type), "wire_recv",
                                    frame->payload.size());
    return frame;
  }
}

void FrameChannel::start_reader(FrameHandler on_frame, CloseHandler on_close) {
  reader_ = std::thread([this, on_frame = std::move(on_frame),
                         on_close = std::move(on_close)] {
    std::string error;
    try {
      while (auto frame = recv()) on_frame(std::move(*frame));
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (on_close) on_close(error);
  });
}

void FrameChannel::close() {
  if (closed_.exchange(true)) return;
  // Let queued frames flush: close() makes pop() drain-then-stop. The
  // drain is bounded — a sender wedged in send_all() against a dead or
  // stalled peer would otherwise block close() forever; past the deadline
  // the socket shutdown below errors the blocked send and the sender exits
  // on its error path (remaining frames are dropped and counted, which is
  // the best a dead peer allows).
  send_queue_.close();
  if (options_.close_drain_ms > 0) {
    std::unique_lock lock{sender_done_mu_};
    sender_done_cv_.wait_for(lock,
                             std::chrono::milliseconds(options_.close_drain_ms),
                             [&] { return sender_done_; });
    if (!sender_done_) {
      record_send_error("close drain deadline exceeded; tail frames dropped");
    }
  } else if (sender_.joinable()) {
    sender_.join();  // unbounded drain: wait for the queue to empty
  }
  // Unblock a wedged sender and the recv()/reader thread, then reclaim
  // both. On the drained path the queue is already empty, so the shutdown
  // races no pending write.
  socket_.shutdown_both();
  watchdog_cv_.notify_all();
  if (sender_.joinable()) sender_.join();
  if (watchdog_.joinable()) watchdog_.join();
  if (reader_.joinable()) reader_.join();
  socket_.close();
}

std::string FrameChannel::send_error() const {
  std::lock_guard lock{error_mu_};
  return send_error_;
}

}  // namespace cosmos::wire
