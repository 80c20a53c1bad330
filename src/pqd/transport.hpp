// pqd transports and the client Session.
//
// A Transport moves Requests from client sessions to the Service and
// Responses back. Both implementations hand each session's requests, in
// order, to one Batcher, which groups inserts into batches and applies
// them to the Service:
//
//   * InProcTransport — the in-process fast path. The client thread runs
//     its session's Batcher itself: no server thread, no request queue.
//
//   * UdsTransport — the socket stub. Each session is an AF_UNIX
//     socketpair with a dedicated server thread on the far end speaking
//     the pqd-wire/1 record format (request.hpp). The client buffers
//     encoded inserts and writes them in one syscall per batch; the
//     server thread runs the session's Batcher.
//
// Per-session ordering: a session's inserts are applied before any later
// DeleteMin/Flush from that session; there is no cross-session order.
// A Session object wraps (transport, session id) behind enqueue/dequeue/
// flush; sessions are single-threaded by contract.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "pqd/request.hpp"
#include "pqd/service.hpp"
#include "slpq/detail/spinlock.hpp"

namespace pqd {

/// One session's server side: stages inserts and applies them to the
/// Service as one insert_batch per `batch` items, each batch to the next
/// shard in the session's rotation.
class Batcher {
 public:
  Batcher(Service& service, std::uint64_t tag);

  /// Applies one request. An insert is staged (and lands with its
  /// batch); DeleteMin and Flush apply the staged inserts first and
  /// return their Response.
  std::optional<Response> apply(const Request& req);

  /// Applies the staged inserts, a trailing partial batch.
  void flush();

 private:
  Service& service_;
  std::size_t batch_;
  std::vector<Item> pending_;
  std::uint64_t tag_;  ///< shard-rotation tag, advanced per batch
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Opens a session and returns its id. Thread-safe.
  virtual int open_session() = 0;

  /// Submits one request on a session. Inserts are fire-and-forget;
  /// DeleteMin/Flush produce exactly one Response each, retrieved with
  /// await() in submit order. One thread per session.
  virtual void submit(int sid, const Request& req) = 0;

  /// Blocks until the session's next Response.
  virtual Response await(int sid) = 0;

  /// Flushes pending inserts and releases the session.
  virtual void close_session(int sid) = 0;
};

/// RAII client handle: one session on one transport, single-threaded.
class Session {
 public:
  explicit Session(Transport& transport)
      : transport_(&transport), sid_(transport.open_session()) {}
  ~Session() {
    if (sid_ >= 0) transport_->close_session(sid_);
  }

  Session(Session&& other) noexcept
      : transport_(other.transport_), sid_(other.sid_) {
    other.sid_ = -1;
  }
  Session& operator=(Session&&) = delete;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int id() const noexcept { return sid_; }

  /// Fire-and-forget insert; lands in a shard by the next batch boundary.
  void enqueue(Key key, Value value) {
    transport_->submit(sid_, Request{OpKind::kInsert, key, value});
  }

  /// Synchronous delete-min (applies this session's pending inserts
  /// first). nullopt == service empty.
  std::optional<Item> dequeue() {
    transport_->submit(sid_, Request{OpKind::kDeleteMin, 0, 0});
    const Response r = transport_->await(sid_);
    if (r.status == Status::kOk) return Item{r.key, r.value};
    return std::nullopt;
  }

  /// Forces pending inserts into the shards and waits for the ack.
  void flush() {
    transport_->submit(sid_, Request{OpKind::kFlush, 0, 0});
    (void)transport_->await(sid_);
  }

 private:
  Transport* transport_;
  int sid_;
};

class InProcTransport final : public Transport {
 public:
  /// `max_sessions` bounds concurrently open sessions (the slot table is
  /// preallocated so submit() never races a vector reallocation).
  explicit InProcTransport(Service& service, std::size_t max_sessions = 256);
  ~InProcTransport() override;

  int open_session() override;
  void submit(int sid, const Request& req) override;
  Response await(int sid) override;
  void close_session(int sid) override;

 private:
  struct SessionState;
  SessionState& state(int sid);

  Service& service_;
  slpq::detail::TinySpinLock open_lock_;
  std::vector<std::unique_ptr<SessionState>> sessions_;
};

class UdsTransport final : public Transport {
 public:
  explicit UdsTransport(Service& service, std::size_t max_sessions = 256);
  ~UdsTransport() override;

  int open_session() override;
  void submit(int sid, const Request& req) override;
  Response await(int sid) override;
  void close_session(int sid) override;

 private:
  struct SessionState;
  SessionState& state(int sid);
  /// Server loop: one thread per session reading pqd-wire/1 records off
  /// the socketpair until EOF.
  void serve(int fd, std::uint64_t tag0);

  Service& service_;
  slpq::detail::TinySpinLock open_lock_;
  std::vector<std::unique_ptr<SessionState>> sessions_;
};

}  // namespace pqd
