// pqd transport implementations: the session Batcher, the in-process
// transport and the UDS stub.
#include "pqd/transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>

namespace pqd {

namespace {

constexpr std::uint64_t kTagStride = 0x9E3779B97F4A7C15ULL;  // golden ratio

void write_all(int fd, const std::uint8_t* buf, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, buf, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("pqd uds write: ") +
                               std::strerror(errno));
    }
    buf += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Reads exactly n bytes. Returns false on clean EOF at a record
/// boundary; throws on errors or a torn record.
bool read_full(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("pqd uds read: ") +
                               std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0) return false;
      throw std::runtime_error("pqd uds read: torn record at EOF");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

// ---- Batcher ---------------------------------------------------------------

Batcher::Batcher(Service& service, std::uint64_t tag)
    : service_(service),
      batch_(static_cast<std::size_t>(service.config().batch)),
      tag_(tag) {
  pending_.reserve(batch_);
}

void Batcher::flush() {
  if (pending_.empty()) return;
  service_.insert_batch(pending_.data(), pending_.size(), tag_++);
  pending_.clear();
}

std::optional<Response> Batcher::apply(const Request& req) {
  switch (req.op) {
    case OpKind::kInsert:
      pending_.emplace_back(req.key, req.value);
      if (pending_.size() >= batch_) flush();
      return std::nullopt;
    case OpKind::kDeleteMin:
      flush();
      if (const std::optional<Item> item = service_.delete_min())
        return Response{Status::kOk, item->first, item->second};
      return Response{Status::kEmpty, 0, 0};
    case OpKind::kFlush:
      flush();
      return Response{Status::kOk, 0, 0};
  }
  throw std::logic_error("pqd: unknown request op");
}

// ---- InProcTransport -------------------------------------------------------

struct InProcTransport::SessionState {
  Batcher batcher;
  std::deque<Response> replies;  ///< sync-op responses awaiting await()

  SessionState(Service& service, std::uint64_t tag0)
      : batcher(service, tag0) {}
};

InProcTransport::InProcTransport(Service& service, std::size_t max_sessions)
    : service_(service), sessions_(max_sessions) {}

InProcTransport::~InProcTransport() = default;

InProcTransport::SessionState& InProcTransport::state(int sid) {
  if (sid < 0 || static_cast<std::size_t>(sid) >= sessions_.size() ||
      !sessions_[static_cast<std::size_t>(sid)])
    throw std::logic_error("pqd: bad session id");
  return *sessions_[static_cast<std::size_t>(sid)];
}

int InProcTransport::open_session() {
  std::lock_guard<slpq::detail::TinySpinLock> g(open_lock_);
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (!sessions_[i]) {
      // Seed each session's rotation tag a golden-ratio stride apart so
      // concurrent sessions start their shard round-robins spread out.
      sessions_[i] = std::make_unique<SessionState>(service_, i * kTagStride);
      return static_cast<int>(i);
    }
  }
  throw std::runtime_error("pqd: session table full");
}

void InProcTransport::submit(int sid, const Request& req) {
  SessionState& s = state(sid);
  if (std::optional<Response> resp = s.batcher.apply(req))
    s.replies.push_back(*resp);
}

Response InProcTransport::await(int sid) {
  SessionState& s = state(sid);
  if (s.replies.empty())
    throw std::logic_error("pqd: await with no pending response");
  const Response resp = s.replies.front();
  s.replies.pop_front();
  return resp;
}

void InProcTransport::close_session(int sid) {
  state(sid).batcher.flush();
  std::lock_guard<slpq::detail::TinySpinLock> g(open_lock_);
  sessions_[static_cast<std::size_t>(sid)].reset();
}

// ---- UdsTransport ----------------------------------------------------------

struct UdsTransport::SessionState {
  int client_fd = -1;
  std::thread server;
  std::vector<std::uint8_t> wbuf;  ///< encoded requests awaiting one write
  std::size_t buffered = 0;        ///< requests currently in wbuf
};

UdsTransport::UdsTransport(Service& service, std::size_t max_sessions)
    : service_(service), sessions_(max_sessions) {}

UdsTransport::~UdsTransport() {
  for (std::size_t i = 0; i < sessions_.size(); ++i)
    if (sessions_[i]) close_session(static_cast<int>(i));
}

UdsTransport::SessionState& UdsTransport::state(int sid) {
  if (sid < 0 || static_cast<std::size_t>(sid) >= sessions_.size() ||
      !sessions_[static_cast<std::size_t>(sid)])
    throw std::logic_error("pqd: bad session id");
  return *sessions_[static_cast<std::size_t>(sid)];
}

int UdsTransport::open_session() {
  std::lock_guard<slpq::detail::TinySpinLock> g(open_lock_);
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (!sessions_[i]) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw std::runtime_error(std::string("pqd socketpair: ") +
                                 std::strerror(errno));
      auto s = std::make_unique<SessionState>();
      s->client_fd = fds[0];
      const int server_fd = fds[1];
      s->server = std::thread(
          [this, server_fd, i] { serve(server_fd, i * kTagStride); });
      sessions_[i] = std::move(s);
      return static_cast<int>(i);
    }
  }
  throw std::runtime_error("pqd: session table full");
}

void UdsTransport::serve(int fd, std::uint64_t tag0) {
  Batcher batcher(service_, tag0);
  std::uint8_t rec[kWireRecordSize];
  while (read_full(fd, rec, kWireRecordSize)) {
    Request req;
    if (!decode_request(rec, req)) break;  // protocol error: drop session
    if (const std::optional<Response> resp = batcher.apply(req)) {
      encode_response(*resp, rec);
      write_all(fd, rec, kWireRecordSize);
    }
  }
  batcher.flush();  // client hung up: land the trailing partial batch
  ::close(fd);
}

void UdsTransport::submit(int sid, const Request& req) {
  SessionState& s = state(sid);
  const std::size_t off = s.wbuf.size();
  s.wbuf.resize(off + kWireRecordSize);
  encode_request(req, s.wbuf.data() + off);
  ++s.buffered;
  // One write syscall per batch; sync ops flush immediately so the
  // server sees them (and everything queued before them) right away.
  if (req.op != OpKind::kInsert ||
      s.buffered >= static_cast<std::size_t>(service_.config().batch)) {
    write_all(s.client_fd, s.wbuf.data(), s.wbuf.size());
    s.wbuf.clear();
    s.buffered = 0;
  }
}

Response UdsTransport::await(int sid) {
  SessionState& s = state(sid);
  std::uint8_t rec[kWireRecordSize];
  if (!read_full(s.client_fd, rec, kWireRecordSize))
    throw std::runtime_error("pqd: server closed session");
  Response resp;
  if (!decode_response(rec, resp))
    throw std::runtime_error("pqd: bad response record");
  return resp;
}

void UdsTransport::close_session(int sid) {
  SessionState& s = state(sid);
  if (!s.wbuf.empty()) {
    write_all(s.client_fd, s.wbuf.data(), s.wbuf.size());
    s.wbuf.clear();
  }
  // Half-close: the server drains remaining records, sees EOF, applies
  // its trailing batch and exits.
  ::shutdown(s.client_fd, SHUT_WR);
  if (s.server.joinable()) s.server.join();
  ::close(s.client_fd);
  std::lock_guard<slpq::detail::TinySpinLock> g(open_lock_);
  sessions_[static_cast<std::size_t>(sid)].reset();
}

}  // namespace pqd
