#include "gbis/svc/listener.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "gbis/harness/shutdown.hpp"
#include "gbis/io/io_error.hpp"
#include "gbis/util/json_lite.hpp"

namespace gbis {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Splits "HOST:PORT" at the last colon. Empty host means all
/// interfaces.
bool split_endpoint(const std::string& endpoint, std::string& host,
                    std::string& port) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
    return false;
  }
  host = endpoint.substr(0, colon);
  port = endpoint.substr(colon + 1);
  return port.find_first_not_of("0123456789") == std::string::npos;
}

/// The one response line a request that never reaches the service
/// gets: ok:false with a stable-prefix reason, id recovered
/// best-effort for correlation.
std::string local_error_line(const std::string& request_line,
                             const std::string& error) {
  SvcResponse response;
  json_parse_string(request_line, "id", response.id);
  response.ok = false;
  response.error = error;
  return encode_response(response);
}

}  // namespace

KnobTable listener_knobs(ListenerOptions& o) {
  return {
      {"--listen", "GBIS_SVC_LISTEN", "HOST:PORT",
       "serve NDJSON over TCP instead of stdio (port 0 = ephemeral)",
       [&o](const std::string& text) {
         std::string host, port;
         if (!split_endpoint(text, host, port)) return "expected HOST:PORT";
         o.tcp_endpoint = text;
         return "";
       }},
      {"--listen-unix", "GBIS_SVC_LISTEN_UNIX", "PATH",
       "ditto on a Unix-domain socket; both listeners may run at once; "
       "neither combines with --replay",
       path(o.unix_path)},
      {"--max-conns", nullptr, "N",
       "connection bound; accepts beyond it get one structured reject line "
       "(1024)",
       whole(o.max_connections, 1)},
      {"--conn-quota", nullptr, "N",
       "per-connection in-flight request bound (64)",
       whole(o.conn_request_quota, 1)},
      {"--write-timeout", nullptr, "S",
       "disconnect a client making no read progress for S seconds (10)",
       positive(o.write_timeout_seconds)},
      {"--max-line-bytes", nullptr, "N",
       "reject request lines longer than N bytes and resync (4194304)",
       whole(o.max_line_bytes, 1)},
      {"--ready-file", nullptr, "F",
       "publish the bound endpoints to F once listening (how scripts find "
       "port 0)",
       path(o.ready_file)},
  };
}

ListenerOptions listener_options_from_env(ListenerOptions base) {
  apply_env(listener_knobs(base));
  return base;
}

Listener::Listener(Service& service, ListenerOptions options)
    : service_(service), options_(std::move(options)) {}

Listener::~Listener() {
  stop_accepting();
  connections_.clear();  // Connection dtor closes each fd
}

void Listener::start() {
  if (options_.tcp_endpoint.empty() && options_.unix_path.empty()) {
    throw IoError("listener: no endpoint configured");
  }
  if (!options_.tcp_endpoint.empty()) {
    std::string host, port;
    if (!split_endpoint(options_.tcp_endpoint, host, port)) {
      throw IoError("listener: malformed --listen endpoint \"" +
                    options_.tcp_endpoint + "\" (want HOST:PORT)");
    }
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo* found = nullptr;
    const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                                 port.c_str(), &hints, &found);
    if (rc != 0) {
      throw IoError("listener: cannot resolve \"" + options_.tcp_endpoint +
                    "\": " + ::gai_strerror(rc));
    }
    int fd = -1;
    std::string bind_error;
    for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
          ::listen(fd, SOMAXCONN) == 0) {
        break;
      }
      bind_error = std::strerror(errno);
      ::close(fd);
      fd = -1;
    }
    ::freeaddrinfo(found);
    if (fd < 0) {
      throw IoError("listener: cannot bind " + options_.tcp_endpoint + ": " +
                    (bind_error.empty() ? "no usable address" : bind_error));
    }
    set_nonblocking(fd);
    tcp_fd_ = fd;
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      char ip[INET_ADDRSTRLEN] = "0.0.0.0";
      ::inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof ip);
      tcp_bound_ = std::string(ip) + ":" +
                   std::to_string(ntohs(bound.sin_port));
    } else {
      tcp_bound_ = options_.tcp_endpoint;
    }
  }
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    if (options_.unix_path.size() >= sizeof addr.sun_path) {
      throw IoError("listener: unix socket path too long: " +
                    options_.unix_path);
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw IoError(std::string("listener: cannot create unix socket: ") +
                    std::strerror(errno));
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    ::unlink(options_.unix_path.c_str());  // replace a stale socket file
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, SOMAXCONN) != 0) {
      const std::string reason = std::strerror(errno);
      ::close(fd);
      throw IoError("listener: cannot bind unix socket " +
                    options_.unix_path + ": " + reason);
    }
    set_nonblocking(fd);
    unix_fd_ = fd;
    unix_bound_ = true;
  }
  publish_ready_file();
}

void Listener::publish_ready_file() const {
  if (options_.ready_file.empty()) return;
  const std::string tmp = options_.ready_file + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) throw IoError("listener: cannot open ready file " + tmp);
  if (!tcp_bound_.empty()) out << "tcp " << tcp_bound_ << '\n';
  if (unix_bound_) out << "unix " << options_.unix_path << '\n';
  out.flush();
  if (!out) throw IoError("listener: ready file write failed: " + tmp);
  out.close();
  std::error_code ec;
  std::filesystem::rename(tmp, options_.ready_file, ec);
  if (ec) {
    throw IoError("listener: cannot publish ready file " +
                  options_.ready_file + ": " + ec.message());
  }
}

void Listener::stop_accepting() {
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
  }
  if (unix_bound_) {
    ::unlink(options_.unix_path.c_str());
    unix_bound_ = false;
  }
}

void Listener::accept_ready(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: next cycle
    }
    if (connections_.size() >= options_.max_connections) {
      // Structured shed, single best-effort write: the client learns
      // why instead of seeing a bare RST.
      SvcResponse rejected;
      rejected.ok = false;
      rejected.error = "rejected: connection limit (" +
                       std::to_string(options_.max_connections) +
                       ") reached";
      const std::string line = encode_response(rejected) + "\n";
      (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      ::close(fd);
      service_.note_conn_rejected();
      continue;
    }
    if (listen_fd == tcp_fd_) {
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof one);
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    const std::uint64_t id = next_conn_id_++;
    connections_.emplace(id, std::make_unique<Connection>(fd, id));
    service_.note_conn_opened();
  }
}

void Listener::deliver(const std::string& line, std::uint64_t conn_id) {
  if (options_.on_response) options_.on_response(line);
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;  // client died before its answer
  it->second->queue_line(line);
}

void Listener::route_responses(const std::vector<std::string>& responses) {
  for (const std::string& line : responses) {
    // One response per queued entry, in arrival order — the routing
    // deque is aligned by construction.
    if (routes_.empty()) break;  // defensive; cannot happen
    const std::uint64_t conn_id = routes_.front();
    routes_.pop_front();
    const auto it = connections_.find(conn_id);
    if (it != connections_.end() && it->second->inflight > 0) {
      --it->second->inflight;
    }
    deliver(line, conn_id);
  }
}

void Listener::dispatch_pending(const std::atomic<bool>* stop) {
  if (service_.pending() == 0) return;
  std::vector<std::string> responses;
  service_.process_batch(responses, stop);
  route_responses(responses);
}

void Listener::handle_events(Connection& conn,
                             std::vector<ConnEvent>& events) {
  for (ConnEvent& event : events) {
    if (event.kind == ConnEvent::Kind::kOverlong) {
      deliver(local_error_line("", "parse: request line exceeds " +
                                       std::to_string(
                                           options_.max_line_bytes) +
                                       " bytes"),
              conn.id());
      continue;
    }
    if (event.line.empty()) continue;  // blank keep-alive line
    ++conn.requests;
    if (conn.inflight >= options_.conn_request_quota) {
      // Like the service's queue-full reject, this jumps the
      // arrival-order stream — it has nowhere to wait.
      service_.note_quota_rejected();
      deliver(local_error_line(
                  event.line,
                  "rejected: connection request quota (" +
                      std::to_string(options_.conn_request_quota) +
                      " in flight) exceeded"),
              conn.id());
      continue;
    }
    std::vector<std::string> immediate;
    service_.submit_line(event.line, immediate, conn.id(), conn.submitted++);
    if (immediate.empty()) {
      routes_.push_back(conn.id());
      ++conn.inflight;
    } else {
      for (const std::string& line : immediate) deliver(line, conn.id());
    }
    if (service_.pending() >= service_.options().batch_size) {
      dispatch_pending(nullptr);
    }
  }
  events.clear();
}

void Listener::close_connection(std::uint64_t conn_id, bool slow) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  connections_.erase(it);  // closes the fd; stale routes drop on arrival
  service_.note_conn_closed(slow);
}

void Listener::reap(double now_seconds) {
  std::vector<std::uint64_t> closing;
  std::vector<std::uint64_t> slow;
  for (const auto& [id, conn] : connections_) {
    if (conn->write_stalled(now_seconds, options_.write_timeout_seconds) ||
        conn->write_backlog() > options_.max_write_buffer) {
      slow.push_back(id);
    } else if (conn->closing() && conn->inflight == 0 &&
               !conn->wants_write()) {
      closing.push_back(id);
    }
  }
  for (const std::uint64_t id : slow) close_connection(id, /*slow=*/true);
  for (const std::uint64_t id : closing) {
    close_connection(id, /*slow=*/false);
  }
}

bool Listener::poll_once(int timeout_ms, const std::atomic<bool>* stop) {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (or ~0 listener)
  if (tcp_fd_ >= 0) {
    fds.push_back({tcp_fd_, POLLIN, 0});
    fd_conn.push_back(~0ull);
  }
  if (unix_fd_ >= 0) {
    fds.push_back({unix_fd_, POLLIN, 0});
    fd_conn.push_back(~0ull);
  }
  for (const auto& [id, conn] : connections_) {
    short events = 0;
    if (!conn->closing()) events |= POLLIN;
    if (conn->wants_write()) events |= POLLOUT;
    if (events == 0) events = POLLIN;  // still notice hangup
    fds.push_back({conn->fd(), events, 0});
    fd_conn.push_back(id);
  }
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0) return false;  // EINTR: caller re-checks the stop flag

  const double now = clock_.elapsed_seconds();
  std::vector<ConnEvent> events;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    if (fd_conn[i] == ~0ull) {
      accept_ready(fds[i].fd);
      continue;
    }
    const auto it = connections_.find(fd_conn[i]);
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        !conn.closing()) {
      const bool alive = conn.read_events(events, options_.max_line_bytes);
      handle_events(conn, events);
      if (!alive) conn.mark_closing();
    }
    if ((fds[i].revents & POLLOUT) != 0) {
      if (!conn.flush_writes(now)) conn.mark_closing();
    }
  }

  // End-of-cycle flush: whatever arrived together forms the batch.
  dispatch_pending(stop);

  // Push responses out opportunistically (most sockets accept the
  // write immediately; stragglers wait for POLLOUT next cycle).
  for (const auto& [id, conn] : connections_) {
    if (conn->wants_write() && !conn->flush_writes(now)) {
      conn->mark_closing();
    }
  }
  reap(clock_.elapsed_seconds());
  return ready > 0;
}

void Listener::run(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    poll_once(/*timeout_ms=*/200, &stop);
  }
  drain(&stop);
}

void Listener::drain(const std::atomic<bool>* stop) {
  stop_accepting();
  // Answer everything admitted: queued solves drain under the
  // service's shutdown semantics when the stop flag is up. An
  // escalated shutdown (second SIGTERM/SIGINT) answers nothing new:
  // whatever is queued stays unanswered, only already-buffered bytes
  // get the bounded flush below.
  if (!shutdown_escalated()) {
    std::vector<std::string> responses;
    service_.drain(responses, stop);
    route_responses(responses);
  }
  // Flush under a deadline; a client that will not read its final
  // responses is shed like any other slow client. Escalation mid-flush
  // cuts the loop at the next iteration.
  const WallTimer flush_clock;
  while (flush_clock.elapsed_seconds() < options_.drain_flush_seconds &&
         !shutdown_escalated()) {
    bool pending = false;
    for (const auto& [id, conn] : connections_) {
      if (conn->wants_write()) {
        pending = true;
        break;
      }
    }
    if (!pending) break;
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn;
    for (const auto& [id, conn] : connections_) {
      if (!conn->wants_write()) continue;
      fds.push_back({conn->fd(), POLLOUT, 0});
      fd_conn.push_back(id);
    }
    (void)::poll(fds.data(), fds.size(), 100);
    const double now = clock_.elapsed_seconds();
    std::vector<std::uint64_t> dead;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const auto it = connections_.find(fd_conn[i]);
      if (it == connections_.end()) continue;
      if (!it->second->flush_writes(now) ||
          it->second->write_stalled(now, options_.write_timeout_seconds)) {
        dead.push_back(fd_conn[i]);
      }
    }
    for (const std::uint64_t id : dead) close_connection(id, /*slow=*/true);
  }
  // Drop whatever is left; every connection close is counted.
  while (!connections_.empty()) {
    close_connection(connections_.begin()->first, /*slow=*/false);
  }
  routes_.clear();
}

}  // namespace gbis
