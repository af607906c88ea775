// The partition-service network front end: a poll(2)-driven socket
// listener that multiplexes many concurrent NDJSON clients — TCP
// (`--listen HOST:PORT`) and/or Unix-domain (`--listen-unix PATH`) —
// onto one Service (svc/scheduler). The event loop runs on a single
// driver thread (the same thread that calls Service::submit_line /
// process_batch, preserving the service's single-driver contract);
// the worker pool inside the Service is still the only place solves
// run in parallel.
//
// Dispatch model: every poll cycle reads whatever arrived on every
// connection, submits complete lines in read order, and flushes the
// service queue at the end of the cycle (sooner when --batch fills).
// The requests that arrive together form the batch — the coalescing
// window — and responses are routed back to their connections in
// service arrival order, so each connection sees its own responses in
// its own request order (exceptions below).
//
// Admission is layered:
//   * connection limit  — accepts beyond --max-conns answer one
//     "rejected: connection limit" line and close (svc.conn.rejected);
//   * per-client quota  — a client with --conn-quota requests already
//     in flight gets "rejected: connection request quota" immediately
//     (svc.quota_rejected); like the service's queue-full reject, this
//     jumps the arrival-order stream (correlate by id);
//   * service queue     — the existing `rejected: queue full` bound,
//     tied to the svc.queue_depth gauge.
// Slow clients (no write progress for --write-timeout seconds, or a
// response backlog beyond the write-buffer cap) are disconnected and
// counted in svc.conn.slow_closed. Overlong request lines answer
// "parse: request line exceeds N bytes" and resync at the next
// newline.
//
// Graceful drain: on SIGINT/SIGTERM the loop stops accepting and
// reading, answers everything already admitted (queued solves drain
// under the service's shutdown semantics), flushes response buffers
// under a deadline, and closes. The CLI then exits 130.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "gbis/svc/connection.hpp"
#include "gbis/svc/scheduler.hpp"

namespace gbis {

struct ListenerOptions {
  /// TCP endpoint "HOST:PORT"; "" = no TCP listener. Port 0 binds an
  /// ephemeral port — read the bound one back from tcp_endpoint().
  std::string tcp_endpoint;
  /// Unix-domain socket path; "" = no UDS listener. A stale file at
  /// the path is replaced; the file is unlinked on shutdown.
  std::string unix_path;
  /// Accept bound: connections beyond it answer one structured reject
  /// line and close.
  std::size_t max_connections = 1024;
  /// Request lines longer than this reject and resync (framing guard
  /// against unframed garbage and memory growth).
  std::size_t max_line_bytes = 4u << 20;
  /// Per-connection request quota: submitted-but-unanswered requests a
  /// single client may have in flight before its lines bounce.
  std::size_t conn_request_quota = 64;
  /// Slow-client stall bound: a connection with pending output and no
  /// write progress for this long is disconnected.
  double write_timeout_seconds = 10.0;
  /// Response backlog cap per connection; exceeding it is the same
  /// slow-client disconnect without waiting out the stall clock.
  std::size_t max_write_buffer = 8u << 20;
  /// When non-empty, the bound endpoints are published here (atomic
  /// tmp + rename) once listening: one "tcp HOST:PORT" / "unix PATH"
  /// line each — how scripted clients find an ephemeral port.
  std::string ready_file;
  /// Seconds granted to flush remaining responses during drain.
  double drain_flush_seconds = 5.0;
  /// Observation hook invoked once per response line delivered (the
  /// CLI's progress meter); also sees responses whose connection died.
  std::function<void(const std::string&)> on_response;
};

/// The ListenerOptions rows (the socket `gbis serve` flags and their
/// GBIS_SVC_LISTEN* variables), bound to `o`.
KnobTable listener_knobs(ListenerOptions& o);

/// Overlays GBIS_SVC_LISTEN ("HOST:PORT") and GBIS_SVC_LISTEN_UNIX
/// (a path) onto `base`. Malformed values warn on stderr and keep the
/// default.
ListenerOptions listener_options_from_env(ListenerOptions base);

class Listener {
 public:
  /// Binds nothing yet; call start(). `service` must outlive the
  /// listener and must not be driven by anyone else while the listener
  /// runs (single-driver contract).
  Listener(Service& service, ListenerOptions options);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Creates, binds, and listens on the configured sockets; publishes
  /// the ready file. Throws IoError (CLI exit 3) on any failure.
  void start();

  /// Bound endpoints after start() ("" when that family is off). The
  /// TCP one carries the real port even when 0 was requested.
  const std::string& tcp_endpoint() const { return tcp_bound_; }
  const std::string& unix_endpoint() const { return options_.unix_path; }

  /// One event-loop cycle: accept, read, dispatch, write, reap.
  /// Returns true when anything happened (a poll hit, not a timeout).
  /// Exposed so embedders (tests, the bench) can interleave the loop
  /// with their own work; pass `stop` to honor shutdown inside the
  /// cycle.
  bool poll_once(int timeout_ms, const std::atomic<bool>* stop = nullptr);

  /// Serves until `stop` is set, then drains gracefully.
  void run(const std::atomic<bool>& stop);

  /// The graceful-shutdown tail of run(), callable directly by
  /// embedders that loop poll_once themselves: stop accepting, answer
  /// everything admitted, flush under the drain deadline, close.
  void drain(const std::atomic<bool>* stop);

  std::size_t connection_count() const { return connections_.size(); }
  const ListenerOptions& options() const { return options_; }

 private:
  void accept_ready(int listen_fd);
  void handle_events(Connection& conn, std::vector<ConnEvent>& events);
  void dispatch_pending(const std::atomic<bool>* stop);
  void route_responses(const std::vector<std::string>& responses);
  void deliver(const std::string& line, std::uint64_t conn_id);
  void close_connection(std::uint64_t conn_id, bool slow);
  void reap(double now_seconds);
  void stop_accepting();
  void publish_ready_file() const;

  Service& service_;
  ListenerOptions options_;
  int tcp_fd_ = -1;
  int unix_fd_ = -1;
  std::string tcp_bound_;
  bool unix_bound_ = false;  ///< we own the socket file (unlink it)
  std::uint64_t next_conn_id_ = 0;
  /// Open connections by id. std::map-free lookup on every response.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
      connections_;
  /// Connection id per queued (not-immediately-answered) request, in
  /// service arrival order — process_batch emits exactly one response
  /// per entry, so routing is a front-pop per response line.
  std::deque<std::uint64_t> routes_;
  WallTimer clock_;
};

}  // namespace gbis
