// Blocking HTTP/1.1 server on POSIX sockets, thread-per-connection.
//
// Deliberately small: the FaaSBatch gateway serves a handful of
// endpoints on localhost. Supports keep-alive (sequential requests per
// connection) and graceful shutdown.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/ordered_mutex.hpp"
#include "http/message.hpp"

namespace faasbatch::http {

class Server {
 public:
  /// Called once per request; the returned response is written back.
  /// Handlers run on connection threads and must be thread-safe.
  using Handler = std::function<Response(const Request&)>;

  /// Binds and listens on 127.0.0.1:`port`; port 0 picks a free port.
  /// Throws std::runtime_error on socket errors.
  Server(std::uint16_t port, Handler handler);

  /// Stops accepting, closes the listener, and joins all threads; idle
  /// keep-alive connections are closed, not waited for.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actual bound port (useful with port 0).
  std::uint16_t port() const { return port_; }

  /// Requests served so far.
  std::uint64_t requests_served() const {
    // Acquire pairs with the release increment in serve_connection(): a
    // caller that has read a reply observes that request as counted.
    return served_.load(std::memory_order_acquire);
  }

  /// Initiates shutdown (also called by the destructor): closes the
  /// listener and shuts down the read side of every open connection, so
  /// threads idling in recv() return while replies in flight still go
  /// out.
  void stop();

 private:
  void accept_loop();
  /// Serves requests on `fd` until the peer, an error or stop() ends
  /// the connection; the caller deregisters and closes `fd`.
  void serve_connection(int fd);
  /// Joins and forgets every connection thread that reported itself
  /// finished, so a long-lived server keeps only live threads (and
  /// their stacks) mapped.
  void reap_finished() FB_REQUIRES(workers_mutex_);

  Handler handler_;
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> served_{0};
  std::thread accept_thread_;
  Mutex workers_mutex_;
  std::vector<std::thread> workers_ FB_GUARDED_BY(workers_mutex_);
  /// Sockets of connections still being served. A connection leaves
  /// this list before its fd is closed, so stop() never touches an fd
  /// number the kernel has handed out again.
  std::vector<int> open_fds_ FB_GUARDED_BY(workers_mutex_);
  /// Connection threads that have served their last request; each
  /// appends its own id as its final act.
  std::vector<std::thread::id> finished_ FB_GUARDED_BY(workers_mutex_);
};

}  // namespace faasbatch::http
