#include "http/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/logging.hpp"

namespace faasbatch::http {

Server::Server(std::uint16_t port, Handler handler) : handler_(std::move(handler)) {
  set_mutex_name(workers_mutex_, "http_server.workers");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("http::Server: socket() failed");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("http::Server: bind() failed: ") +
                             std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("http::Server: listen() failed");
  }
  listen_fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() {
  stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> workers;
  {
    MutexLock lock(workers_mutex_);
    workers.swap(workers_);
  }
  // Joined without the lock: an exiting connection thread takes it to
  // report itself finished.
  for (auto& worker : workers) worker.join();
}

void Server::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    return;
  }
  // Closing the listener unblocks accept().
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  // A thread idling in recv() on a keep-alive connection would hold the
  // destructor until its client hangs up; SHUT_RD makes that recv()
  // return 0, and a reply being written still goes out.
  MutexLock lock(workers_mutex_);
  for (const int conn : open_fds_) ::shutdown(conn, SHUT_RD);
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    MutexLock lock(workers_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      // stop() has already shut down the registered connections; this
      // one would wait in recv() with nobody to wake it.
      ::close(fd);
      return;
    }
    reap_finished();
    open_fds_.push_back(fd);
    workers_.emplace_back([this, fd] {
      serve_connection(fd);
      MutexLock done(workers_mutex_);
      open_fds_.erase(std::find(open_fds_.begin(), open_fds_.end(), fd));
      ::close(fd);
      finished_.push_back(std::this_thread::get_id());
    });
  }
}

void Server::reap_finished() {
  for (const std::thread::id id : finished_) {
    const auto it = std::find_if(workers_.begin(), workers_.end(),
                                 [id](const std::thread& t) { return t.get_id() == id; });
    it->join();  // it reported itself under this lock: only returning now
    workers_.erase(it);
  }
  finished_.clear();
}

void Server::serve_connection(int fd) {
  Parser parser;
  char chunk[4096];
  while (!stopping_.load(std::memory_order_acquire)) {
    // Drain already-buffered requests first (pipelined/keep-alive).
    try {
      while (auto request = parser.next_request()) {
        Response response;
        try {
          response = handler_(*request);
        } catch (const std::exception& e) {
          response = Response::make(500, std::string("handler error: ") + e.what());
        }
        const bool close_after =
            request->headers.count("Connection") != 0 &&
            request->headers.at("Connection") == "close";
        const std::string wire = response.serialize();
        // Count before the reply hits the wire: a client that has read
        // the full response must observe requests_served() >= its own.
        served_.fetch_add(1, std::memory_order_release);  // counted before the reply is written
        std::size_t sent = 0;
        while (sent < wire.size()) {
          // MSG_NOSIGNAL: a peer that reset the connection costs this
          // connection an EPIPE, not the whole process a SIGPIPE.
          const ssize_t n =
              ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
          if (n <= 0) return;
          sent += static_cast<std::size_t>(n);
        }
        if (close_after) return;
      }
    } catch (const std::exception& e) {
      // The request's framing is lost, so nothing after it on this
      // connection can be read: answer with the matching status, close.
      const auto* error = dynamic_cast<const ParseError*>(&e);
      const std::string wire =
          Response::make(error != nullptr ? error->status() : 400, e.what())
              .serialize();
      (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return;
    parser.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
  }
}

}  // namespace faasbatch::http
