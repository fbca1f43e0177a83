#include "http/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace faasbatch::http {

Client::Client(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("http::Client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error(std::string("http::Client: connect() failed: ") +
                             std::strerror(errno));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Response Client::send(const Request& request) {
  const std::string wire = request.serialize();
  std::size_t sent = 0;
  while (sent < wire.size()) {
    // MSG_NOSIGNAL: a server that closed the connection surfaces as
    // the exception below, not as a process-killing SIGPIPE.
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("http::Client: send() failed");
    sent += static_cast<std::size_t>(n);
  }
  char chunk[4096];
  while (true) {
    if (auto response = parser_.next_response()) return *response;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("http::Client: connection closed");
    parser_.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
  }
}

Response Client::get(const std::string& target) {
  Request request;
  request.method = "GET";
  request.target = target;
  return send(request);
}

Response Client::post(const std::string& target, std::string body,
                      std::string content_type) {
  Request request;
  request.method = "POST";
  request.target = target;
  request.body = std::move(body);
  request.headers["Content-Type"] = std::move(content_type);
  return send(request);
}

}  // namespace faasbatch::http
