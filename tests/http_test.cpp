// Tests for the HTTP substrate: message parsing/serialisation across
// split reads, the socket server/client pair, and error paths.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "http/client.hpp"
#include "http/message.hpp"
#include "http/server.hpp"

namespace faasbatch::http {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// A raw loopback connection, for clients that misbehave in ways
/// http::Client never does.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Bounds every blocking read on `fd` to two seconds, so a server that
/// neither answers nor closes fails a test instead of hanging it.
void set_receive_timeout(int fd) {
  const timeval timeout{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

bool send_all(int fd, std::string_view wire) {
  while (!wire.empty()) {
    const ssize_t n = ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    wire.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// What the server wrote back on one raw connection.
struct RawExchange {
  std::string reply;
  /// The server closed the connection (rather than the timeout expiring).
  bool closed = false;
};

/// Sends `wire` on a fresh connection and reads until the server closes
/// it or the receive timeout expires.
RawExchange exchange_raw(std::uint16_t port, std::string_view wire) {
  RawExchange exchange;
  const int fd = connect_raw(port);
  if (fd < 0) return exchange;
  set_receive_timeout(fd);
  if (send_all(fd, wire)) {
    char chunk[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      exchange.reply.append(chunk, static_cast<std::size_t>(n));
    }
    exchange.closed = n == 0;
  }
  ::close(fd);
  return exchange;
}

/// Expects exactly one response, with `status`, and then a closed
/// connection: nothing after the rejected request may be served.
void expect_rejected(const RawExchange& exchange, int status) {
  EXPECT_TRUE(exchange.closed) << "connection left open";
  Parser parser;
  parser.feed(exchange.reply);
  const auto response = parser.next_response();
  ASSERT_TRUE(response.has_value()) << "no response: " << exchange.reply;
  EXPECT_EQ(response->status, status) << response->body;
  EXPECT_EQ(parser.buffered(), 0u) << "more after the rejection: "
                                   << exchange.reply;
}

/// A server whose handler only counts the requests that reach it.
std::unique_ptr<Server> counting_server(std::atomic<int>& handled) {
  return std::make_unique<Server>(0, [&handled](const Request&) {
    handled.fetch_add(1);
    return Response::make(200, "ok");
  });
}

/// Feeds `wire` to a fresh parser; the status of the ParseError that
/// next_request() throws, or 0 if it throws none.
int request_error(std::string_view wire) {
  Parser parser;
  parser.feed(wire);
  try {
    parser.next_request();
  } catch (const ParseError& e) {
    return e.status();
  }
  return 0;
}

/// This process's mapped address space (VmSize) in KiB; 0 if unreadable.
std::uint64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

TEST(HttpMessageTest, RequestSerializeParseRoundTrip) {
  Request request;
  request.method = "POST";
  request.target = "/invoke/fib?x=1";
  request.headers["Content-Type"] = "application/json";
  request.body = "{\"n\":24}";

  Parser parser;
  parser.feed(request.serialize());
  const auto parsed = parser.next_request();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->target, "/invoke/fib?x=1");
  EXPECT_EQ(parsed->body, "{\"n\":24}");
  EXPECT_EQ(parsed->headers.at("content-type"), "application/json");
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(HttpMessageTest, ResponseSerializeParseRoundTrip) {
  Response response = Response::make(404, "missing", "text/plain");
  Parser parser;
  parser.feed(response.serialize());
  const auto parsed = parser.next_response();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 404);
  EXPECT_EQ(parsed->reason, "Not Found");
  EXPECT_EQ(parsed->body, "missing");
}

TEST(HttpMessageTest, ParserHandlesSplitReads) {
  Request request;
  request.method = "POST";
  request.target = "/x";
  request.body = "0123456789";
  const std::string wire = request.serialize();
  // Feed one byte at a time; the request must appear exactly once the
  // final byte lands.
  Parser parser;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    parser.feed(std::string_view(&wire[i], 1));
    EXPECT_FALSE(parser.next_request().has_value()) << "at byte " << i;
  }
  parser.feed(std::string_view(&wire[wire.size() - 1], 1));
  const auto parsed = parser.next_request();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->body, "0123456789");
}

TEST(HttpMessageTest, ParserHandlesPipelinedRequests) {
  Request a, b;
  a.target = "/a";
  b.target = "/b";
  Parser parser;
  parser.feed(a.serialize() + b.serialize());
  EXPECT_EQ(parser.next_request()->target, "/a");
  EXPECT_EQ(parser.next_request()->target, "/b");
  EXPECT_FALSE(parser.next_request().has_value());
}

TEST(HttpMessageTest, HeaderNamesCaseInsensitive) {
  Parser parser;
  parser.feed("GET / HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\n\r\nhi");
  const auto parsed = parser.next_request();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->body, "hi");
  EXPECT_EQ(parsed->headers.at("Content-Length"), "2");
}

TEST(HttpMessageTest, MalformedInputsThrow) {
  {
    Parser parser;
    parser.feed("NOT-A-REQUEST\r\n\r\n");
    EXPECT_THROW(parser.next_request(), std::runtime_error);
  }
  {
    Parser parser;
    parser.feed("GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n");
    EXPECT_THROW(parser.next_request(), std::runtime_error);
  }
  {
    Parser parser;
    parser.feed("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
    EXPECT_THROW(parser.next_request(), std::runtime_error);
  }
  {
    Parser parser;
    parser.feed("HTTP/1.1 xyz OK\r\n\r\n");
    EXPECT_THROW(parser.next_response(), std::runtime_error);
  }
  // Content-Length is digits only: a sign or suffix is 400, not a
  // wrapped or truncated length.
  EXPECT_EQ(request_error("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
                          "GET /smuggled HTTP/1.1\r\n\r\n"),
            400);
  EXPECT_EQ(request_error("POST / HTTP/1.1\r\nContent-Length: 5x\r\n\r\n"
                          "hello"),
            400);
  EXPECT_EQ(request_error("POST / HTTP/1.1\r\nContent-Length: \r\n\r\n"), 400);
  // Two differing Content-Length values are 400: keeping the last one
  // used to give an empty body and a second request named "helloGET".
  // An identical repeat is accepted.
  EXPECT_EQ(request_error("POST /a HTTP/1.1\r\nContent-Length: 5\r\n"
                          "Content-Length: 0\r\n\r\nhelloGET /b HTTP/1.1\r\n\r\n"),
            400);
  EXPECT_EQ(request_error("POST /a HTTP/1.1\r\nContent-Length: 5\r\n"
                          "content-length: 5\r\n\r\nhello"),
            0);
  // Over the body limit (or past size_t) is 413, before the body arrives.
  EXPECT_EQ(request_error("POST / HTTP/1.1\r\nContent-Length: " +
                          std::to_string(kMaxRequestBodyBytes + 1) +
                          "\r\n\r\n"),
            413);
  EXPECT_EQ(request_error("POST / HTTP/1.1\r\nContent-Length: "
                          "99999999999999999999999\r\n\r\n"),
            413);
  // Any Transfer-Encoding is 501: only Content-Length framing exists.
  EXPECT_EQ(request_error("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                          "\r\n5\r\nhello\r\n0\r\n\r\n"),
            501);
  // A header block over the limit is 431, terminated or not.
  const std::string fill(kMaxRequestHeaderBytes, 'a');
  EXPECT_EQ(request_error("GET / HTTP/1.1\r\nX-Fill: " + fill), 431);
  EXPECT_EQ(request_error("GET / HTTP/1.1\r\nX-Fill: " + fill + "\r\n\r\n"),
            431);
  // Exactly at the limits is accepted.
  const std::string head = "GET / HTTP/1.1\r\nX-Fill: ";
  EXPECT_EQ(request_error(head +
                          std::string(kMaxRequestHeaderBytes - head.size() - 4,
                                      'a') +
                          "\r\n\r\n"),
            0);
  EXPECT_EQ(request_error("POST / HTTP/1.1\r\nContent-Length: " +
                          std::to_string(kMaxRequestBodyBytes) + "\r\n\r\n"),
            0);
}

TEST(HttpMessageTest, ReasonPhrases) {
  EXPECT_EQ(reason_phrase(200), "OK");
  EXPECT_EQ(reason_phrase(503), "Service Unavailable");
  EXPECT_EQ(reason_phrase(413), "Content Too Large");
  EXPECT_EQ(reason_phrase(429), "Too Many Requests");
  EXPECT_EQ(reason_phrase(431), "Request Header Fields Too Large");
  EXPECT_EQ(reason_phrase(501), "Not Implemented");
  EXPECT_EQ(reason_phrase(504), "Gateway Timeout");
  EXPECT_EQ(reason_phrase(418), "?");
}

TEST(HttpServerTest, ServesEchoRequests) {
  Server server(0, [](const Request& request) {
    return Response::make(200, "echo:" + request.body);
  });
  ASSERT_GT(server.port(), 0);
  Client client(server.port());
  const Response response = client.post("/echo", "hello");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "echo:hello");
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpServerTest, KeepAliveServesSequentialRequests) {
  Server server(0, [](const Request& request) {
    return Response::make(200, request.target);
  });
  Client client(server.port());
  for (int i = 0; i < 10; ++i) {
    const std::string target = "/r" + std::to_string(i);
    EXPECT_EQ(client.get(target).body, target);
  }
  EXPECT_EQ(server.requests_served(), 10u);
}

TEST(HttpServerTest, ConcurrentClients) {
  std::atomic<int> handled{0};
  Server server(0, [&handled](const Request&) {
    ++handled;
    return Response::make(200, "ok");
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([port = server.port()] {
      Client client(port);
      for (int i = 0; i < 25; ++i) {
        ASSERT_EQ(client.get("/x").status, 200);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(handled.load(), 100);
}

TEST(HttpServerTest, HandlerExceptionBecomes500) {
  Server server(0, [](const Request&) -> Response {
    throw std::runtime_error("kaboom");
  });
  Client client(server.port());
  const Response response = client.get("/boom");
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("kaboom"), std::string::npos);
}

TEST(HttpServerTest, ConnectionCloseHonoured) {
  Server server(0, [](const Request&) { return Response::make(200, "bye"); });
  Client client(server.port());
  Request request;
  request.target = "/";
  request.headers["Connection"] = "close";
  EXPECT_EQ(client.send(request).body, "bye");
  // The server closed the connection; the next send must fail.
  EXPECT_THROW(client.get("/again"), std::runtime_error);
}

TEST(HttpServerTest, LargeBodyCrossesChunkBoundaries) {
  // A body far beyond the 4 KiB socket read chunk exercises incremental
  // parsing on the server and the client.
  Server server(0, [](const Request& request) {
    return Response::make(200, std::string(request.body.rbegin(),
                                           request.body.rend()));
  });
  Client client(server.port());
  std::string big;
  big.reserve(256 * 1024);
  for (int i = 0; big.size() < 256 * 1024; ++i) {
    big += "payload-" + std::to_string(i) + ";";
  }
  const Response response = client.post("/big", big);
  EXPECT_EQ(response.status, 200);
  ASSERT_EQ(response.body.size(), big.size());
  EXPECT_EQ(response.body, std::string(big.rbegin(), big.rend()));
}

TEST(HttpServerTest, PeerResetBeforeReplyCostsOnlyThatConnection) {
  // The client sends a request, half-closes, then resets the connection
  // while the handler still runs. Writing the reply to that dead peer
  // must fail on this connection alone (EPIPE), not raise SIGPIPE and
  // take the whole process down; the next client is served as usual.
  std::latch entered(1);
  std::promise<void> gate;
  const std::shared_future<void> open = gate.get_future().share();
  Server server(0, [&entered, open](const Request& request) {
    if (request.target == "/hold") {
      entered.count_down();
      open.wait();
    }
    return Response::make(200, "ok");
  });

  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  Request hold;
  hold.method = "POST";
  hold.target = "/hold";
  const std::string wire = hold.serialize();
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  entered.wait();
  ::shutdown(fd, SHUT_WR);
  const linger reset{1, 0};  // close() sends RST instead of FIN
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(fd);
  gate.set_value();

  Client client(server.port());
  EXPECT_EQ(client.get("/after").status, 200);
}

TEST(HttpServerTest, FinishedConnectionThreadsAreReaped) {
  // Every connection runs on its own thread; one the server never joins
  // keeps its stack (8 MiB by default) mapped for the server's lifetime,
  // so 200 short connections would grow the address space by ~1.6 GiB.
  if (kSanitized) GTEST_SKIP() << "sanitizer shadow mappings swamp VmSize";
  Server server(0, [](const Request&) { return Response::make(200, "ok"); });
  const auto one_connection = [&server] {
    Client client(server.port());
    Request request;  // GET /
    request.headers["Connection"] = "close";
    return client.send(request).status;
  };
  // Warm-up: the first connections map the malloc arenas of the accept
  // and connection threads once (64 MiB of address space each); only
  // later growth is a leak.
  for (int i = 0; i < 8; ++i) ASSERT_EQ(one_connection(), 200);
  const std::uint64_t before = vm_size_kib();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 200; ++i) ASSERT_EQ(one_connection(), 200);
  const std::uint64_t after = vm_size_kib();
  const std::uint64_t growth_kib = after > before ? after - before : 0;
  EXPECT_LT(growth_kib, 128u * 1024u)
      << "VmSize grew from " << before << " KiB to " << after << " KiB";
}

TEST(HttpServerTest, BadContentLengthIs400AndSmugglesNothing) {
  // Read as 2^64-1, "-1" used to make the GET this request's body, and
  // then serve the same bytes again as a second request.
  std::atomic<int> handled{0};
  const auto server = counting_server(handled);
  expect_rejected(exchange_raw(server->port(),
                               "POST /a HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
                               "GET /smuggled HTTP/1.1\r\n\r\n"),
                  400);
  // With two differing lengths, neither framing is served: taking the
  // last (0) used to answer POST /a and then serve "helloGET /b".
  expect_rejected(exchange_raw(server->port(),
                               "POST /a HTTP/1.1\r\nContent-Length: 5\r\n"
                               "Content-Length: 0\r\n\r\nhello"
                               "GET /b HTTP/1.1\r\n\r\n"),
                  400);
  EXPECT_EQ(handled.load(), 0);
}

TEST(HttpServerTest, OversizedBodyIs413BeforeItArrives) {
  // The declared length alone is refused; nothing is buffered for it.
  std::atomic<int> handled{0};
  const auto server = counting_server(handled);
  expect_rejected(exchange_raw(server->port(),
                               "POST /big HTTP/1.1\r\nContent-Length: " +
                                   std::to_string(kMaxRequestBodyBytes + 1) +
                                   "\r\n\r\n"),
                  413);
  EXPECT_EQ(handled.load(), 0);
}

TEST(HttpServerTest, UnterminatedHeaderFloodIs431) {
  // One byte past the header limit with no blank line: the server stops
  // buffering and answers instead of waiting for more.
  std::atomic<int> handled{0};
  const auto server = counting_server(handled);
  std::string flood = "GET / HTTP/1.1\r\nX-Fill: ";
  flood.resize(kMaxRequestHeaderBytes + 1, 'a');
  expect_rejected(exchange_raw(server->port(), flood), 431);
  EXPECT_EQ(handled.load(), 0);
}

TEST(HttpServerTest, ChunkedRequestIs501AndItsChunksAreNotARequest) {
  std::atomic<int> handled{0};
  const auto server = counting_server(handled);
  expect_rejected(exchange_raw(server->port(),
                               "POST /c HTTP/1.1\r\nTransfer-Encoding: chunked"
                               "\r\n\r\n5\r\nhello\r\n0\r\n\r\n"),
                  501);
  EXPECT_EQ(handled.load(), 0);
}

TEST(HttpServerTest, DestructorDoesNotWaitForIdleKeepAliveConnection) {
  // After one request the connection's thread idles in recv(); the
  // destructor must wake it rather than wait for the client to hang up.
  auto server = std::make_unique<Server>(
      0, [](const Request&) { return Response::make(200, "ok"); });
  const int fd = connect_raw(server->port());
  ASSERT_GE(fd, 0);
  set_receive_timeout(fd);
  ASSERT_TRUE(send_all(fd, Request{}.serialize()));
  Parser parser;
  char chunk[4096];
  std::optional<Response> reply;
  while (!(reply = parser.next_response())) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "no reply to the first request";
    parser.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
  }
  ASSERT_EQ(reply->status, 200);

  std::promise<void> destroyed;
  std::future<void> done = destroyed.get_future();
  std::thread destroyer([&server, &destroyed] {
    server.reset();
    destroyed.set_value();
  });
  const bool returned =
      done.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  if (returned) {
    // The server closed its end, so the client reads end-of-stream.
    EXPECT_EQ(::recv(fd, chunk, sizeof(chunk), 0), 0);
  }
  ::close(fd);  // lets a destructor that missed the connection finish
  destroyer.join();
  EXPECT_TRUE(returned) << "~Server waited on an idle keep-alive connection";
}

TEST(HttpClientTest, ConnectFailureThrows) {
  // Port 1 on loopback is almost certainly closed.
  EXPECT_THROW(Client(1), std::runtime_error);
}

}  // namespace
}  // namespace faasbatch::http
