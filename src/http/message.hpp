// Minimal HTTP/1.1 message types and parsing.
//
// The paper's platform activates in-container execution by sending an
// HTTP request to the container (§III-C step 3) and the batch reply
// returns when the group completes. This module provides the small,
// dependency-free HTTP subset the gateway needs: request/response
// structs, serialisation, and an incremental parser tolerant of
// split reads. Only Content-Length bodies are supported, which is all
// the gateway uses; a request with any Transfer-Encoding is rejected
// (501) rather than misframed.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

namespace faasbatch::http {

/// Largest request body a server accepts; a larger Content-Length is
/// answered 413. Responses are not bounded.
inline constexpr std::size_t kMaxRequestBodyBytes = 1024 * 1024;
/// Largest request line plus header block, blank line included; a
/// larger (or unterminated, once this many bytes are buffered) block is
/// answered 431.
inline constexpr std::size_t kMaxRequestHeaderBytes = 64 * 1024;

/// Malformed or unacceptable input, with the HTTP status a server
/// answers it with (400, 413, 431 or 501).
class ParseError : public std::runtime_error {
 public:
  ParseError(int status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  int status() const { return status_; }

 private:
  int status_;
};

/// Case-insensitive header map (HTTP header names are case-insensitive).
struct HeaderLess {
  bool operator()(const std::string& a, const std::string& b) const;
};
using Headers = std::map<std::string, std::string, HeaderLess>;

struct Request {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  Headers headers;
  std::string body;

  /// Serialises to wire format, adding Content-Length.
  std::string serialize() const;
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  Headers headers;
  std::string body;

  /// Serialises to wire format, adding Content-Length.
  std::string serialize() const;

  static Response make(int status, std::string body,
                       std::string content_type = "text/plain");
};

/// Standard reason phrase for common status codes ("?" otherwise).
std::string reason_phrase(int status);

/// Incremental HTTP parser: feed bytes, poll for complete messages.
/// Handles messages split across arbitrary read boundaries.
class Parser {
 public:
  /// Appends raw bytes from the socket.
  void feed(std::string_view bytes);

  /// Tries to extract one complete request (for servers). Returns
  /// nullopt if more bytes are needed. Throws ParseError on malformed
  /// input, a Transfer-Encoding, or a request over the size limits.
  std::optional<Request> next_request();

  /// Tries to extract one complete response (for clients). Throws
  /// ParseError on malformed input; no size limits apply.
  std::optional<Response> next_response();

  /// Bytes buffered but not yet consumed.
  std::size_t buffered() const { return buffer_.size(); }

 private:
  /// What a header block says about the body that follows it.
  struct Framing {
    std::size_t content_length = 0;
    bool transfer_encoding = false;
  };

  /// Locates the end of the header block; nullopt if incomplete.
  std::optional<std::size_t> header_end() const;
  /// Parses headers into `headers` and reports the body framing.
  static Framing parse_headers(std::string_view block, Headers& headers);

  std::string buffer_;
};

}  // namespace faasbatch::http
