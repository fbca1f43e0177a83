#include "http/message.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace faasbatch::http {
namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

/// ASCII case-insensitive equality, without the copies to_lower makes.
bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

/// Content-Length is 1*DIGIT: a sign or a suffix ("-1", "5x") is
/// rejected rather than read as a wrapped or truncated number, and a
/// value past size_t is too large rather than wrapped.
std::size_t parse_content_length(std::string_view value) {
  if (value.empty()) throw ParseError(400, "http: bad Content-Length");
  std::size_t length = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') throw ParseError(400, "http: bad Content-Length");
    const auto digit = static_cast<std::size_t>(c - '0');
    if (length > (static_cast<std::size_t>(-1) - digit) / 10) {
      throw ParseError(413, "http: Content-Length too large");
    }
    length = length * 10 + digit;
  }
  return length;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

void serialize_headers(std::ostringstream& os, const Headers& headers,
                       std::size_t body_size) {
  for (const auto& [name, value] : headers) {
    if (HeaderLess{}(name, "content-length") || HeaderLess{}("content-length", name)) {
      os << name << ": " << value << "\r\n";
    }
  }
  os << "Content-Length: " << body_size << "\r\n\r\n";
}

}  // namespace

bool HeaderLess::operator()(const std::string& a, const std::string& b) const {
  return to_lower(a) < to_lower(b);
}

std::string reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Content Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "?";
  }
}

std::string Request::serialize() const {
  std::ostringstream os;
  os << method << " " << target << " " << version << "\r\n";
  serialize_headers(os, headers, body.size());
  os << body;
  return os.str();
}

std::string Response::serialize() const {
  std::ostringstream os;
  os << version << " " << status << " " << reason << "\r\n";
  serialize_headers(os, headers, body.size());
  os << body;
  return os.str();
}

Response Response::make(int status, std::string body, std::string content_type) {
  Response response;
  response.status = status;
  response.reason = reason_phrase(status);
  response.headers["Content-Type"] = std::move(content_type);
  response.body = std::move(body);
  return response;
}

void Parser::feed(std::string_view bytes) { buffer_.append(bytes); }

std::optional<std::size_t> Parser::header_end() const {
  const auto pos = buffer_.find("\r\n\r\n");
  if (pos == std::string::npos) return std::nullopt;
  return pos + 4;
}

Parser::Framing Parser::parse_headers(std::string_view block,
                                      Headers& headers) {
  Framing framing;
  bool has_length = false;
  std::size_t start = 0;
  while (start < block.size()) {
    const auto eol = block.find("\r\n", start);
    const std::string_view line =
        block.substr(start, eol == std::string_view::npos ? block.size() - start
                                                          : eol - start);
    if (line.empty()) break;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) {
      throw ParseError(400, "http: malformed header line");
    }
    const std::string_view name = trim(line.substr(0, colon));
    const std::string_view value = trim(line.substr(colon + 1));
    if (iequals(name, "content-length")) {
      // Differing repeats are 400: whichever one framed the body, the
      // other's bytes would be read as the next request. An identical
      // repeat frames the body the same way.
      const std::size_t length = parse_content_length(value);
      if (has_length && length != framing.content_length) {
        throw ParseError(400, "http: conflicting Content-Length headers");
      }
      framing.content_length = length;
      has_length = true;
    } else if (iequals(name, "transfer-encoding")) {
      framing.transfer_encoding = true;
    }
    headers[std::string(name)] = std::string(value);
    if (eol == std::string_view::npos) break;
    start = eol + 2;
  }
  return framing;
}

std::optional<Request> Parser::next_request() {
  const auto end = header_end();
  // The cap holds whether or not the blank line has arrived, so a client
  // streaming header bytes forever is cut off at the limit.
  if ((end ? *end : buffer_.size()) > kMaxRequestHeaderBytes) {
    throw ParseError(431, "http: request header block too large");
  }
  if (!end) return std::nullopt;
  const std::string_view head(buffer_.data(), *end - 4);
  const auto first_eol = head.find("\r\n");
  const std::string_view request_line =
      first_eol == std::string_view::npos ? head : head.substr(0, first_eol);

  // METHOD SP TARGET SP VERSION
  const auto sp1 = request_line.find(' ');
  const auto sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                                 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    throw ParseError(400, "http: malformed request line");
  }
  Request request;
  request.method = std::string(request_line.substr(0, sp1));
  request.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  request.version = std::string(trim(request_line.substr(sp2 + 1)));

  const std::string_view header_block =
      first_eol == std::string_view::npos ? std::string_view{}
                                          : head.substr(first_eol + 2);
  const Framing framing = parse_headers(header_block, request.headers);
  // A chunked body read as zero-length would leave its chunks to be
  // parsed as the next request.
  if (framing.transfer_encoding) {
    throw ParseError(501, "http: Transfer-Encoding not supported");
  }
  const std::size_t body_len = framing.content_length;
  if (body_len > kMaxRequestBodyBytes) {
    throw ParseError(413, "http: request body too large");
  }
  if (buffer_.size() < *end + body_len) return std::nullopt;  // body incomplete
  request.body = buffer_.substr(*end, body_len);
  buffer_.erase(0, *end + body_len);
  return request;
}

std::optional<Response> Parser::next_response() {
  const auto end = header_end();
  if (!end) return std::nullopt;
  const std::string_view head(buffer_.data(), *end - 4);
  const auto first_eol = head.find("\r\n");
  const std::string_view status_line =
      first_eol == std::string_view::npos ? head : head.substr(0, first_eol);

  // VERSION SP STATUS SP REASON
  const auto sp1 = status_line.find(' ');
  const auto sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                                 : status_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    throw ParseError(400, "http: malformed status line");
  }
  Response response;
  response.version = std::string(status_line.substr(0, sp1));
  try {
    response.status = std::stoi(std::string(status_line.substr(sp1 + 1, sp2 - sp1 - 1)));
  } catch (const std::exception&) {
    throw ParseError(400, "http: bad status code");
  }
  response.reason = std::string(trim(status_line.substr(sp2 + 1)));

  const std::string_view header_block =
      first_eol == std::string_view::npos ? std::string_view{}
                                          : head.substr(first_eol + 2);
  const std::size_t body_len =
      parse_headers(header_block, response.headers).content_length;
  if (buffer_.size() < *end + body_len) return std::nullopt;
  response.body = buffer_.substr(*end, body_len);
  buffer_.erase(0, *end + body_len);
  return response;
}

}  // namespace faasbatch::http
