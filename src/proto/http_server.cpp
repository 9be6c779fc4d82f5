#include "proto/http_server.h"

#include <charconv>
#include <sstream>

namespace nlss::proto {
namespace {

std::string ToLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

}  // namespace

std::optional<HttpRequest> ParseHttpRequest(const std::string& raw) {
  std::istringstream in(raw);
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  if (!line.empty() && line.back() == '\r') line.pop_back();

  HttpRequest req;
  std::istringstream req_line(line);
  std::string version;
  if (!(req_line >> req.method >> req.path >> version)) return std::nullopt;
  if (req.method != "GET" && req.method != "HEAD") return std::nullopt;
  if (version.rfind("HTTP/", 0) != 0) return std::nullopt;
  if (req.path.empty() || req.path.front() != '/') return std::nullopt;

  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = ToLower(line.substr(0, colon));
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(value.begin());
    if (key == "range" && value.rfind("bytes=", 0) == 0) {
      const std::string spec = value.substr(6);
      const std::size_t dash = spec.find('-');
      if (dash == std::string::npos) return std::nullopt;
      std::uint64_t begin = 0;
      const auto b = spec.substr(0, dash);
      if (!b.empty()) {
        std::from_chars(b.data(), b.data() + b.size(), begin);
        req.range_begin = begin;
      }
      const auto e = spec.substr(dash + 1);
      if (!e.empty()) {
        std::uint64_t end = 0;
        std::from_chars(e.data(), e.data() + e.size(), end);
        req.range_end = end;
      }
    }
  }
  return req;
}

std::string RenderHttpHead(const HttpResponse& r) {
  std::ostringstream out;
  out << "HTTP/1.0 " << r.status << ' ' << r.reason << "\r\n"
      << "Server: nlss-blade\r\n"
      << "Content-Length: " << r.content_length << "\r\n"
      << r.headers << "\r\n";
  return out.str();
}

void HttpServer::Respond(Callback& cb, HttpResponse r, obs::TraceContext ctx) {
  ++served_;
  bytes_ += r.body.size();
  if (ctx.sampled()) {
    ctx.tracer->Annotate(ctx, "status=" + std::to_string(r.status));
    ctx.tracer->EndTrace(ctx, r.status < 400);
  }
  cb(std::move(r));
}

void HttpServer::Handle(const HttpRequest& request, Callback cb) {
  obs::TraceContext ctx;
  if (hub_ != nullptr) {
    ctx = hub_->tracer().StartTrace(
        obs::Layer::kProto,
        request.method == "HEAD" ? "proto.http.head" : "proto.http.get");
  }
  const fs::Inode* inode = fs_.Stat(request.path);
  if (inode == nullptr) {
    HttpResponse r;
    r.status = 404;
    r.reason = "Not Found";
    Respond(cb, std::move(r), ctx);
    return;
  }
  if (inode->type != fs::FileType::kFile) {
    HttpResponse r;
    r.status = 403;
    r.reason = "Forbidden";
    Respond(cb, std::move(r), ctx);
    return;
  }

  std::uint64_t begin = 0;
  std::uint64_t end = inode->size == 0 ? 0 : inode->size - 1;
  const bool ranged = request.range_begin.has_value() ||
                      request.range_end.has_value();
  if (request.range_begin.has_value()) begin = *request.range_begin;
  if (request.range_end.has_value()) end = std::min(end, *request.range_end);
  if (ranged && (begin > end || begin >= inode->size)) {
    HttpResponse r;
    r.status = 416;
    r.reason = "Range Not Satisfiable";
    Respond(cb, std::move(r), ctx);
    return;
  }
  const std::uint64_t length = inode->size == 0 ? 0 : end - begin + 1;

  HttpResponse head;
  head.status = ranged ? 206 : 200;
  head.reason = ranged ? "Partial Content" : "OK";
  head.content_length = length;
  if (ranged) {
    head.headers = "Content-Range: bytes " + std::to_string(begin) + "-" +
                   std::to_string(end) + "/" + std::to_string(inode->size) +
                   "\r\n";
  }

  if (request.method == "HEAD" || length == 0) {
    Respond(cb, std::move(head), ctx);
    return;
  }

  auto shared_cb = std::make_shared<Callback>(std::move(cb));
  fs_.Read(
      request.path, begin, length,
      [this, head = std::move(head), shared_cb, ctx](
          fs::Status st, util::Payload data) mutable {
        if (st != fs::Status::kOk) {
          HttpResponse err;
          err.status = 500;
          err.reason = "Internal Server Error";
          Respond(*shared_cb, std::move(err), ctx);
          return;
        }
        head.body = data.ToBytes();
        Respond(*shared_cb, std::move(head), ctx);
      },
      ctx);
}

void HttpServer::HandleRaw(const std::string& raw, Callback cb) {
  const auto request = ParseHttpRequest(raw);
  if (!request.has_value()) {
    HttpResponse r;
    r.status = 400;
    r.reason = "Bad Request";
    Respond(cb, std::move(r));
    return;
  }
  Handle(*request, std::move(cb));
}

}  // namespace nlss::proto
