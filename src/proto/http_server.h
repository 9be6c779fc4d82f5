// HTTP export running directly on the controller blades (paper §8: "an
// HTTP engine could run entirely on the controller blade").  GET serves
// file content straight from the storage system — optionally striped over
// several blades for large responses — with Range support for partial
// content.  No user code executes on the controllers: only this fixed
// engine.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fs/filesystem.h"
#include "obs/hub.h"
#include "util/function.h"

namespace nlss::proto {

struct HttpRequest {
  std::string method;                 // "GET" / "HEAD"
  std::string path;
  std::optional<std::uint64_t> range_begin;
  std::optional<std::uint64_t> range_end;  // inclusive, per RFC
};

struct HttpResponse {
  int status = 500;
  std::string reason;
  util::Bytes body;
  std::uint64_t content_length = 0;
  std::string headers;  // rendered header block
};

/// Parse the request line + headers of a textual HTTP/1.0 request.
/// Returns nullopt on malformed input.
std::optional<HttpRequest> ParseHttpRequest(const std::string& raw);

/// Render a response head ("HTTP/1.0 200 OK\r\n...").
std::string RenderHttpHead(const HttpResponse& r);

class HttpServer {
 public:
  explicit HttpServer(fs::FileSystem& fs) : fs_(fs) {}

  using Callback = util::Function<void(HttpResponse)>;

  /// Serve a parsed request.
  void Handle(const HttpRequest& request, Callback cb);

  /// Serve a raw request string (parse + handle).
  void HandleRaw(const std::string& raw, Callback cb);

  /// Trace requests as kProto root traces ("proto.http.get"); the context
  /// propagates through the filesystem into the controller/cache/disk
  /// stack, so /traces shows the full blade-side path of an HTTP GET.
  /// Pass nullptr to detach.
  void AttachObs(obs::Hub* hub) { hub_ = hub; }

  std::uint64_t requests_served() const { return served_; }
  std::uint64_t bytes_served() const { return bytes_; }

 private:
  void Respond(Callback& cb, HttpResponse r, obs::TraceContext ctx = {});

  fs::FileSystem& fs_;
  obs::Hub* hub_ = nullptr;
  std::uint64_t served_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace nlss::proto
