#include <gtest/gtest.h>

#include <memory>

#include "crypto/keystore.h"
#include "proto/block_target.h"
#include "proto/block_wire.h"
#include "proto/file_server.h"
#include "proto/http_server.h"
#include "sim/engine.h"
#include "util/bytes.h"

namespace nlss::proto {
namespace {

class ProtoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    controller::SystemConfig config;
    config.disk_profile.capacity_blocks = 16 * 1024;
    fabric_ = std::make_unique<net::Fabric>(engine_);
    system_ = std::make_unique<controller::StorageSystem>(engine_, *fabric_,
                                                          config);
    auth_ = std::make_unique<security::AuthService>(engine_, keys_);
    audit_ = std::make_unique<security::AuditLog>(engine_);
    auth_->AddUser("alice", "pw", {"reader", "writer"});
    auth_->AddUser("bob", "pw", {"reader"});
    host_ = system_->AttachHost("client");
  }

  util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
    util::Bytes b(n);
    util::FillPattern(b, seed);
    return b;
  }

  sim::Engine engine_;
  crypto::KeyStore keys_{std::string_view("pw-master")};
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<controller::StorageSystem> system_;
  std::unique_ptr<security::AuthService> auth_;
  std::unique_ptr<security::AuditLog> audit_;
  net::NodeId host_ = net::kInvalidNode;
};

TEST_F(ProtoTest, BlockTargetLoginAndMaskedIo) {
  security::LunMasking mask;
  security::CommandPolicy policy;
  BlockTarget target(*system_, *auth_, mask, policy, *audit_);
  const auto vol0 = system_->CreateVolume("t", 16 * util::MiB);
  const auto vol1 = system_->CreateVolume("t", 16 * util::MiB);
  mask.Allow("host-a", vol0);

  EXPECT_FALSE(target.Login(host_, "host-a", "alice", "bad").has_value());
  const auto session = target.Login(host_, "host-a", "alice", "pw");
  ASSERT_TRUE(session.has_value());

  EXPECT_EQ(target.ReportLuns(*session), std::vector<std::uint32_t>{vol0});

  // Write+read the visible LUN.
  const auto data = Pattern(64 * util::KiB, 1);
  BlockStatus wst = BlockStatus::kIoError;
  target.Write(*session, vol0, 0, data, [&](BlockStatus s) { wst = s; });
  engine_.Run();
  ASSERT_EQ(wst, BlockStatus::kOk);
  BlockStatus rst = BlockStatus::kIoError;
  util::Bytes got;
  std::uint32_t crc = 0;
  target.Read(*session, vol0, 0, 16,
              [&](BlockStatus s, util::Bytes d, std::uint32_t c) {
                rst = s;
                got = std::move(d);
                crc = c;
              });
  engine_.Run();
  ASSERT_EQ(rst, BlockStatus::kOk);
  EXPECT_EQ(got, data);
  EXPECT_EQ(crc, util::Crc32c(data));

  // The masked LUN is invisible.
  BlockStatus denied = BlockStatus::kOk;
  target.Read(*session, vol1, 0, 1,
              [&](BlockStatus s, util::Bytes, std::uint32_t) { denied = s; });
  engine_.Run();
  EXPECT_EQ(denied, BlockStatus::kAccessDenied);
  EXPECT_TRUE(audit_->VerifyChain());
}

TEST_F(ProtoTest, BlockTargetSessionInvalidAfterLogout) {
  security::LunMasking mask;
  security::CommandPolicy policy;
  BlockTarget target(*system_, *auth_, mask, policy, *audit_);
  const auto vol = system_->CreateVolume("t", util::MiB);
  mask.Allow("h", vol);
  const auto session = *target.Login(host_, "h", "alice", "pw");
  target.Logout(session);
  BlockStatus st = BlockStatus::kOk;
  target.Read(session, vol, 0, 1,
              [&](BlockStatus s, util::Bytes, std::uint32_t) { st = s; });
  engine_.Run();
  EXPECT_EQ(st, BlockStatus::kInvalidSession);
}

// A request that names no block, leaves the volume, or overflows the
// 32-bit byte length is refused up front, and its callback still fires
// exactly once.
TEST_F(ProtoTest, BlockTargetRejectsEmptyAndOutOfRangeRequests) {
  security::LunMasking mask;
  security::CommandPolicy policy;
  BlockTarget target(*system_, *auth_, mask, policy, *audit_);
  const auto vol = system_->CreateVolume("t", util::MiB);  // 256 blocks
  const auto big = system_->CreateVolume("t", 8 * util::GiB);
  mask.Allow("h", vol);
  mask.Allow("h", big);
  const auto session = *target.Login(host_, "h", "alice", "pw");
  const auto read = [&](std::uint32_t v, std::uint64_t lba,
                        std::uint32_t blocks) {
    int calls = 0;
    BlockStatus st = BlockStatus::kIoError;
    target.Read(session, v, lba, blocks,
                [&](BlockStatus s, util::Bytes, std::uint32_t) {
                  ++calls;
                  st = s;
                });
    engine_.Run();
    EXPECT_EQ(calls, 1) << "lba " << lba << " blocks " << blocks;
    return st;
  };
  EXPECT_EQ(read(vol, 0, 0), BlockStatus::kInvalidArgument);
  EXPECT_EQ(read(vol, 1000, 4), BlockStatus::kInvalidArgument);
  EXPECT_EQ(read(vol, 254, 4), BlockStatus::kInvalidArgument);
  EXPECT_EQ(read(vol, ~0ull - 1, 4), BlockStatus::kInvalidArgument);
  EXPECT_EQ(read(big, 0, 1u << 20), BlockStatus::kInvalidArgument)
      << "4 GiB does not fit the 32-bit byte length";
  EXPECT_EQ(read(vol, 252, 4), BlockStatus::kOk);  // the last four blocks
  // A LUN registered straight with the cache (an encrypted store, say) is
  // sized by its own store, not by a pool volume.
  cache::MemBacking lun_store(engine_, 64);
  system_->cache().RegisterVolume(100, &lun_store);
  mask.Allow("h", 100);
  EXPECT_EQ(read(100, 60, 4), BlockStatus::kOk);
  EXPECT_EQ(read(100, 62, 4), BlockStatus::kInvalidArgument);

  const auto write = [&](std::uint64_t lba, std::size_t bytes) {
    int calls = 0;
    BlockStatus st = BlockStatus::kIoError;
    target.Write(session, vol, lba, Pattern(bytes, lba), [&](BlockStatus s) {
      ++calls;
      st = s;
    });
    engine_.Run();
    EXPECT_EQ(calls, 1) << "lba " << lba << " bytes " << bytes;
    return st;
  };
  EXPECT_EQ(write(1000, 4 * 4096), BlockStatus::kInvalidArgument);
  EXPECT_EQ(write(255, 2 * 4096), BlockStatus::kInvalidArgument);
  EXPECT_EQ(write(0, 0), BlockStatus::kInvalidArgument);
  EXPECT_EQ(write(255, 4096), BlockStatus::kOk);
}

TEST_F(ProtoTest, BlockTargetInBandSnapshotLockdown) {
  security::LunMasking mask;
  security::CommandPolicy policy;
  BlockTarget target(*system_, *auth_, mask, policy, *audit_);
  const auto vol = system_->CreateVolume("t", util::MiB);
  mask.Allow("h", vol);
  const auto session = *target.Login(host_, "h", "alice", "pw");
  // Snapshot allowed in-band by default.
  EXPECT_EQ(target.TrySnapshot(session, vol), BlockStatus::kOk);
  // Lock it down on this port.
  policy.DisableInBand("h", security::Command::kSnapshot);
  EXPECT_EQ(target.TrySnapshot(session, vol), BlockStatus::kAccessDenied);
}

TEST_F(ProtoTest, FileServerRolesEnforced) {
  fs::FileSystem fs(*system_);
  FileServer server(fs, *auth_, *audit_);
  const auto rw = server.Mount("alice", "pw");
  ASSERT_TRUE(rw.has_value());
  const auto ro = server.Mount("bob", "pw");
  ASSERT_TRUE(ro.has_value());
  EXPECT_FALSE(server.Mount("alice", "wrong").has_value());

  ASSERT_EQ(server.Mkdir(*rw, "/data"), fs::Status::kOk);
  ASSERT_EQ(server.Create(*rw, "/data/f"), fs::Status::kOk);
  const auto payload = Pattern(100000, 2);
  fs::Status wst = fs::Status::kIoError;
  server.Write(*rw, "/data/f", 0, util::Payload::Copy(payload),
               [&](fs::Status s) { wst = s; });
  engine_.Run();
  ASSERT_EQ(wst, fs::Status::kOk);

  // Reader can read but not write.
  fs::Status rst = fs::Status::kIoError;
  util::Bytes got;
  server.Read(*ro, "/data/f", 0, payload.size(),
              [&](fs::Status s, util::Payload d) {
                rst = s;
                got = d.ToBytes();
              });
  engine_.Run();
  ASSERT_EQ(rst, fs::Status::kOk);
  EXPECT_EQ(got, payload);
  fs::Status denied = fs::Status::kOk;
  server.Write(*ro, "/data/f", 0, util::Payload::Copy(payload),
               [&](fs::Status s) { denied = s; });
  engine_.Run();
  EXPECT_NE(denied, fs::Status::kOk);
  EXPECT_EQ(server.Remove(*ro, "/data/f"), fs::Status::kInvalidArgument);
}

TEST_F(ProtoTest, FileServerExportRootScopesPaths) {
  fs::FileSystem fs(*system_);
  FileServer server(fs, *auth_, *audit_);
  ASSERT_EQ(fs.Mkdir("/projects"), fs::Status::kOk);
  ASSERT_EQ(fs.Mkdir("/projects/fusion"), fs::Status::kOk);
  const auto mount = server.Mount("alice", "pw", "/projects/fusion");
  ASSERT_TRUE(mount.has_value());
  ASSERT_EQ(server.Create(*mount, "/run1.dat"), fs::Status::kOk);
  EXPECT_TRUE(fs.Exists("/projects/fusion/run1.dat"))
      << "paths must resolve under the export root";
}

TEST(BlockWire, PduRoundtrip) {
  BlockPdu pdu;
  pdu.op = WireOp::kScsiWrite;
  pdu.session = 0xDEADBEEFCAFEULL;
  pdu.lun = 7;
  pdu.lba = 123456789;
  pdu.blocks = 16;
  pdu.task_tag = 42;
  pdu.data.resize(8192);
  util::FillPattern(pdu.data, 1);
  const util::Bytes wire = EncodePdu(pdu);
  const auto decoded = DecodePdu(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, pdu);
}

TEST(BlockWire, NoDataPdu) {
  BlockPdu pdu;
  pdu.op = WireOp::kReportLuns;
  pdu.session = 1;
  pdu.task_tag = 9;
  const auto decoded = DecodePdu(EncodePdu(pdu));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, pdu);
}

TEST(BlockWire, HeaderCorruptionDetected) {
  BlockPdu pdu;
  pdu.op = WireOp::kScsiRead;
  pdu.lba = 100;
  util::Bytes wire = EncodePdu(pdu);
  wire[9] ^= 0x01;  // flip a bit inside the header
  EXPECT_FALSE(DecodePdu(wire).has_value());
}

TEST(BlockWire, DataCorruptionDetected) {
  BlockPdu pdu;
  pdu.op = WireOp::kScsiWrite;
  pdu.data.resize(4096);
  util::FillPattern(pdu.data, 2);
  util::Bytes wire = EncodePdu(pdu);
  wire[wire.size() - 10] ^= 0x01;  // flip a payload bit
  EXPECT_FALSE(DecodePdu(wire).has_value());
}

TEST(BlockWire, TruncationAndGarbageRejected) {
  BlockPdu pdu;
  pdu.op = WireOp::kScsiWrite;
  pdu.data.resize(1024);
  util::Bytes wire = EncodePdu(pdu);
  EXPECT_FALSE(DecodePdu(std::span(wire).subspan(0, 20)).has_value());
  wire.push_back(0x00);  // trailing garbage
  EXPECT_FALSE(DecodePdu(wire).has_value());
  util::Bytes junk(64, 0xAB);
  EXPECT_FALSE(DecodePdu(junk).has_value());
}

TEST_F(ProtoTest, HttpParse) {
  const auto req = ParseHttpRequest("GET /data/file.bin HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/data/file.bin");
  EXPECT_FALSE(req->range_begin.has_value());

  const auto ranged = ParseHttpRequest(
      "GET /f HTTP/1.1\r\nHost: x\r\nRange: bytes=100-199\r\n\r\n");
  ASSERT_TRUE(ranged.has_value());
  EXPECT_EQ(*ranged->range_begin, 100u);
  EXPECT_EQ(*ranged->range_end, 199u);

  EXPECT_FALSE(ParseHttpRequest("POST /f HTTP/1.0\r\n\r\n").has_value());
  EXPECT_FALSE(ParseHttpRequest("garbage").has_value());
}

TEST_F(ProtoTest, HttpGetServesFileContent) {
  fs::FileSystem fs(*system_);
  HttpServer http(fs);
  ASSERT_EQ(fs.Create("/movie.bin"), fs::Status::kOk);
  const auto data = Pattern(500000, 3);
  fs::Status wst = fs::Status::kIoError;
  fs.Write("/movie.bin", 0, util::Payload::Copy(data),
           [&](fs::Status s) { wst = s; });
  engine_.Run();
  ASSERT_EQ(wst, fs::Status::kOk);

  HttpResponse resp;
  http.HandleRaw("GET /movie.bin HTTP/1.0\r\n\r\n",
                 [&](HttpResponse r) { resp = std::move(r); });
  engine_.Run();
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, data);
  EXPECT_EQ(resp.content_length, data.size());
  const std::string head = RenderHttpHead(resp);
  EXPECT_NE(head.find("HTTP/1.0 200 OK"), std::string::npos);
}

TEST_F(ProtoTest, HttpRangeRequests) {
  fs::FileSystem fs(*system_);
  HttpServer http(fs);
  ASSERT_EQ(fs.Create("/f"), fs::Status::kOk);
  const auto data = Pattern(10000, 4);
  fs.Write("/f", 0, util::Payload::Copy(data), [](fs::Status) {});
  engine_.Run();

  HttpResponse resp;
  http.HandleRaw("GET /f HTTP/1.0\r\nRange: bytes=1000-1999\r\n\r\n",
                 [&](HttpResponse r) { resp = std::move(r); });
  engine_.Run();
  EXPECT_EQ(resp.status, 206);
  ASSERT_EQ(resp.body.size(), 1000u);
  EXPECT_TRUE(std::equal(resp.body.begin(), resp.body.end(),
                         data.begin() + 1000));
  EXPECT_NE(resp.headers.find("Content-Range: bytes 1000-1999/10000"),
            std::string::npos);

  // Unsatisfiable range.
  http.HandleRaw("GET /f HTTP/1.0\r\nRange: bytes=99999-\r\n\r\n",
                 [&](HttpResponse r) { resp = std::move(r); });
  engine_.Run();
  EXPECT_EQ(resp.status, 416);
}

TEST_F(ProtoTest, HttpErrors) {
  fs::FileSystem fs(*system_);
  HttpServer http(fs);
  ASSERT_EQ(fs.Mkdir("/dir"), fs::Status::kOk);
  HttpResponse resp;
  http.HandleRaw("GET /missing HTTP/1.0\r\n\r\n",
                 [&](HttpResponse r) { resp = std::move(r); });
  engine_.Run();
  EXPECT_EQ(resp.status, 404);
  http.HandleRaw("GET /dir HTTP/1.0\r\n\r\n",
                 [&](HttpResponse r) { resp = std::move(r); });
  engine_.Run();
  EXPECT_EQ(resp.status, 403);
  http.HandleRaw("bogus\r\n\r\n", [&](HttpResponse r) { resp = std::move(r); });
  EXPECT_EQ(resp.status, 400);
}

TEST_F(ProtoTest, HttpHeadOmitsBody) {
  fs::FileSystem fs(*system_);
  HttpServer http(fs);
  ASSERT_EQ(fs.Create("/f"), fs::Status::kOk);
  fs.Write("/f", 0, util::Payload::Copy(Pattern(5000, 5)), [](fs::Status) {});
  engine_.Run();
  HttpResponse resp;
  http.HandleRaw("HEAD /f HTTP/1.0\r\n\r\n",
                 [&](HttpResponse r) { resp = std::move(r); });
  engine_.Run();
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_length, 5000u);
  EXPECT_TRUE(resp.body.empty());
}

TEST_F(ProtoTest, HttpGetPropagatesTraceContext) {
  fs::FileSystem fs(*system_);
  HttpServer http(fs);
  obs::Hub hub(engine_);
  system_->AttachObs(&hub);
  http.AttachObs(&hub);
  ASSERT_EQ(fs.Create("/traced.bin"), fs::Status::kOk);
  fs.Write("/traced.bin", 0, util::Payload::Copy(Pattern(200000, 9)),
           [](fs::Status) {});
  engine_.Run();

  HttpResponse resp;
  http.HandleRaw("GET /traced.bin HTTP/1.0\r\n\r\n",
                 [&](HttpResponse r) { resp = std::move(r); });
  engine_.Run();
  ASSERT_EQ(resp.status, 200);

  // The GET is one root trace whose context flowed through the filesystem
  // into the controller stack: deeper-layer spans hang off the same trace.
  const obs::FinishedTrace* get_trace = nullptr;
  for (const auto& t : hub.tracer().recent()) {
    if (t.name == "proto.http.get") get_trace = &t;
  }
  ASSERT_NE(get_trace, nullptr) << hub.tracer().Dump();
  EXPECT_TRUE(get_trace->ok);
  bool saw_controller = false, saw_status_note = false;
  for (const auto& s : get_trace->spans) {
    if (s.layer == obs::Layer::kController) saw_controller = true;
    if (s.note.find("status=200") != std::string::npos) {
      saw_status_note = true;
    }
  }
  EXPECT_TRUE(saw_controller)
      << "controller span must be a child of the HTTP trace";
  EXPECT_TRUE(saw_status_note);
  EXPECT_GT(get_trace->duration(), 0u);

  // A 404 finishes the trace as not-ok.
  http.HandleRaw("GET /nosuch HTTP/1.0\r\n\r\n", [](HttpResponse) {});
  engine_.Run();
  bool saw_failed = false;
  for (const auto& t : hub.tracer().recent()) {
    if (t.name == "proto.http.get" && !t.ok) saw_failed = true;
  }
  EXPECT_TRUE(saw_failed);
}

}  // namespace
}  // namespace nlss::proto
