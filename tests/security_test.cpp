#include <gtest/gtest.h>

#include "cache/backing.h"
#include "crypto/keystore.h"
#include "security/audit.h"
#include "security/auth.h"
#include "security/channel.h"
#include "security/control.h"
#include "security/encrypted_backing.h"
#include "security/lun_mask.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/units.h"

namespace nlss::security {
namespace {

class SecurityTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  crypto::KeyStore keys_{std::string_view("lab-master")};
};

TEST_F(SecurityTest, LoginIssuesVerifiableToken) {
  AuthService auth(engine_, keys_);
  auth.AddUser("alice", "hunter2", {"scientist"});
  const auto token = auth.Login("alice", "hunter2");
  ASSERT_TRUE(token.has_value());
  const auto who = auth.Verify(*token);
  ASSERT_TRUE(who.has_value());
  EXPECT_EQ(*who, "alice");
  EXPECT_TRUE(auth.HasRole("alice", "scientist"));
  EXPECT_FALSE(auth.HasRole("alice", "admin"));
}

TEST_F(SecurityTest, WrongPasswordRejected) {
  AuthService auth(engine_, keys_);
  auth.AddUser("alice", "hunter2", {});
  EXPECT_FALSE(auth.Login("alice", "wrong").has_value());
  EXPECT_FALSE(auth.Login("mallory", "hunter2").has_value());
}

TEST_F(SecurityTest, TamperedTokenRejected) {
  AuthService auth(engine_, keys_);
  auth.AddUser("alice", "pw", {});
  auto token = *auth.Login("alice", "pw");
  // Flip a character in the embedded user name.
  token[0] = token[0] == 'a' ? 'b' : 'a';
  EXPECT_FALSE(auth.Verify(token).has_value());
}

TEST_F(SecurityTest, TokenExpires) {
  AuthService auth(engine_, keys_);
  auth.AddUser("alice", "pw", {});
  const auto token = *auth.Login("alice", "pw", 1000);  // 1 us TTL
  EXPECT_TRUE(auth.Verify(token).has_value());
  engine_.Schedule(2000, [] {});
  engine_.Run();
  EXPECT_FALSE(auth.Verify(token).has_value());
}

TEST_F(SecurityTest, RevokeSessionsInvalidatesOldTokens) {
  AuthService auth(engine_, keys_);
  auth.AddUser("alice", "pw", {});
  const auto old_token = *auth.Login("alice", "pw");
  auth.RevokeSessions("alice");
  EXPECT_FALSE(auth.Verify(old_token).has_value());
  const auto new_token = *auth.Login("alice", "pw");
  EXPECT_TRUE(auth.Verify(new_token).has_value());
}

TEST_F(SecurityTest, LunMaskingDefaultDeny) {
  LunMasking mask;
  EXPECT_FALSE(mask.Visible("host1", 0));
  mask.Allow("host1", 0);
  mask.Allow("host1", 3);
  EXPECT_TRUE(mask.Visible("host1", 0));
  EXPECT_TRUE(mask.Visible("host1", 3));
  EXPECT_FALSE(mask.Visible("host1", 1));
  EXPECT_FALSE(mask.Visible("host2", 0)) << "other initiators see nothing";
  EXPECT_EQ(mask.VisibleTo("host1").size(), 2u);
  mask.Revoke("host1", 0);
  EXPECT_FALSE(mask.Visible("host1", 0));
}

TEST_F(SecurityTest, SecureChannelRoundtrip) {
  const auto key = keys_.DeriveTransportKey("a", "b");
  SecureChannel tx(key), rx(key);
  util::Bytes msg(10000);
  util::FillPattern(msg, 7);
  const util::Bytes frame = tx.Seal(msg);
  EXPECT_EQ(frame.size(), msg.size() + SecureChannel::kOverhead);
  // Ciphertext differs from plaintext.
  EXPECT_FALSE(std::equal(msg.begin(), msg.end(), frame.begin() + 8));
  const auto opened = rx.Open(frame);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST_F(SecurityTest, SecureChannelDetectsTampering) {
  const auto key = keys_.DeriveTransportKey("a", "b");
  SecureChannel tx(key), rx(key);
  util::Bytes msg(1000);
  util::FillPattern(msg, 8);
  util::Bytes frame = tx.Seal(msg);
  frame[100] ^= 0x01;
  EXPECT_FALSE(rx.Open(frame).has_value());
  EXPECT_EQ(rx.rejected(), 1u);
}

TEST_F(SecurityTest, SecureChannelRejectsReplay) {
  const auto key = keys_.DeriveTransportKey("a", "b");
  SecureChannel tx(key), rx(key);
  util::Bytes m1(100), m2(100);
  util::FillPattern(m1, 1);
  util::FillPattern(m2, 2);
  const auto f1 = tx.Seal(m1);
  const auto f2 = tx.Seal(m2);
  ASSERT_TRUE(rx.Open(f1).has_value());
  ASSERT_TRUE(rx.Open(f2).has_value());
  EXPECT_FALSE(rx.Open(f1).has_value()) << "replayed frame must be rejected";
}

TEST_F(SecurityTest, SecureChannelWrongKeyFails) {
  SecureChannel tx(keys_.DeriveTransportKey("a", "b"));
  SecureChannel rx(keys_.DeriveTransportKey("a", "c"));
  util::Bytes msg(64);
  util::FillPattern(msg, 3);
  EXPECT_FALSE(rx.Open(tx.Seal(msg)).has_value());
}

TEST_F(SecurityTest, AuditChainDetectsTampering) {
  AuditLog log(engine_);
  log.Record("alice", "login", "ok");
  log.Record("alice", "create-volume", "vol=3 size=1TiB");
  log.Record("admin", "change-masking", "host1 +vol3");
  EXPECT_TRUE(log.VerifyChain());
  // Forge history.
  auto& entries = const_cast<std::vector<AuditLog::Entry>&>(log.entries());
  entries[1].detail = "vol=3 size=1PiB";
  EXPECT_FALSE(log.VerifyChain());
}

TEST_F(SecurityTest, CommandPolicyInBandLockdown) {
  CommandPolicy policy;
  // Data path allowed by default; management denied in-band.
  EXPECT_TRUE(policy.AllowedInBand("fc0", Command::kReadData));
  EXPECT_TRUE(policy.AllowedInBand("fc0", Command::kWriteData));
  EXPECT_FALSE(policy.AllowedInBand("fc0", Command::kChangeMasking));
  EXPECT_FALSE(policy.AllowedInBand("fc0", Command::kFirmwareUpgrade));
  // Per-port, per-command overrides.
  policy.DisableInBand("fc0", Command::kSnapshot);
  EXPECT_FALSE(policy.AllowedInBand("fc0", Command::kSnapshot));
  EXPECT_TRUE(policy.AllowedInBand("fc1", Command::kSnapshot));
  policy.EnableInBand("fc-admin", Command::kChangeMasking);
  EXPECT_TRUE(policy.AllowedInBand("fc-admin", Command::kChangeMasking));
  // Out-of-band requires admin.
  EXPECT_TRUE(policy.AllowedOutOfBand(Command::kFirmwareUpgrade, true));
  EXPECT_FALSE(policy.AllowedOutOfBand(Command::kFirmwareUpgrade, false));
}

TEST_F(SecurityTest, EncryptedBackingRoundtripAndCiphertextAtRest) {
  cache::MemBacking inner(engine_, 1024);
  const auto vk = keys_.DeriveVolumeKeys("physics", 7);
  EncryptedBacking enc(engine_, inner, vk);

  util::Bytes data(8 * 4096);
  util::FillPattern(data, 9);
  bool wrote = false;
  enc.WriteBlocks(16, util::Payload::Copy(data), [&](bool ok) { wrote = ok; });
  engine_.Run();
  ASSERT_TRUE(wrote);

  // Reading through the layer returns plaintext.
  util::Bytes got;
  enc.ReadBlocks(16, 8, [&](bool ok, util::Payload d) {
    ASSERT_TRUE(ok);
    got = d.ToBytes();
  });
  engine_.Run();
  EXPECT_EQ(got, data);

  // The raw medium holds ciphertext only.
  const auto& raw = inner.raw();
  EXPECT_FALSE(std::equal(data.begin(), data.end(), raw.begin() + 16 * 4096))
      << "plaintext leaked to the medium";
  EXPECT_EQ(enc.bytes_encrypted(), data.size());
}

TEST_F(SecurityTest, EncryptedBackingDifferentVolumesDifferentCiphertext) {
  cache::MemBacking inner_a(engine_, 64), inner_b(engine_, 64);
  EncryptedBacking a(engine_, inner_a, keys_.DeriveVolumeKeys("t", 1));
  EncryptedBacking b(engine_, inner_b, keys_.DeriveVolumeKeys("t", 2));
  util::Bytes data(4096);
  util::FillPattern(data, 10);
  a.WriteBlocks(0, util::Payload::Copy(data), [](bool) {});
  b.WriteBlocks(0, util::Payload::Copy(data), [](bool) {});
  engine_.Run();
  EXPECT_NE(inner_a.raw(), inner_b.raw())
      << "per-volume keys must yield distinct ciphertext";
}

TEST_F(SecurityTest, EncryptedBackingChargesCryptoEngine) {
  cache::MemBacking inner(engine_, 256);
  sim::Resource crypto_engine(engine_);
  EncryptedBacking::Config config;
  config.engine_resource = &crypto_engine;
  config.crypt_ns_per_byte = 1.0;
  EncryptedBacking enc(engine_, inner, keys_.DeriveVolumeKeys("t", 1), config);
  util::Bytes data(16 * 4096);
  util::FillPattern(data, 11);
  sim::Tick done = 0;
  enc.WriteBlocks(0, util::Payload::Copy(data),
                  [&](bool) { done = engine_.now(); });
  engine_.Run();
  EXPECT_GE(done, data.size()) << "1 ns/B engine must take >= 64 us";
  EXPECT_GT(crypto_engine.busy_total(), 0u);
}

}  // namespace
}  // namespace nlss::security
