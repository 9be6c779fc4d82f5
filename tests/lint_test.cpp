// Tests for tools/nlss_lint (lint_core): every rule fires on its fixture at
// the expected lines, the allowlist suppresses, clean code passes, and — the
// real gate — the entire source tree lints clean.
//
// Fixture files live in tests/lint_fixtures/ (excluded from LintPaths
// recursion so the tree-clean check below does not see them).
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint_core.h"

namespace {

using nlss::lint::Finding;
using nlss::lint::LintPaths;
using nlss::lint::LintText;

std::string FixturePath(const std::string& name) {
  return std::string(NLSS_LINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Lint a fixture by name; findings carry the bare name as `file`.
std::vector<Finding> LintFixture(const std::string& name) {
  return LintText(name, ReadFile(FixturePath(name)));
}

std::vector<std::pair<int, std::string>> LinesAndRules(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<int, std::string>> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.line, f.rule);
  return out;
}

TEST(LintRules, WallclockFixture) {
  const auto got = LinesAndRules(LintFixture("bad_wallclock.cpp"));
  const std::vector<std::pair<int, std::string>> want = {
      {6, "wallclock"}, {7, "wallclock"}, {8, "wallclock"}, {16, "wallclock"}};
  EXPECT_EQ(got, want);
}

TEST(LintRules, WallclockIsPermittedUnderSrcSim) {
  const std::string text = ReadFile(FixturePath("bad_wallclock.cpp"));
  EXPECT_TRUE(LintText("src/sim/engine.cpp", text).empty());
  EXPECT_FALSE(LintText("src/cache/node.cpp", text).empty());
}

TEST(LintRules, StdFunctionIsBannedOnlyInSimulatorSources) {
  const std::string text = ReadFile(FixturePath("bad_std_function.cpp"));
  const auto got =
      LinesAndRules(LintText("src/cache/bad_std_function.cpp", text));
  const std::vector<std::pair<int, std::string>> want = {
      {6, "std-function"}, {9, "std-function"}, {12, "std-function"}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(LinesAndRules(LintText("/ck/src/nlss/src/qos/x.h", text)), want);
  // Everything outside src/<module>/ may use it.
  for (const char* path :
       {"tests/util_test.cpp", "bench/common.h", "examples/quickstart.cpp",
        "tools/lint_core.cpp", "/ck/src/nlss/tests/x.cpp",
        "perfbench/src/harness.cpp"}) {
    EXPECT_TRUE(LintText(path, text).empty()) << path;
  }
}

TEST(LintRules, RandFixture) {
  const auto got = LinesAndRules(LintFixture("bad_rand.cpp"));
  const std::vector<std::pair<int, std::string>> want = {
      {6, "rand"}, {7, "rand"}, {8, "rand"}};
  EXPECT_EQ(got, want);
}

TEST(LintRules, RngSeedFixture) {
  const auto got = LinesAndRules(LintFixture("bad_rng_seed.cpp"));
  const std::vector<std::pair<int, std::string>> want = {
      {6, "rng-seed"}, {7, "rng-seed"}, {8, "rng-seed"}};
  EXPECT_EQ(got, want);
  // The explicitly seeded engine on line 13 is not flagged (asserted by the
  // exact-match above, but make the intent explicit).
  for (const auto& [line, rule] : got) EXPECT_LT(line, 13);
}

TEST(LintRules, UnorderedIterFixture) {
  const auto findings = LintFixture("bad_unordered_iter.cpp");
  const auto got = LinesAndRules(findings);
  const std::vector<std::pair<int, std::string>> want = {
      {12, "unordered-iter"}, {13, "unordered-iter"}, {14, "unordered-iter"}};
  EXPECT_EQ(got, want);
  // Line 14 walks via an alias-typed parameter (`using Index = ...`); the
  // scanner must resolve the alias.
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_NE(findings[2].message.find("index"), std::string::npos);
}

TEST(LintRules, UnorderedMemberDeclaredInTheHeader) {
  // Alone, the source file shows no unordered declaration.
  EXPECT_TRUE(LintFixture("paired_member.cpp").empty());
  const auto findings = LintPaths({FixturePath("paired_member.cpp")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  EXPECT_NE(findings[0].message.find("balances_"), std::string::npos);
}

TEST(LintRules, PointerKeyFixture) {
  const auto got = LinesAndRules(LintFixture("bad_pointer_key.cpp"));
  const std::vector<std::pair<int, std::string>> want = {
      {11, "pointer-key"}, {12, "pointer-key"}};
  EXPECT_EQ(got, want);  // line 13 (pointer VALUE) must not be flagged
}

TEST(LintRules, BareWriteFixture) {
  const auto got = LinesAndRules(LintFixture("bad_bare_write.cpp"));
  const std::vector<std::pair<int, std::string>> want = {
      {9, "bare-write"}, {10, "bare-write"}};
  EXPECT_EQ(got, want);  // Good() carries wid / an inline WriteId — clean
}

TEST(LintRules, BareCoalescedWriteFixture) {
  // WriteWithReplication is a blade-entry write too: the flush coalescer
  // audits the representative (writer, seq) stamped on each frame, so an
  // unattributed call is a lint finding.
  const auto got = LinesAndRules(LintFixture("bad_bare_coalesced_write.cpp"));
  const std::vector<std::pair<int, std::string>> want = {{12, "bare-write"}};
  EXPECT_EQ(got, want);  // Good() variants carry wid / inline WriteId
}

TEST(LintRules, UncheckedStatusFixture) {
  const auto got = LinesAndRules(LintFixture("bad_unchecked_status.cpp"));
  const std::vector<std::pair<int, std::string>> want = {
      {17, "unchecked-status"},
      {18, "unchecked-status"},
      {19, "unchecked-status"},
      {20, "unchecked-status"}};
  // Good(): consumed results, a (void) cast, and a void pool.Submit — all
  // clean (asserted by the exact match).
  EXPECT_EQ(got, want);
}

TEST(LintRules, SameTickChainFixture) {
  const auto got = LinesAndRules(LintFixture("bad_same_tick_chain.cpp"));
  const std::vector<std::pair<int, std::string>> want = {
      {14, "same-tick-chain"}, {17, "same-tick-chain"}};
  // GoodTagged (NLSS_ACCESS in body), GoodDelayed (nonzero delay), and
  // GoodPure (no member mutation) stay quiet.
  EXPECT_EQ(got, want);
}

TEST(LintRules, FloatAccumulateFixture) {
  const auto got = LinesAndRules(LintFixture("bad_float_accumulate.cpp"));
  const std::vector<std::pair<int, std::string>> want = {
      {7, "float-accumulate"}, {11, "float-accumulate"}};
  // The integer-accumulation loop on line 15 is clean.
  EXPECT_EQ(got, want);
}

TEST(LintRules, StaleAllowFixture) {
  const auto got = LinesAndRules(LintFixture("bad_stale_allow.cpp"));
  const std::vector<std::pair<int, std::string>> want = {
      {2, "stale-allow"}, {5, "stale-allow"}, {6, "stale-allow"}};
  // Line 11's dormant allow(rng-seed) is kept by the paired
  // allow(stale-allow) on the same comment.
  EXPECT_EQ(got, want);
}

TEST(LintAllowlist, SuppressesLineAndFileScopes) {
  // Has a wallclock use under a same/next-line allow, a rand use under
  // allow-file, and an unordered iteration with a trailing same-line allow.
  EXPECT_TRUE(LintFixture("allowlisted.cpp").empty());
}

TEST(LintAllowlist, AllowDoesNotLeakToOtherRules) {
  const std::string text =
      "#include <chrono>\n"
      "// nlss-lint: allow(rand)\n"
      "auto t = std::chrono::steady_clock::now();\n";
  const auto findings = LintText("x.cpp", text);
  // allow(rand) does not cover wallclock — and, having suppressed nothing,
  // it is itself reported stale.
  const auto got = LinesAndRules(findings);
  const std::vector<std::pair<int, std::string>> want = {
      {2, "stale-allow"}, {3, "wallclock"}};
  EXPECT_EQ(got, want);
}

TEST(LintAllowlist, AllowInsideStringNeverRegisters) {
  // An nlss-lint marker inside a string literal is data, not a
  // suppression: it neither allows anything nor counts as a stale entry.
  EXPECT_TRUE(
      LintText("x.cpp",
               "const char* s = \"// nlss-lint: allow(rand)\";\n")
          .empty());
  // And it does not suppress a real finding on the next line.
  const auto findings = LintText(
      "x.cpp",
      "const char* s = \"nlss-lint: allow(rand)\";\n"
      "int r = std::rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rand");
}

TEST(LintClean, CleanFixtureAndStrippedContexts) {
  EXPECT_TRUE(LintFixture("clean.cpp").empty());
  // Rule tokens inside comments and strings never fire.
  EXPECT_TRUE(LintText("y.cpp", "// std::rand steady_clock\n").empty());
  EXPECT_TRUE(
      LintText("y.cpp", "const char* s = \"srand(1) gettimeofday\";\n").empty());
  EXPECT_TRUE(LintText("y.cpp",
                       "const char* r = R\"(std::random_device rd;)\";\n")
                  .empty());
}

TEST(LintFormat, FileLineRuleMessage) {
  Finding f;
  f.file = "src/a.cpp";
  f.line = 7;
  f.rule = "rand";
  f.message = "msg";
  EXPECT_EQ(nlss::lint::FormatFinding(f), "src/a.cpp:7: [rand] msg");
}

// The gate the `lint` CMake target enforces, run as a unit test so plain
// `ctest` catches regressions even when the lint target is not built.
TEST(LintTree, SourceTreeIsClean) {
  const std::string root = NLSS_LINT_SOURCE_ROOT;
  const auto findings = LintPaths(
      {root + "/src", root + "/bench", root + "/tests", root + "/examples"});
  for (const Finding& f : findings) {
    ADD_FAILURE() << nlss::lint::FormatFinding(f);
  }
  EXPECT_TRUE(findings.empty());
}

TEST(LintTree, FixtureDirectoryIsSkippedByRecursion) {
  const std::string root = NLSS_LINT_SOURCE_ROOT;
  const auto findings = LintPaths({root + "/tests"});
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file.find("lint_fixtures"), std::string::npos)
        << nlss::lint::FormatFinding(f);
  }
}

TEST(LintTree, EveryRuleHasAFiringFixture) {
  // Meta-check: the fixture suite exercises every published rule.
  std::set<std::string> fired;
  for (const char* name :
       {"bad_wallclock.cpp", "bad_rand.cpp", "bad_rng_seed.cpp",
        "bad_unordered_iter.cpp", "bad_pointer_key.cpp",
        "bad_bare_write.cpp", "bad_bare_coalesced_write.cpp",
        "bad_unchecked_status.cpp", "bad_same_tick_chain.cpp",
        "bad_float_accumulate.cpp", "bad_stale_allow.cpp"}) {
    for (const Finding& f : LintFixture(name)) fired.insert(f.rule);
  }
  // std-function is path-scoped to src/, so lint its fixture there.
  for (const Finding& f :
       LintText("src/cache/bad_std_function.cpp",
                ReadFile(FixturePath("bad_std_function.cpp")))) {
    fired.insert(f.rule);
  }
  for (const std::string& rule : nlss::lint::RuleNames()) {
    EXPECT_TRUE(fired.count(rule)) << "no fixture fires rule: " << rule;
  }
}

}  // namespace
