// Determinism lint for the NLSS tree (tools/nlss_lint).
//
// Token/regex-level — no libclang.  The whole evaluation surface rests on
// same-seed bit-identical replay, so sources of nondeterminism are banned
// outright and enforced in CI:
//
//   wallclock       std::chrono::{system,steady,high_resolution}_clock,
//                   gettimeofday/clock_gettime/localtime/gmtime anywhere
//                   outside src/sim (the DES clock is the only time source).
//   rand            std::rand/srand/drand48 and std::random_device (seed
//                   entropy) — all randomness flows from seeded util::Rng.
//   rng-seed        default-constructed std engines (mt19937 g;) and
//                   default_random_engine (implementation-defined sequence).
//   unordered-iter  iteration over std::unordered_map/unordered_set.  In
//                   this codebase every side effect transitively feeds the
//                   observability digest (event ordering, metric text,
//                   traces), so hash-order iteration is flagged everywhere;
//                   provably order-insensitive reductions are allowlisted.
//   pointer-key     std::map/std::set/std::priority_queue ordered by a
//                   pointer key — address order varies run to run.
//   bare-write      BladeWrite/WriteVia call sites that don't pass a
//                   write id (WriteId/wid/write_id token in the argument
//                   list) — unattributed writes bypass the blade-side
//                   idempotency dedup, so a re-drive could apply twice.
//   std-function    std::function in a simulator source file
//                   (src/<module>/<file>): the simulator has one move-only
//                   callback type, util::Function, plus util::FunctionRef
//                   for synchronous visitors.  Tests, benches, examples
//                   and tools may use std::function.
//
// Flow-aware rules (brace matching, receiver chains, loop bodies — still
// no libclang):
//
//   unchecked-status  statement-position calls of error-carrying entry
//                     points (qos Submit/TryHedge, TierRead/TierWriteBack,
//                     StealCleanFrame, MoveDirectory, Bootstrap*) whose
//                     result is discarded; an unread refusal means the
//                     caller proceeds as if admitted.  `(void)` casts pass.
//   same-tick-chain   Schedule(0, ...) lambdas that mutate member state
//                     (trailing-underscore writes / mutating container
//                     calls) with no NLSS_ACCESS tag in the body — the
//                     exact spot where same-tick perturbation can fork the
//                     digest unobserved by the race detector.
//   float-accumulate  float/double accumulation (`x += e`, `x = x + e`)
//                     inside a range-for body: FP addition is
//                     order-sensitive, so iteration order feeds the digest.
//   stale-allow       suppression comments that suppressed nothing in this
//                     run (the code they excused is gone) or that name a
//                     rule that does not exist.
//
// Allowlist: `// nlss-lint: allow(rule)` on the offending line or the line
// above; `// nlss-lint: allow-file(rule)` anywhere for the whole file.
// Allows are parsed from comment text only (an `nlss-lint:` marker inside
// a string literal never registers), and every entry's usage is tracked so
// stale-allow keeps the suppression set minimal.  Comments and string
// literals are stripped before rule matching, so prose mentioning
// std::rand never trips a rule.
#pragma once

#include <string>
#include <vector>

namespace nlss::lint {

struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// All rule names, in report order.
const std::vector<std::string>& RuleNames();

/// Lint one file's text.  `path` drives path-scoped rules (wallclock is
/// permitted under src/sim, std-function applies only under src/) and is
/// echoed into findings.  `header` is the
/// text of the file's own header, if any: unordered containers it declares
/// count as unordered in `text` too (members iterated in the .cpp).
std::vector<Finding> LintText(const std::string& path,
                              const std::string& text,
                              const std::string& header = {});

/// Recursively lint .h/.hpp/.cpp/.cc files under each root (files are
/// accepted too).  Skips build/, .git/, and lint_fixtures/ directories.
/// Each source file is linted with the same-named .h beside it as its
/// header.  Results are sorted by (file, line) for deterministic output.
std::vector<Finding> LintPaths(const std::vector<std::string>& roots);

/// Render one finding as "file:line: [rule] message".
std::string FormatFinding(const Finding& f);

}  // namespace nlss::lint
