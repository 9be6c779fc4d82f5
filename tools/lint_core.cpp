#include "lint_core.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace nlss::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Token occurrence with identifier-boundary checks on both sides.
std::size_t FindToken(const std::string& text, const std::string& token,
                      std::size_t from) {
  while (true) {
    const std::size_t pos = text.find(token, from);
    if (pos == std::string::npos) return std::string::npos;
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) return pos;
    from = pos + 1;
  }
}

std::size_t SkipSpace(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// Matches a '<' at `open` to its closing '>'.  Returns npos on imbalance.
std::size_t MatchAngle(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '<') ++depth;
    if (text[i] == '>') {
      if (--depth == 0) return i;
    }
    if (text[i] == ';') return std::string::npos;  // statement ended: not a type
  }
  return std::string::npos;
}

std::size_t MatchParen(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') {
      if (--depth == 0) return i;
    }
  }
  return std::string::npos;
}

std::size_t MatchBrace(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}') {
      if (--depth == 0) return i;
    }
  }
  return std::string::npos;
}

std::size_t MatchBracket(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '[') ++depth;
    if (text[i] == ']') {
      if (--depth == 0) return i;
    }
  }
  return std::string::npos;
}

/// Replace comments and string/character literals with spaces, preserving
/// offsets and newlines so line numbers survive.
std::string Strip(const std::string& text) {
  std::string out = text;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State st = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && next == '/') {
          st = State::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          st = State::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !IsIdentChar(text[i - 1]))) {
          const std::size_t paren = text.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + text.substr(i + 2, paren - (i + 2)) + "\"";
            for (std::size_t k = i; k <= paren; ++k) out[k] = ' ';
            i = paren;
            st = State::kRaw;
          }
        } else if (c == '"') {
          st = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          st = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLine:
        if (c == '\n') {
          st = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\0' && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          out[i] = ' ';
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\0' && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          out[i] = ' ';
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRaw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) out[i + k] = ' ';
          i += raw_delim.size() - 1;
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

/// Inverse of Strip: keep comment interiors, blank code, strings, and the
/// comment delimiters themselves (newlines and offsets survive).  The
/// allowlist is parsed from this projection, so an `nlss-lint:` marker
/// inside a string literal — e.g. the lint's own tests — never registers a
/// suppression (and can never be reported stale).
std::string CommentProjection(const std::string& text) {
  std::string out = text;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State st = State::kCode;
  std::string raw_delim;
  const auto blank = [&out](std::size_t i) {
    if (out[i] != '\n') out[i] = ' ';
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && next == '/') {
          st = State::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          st = State::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !IsIdentChar(text[i - 1]))) {
          const std::size_t paren = text.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + text.substr(i + 2, paren - (i + 2)) + "\"";
            for (std::size_t k = i; k <= paren; ++k) blank(k);
            i = paren;
            st = State::kRaw;
          } else {
            blank(i);
          }
        } else if (c == '"') {
          st = State::kString;
          blank(i);
        } else if (c == '\'') {
          st = State::kChar;
          blank(i);
        } else {
          blank(i);
        }
        break;
      case State::kLine:
        if (c == '\n') st = State::kCode;  // keep the comment text itself
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          st = State::kCode;
        }
        break;
      case State::kString:
        if (c == '\\') {
          blank(i);
          if (next != '\0' && next != '\n') {
            blank(i + 1);
            ++i;
          }
        } else if (c == '"') {
          blank(i);
          st = State::kCode;
        } else {
          blank(i);
        }
        break;
      case State::kChar:
        if (c == '\\') {
          blank(i);
          if (next != '\0' && next != '\n') {
            blank(i + 1);
            ++i;
          }
        } else if (c == '\'') {
          blank(i);
          st = State::kCode;
        } else {
          blank(i);
        }
        break;
      case State::kRaw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) blank(i + k);
          i += raw_delim.size() - 1;
          st = State::kCode;
        } else {
          blank(i);
        }
        break;
    }
  }
  return out;
}

struct LineIndex {
  std::vector<std::size_t> starts;  // starts[k] = offset of line k (0-based)
  explicit LineIndex(const std::string& text) {
    starts.push_back(0);
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\n') starts.push_back(i + 1);
    }
  }
  int LineOf(std::size_t offset) const {
    const auto it =
        std::upper_bound(starts.begin(), starts.end(), offset) - 1;
    return static_cast<int>(it - starts.begin()) + 1;
  }
};

/// One suppression parsed from a comment.  Entries carry a `used` flag so
/// the stale-allow rule can report suppressions that no longer suppress
/// anything (and allow comments naming rules that do not exist).
struct AllowEntry {
  std::string rule;
  bool file_wide = false;
  int line = 0;  // line of the comment; covers itself and the next line
  bool used = false;
};

struct Allowlist {
  std::vector<AllowEntry> entries;

  bool Allows(const std::string& rule, int line) {
    bool ok = false;
    for (AllowEntry& e : entries) {
      if (e.rule != rule) continue;
      if (e.file_wide || e.line == line || e.line + 1 == line) {
        e.used = true;
        ok = true;
      }
    }
    return ok;
  }
};

/// Parse suppressions from the comment projection (never from code or
/// string literals).
Allowlist ParseAllowlist(const std::string& comments) {
  Allowlist allow;
  const LineIndex idx(comments);
  std::size_t pos = 0;
  while ((pos = comments.find("nlss-lint:", pos)) != std::string::npos) {
    std::size_t p = SkipSpace(comments, pos + 10);
    bool file_wide = false;
    if (comments.compare(p, 10, "allow-file") == 0) {
      file_wide = true;
      p += 10;
    } else if (comments.compare(p, 5, "allow") == 0) {
      p += 5;
    } else {
      pos = p;
      continue;
    }
    p = SkipSpace(comments, p);
    if (p >= comments.size() || comments[p] != '(') {
      pos = p;
      continue;
    }
    const std::size_t close = comments.find(')', p);
    if (close == std::string::npos) break;
    std::string rules = comments.substr(p + 1, close - p - 1);
    std::stringstream ss(rules);
    std::string rule;
    const int line = idx.LineOf(pos);
    while (std::getline(ss, rule, ',')) {
      rule.erase(0, rule.find_first_not_of(" \t"));
      rule.erase(rule.find_last_not_of(" \t") + 1);
      if (rule.empty()) continue;
      // A line-scoped allow covers its own line and the one below it, so
      // it can sit inline or on the preceding line.
      allow.entries.push_back(AllowEntry{rule, file_wide, line, false});
    }
    pos = close;
  }
  return allow;
}

/// Names declared with an unordered container type (members, locals,
/// parameters) plus type aliases of unordered containers.
struct UnorderedNames {
  std::set<std::string> vars;
  std::set<std::string> aliases;
};

const char* kUnorderedTypes[] = {"unordered_map", "unordered_multimap",
                                 "unordered_set", "unordered_multiset"};

/// Reads the identifier declared after a type that ends at `after_type`
/// (skips &, *, const).  Empty if none.
std::string DeclaredName(const std::string& text, std::size_t after_type) {
  std::size_t p = SkipSpace(text, after_type);
  while (p < text.size()) {
    if (text[p] == '&' || text[p] == '*') {
      p = SkipSpace(text, p + 1);
      continue;
    }
    if (text.compare(p, 5, "const") == 0 &&
        (p + 5 >= text.size() || !IsIdentChar(text[p + 5]))) {
      p = SkipSpace(text, p + 5);
      continue;
    }
    break;
  }
  std::string name;
  while (p < text.size() && IsIdentChar(text[p])) name.push_back(text[p++]);
  if (!name.empty() &&
      std::isdigit(static_cast<unsigned char>(name[0])) != 0) {
    return {};
  }
  return name;
}

/// True if the text right before `pos` is `using IDENT =` (alias decl);
/// returns IDENT.
std::string AliasNameBefore(const std::string& text, std::size_t pos) {
  std::size_t p = pos;
  auto skip_back_space = [&] {
    while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1]))) {
      --p;
    }
  };
  skip_back_space();
  // Optionally "std::" qualification between '=' and the type.
  if (p >= 5 && text.compare(p - 5, 5, "std::") == 0) {
    p -= 5;
    skip_back_space();
  }
  if (p == 0 || text[p - 1] != '=') return {};
  --p;
  skip_back_space();
  std::size_t end = p;
  while (p > 0 && IsIdentChar(text[p - 1])) --p;
  if (p == end) return {};
  const std::string ident = text.substr(p, end - p);
  std::size_t q = p;
  while (q > 0 && std::isspace(static_cast<unsigned char>(text[q - 1]))) --q;
  if (q >= 5 && text.compare(q - 5, 5, "using") == 0) return ident;
  return {};
}

UnorderedNames CollectUnordered(const std::string& text) {
  UnorderedNames names;
  for (const char* type : kUnorderedTypes) {
    std::size_t pos = 0;
    while ((pos = FindToken(text, type, pos)) != std::string::npos) {
      const std::size_t after = SkipSpace(text, pos + std::string(type).size());
      if (after >= text.size() || text[after] != '<') {
        ++pos;
        continue;
      }
      const std::string alias = AliasNameBefore(text, pos);
      const std::size_t close = MatchAngle(text, after);
      if (close == std::string::npos) {
        ++pos;
        continue;
      }
      if (!alias.empty()) {
        names.aliases.insert(alias);
      } else {
        const std::string var = DeclaredName(text, close + 1);
        if (!var.empty()) names.vars.insert(var);
      }
      pos = close;
    }
  }
  // Declarations through a collected alias: `PageMap cache_;`
  for (const std::string& alias : names.aliases) {
    std::size_t pos = 0;
    while ((pos = FindToken(text, alias, pos)) != std::string::npos) {
      const std::string var = DeclaredName(text, pos + alias.size());
      if (!var.empty() && var != alias) names.vars.insert(var);
      pos += alias.size();
    }
  }
  return names;
}

/// Trailing container identifier of a range-for expression: `obj.member_`
/// -> member_, `arr[i]` -> arr, `*p` -> p.  Empty when unresolvable.
std::string TrailingIdentifier(std::string expr) {
  while (!expr.empty() &&
         std::isspace(static_cast<unsigned char>(expr.back())) != 0) {
    expr.pop_back();
  }
  // Strip one trailing [index].
  if (!expr.empty() && expr.back() == ']') {
    int depth = 0;
    std::size_t i = expr.size();
    while (i > 0) {
      --i;
      if (expr[i] == ']') ++depth;
      if (expr[i] == '[' && --depth == 0) break;
    }
    expr.resize(i);
  }
  if (expr.empty() || expr.back() == ')') return {};
  std::size_t end = expr.size();
  std::size_t begin = end;
  while (begin > 0 && IsIdentChar(expr[begin - 1])) --begin;
  return expr.substr(begin, end - begin);
}

/// Names declared with float/double type (members, locals, parameters) —
/// the accumulator candidates the float-accumulate rule watches.
std::set<std::string> CollectFloats(const std::string& text) {
  std::set<std::string> names;
  for (const char* type : {"float", "double"}) {
    const std::size_t len = std::string(type).size();
    std::size_t pos = 0;
    while ((pos = FindToken(text, type, pos)) != std::string::npos) {
      const std::string var = DeclaredName(text, pos + len);
      if (!var.empty()) names.insert(var);
      pos += len;
    }
  }
  return names;
}

struct RuleSink {
  const std::string& path;
  const LineIndex& idx;
  Allowlist& allow;  // non-const: suppressing a finding marks the entry used
  std::vector<Finding>& out;

  void Add(std::size_t offset, const std::string& rule,
           std::string message) {
    AddAtLine(idx.LineOf(offset), rule, std::move(message));
  }

  void AddAtLine(int line, const std::string& rule, std::string message) {
    if (allow.Allows(rule, line)) return;
    out.push_back(Finding{path, line, rule, std::move(message)});
  }
};

bool InSimDir(const std::string& path) {
  return path.find("src/sim/") != std::string::npos ||
         path.rfind("sim/", 0) == 0;
}

void RuleWallclock(const std::string& text, RuleSink& sink,
                   const std::string& path) {
  if (InSimDir(path)) return;  // the DES clock implementation itself
  static const char* kTokens[] = {"system_clock",    "steady_clock",
                                  "high_resolution_clock", "gettimeofday",
                                  "clock_gettime",   "localtime",
                                  "gmtime"};
  for (const char* tok : kTokens) {
    std::size_t pos = 0;
    while ((pos = FindToken(text, tok, pos)) != std::string::npos) {
      sink.Add(pos, "wallclock",
               std::string(tok) +
                   ": wall-clock time source outside src/sim; use the "
                   "sim::Engine clock");
      pos += 1;
    }
  }
}

/// A simulator source file: `src/<module>/<file>`.  The last `src/` in
/// the path decides, so a checkout under some other src/ directory still
/// leaves its tests, benches and examples out of scope.
bool InSrcModule(const std::string& path) {
  const std::size_t at = path.rfind("src/");
  if (at == std::string::npos || (at > 0 && path[at - 1] != '/')) {
    return false;
  }
  return std::count(path.begin() + static_cast<std::ptrdiff_t>(at) + 4,
                    path.end(), '/') == 1;
}

void RuleStdFunction(const std::string& text, RuleSink& sink,
                     const std::string& path) {
  if (!InSrcModule(path)) return;  // tests, benches, examples and tools
  std::size_t pos = 0;
  while ((pos = FindToken(text, "std::function", pos)) != std::string::npos) {
    sink.Add(pos, "std-function",
             "std::function in src/: use the move-only util::Function "
             "(util::FunctionRef for a synchronous visitor)");
    pos += 1;
  }
}

void RuleRand(const std::string& text, RuleSink& sink) {
  static const char* kTokens[] = {"random_device", "srand", "drand48"};
  for (const char* tok : kTokens) {
    std::size_t pos = 0;
    while ((pos = FindToken(text, tok, pos)) != std::string::npos) {
      sink.Add(pos, "rand",
               std::string(tok) +
                   ": unseeded/global randomness; draw from a seeded "
                   "util::Rng stream");
      pos += 1;
    }
  }
  // Bare rand( — only the call form, so identifiers like `brand` or
  // members like `rng.rand` stay quiet (token boundaries handle those).
  std::size_t pos = 0;
  while ((pos = FindToken(text, "rand", pos)) != std::string::npos) {
    const std::size_t after = SkipSpace(text, pos + 4);
    if (after < text.size() && text[after] == '(') {
      sink.Add(pos,
               "rand", "std::rand: global PRNG; draw from a seeded "
               "util::Rng stream");
    }
    pos += 1;
  }
}

void RuleRngSeed(const std::string& text, RuleSink& sink) {
  static const char* kEngines[] = {"mt19937",      "mt19937_64",
                                   "minstd_rand",  "minstd_rand0",
                                   "ranlux24",     "ranlux48",
                                   "knuth_b"};
  for (const char* eng : kEngines) {
    std::size_t pos = 0;
    while ((pos = FindToken(text, eng, pos)) != std::string::npos) {
      std::size_t p = SkipSpace(text, pos + std::string(eng).size());
      // Temporary: mt19937{} / mt19937()
      if (p + 1 < text.size() &&
          ((text[p] == '{' && SkipSpace(text, p + 1) < text.size() &&
            text[SkipSpace(text, p + 1)] == '}') ||
           (text[p] == '(' && SkipSpace(text, p + 1) < text.size() &&
            text[SkipSpace(text, p + 1)] == ')'))) {
        sink.Add(pos, "rng-seed",
                 std::string(eng) + ": default-constructed engine uses a "
                                    "fixed implicit seed; pass an explicit "
                                    "seed (or use util::Rng)");
        pos += 1;
        continue;
      }
      // Declaration: mt19937 g;  /  mt19937 g{};  /  mt19937 g();
      std::string var;
      while (p < text.size() && IsIdentChar(text[p])) var.push_back(text[p++]);
      if (!var.empty()) {
        p = SkipSpace(text, p);
        const bool bare = p < text.size() && text[p] == ';';
        const bool empty_braces =
            p + 1 < text.size() && text[p] == '{' &&
            text[SkipSpace(text, p + 1)] == '}';
        const bool empty_parens =
            p + 1 < text.size() && text[p] == '(' &&
            text[SkipSpace(text, p + 1)] == ')';
        if (bare || empty_braces || empty_parens) {
          sink.Add(pos, "rng-seed",
                   std::string(eng) + " " + var +
                       ": engine constructed without an explicit seed");
        }
      }
      pos += 1;
    }
  }
  std::size_t pos = 0;
  while ((pos = FindToken(text, "default_random_engine", pos)) !=
         std::string::npos) {
    sink.Add(pos, "rng-seed",
             "default_random_engine: implementation-defined sequence is not "
             "reproducible across toolchains; use util::Rng");
    pos += 1;
  }
}

void RuleUnorderedIter(const std::string& text, RuleSink& sink,
                       const UnorderedNames& names) {
  // Range-for over a known-unordered name.
  std::size_t pos = 0;
  while ((pos = FindToken(text, "for", pos)) != std::string::npos) {
    const std::size_t open = SkipSpace(text, pos + 3);
    if (open >= text.size() || text[open] != '(') {
      ++pos;
      continue;
    }
    const std::size_t close = MatchParen(text, open);
    if (close == std::string::npos) {
      ++pos;
      continue;
    }
    const std::string inner = text.substr(open + 1, close - open - 1);
    // Find the range-for ':' — a single colon at paren/angle depth 0.
    int pd = 0;
    std::size_t colon = std::string::npos;
    for (std::size_t i = 0; i < inner.size(); ++i) {
      const char c = inner[i];
      if (c == '(' || c == '[' || c == '{') ++pd;
      if (c == ')' || c == ']' || c == '}') --pd;
      if (c == ':' && pd == 0) {
        if ((i + 1 < inner.size() && inner[i + 1] == ':') ||
            (i > 0 && inner[i - 1] == ':')) {
          continue;  // scope operator
        }
        colon = i;
        break;
      }
    }
    if (colon != std::string::npos) {
      const std::string name = TrailingIdentifier(inner.substr(colon + 1));
      if (!name.empty() && names.vars.count(name) > 0) {
        sink.Add(pos, "unordered-iter",
                 "iteration over unordered container '" + name +
                     "': hash order feeds downstream state; use an ordered "
                     "container or allowlist an order-insensitive reduction");
      }
    }
    pos = close;
  }
  // Iterator loops: name.begin() / name->begin() / cbegin.
  for (const std::string& name : names.vars) {
    for (const char* deref : {".", "->"}) {
      for (const char* b : {"begin", "cbegin"}) {
        const std::string pat = name + deref + b;
        std::size_t p = 0;
        while ((p = text.find(pat, p)) != std::string::npos) {
          const bool left_ok = p == 0 || !IsIdentChar(text[p - 1]);
          const std::size_t after = SkipSpace(text, p + pat.size());
          if (left_ok && after < text.size() && text[after] == '(') {
            sink.Add(p, "unordered-iter",
                     "iterator walk over unordered container '" + name +
                         "': hash order feeds downstream state");
          }
          p += pat.size();
        }
      }
    }
  }
}

void RulePointerKey(const std::string& text, RuleSink& sink) {
  static const char* kOrdered[] = {"map", "multimap", "set", "multiset",
                                   "priority_queue"};
  for (const char* type : kOrdered) {
    std::size_t pos = 0;
    while ((pos = FindToken(text, type, pos)) != std::string::npos) {
      // Require std:: qualification so domain types named map/set pass.
      if (pos < 5 || text.compare(pos - 5, 5, "std::") != 0) {
        ++pos;
        continue;
      }
      const std::size_t open = SkipSpace(text, pos + std::string(type).size());
      if (open >= text.size() || text[open] != '<') {
        ++pos;
        continue;
      }
      const std::size_t close = MatchAngle(text, open);
      if (close == std::string::npos) {
        ++pos;
        continue;
      }
      // First template argument, up to a depth-0 comma.
      std::string first;
      int depth = 0;
      for (std::size_t i = open + 1; i < close; ++i) {
        const char c = text[i];
        if (c == '<' || c == '(') ++depth;
        if (c == '>' || c == ')') --depth;
        if (c == ',' && depth == 0) break;
        first.push_back(c);
      }
      while (!first.empty() &&
             std::isspace(static_cast<unsigned char>(first.back())) != 0) {
        first.pop_back();
      }
      if (!first.empty() && first.back() == '*') {
        sink.Add(pos, "pointer-key",
                 "std::" + std::string(type) + "<" + first +
                     ", ...>: ordering by pointer value is address-dependent "
                     "and varies run to run; key by a stable id");
      }
      pos = close;
    }
  }
}

void RuleBareWrite(const std::string& text, RuleSink& sink) {
  // Every blade-entry write (BladeWrite / WriteVia) must carry a write id
  // so the blade-side dedup index keeps retried/hedged writes
  // exactly-once.  The same goes for the cache-entry replicated write
  // (WriteWithReplication): the flush coalescer stamps each frame with its
  // representative (writer, seq), so an unattributed call would leave
  // frames the coalescer cannot audit.  Token-level: the argument list (or
  // parameter list — declarations name their WriteId parameter, so they
  // pass) must mention a WriteId/wid/write_id token.
  static const char* kEntries[] = {"BladeWrite", "WriteVia",
                                   "WriteWithReplication"};
  static const char* kIdTokens[] = {"WriteId", "wid", "write_id"};
  for (const char* fn : kEntries) {
    std::size_t pos = 0;
    while ((pos = FindToken(text, fn, pos)) != std::string::npos) {
      const std::size_t open = SkipSpace(text, pos + std::string(fn).size());
      if (open >= text.size() || text[open] != '(') {
        ++pos;
        continue;
      }
      const std::size_t close = MatchParen(text, open);
      if (close == std::string::npos) {
        ++pos;
        continue;
      }
      const std::string args = text.substr(open + 1, close - open - 1);
      bool has_id = false;
      for (const char* tok : kIdTokens) {
        if (FindToken(args, tok, 0) != std::string::npos) {
          has_id = true;
          break;
        }
      }
      if (!has_id) {
        sink.Add(pos, "bare-write",
                 std::string(fn) +
                     " call without a write id: blade-entry writes must "
                     "pass a cache::WriteId so re-drives and hedges "
                     "deduplicate exactly-once");
      }
      pos = close;
    }
  }
}

// --- Flow-aware rules -------------------------------------------------------
//
// The three rules below walk statement/scope structure (brace matching,
// receiver chains, loop bodies) instead of bare tokens, plus stale-allow,
// which audits the suppression comments themselves.

/// True when the call whose callee token starts at `pos` stands alone as a
/// statement, i.e. its result is discarded: walking backwards over the
/// receiver chain (`obj.` / `ptr->` / `ns::`, with `[...]` / `(...)`
/// trailers) lands on ';', '{', or '}'.  Anything else before the chain —
/// `=`, `return`, `!`, `if (`, a declaration's type name, a `(void)` cast —
/// means the result is consumed (or acknowledged).
bool DiscardedAtStatement(const std::string& text, std::size_t pos) {
  std::size_t p = pos;
  while (true) {
    while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1]))) {
      --p;
    }
    if (p == 0) return true;
    const char c = text[p - 1];
    if (c == ';' || c == '{' || c == '}') return true;
    std::size_t joiner = 0;
    if (c == '.') {
      joiner = 1;
    } else if (c == '>' && p >= 2 && text[p - 2] == '-') {
      joiner = 2;
    } else if (c == ':' && p >= 2 && text[p - 2] == ':') {
      joiner = 2;
    } else {
      return false;
    }
    p -= joiner;
    // Consume one receiver element backwards: trailing (...)/[...] groups,
    // then the identifier that anchors them.
    while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1]))) {
      --p;
    }
    while (p > 0 && (text[p - 1] == ']' || text[p - 1] == ')')) {
      const char close = text[p - 1];
      const char open = close == ']' ? '[' : '(';
      int depth = 0;
      std::size_t q = p;
      while (q > 0) {
        --q;
        if (text[q] == close) ++depth;
        if (text[q] == open && --depth == 0) break;
      }
      if (depth != 0) return false;
      p = q;
      while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1]))) {
        --p;
      }
    }
    while (p > 0 && IsIdentChar(text[p - 1])) --p;
  }
}

/// Immediate receiver identifier before a `.` / `->` member call at `pos`
/// (`qos_->Submit` -> "qos_"); empty for a bare call.
std::string ReceiverBefore(const std::string& text, std::size_t pos) {
  std::size_t p = pos;
  while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1]))) --p;
  if (p >= 1 && text[p - 1] == '.') {
    p -= 1;
  } else if (p >= 2 && text[p - 1] == '>' && text[p - 2] == '-') {
    p -= 2;
  } else {
    return {};
  }
  while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1]))) --p;
  const std::size_t end = p;
  while (p > 0 && IsIdentChar(text[p - 1])) --p;
  return text.substr(p, end - p);
}

void RuleUncheckedStatus(const std::string& text, RuleSink& sink) {
  // Error-carrying entry points whose refusal is the whole point: QoS
  // admission, tier hooks, clean-frame stealing, namespace bootstrap and
  // rebalance.  A discarded result means the caller proceeds as if
  // admitted/placed, so only a consumed result (or an explicit `(void)`
  // cast) passes.  `Submit` is ambiguous (thread pool and initiator have
  // void Submits), so it is gated on a qos/sched-named receiver.
  struct CheckedFn {
    const char* name;
    bool needs_qos_receiver;
  };
  static const CheckedFn kFns[] = {
      {"Submit", true},          {"TryHedge", false},
      {"TierRead", false},       {"TierWriteBack", false},
      {"StealCleanFrame", false}, {"MoveDirectory", false},
      {"BootstrapMkdir", false}, {"BootstrapCreate", false},
  };
  for (const CheckedFn& fn : kFns) {
    std::size_t pos = 0;
    while ((pos = FindToken(text, fn.name, pos)) != std::string::npos) {
      const std::size_t open =
          SkipSpace(text, pos + std::string(fn.name).size());
      if (open >= text.size() || text[open] != '(') {
        ++pos;
        continue;
      }
      const std::size_t close = MatchParen(text, open);
      if (close == std::string::npos) {
        ++pos;
        continue;
      }
      const std::size_t after = SkipSpace(text, close + 1);
      if (after >= text.size() || text[after] != ';' ||
          !DiscardedAtStatement(text, pos)) {
        pos = open;
        continue;
      }
      if (fn.needs_qos_receiver) {
        std::string recv = ReceiverBefore(text, pos);
        std::transform(recv.begin(), recv.end(), recv.begin(), [](char c) {
          return static_cast<char>(
              std::tolower(static_cast<unsigned char>(c)));
        });
        if (recv.find("qos") == std::string::npos &&
            recv.find("sched") == std::string::npos) {
          pos = open;
          continue;
        }
      }
      sink.Add(pos, "unchecked-status",
               std::string(fn.name) +
                   " result discarded: the return value reports "
                   "rejection/failure, and proceeding as if it succeeded "
                   "desynchronizes the run; check it (or cast to (void) "
                   "with a justifying comment)");
      pos = open;
    }
  }
}

const char* kMutatingMethods[] = {"push_back", "pop_back", "erase",
                                  "insert",    "emplace",  "emplace_back",
                                  "clear",     "resize",   "assign",
                                  "push",      "pop"};

/// Offset of the first member-state mutation in `body` (trailing-underscore
/// identifier written through =, op=, ++/--, or a mutating container
/// method); npos when none.
std::size_t FindMemberMutation(const std::string& body) {
  std::size_t i = 0;
  while (i < body.size()) {
    if (!IsIdentChar(body[i]) || (i > 0 && IsIdentChar(body[i - 1]))) {
      ++i;
      continue;
    }
    std::size_t e = i;
    while (e < body.size() && IsIdentChar(body[e])) ++e;
    if (body[e - 1] != '_') {
      i = e;
      continue;
    }
    // Prefix increment/decrement: ++stats_.x
    std::size_t b = i;
    while (b > 0 && std::isspace(static_cast<unsigned char>(body[b - 1]))) {
      --b;
    }
    if (b >= 2 && ((body[b - 1] == '+' && body[b - 2] == '+') ||
                   (body[b - 1] == '-' && body[b - 2] == '-'))) {
      return i;
    }
    // Walk the member path (stats_.hits.x / obj_->field) to the operator.
    std::size_t p = e;
    std::string last = body.substr(i, e - i);
    while (true) {
      p = SkipSpace(body, p);
      std::size_t j = 0;
      if (p < body.size() && body[p] == '.') {
        j = 1;
      } else if (p + 1 < body.size() && body[p] == '-' &&
                 body[p + 1] == '>') {
        j = 2;
      } else {
        break;
      }
      p = SkipSpace(body, p + j);
      const std::size_t s = p;
      while (p < body.size() && IsIdentChar(body[p])) ++p;
      if (p == s) break;
      last = body.substr(s, p - s);
    }
    p = SkipSpace(body, p);
    if (p < body.size()) {
      const char c = body[p];
      const char n = p + 1 < body.size() ? body[p + 1] : '\0';
      const bool assign = c == '=' && n != '=';
      const bool op_assign = n == '=' && (c == '+' || c == '-' || c == '*' ||
                                          c == '/' || c == '%' || c == '|' ||
                                          c == '&' || c == '^');
      const bool incdec = (c == '+' && n == '+') || (c == '-' && n == '-');
      if (assign || op_assign || incdec) return i;
      if (c == '(') {
        for (const char* m : kMutatingMethods) {
          if (last == m) return i;
        }
      }
    }
    i = e;
  }
  return std::string::npos;
}

void RuleSameTickChain(const std::string& text, RuleSink& sink) {
  // Schedule(0, ...) chains a same-tick event: under schedule perturbation
  // it is reorderable against every other causally-unrelated event on the
  // same tick, so a chained lambda that mutates member state is exactly
  // where a digest can silently fork.  Such lambdas must either carry an
  // NLSS_ACCESS tag (so the race detector adjudicates the interleaving) or
  // be allowlisted as proven commutative.
  std::size_t pos = 0;
  while ((pos = FindToken(text, "Schedule", pos)) != std::string::npos) {
    const std::size_t open = SkipSpace(text, pos + 8);
    if (open >= text.size() || text[open] != '(') {
      ++pos;
      continue;
    }
    const std::size_t close = MatchParen(text, open);
    if (close == std::string::npos) {
      ++pos;
      continue;
    }
    // First argument must be the literal 0 (a same-tick chain).
    std::size_t a = SkipSpace(text, open + 1);
    if (a >= text.size() || text[a] != '0' ||
        (a + 1 < text.size() && IsIdentChar(text[a + 1]))) {
      pos = open;
      continue;
    }
    const std::size_t comma = SkipSpace(text, a + 1);
    if (comma >= text.size() || text[comma] != ',') {
      pos = open;
      continue;
    }
    // Inline lambda: capture list, optional params/specifiers, body.
    const std::size_t lb = text.find('[', comma);
    if (lb == std::string::npos || lb > close) {
      pos = open;
      continue;
    }
    const std::size_t rb = MatchBracket(text, lb);
    if (rb == std::string::npos || rb > close) {
      pos = open;
      continue;
    }
    const std::size_t bo = text.find('{', rb);
    if (bo == std::string::npos || bo > close) {
      pos = open;
      continue;
    }
    const std::size_t bc = MatchBrace(text, bo);
    if (bc == std::string::npos) {
      pos = open;
      continue;
    }
    const std::string body = text.substr(bo + 1, bc - bo - 1);
    if (FindToken(body, "NLSS_ACCESS", 0) == std::string::npos) {
      const std::size_t mut = FindMemberMutation(body);
      if (mut != std::string::npos) {
        std::size_t me = mut;
        while (me < body.size() && IsIdentChar(body[me])) ++me;
        sink.Add(pos, "same-tick-chain",
                 "Schedule(0, ...) lambda mutates member state ('" +
                     body.substr(mut, me - mut) +
                     "') without an NLSS_ACCESS tag: same-tick chained "
                     "events reorder under perturbation; tag the access or "
                     "allowlist a proven-commutative update");
      }
    }
    pos = open;
  }
}

void RuleFloatAccumulate(const std::string& text, RuleSink& sink,
                         const std::set<std::string>& floats) {
  // FP addition does not associate, so accumulating float/double inside a
  // range-for bakes the iteration order into the digest bit-for-bit —
  // fragile when the sequence is filled in completion order (which shifts
  // under schedule perturbation).  Accumulate in integers (ticks/bytes),
  // sort first, or allowlist a provably order-independent reduction.
  if (floats.empty()) return;
  std::size_t pos = 0;
  while ((pos = FindToken(text, "for", pos)) != std::string::npos) {
    const std::size_t open = SkipSpace(text, pos + 3);
    if (open >= text.size() || text[open] != '(') {
      ++pos;
      continue;
    }
    const std::size_t close = MatchParen(text, open);
    if (close == std::string::npos) {
      ++pos;
      continue;
    }
    const std::string inner = text.substr(open + 1, close - open - 1);
    // Range-for: a single ':' at bracket depth 0 (not a scope operator).
    int pd = 0;
    std::size_t colon = std::string::npos;
    for (std::size_t i = 0; i < inner.size(); ++i) {
      const char c = inner[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++pd;
      if (c == ')' || c == ']' || c == '}' || c == '>') --pd;
      if (c == ':' && pd == 0) {
        if ((i + 1 < inner.size() && inner[i + 1] == ':') ||
            (i > 0 && inner[i - 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) {
      pos = open;
      continue;
    }
    const std::size_t bo = SkipSpace(text, close + 1);
    if (bo >= text.size() || text[bo] != '{') {
      pos = open;
      continue;
    }
    const std::size_t bc = MatchBrace(text, bo);
    if (bc == std::string::npos) {
      pos = open;
      continue;
    }
    const std::string body = text.substr(bo + 1, bc - bo - 1);
    for (const std::string& name : floats) {
      std::size_t p = 0;
      while ((p = FindToken(body, name, p)) != std::string::npos) {
        const std::size_t after = SkipSpace(body, p + name.size());
        bool hit = false;
        if (after + 1 < body.size() && body[after] == '+' &&
            body[after + 1] == '=') {
          hit = true;
        } else if (after + 1 < body.size() && body[after] == '=' &&
                   body[after + 1] != '=') {
          // name = name + ...
          const std::size_t rhs = SkipSpace(body, after + 1);
          if (body.compare(rhs, name.size(), name) == 0 &&
              (rhs + name.size() >= body.size() ||
               !IsIdentChar(body[rhs + name.size()]))) {
            const std::size_t plus = SkipSpace(body, rhs + name.size());
            if (plus < body.size() && body[plus] == '+') hit = true;
          }
        }
        if (hit) {
          sink.Add(bo + 1 + p, "float-accumulate",
                   "'" + name +
                       "' accumulates floating point inside a range-for: "
                       "FP addition is order-sensitive, so iteration order "
                       "feeds the digest; accumulate in integers, sort "
                       "first, or allowlist an order-independent reduction");
        }
        p += name.size();
      }
    }
    pos = open;
  }
}

/// Audits the suppressions themselves, after every other rule has run:
/// an allow that suppressed nothing is dead weight (the code it excused is
/// gone or fixed), and an allow naming an unknown rule suppresses nothing
/// silently.  Runs last so `used` flags reflect the whole file.
void RuleStaleAllow(Allowlist& allow, RuleSink& sink) {
  const std::vector<std::string>& known = RuleNames();
  for (std::size_t i = 0; i < allow.entries.size(); ++i) {
    const AllowEntry e = allow.entries[i];  // copy: Allows() mutates flags
    const std::string form =
        (e.file_wide ? "allow-file(" : "allow(") + e.rule + ")";
    if (std::find(known.begin(), known.end(), e.rule) == known.end()) {
      sink.AddAtLine(e.line, "stale-allow",
                     form + ": unknown rule name — this suppresses nothing");
      continue;
    }
    // Re-read the flag at visit time: an earlier stale finding may have
    // consumed an allow(stale-allow) entry that sits later in the file.
    if (!allow.entries[i].used) {
      sink.AddAtLine(e.line, "stale-allow",
                     form + ": suppression no longer fires; remove it");
    }
  }
}

}  // namespace

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> kRules = {
      "wallclock",      "rand",
      "rng-seed",       "unordered-iter",
      "pointer-key",    "bare-write",
      "std-function",   "unchecked-status",
      "same-tick-chain", "float-accumulate",
      "stale-allow"};
  return kRules;
}

std::vector<Finding> LintText(const std::string& path,
                              const std::string& text,
                              const std::string& header) {
  std::vector<Finding> findings;
  Allowlist allow = ParseAllowlist(CommentProjection(text));
  const std::string stripped = Strip(text);
  const LineIndex idx(stripped);
  RuleSink sink{path, idx, allow, findings};
  UnorderedNames names = CollectUnordered(stripped);
  if (!header.empty()) {
    const UnorderedNames declared = CollectUnordered(Strip(header));
    names.vars.insert(declared.vars.begin(), declared.vars.end());
    names.aliases.insert(declared.aliases.begin(), declared.aliases.end());
  }
  const std::set<std::string> floats = CollectFloats(stripped);
  RuleWallclock(stripped, sink, path);
  RuleRand(stripped, sink);
  RuleRngSeed(stripped, sink);
  RuleUnorderedIter(stripped, sink, names);
  RulePointerKey(stripped, sink);
  RuleBareWrite(stripped, sink);
  RuleStdFunction(stripped, sink, path);
  RuleUncheckedStatus(stripped, sink);
  RuleSameTickChain(stripped, sink);
  RuleFloatAccumulate(stripped, sink, floats);
  RuleStaleAllow(allow, sink);  // last: usage flags must be final
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  // Nested loops can surface one accumulation through several enclosing
  // range-fors; report each (line, rule) once.
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.line == b.line && a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

std::vector<Finding> LintPaths(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExts = {".h", ".hpp", ".cpp", ".cc",
                                              ".cxx"};
  static const std::set<std::string> kSkipDirs = {"build", ".git",
                                                  "lint_fixtures"};
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
      continue;
    }
    fs::recursive_directory_iterator it(root, ec), end;
    for (; !ec && it != end; it.increment(ec)) {
      if (it->is_directory() &&
          kSkipDirs.count(it->path().filename().string()) > 0) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() &&
          kExts.count(it->path().extension().string()) > 0) {
        files.push_back(it->path().string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  auto read = [](const fs::path& file) {
    std::ifstream in(file, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  std::vector<Finding> findings;
  for (const std::string& file : files) {
    // A source file iterates members its own header declares.
    fs::path header = file;
    header.replace_extension(".h");
    std::error_code ec;
    const std::string header_text =
        header != fs::path(file) && fs::is_regular_file(header, ec)
            ? read(header)
            : std::string();
    auto file_findings = LintText(file, read(file), header_text);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  return findings;
}

std::string FormatFinding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace nlss::lint
