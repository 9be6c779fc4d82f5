// Fixture: a header declaring an unordered member (paired_member.cpp
// iterates it).
#pragma once

#include <cstdint>
#include <unordered_map>

class Ledger {
 public:
  std::uint64_t Total() const;

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> balances_;
};
