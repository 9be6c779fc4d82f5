// Fixture: iterates a member declared unordered only in paired_member.h.
#include "paired_member.h"

std::uint64_t Ledger::Total() const {
  std::uint64_t total = 0;
  for (const auto& [id, balance] : balances_) {  // line 6: unordered-iter
    total += balance;
  }
  return total;
}
