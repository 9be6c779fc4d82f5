// An append-only vector whose first N elements live inline, so a short one
// never allocates; the rest spill to a std::vector.  Elements are reached
// by index.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace nlss::util {

template <typename T, std::size_t N>
class InlineVector {
 public:
  std::size_t size() const { return size_; }
  const T& operator[](std::size_t i) const {
    return i < N ? head_[i] : tail_[i - N];
  }
  void push_back(const T& value) {
    (size_ < N ? head_[size_] : tail_.emplace_back()) = value;
    ++size_;
  }

 private:
  std::array<T, N> head_;
  std::vector<T> tail_;
  std::size_t size_ = 0;
};

}  // namespace nlss::util
