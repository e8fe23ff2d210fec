// Wire-taint fixture for header-only archives under src/codec/: a template
// decoder whose vec() sizes its output from an unguarded length
// determinant. Golden finding (expected.txt): the reserve() argument. The
// guarded twin below must stay silent — the count is bounded by the
// payload left before it sizes anything.
#pragma once

#include <cstddef>
#include <vector>

namespace flexric {

struct LengthReader {
  const std::size_t* length();
  std::size_t bits_remaining() const;
};

template <typename Elem>
class ForgetfulDec {
 public:
  template <typename T>
  void vec(std::vector<T>& v) {
    auto n = r_.length();
    v.reserve(*n);
  }

 private:
  LengthReader r_;
};

template <typename Elem>
class GuardedDec {
 public:
  template <typename T>
  void vec(std::vector<T>& v) {
    auto n = r_.length();
    if (*n > r_.bits_remaining() / sizeof(Elem)) return;
    v.reserve(*n);
  }

 private:
  LengthReader r_;
};

}  // namespace flexric
