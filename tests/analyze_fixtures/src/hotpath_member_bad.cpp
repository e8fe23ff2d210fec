// Hot-path allocation reached through a member call. Golden finding
// (expected.txt): the @hotpath `Series::push` calls `ring_.push(...)` on a
// nested ring struct whose push grows a free list, so the member call
// carries the hot mark into `Ring::push`. The @coldpath `Ring::grow`
// allocates freely and must stay silent, and `ring_.drain()` reaches only
// the method `Ring::drain`, never the allocating free function `drain`.
#include <cstdint>
#include <vector>

namespace flexric {

class Series {
 public:
  void push(int v);

 private:
  struct Ring {
    std::vector<int> slots;
    std::vector<std::uint32_t> free_ids;
    void push(int v);
    void drain() { free_ids.clear(); }
    void grow();
  };
  Ring ring_;
};

void Series::Ring::push(int v) {
  if (slots.empty()) grow();
  slots[0] = v;
  free_ids.push_back(0);
}

// @coldpath first use only
void Series::Ring::grow() { slots.resize(8); }

inline void drain(std::vector<int>& v) { v.reserve(8); }

// @hotpath
void Series::push(int v) {
  ring_.push(v);
  ring_.drain();
}

}  // namespace flexric
