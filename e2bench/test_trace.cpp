// Tests of the benchmark's measurement arithmetic (trace.hpp): span self
// time with overlapping children, nearest-rank percentiles and their sample
// counts, the fixed-size sample buffers, and lateness accounting of a
// stalling open-loop generator. Run: python3 e2bench/run.py selftest
#include <cstdio>
#include <vector>

#include "trace.hpp"

namespace {

int g_failures = 0;

#define EXPECT_EQ(a, b)                                                    \
  do {                                                                     \
    const auto va = (a);                                                   \
    const auto vb = (b);                                                   \
    if (!(va == vb)) {                                                     \
      std::printf("%s:%d: expected %s == %s (%lld vs %lld)\n", __FILE__,   \
                  __LINE__, #a, #b, static_cast<long long>(va),            \
                  static_cast<long long>(vb));                             \
      ++g_failures;                                                        \
    }                                                                      \
  } while (0)

using namespace e2bench;

Span span(std::uint16_t name, std::uint32_t parent, Nanos start, Nanos end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

void self_time_disjoint_children() {
  // parent [0,100) with children [10,20) and [50,80): self = 100 - 40.
  std::vector<Span> s = {span(0, kNoParent, 0, 100), span(1, 0, 10, 20),
                         span(1, 0, 50, 80)};
  const auto self = self_times(s);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 30);
}

void self_time_overlapping_children() {
  // Children [10,40) and [30,60) overlap on [30,40): they cover 50 ns, not
  // 60, so the parent's self time is 100 - 50.
  std::vector<Span> s = {span(0, kNoParent, 0, 100), span(1, 0, 10, 40),
                         span(1, 0, 30, 60)};
  EXPECT_EQ(self_times(s)[0], 50);
  // A child nested entirely inside a sibling covers nothing extra.
  s.push_back(span(1, 0, 35, 45));
  EXPECT_EQ(self_times(s)[0], 50);
  // A child sticking out of its parent only counts inside it.
  s.push_back(span(1, 0, 90, 130));
  EXPECT_EQ(self_times(s)[0], 40);
}

void self_time_grandchildren_do_not_count_twice() {
  // parent [0,100) > child [10,60) > grandchild [20,50): the grandchild is
  // subtracted from the child, not from the parent.
  std::vector<Span> s = {span(0, kNoParent, 0, 100), span(1, 0, 10, 60),
                         span(2, 1, 20, 50)};
  const auto self = self_times(s);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  std::vector<LayerTotals> by_name;
  accumulate_layers(s, by_name);
  EXPECT_EQ(by_name.size(), 3u);
  EXPECT_EQ(by_name[1].total_ns, 50);
  EXPECT_EQ(by_name[1].self_ns, 20);
}

void span_buffer_nests_and_bounds() {
  SpanBuffer b(3);
  const auto p = b.open(0, 0);
  const auto c = b.open(1, 10);
  b.close(c, 20);
  const auto c2 = b.open(1, 30);
  b.close(c2, 40);
  const auto dropped = b.open(1, 50);  // capacity reached
  b.close(dropped, 60);
  b.close(p, 100);
  EXPECT_EQ(b.spans().size(), 3u);
  EXPECT_EQ(b.spans()[1].parent, p);
  EXPECT_EQ(b.spans()[2].parent, p);
  EXPECT_EQ(b.dropped(), 1u);
  EXPECT_EQ(self_times(b.spans())[0], 80);
}

void nearest_rank_percentiles() {
  std::vector<int> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  Quantile q = nearest_rank(v, 50);
  EXPECT_EQ(q.value, 50.0);
  EXPECT_EQ(q.count, 100u);
  q = nearest_rank(v, 99);
  EXPECT_EQ(q.value, 99.0);
  q = nearest_rank(v, 100);
  EXPECT_EQ(q.value, 100.0);
  // Ranks round up: p50 of 5 samples is the 3rd, p99 of 5 is the 5th.
  std::vector<int> five = {5, 1, 4, 2, 3};
  EXPECT_EQ(nearest_rank(five, 50).value, 3.0);
  EXPECT_EQ(nearest_rank(five, 99).value, 5.0);
  EXPECT_EQ(nearest_rank(five, 20).value, 1.0);
  std::vector<int> empty;
  EXPECT_EQ(nearest_rank(empty, 50).count, 0u);
  // p99 of 1000 samples is the 990th smallest: ten lie beyond it.
  std::vector<int> k(1000);
  for (int i = 0; i < 1000; ++i) k[i] = 999 - i;
  q = nearest_rank(k, 99);
  EXPECT_EQ(q.value, 989.0);
  EXPECT_EQ(q.count, 1000u);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

void samples_pool_seconds_and_count_overflow() {
  // Three seconds of at most four samples each.
  Samples s(3, 4);
  EXPECT_EQ(s.bytes(), 3 * 4 * sizeof(std::uint32_t) + 3 * sizeof(std::size_t));
  for (std::uint32_t i = 1; i <= 4; ++i) s.add(0, i);
  s.add(1, 100);
  s.add(2, 1000);
  s.add(2, 2000);
  s.add(0, 5);  // second 0 is full: counted, not kept
  s.add(3, 7);  // outside the run: ignored
  EXPECT_EQ(s.count(0), 4u);
  EXPECT_EQ(s.count(1), 1u);
  EXPECT_EQ(s.count(3), 0u);
  EXPECT_EQ(s.overflow(), 1u);
  // Seconds [0, 2): the four of second 0 and the one of second 1.
  std::vector<std::uint32_t> v;
  s.append_to(v, 0, 2);
  EXPECT_EQ(v.size(), 5u);
  // Pooled over the whole run, one slow second sets the p99: a tail that
  // hits a minority of the run still shows in the run's percentile.
  v.clear();
  s.append_to(v, 0, 3);
  Quantile q = nearest_rank(v, 99);
  EXPECT_EQ(q.value, 2000.0);
  EXPECT_EQ(q.count, 7u);
  EXPECT_EQ(nearest_rank(v, 50).value, 4.0);
}

void lateness_of_a_stalling_generator() {
  const Nanos ms = 1'000'000;
  Pacer p(10 * ms, ms);
  // On time for 10 TTIs (each begun 20 us after its due time).
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p.begin(p.next_due() + 20'000), 10 * ms + i * ms);
  // The generator stalls 5 ms past TTI 10's due time, then catches up:
  // TTIs 10..15 are all due by then and run back to back, each keeping its
  // own due time, so their lateness falls 5, 4, 3, 2, 1, 0 ms.
  const Nanos wake = p.next_due() + 5 * ms;
  for (int i = 0; i < 6; ++i) {
    const Nanos due = p.begin(wake);
    EXPECT_EQ(due, 20 * ms + i * ms);
  }
  EXPECT_EQ(p.ttis(), 16u);
  EXPECT_EQ(p.late_max(), 5 * ms);
  const auto& late = p.lateness();
  EXPECT_EQ(late[10], 5 * ms);
  EXPECT_EQ(late[14], 1 * ms);
  EXPECT_EQ(late[15], 0);
  // 16 samples: p99 is the largest.
  EXPECT_EQ(p.late_p99().value, static_cast<double>(5 * ms));
  EXPECT_EQ(p.late_p99().count, 16u);
  // Warm-up lateness is forgotten at the start of measurement.
  p.reset_ledger();
  EXPECT_EQ(p.late_max(), 0);
  p.begin(p.next_due());
  EXPECT_EQ(p.late_p99().value, 0.0);
}

}  // namespace

int main() {
  self_time_disjoint_children();
  self_time_overlapping_children();
  self_time_grandchildren_do_not_count_twice();
  span_buffer_nests_and_bounds();
  nearest_rank_percentiles();
  samples_pool_seconds_and_count_overflow();
  lateness_of_a_stalling_generator();
  std::printf("e2bench_tests: %s (%d failure(s))\n",
              g_failures ? "FAILED" : "OK", g_failures);
  return g_failures ? 1 : 0;
}
