// Self-tests of the benchmark's own helpers: the tail percentile, the BFS
// reach oracle and span self-time arithmetic.  run.py runs this binary
// after every build and refuses to benchmark when it fails.

#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

void TestTailPercentile() {
  using kgbench::TailPercentile;
  // p99 needs 10 samples beyond it: 1000 samples qualify, 999 do not.
  Expect(kgbench::SamplesBeyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  Expect(TailPercentile(Ramp(1000), 99).has_value(), "p99 of 1000 reported");
  Expect(!TailPercentile(Ramp(999), 99).has_value(), "p99 of 999 refused");
  // p95 needs 200 samples.
  Expect(TailPercentile(Ramp(200), 95).has_value(), "p95 of 200 reported");
  Expect(!TailPercentile(Ramp(199), 95).has_value(), "p95 of 199 refused");
  // The median is never refused, even from three samples.
  auto median = TailPercentile({5, 1, 3}, 50);
  Expect(median.has_value() && *median == 3, "median of {5,1,3} is 3");
  Expect(!TailPercentile({}, 50).has_value(), "empty sample refused");
  // Interpolation: p99 of 1..1000 lies between 990 and 991.
  auto p99 = TailPercentile(Ramp(1000), 99);
  Expect(p99 && *p99 > 990 && *p99 < 991, "p99 of 1..1000 interpolates");
  Expect(kgbench::Median({4, 1, 3, 2}) == 2.5, "even-count median");
}

void TestReachOracle() {
  // 1 -> 2 -> 3 -> 1 is a cycle, 3 -> 4, and 5 is isolated.
  const kgbench::ReachOracle oracle({{1, 2}, {2, 3}, {3, 1}, {3, 4}, {2, 3}});
  Expect(oracle.Reach(1) == std::vector<int64_t>({1, 2, 3, 4}),
         "reach(1) = {1,2,3,4}: the cycle brings 1 back");
  Expect(oracle.Reach(3) == std::vector<int64_t>({1, 2, 3, 4}),
         "reach(3) = {1,2,3,4}");
  Expect(oracle.Reach(4).empty(), "reach(4) is empty: no out-edges");
  Expect(oracle.Reach(5).empty(), "reach(5) is empty: isolated node");
  const kgbench::ReachOracle chain({{1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Expect(chain.Reach(2) == std::vector<int64_t>({3, 4, 5}),
         "reach(2) on a chain excludes 2 itself");
}

void TestSelfTimes() {
  using kgbench::Span;
  kgbench::SpanLog log;
  // root [0,100): a [10,40) with child a1 [15,25); b [30,60) overlapping a;
  // c [90,120) runs past the root's end.
  const int root = log.Add(Span{"request", 0, 100, -1, 7});
  const int a = log.Add(Span{"metalog.encode", 10, 40, root, 7});
  log.Add(Span{"vadalog.fixpoint", 15, 25, a, 7});
  log.Add(Span{"service.clone", 30, 60, root, 7});
  log.Add(Span{"service.release", 90, 120, root, 7});
  const std::vector<int64_t> self = kgbench::SelfTimes(log.spans());
  // Children cover [10,60) and [90,100) of the root: 60 of 100.
  Expect(self[0] == 40, "root self = 100 - 60 covered");
  Expect(self[1] == 20, "nested: 30 - 10 covered by the grandchild");
  Expect(self[2] == 10, "leaf self = duration");
  Expect(self[3] == 30, "overlapping sibling keeps its own duration");
  Expect(self[4] == 30, "a child's own self time is not clipped");
  Expect(kgbench::LayerOf("metalog.encode") == "metalog", "layer prefix");
  Expect(kgbench::LayerOf("request").empty(), "roots have no layer");

  // Appending re-bases parent indices.
  kgbench::SpanLog merged;
  merged.Add(Span{"setup", 0, 5, -1, 1});
  merged.Append(log);
  Expect(merged.spans()[2].parent == 1 && merged.spans()[3].parent == 2,
         "Append re-bases parents");
  Expect(kgbench::SelfTimes(merged.spans())[1] == 40, "self after Append");
}

}  // namespace

int main() {
  TestTailPercentile();
  TestReachOracle();
  TestSelfTimes();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: ok\n");
  return 0;
}
