// Independent answer oracle for the bound `reach(c, ?)` query: a BFS over
// the OWNS edge list, sharing no code with the engine, the magic-sets
// rewrite or the relational encoding.  reach(x, y) holds when y is at the
// end of a path of one or more OWNS edges from x, so x answers itself only
// when it lies on a cycle.

#ifndef KGBENCH_ORACLE_H_
#define KGBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace kgbench {

class ReachOracle {
 public:
  // `edges` are (from, to) node ids; duplicates are harmless.
  explicit ReachOracle(const std::vector<std::pair<int64_t, int64_t>>& edges) {
    for (const auto& [from, to] : edges) out_[from].push_back(to);
  }

  // Sorted ids reachable from `source` by one or more edges.
  std::vector<int64_t> Reach(int64_t source) const {
    // `found` doubles as the BFS queue: entries before `head` are expanded.
    std::vector<int64_t> found;
    std::unordered_set<int64_t> seen;
    auto expand = [&](int64_t node) {
      auto it = out_.find(node);
      if (it == out_.end()) return;
      for (int64_t next : it->second) {
        if (seen.insert(next).second) found.push_back(next);
      }
    };
    expand(source);
    for (size_t head = 0; head < found.size(); ++head) expand(found[head]);
    std::sort(found.begin(), found.end());
    return found;
  }

 private:
  std::unordered_map<int64_t, std::vector<int64_t>> out_;
};

}  // namespace kgbench

#endif  // KGBENCH_ORACLE_H_
