// Concurrency torture for the serving layer: readers keep querying while a
// publisher swaps epochs underneath them.  Every result must be internally
// consistent with the epoch it reports — a torn read (rows from one epoch,
// stamp from another) is the failure mode epoch snapshots exist to prevent.
// Run under TSan via tools/check.sh.

#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace kgm::service {
namespace {

// Epoch k publishes a chain with (kBaseEdges + k) LINK edges, so the
// expected row count identifies the epoch that produced a result.
constexpr size_t kBaseEdges = 3;

pg::PropertyGraph GraphForEpoch(size_t k) {
  const size_t nodes = kBaseEdges + k + 1;
  pg::PropertyGraph g;
  std::vector<pg::NodeId> ids;
  for (size_t i = 0; i < nodes; ++i) {
    ids.push_back(g.AddNode("Item", {{"n", Value(int64_t(i))}}));
  }
  for (size_t i = 0; i + 1 < nodes; ++i) {
    g.AddEdge(ids[i], ids[i + 1], "LINK");
  }
  return g;
}

const char kCopyLinks[] =
    "(x: Item)[: LINK](y: Item) -> exists e (x)[e: LINK2](y).";

TEST(ServiceStressTest, ReadersSeeConsistentEpochsAcrossPublishes) {
  KgServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  KgService svc(options);
  const uint64_t first_epoch = svc.Publish(GraphForEpoch(1));
  ASSERT_EQ(first_epoch, 1u);

  constexpr size_t kEpochs = 8;
  constexpr size_t kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0};
  std::atomic<size_t> cache_hits{0};
  std::atomic<size_t> failures{0};

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        QueryRequest request;
        request.program = kCopyLinks;
        request.output = "LINK2";
        // Alternate cached and uncached evaluations per reader.
        request.use_result_cache = ((r + i++) % 2) == 0;
        auto result = svc.Query(request);
        if (!result.ok()) {
          // Admission rejections are legal under load; anything else is
          // not.
          if (result.status().code() != StatusCode::kUnavailable) {
            failures.fetch_add(1);
          }
          continue;
        }
        // rows must match the epoch the result claims, whatever epoch is
        // current by now.
        const size_t expected = kBaseEdges + (result->epoch);
        if (result->rows->size() != expected) {
          ADD_FAILURE() << "torn read: epoch " << result->epoch << " with "
                        << result->rows->size() << " rows, expected "
                        << expected;
          failures.fetch_add(1);
        }
        if (result->result_cache_hit) cache_hits.fetch_add(1);
        checked.fetch_add(1);
      }
    });
  }

  for (size_t k = 2; k <= kEpochs; ++k) {
    const uint64_t epoch = svc.Publish(GraphForEpoch(k));
    EXPECT_EQ(epoch, k);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(svc.CurrentEpoch(), kEpochs);

  // After the last publish, a cached query must reflect the final epoch.
  QueryRequest request;
  request.program = kCopyLinks;
  request.output = "LINK2";
  auto final_result = svc.Query(request);
  ASSERT_TRUE(final_result.ok()) << final_result.status().ToString();
  EXPECT_EQ(final_result->epoch, kEpochs);
  EXPECT_EQ(final_result->rows->size(), kBaseEdges + kEpochs);
}

TEST(ServiceStressTest, TinyQueueUnderLoadConservesRequests) {
  KgServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 1;
  KgService svc(options);
  svc.Publish(GraphForEpoch(1));

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 40;
  std::atomic<size_t> ok{0};
  std::atomic<size_t> rejected{0};
  std::atomic<size_t> other{0};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; ++i) {
        QueryRequest request;
        request.program = kCopyLinks;
        request.output = "LINK2";
        auto result = svc.Query(request);
        if (result.ok()) {
          ok.fetch_add(1);
        } else if (result.status().code() == StatusCode::kUnavailable) {
          rejected.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every request either succeeded or was rejected at admission — nothing
  // lost, nothing failed, no deadlock.
  EXPECT_EQ(ok.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(other.load(), 0u);
  EXPECT_GT(ok.load(), 0u);

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.queue_rejected, rejected.load());
  EXPECT_EQ(stats.queries_ok, ok.load());
  EXPECT_EQ(stats.queue_depth, 0u);
}

// Uncached point queries with different bound masks share one epoch's
// relations, so their first probes race to build the same lazy indexes,
// while a writer keeps publishing delta epochs whose LINK relation is a
// clone of the previous one (made while those builds run).  Every delta
// deletes and re-inserts one LINK row, leaving the contents unchanged, so
// every answer must equal the one computed single-threaded on a separate
// service.  Run under TSan via tools/check.sh.
TEST(ServiceStressTest, PointQueriesRaceSharedIndexBuildsAndDeltas) {
  constexpr size_t kChainEdges = 40;
  const pg::PropertyGraph graph = GraphForEpoch(kChainEdges - kBaseEdges);

  const char kHop[] =
      "LINK(e, x, y) -> hop(x, y).\n"
      "hop(x, y), LINK(e, y, z) -> hop(x, z).";
  KgService reference;
  reference.Publish(graph.Clone());
  const vadalog::Relation& link =
      *reference.CurrentSnapshot()->facts.at("LINK");
  auto request = [&](const std::string& output,
                     std::vector<std::optional<Value>> bound) {
    QueryRequest r;
    r.program = kHop;
    r.language = QueryLanguage::kVadalog;
    r.output = output;
    r.use_result_cache = false;
    r.bound_args = std::move(bound);
    return r;
  };
  const Value mid_from = link.tuple(kChainEdges / 2)[1];
  const Value mid_to = link.tuple(kChainEdges / 2)[2];
  const std::vector<QueryRequest> requests = {
      request("hop", {link.tuple(0)[1], std::nullopt}),    // magic, bf
      request("hop", {std::nullopt, mid_to}),              // magic, fb
      request("hop", {mid_from, std::nullopt}),            // magic, bf
      request("LINK", {std::nullopt, mid_from, std::nullopt}),  // EDB, from
      request("LINK", {std::nullopt, std::nullopt, mid_to}),    // EDB, to
  };
  auto sorted_rows = [](const QueryResult& result) {
    std::vector<vadalog::Tuple> rows = *result.rows;
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  std::vector<std::vector<vadalog::Tuple>> expected;
  for (const QueryRequest& r : requests) {
    auto result = reference.Execute(r);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->rows->empty()) << r.output;
    expected.push_back(sorted_rows(*result));
  }

  KgServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  KgService svc(options);
  svc.Publish(graph.Clone());
  vadalog::EdbDelta same_contents;
  same_contents.deletes["LINK"].push_back(link.tuple(1));
  same_contents.inserts["LINK"].push_back(link.tuple(1));

  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 4;
  std::atomic<bool> go{false};
  std::atomic<size_t> clients_done{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = 0; i < kRounds * requests.size(); ++i) {
        const size_t which = (c + i) % requests.size();
        auto result = svc.Query(requests[which]);
        if (!result.ok()) {
          failures.fetch_add(1);
        } else if (sorted_rows(*result) != expected[which]) {
          mismatches.fetch_add(1);
        }
      }
      clients_done.fetch_add(1);
    });
  }
  size_t deltas = 0;
  threads.emplace_back([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (clients_done.load() < kClients) {
      if (!svc.ApplyDelta(same_contents).ok()) failures.fetch_add(1);
      ++deltas;
    }
  });
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(deltas, 0u);
  EXPECT_EQ(svc.Stats().cow_relation_copies, 0u);
  EXPECT_EQ(svc.Stats().queries_ok, kClients * kRounds * requests.size());
}

}  // namespace
}  // namespace kgm::service
