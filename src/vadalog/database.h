// Fact storage for the Vadalog engine.
//
// A FactDb maps predicate names to relations; a Relation is a deduplicated
// append-only tuple store with lazily built hash indexes over arbitrary
// position masks (used by the join in the semi-naive evaluator).
//
// Copy-on-write sharing.  A FactDb holds each relation through a
// `shared_ptr<const Relation>`, so databases can share relations: a
// snapshot's encoding, a clone of another database.  Reads (`Get`) use a
// shared relation in place; the first write to a predicate
// (`GetMutable` / `GetOrCreate`) copies that one relation with
// Relation::Clone, and later writes go to the copy.  FactDb::Clone is
// therefore O(#relations) pointer copies, and a query over a pinned
// snapshot copies only the relations it writes.  A shared relation is
// immutable except for its hash indexes, which are built lazily under the
// relation's own lock and never change once published, so concurrent
// readers can share them and probe them without locking.
//
// Dedup.  Each relation deduplicates through a flat open-addressing table
// of (full-tuple hash, row id) entries: no node or heap vector per stored
// tuple.  A probe compares stored hashes first and the tuple itself only on
// a hash match.  The table never hashes a tuple again once stored: growth,
// Reshard, Clone and EraseTuples move or copy the stored hashes.
//
// Secondary indexes.  A built index is chained: one flat open-addressing
// table maps each masked hash to the first and last row of its chain, and
// a per-index `next_row` array links every row to the next row with the
// same masked hash.  An append links the new row at its chain's tail, so
// every chain lists its rows in ascending row order, and a walk in
// progress (Lookup's RowRange) still reaches rows appended during the
// walk.  Like the dedup table, an index never hashes a tuple again once
// built: Clone copies its two arrays, and EraseTuples relinks the chains
// through the row remap, keeping each slot's stored hash.
//
// Input mark.  A relation can mark its current rows as input
// (MarkInput); rows appended later are the derived rows.  The mark
// survives Clone and Reshard and drops by the number of input rows that
// EraseTuples removes.  metalog::EncodeGraph marks every relation it
// fills, so DecodeGraph visits only what the fixpoint derived.
//
// Sharding & concurrent staging.  Each Relation is internally sharded:
// full-tuple hashes route dedup entries to one of N shards (N a power of
// two), and every shard owns its slice of the dedup table, a mutex, and a
// staging area for concurrent inserts.  The canonical tuple store — the
// `tuples()` vector, row ids, and the secondary hash indexes — stays
// unsharded and is only written single-threaded.  During a parallel engine
// phase the canonical store is frozen; work items call StageInsert, which
// dedups against the canonical store under only that shard's lock.  Every
// staged tuple carries a (work-item, sequence) tag.  At the barrier
// PrepareStagedShard (per shard) and DrainPrepared append the staged
// tuples to the canonical store in ascending tag order, dropping
// same-barrier duplicates as they surface — so the
// minimum-tag copy of every tuple survives regardless of thread scheduling,
// which makes canonical row order — and therefore everything downstream of
// it — deterministic for any worker count.

#ifndef KGM_VADALOG_DATABASE_H_
#define KGM_VADALOG_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/value.h"

namespace kgm::vadalog {

using Tuple = std::vector<Value>;

size_t HashTuple(const Tuple& t);

// Hashes only positions selected by `mask` (bit i set = position i).
size_t HashTupleMasked(const Tuple& t, uint64_t mask);

// Caches the per-position value hashes of one tuple so that the full hash
// and any number of masked hashes can be derived without rehashing the
// values (string hashing dominates Insert otherwise).  Produces exactly the
// same hashes as HashTuple / HashTupleMasked.
class TupleHasher {
 public:
  explicit TupleHasher(const Tuple& t);

  size_t full() const { return full_; }
  size_t Masked(uint64_t mask) const;

 private:
  static constexpr size_t kInline = 16;
  size_t n_;
  size_t full_;
  const size_t* hashes_;
  size_t inline_[kInline];
  std::vector<size_t> heap_;
};

// Deterministic ordering tag for one staged insert: the submitting work
// item's submission index plus a per-item sequence number.
struct StageTag {
  uint32_t item = 0;
  uint32_t seq = 0;

  friend bool operator<(const StageTag& a, const StageTag& b) {
    return a.item != b.item ? a.item < b.item : a.seq < b.seq;
  }
};

// Per-shard insert counters, accumulated into EngineStats after a run.
struct ShardCounters {
  size_t accepted = 0;     // staged inserts that were new tuples
  size_t duplicates = 0;   // staged inserts dropped as duplicates
  size_t contentions = 0;  // lock acquisitions that had to wait
};

class Relation {
 public:
  explicit Relation(size_t arity, size_t shard_count = 1);

  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  // Deep copy: canonical tuples, dedup shards and built indexes.  Much
  // cheaper than re-inserting (no value is rehashed).  Must not be called
  // with staged tuples pending.  This is the only deep copy: a FactDb
  // calls it on the first write to a shared relation, and
  // KgService::ApplyDelta on each relation a delta touches.  Safe to call
  // while other threads read or lazily index this relation.
  Relation Clone() const;

  size_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  const Tuple& tuple(size_t i) const { return tuples_[i]; }

  // Inserts (deduplicated); returns true if the tuple is new.  Not
  // thread-safe; must not run while staged tuples are pending.
  bool Insert(Tuple t);

  // Removes every listed tuple that is present; returns the number actually
  // removed (duplicates in `ts` and absent tuples are ignored).  Surviving
  // rows keep their relative order — row ids compact downwards — and the
  // dedup table plus every built index are rebuilt.  Not thread-safe; must
  // not run while staged tuples are pending.  Erasure is the one mutation
  // that invalidates previously observed row ids; it exists for incremental
  // maintenance (DRed overdeletion), not for the engine's fixpoint loop,
  // which remains append-only.
  size_t EraseTuples(const std::vector<Tuple>& ts);

  bool Contains(const Tuple& t) const;

  // Marks every current row as input: rows [0, input_rows()) are the
  // input, later rows were appended after the mark.  Clone and Reshard
  // keep the mark; EraseTuples lowers it by the input rows it removes.
  void MarkInput() { input_rows_ = tuples_.size(); }
  size_t input_rows() const { return input_rows_; }

  // Monotonic mutation counter: bumped every time the canonical store gains
  // or loses rows (an Insert that was new, a drain that appended, an erase
  // that removed).  Lets callers detect "relation unchanged" without
  // comparing contents.  Clone preserves the counter.
  uint64_t version() const { return version_; }

  // Order-independent content fingerprint: XOR of the full-tuple hashes of
  // the canonical rows, maintained incrementally by Insert / drains /
  // EraseTuples.  Two relations holding the same set of tuples have equal
  // fingerprints regardless of insertion order; unequal fingerprints imply
  // different contents (equal fingerprints can collide and callers needing
  // certainty must compare tuples).
  uint64_t content_hash() const { return fingerprint_; }

  // Row index of `t`, or kNoRow if absent.
  static constexpr size_t kNoRow = static_cast<size_t>(-1);
  size_t RowOf(const Tuple& t) const { return FindRow(t); }

  // The rows of one index chain, in ascending row order: every row whose
  // masked hash equals the probe's (a hash collision can add rows whose
  // masked positions differ, so callers verify with MatchesMasked).  The
  // iterator reads a row's chain link when it advances, so a walk sees
  // rows that an Insert appends to the chain mid-walk.  A range stays
  // valid while the relation lives and is not erased from.
  class RowRange {
   public:
    class iterator {
     public:
      uint32_t operator*() const { return row_; }
      iterator& operator++() {
        row_ = (*next_row_)[row_];
        return *this;
      }
      bool operator==(const iterator& o) const { return row_ == o.row_; }

     private:
      friend class RowRange;
      iterator(const std::vector<uint32_t>* next_row, uint32_t row)
          : next_row_(next_row), row_(row) {}
      const std::vector<uint32_t>* next_row_;
      uint32_t row_;
    };

    RowRange() = default;
    iterator begin() const { return iterator(next_row_, first_); }
    iterator end() const { return iterator(next_row_, kChainEnd); }

   private:
    friend class Relation;
    RowRange(const std::vector<uint32_t>* next_row, uint32_t first)
        : next_row_(next_row), first_(first) {}
    const std::vector<uint32_t>* next_row_ = nullptr;
    uint32_t first_ = kChainEnd;
  };

  // Rows whose masked positions may equal the corresponding positions of
  // `probe` (see RowRange).  Builds the hash index for `mask` on first use
  // (see EnsureIndex).  mask must have at least one bit set and fit the
  // arity.
  RowRange Lookup(uint64_t mask, const Tuple& probe) const;

  // Builds the hash index for `mask` unless it exists.  Builds serialize on
  // the relation's index lock and publish the finished index, so any
  // number of threads may call this (and the probes below) on a relation
  // nobody writes — a snapshot relation shared by concurrent queries is
  // indexed once per mask.  Once built, indexes are maintained
  // incrementally by Insert and DrainPrepared, so the engine calls this
  // before a parallel phase and probes with LookupBuilt.
  void EnsureIndex(uint64_t mask) const;

  // Number of hash indexes this relation built itself; indexes inherited
  // through Clone do not count.
  size_t index_builds() const {
    return indexes_.builds.load(std::memory_order_relaxed);
  }

  // Read-only probe: like Lookup, but requires EnsureIndex(mask) to have
  // been called.  Lock-free; safe to call concurrently with other const
  // methods.
  RowRange LookupBuilt(uint64_t mask, const Tuple& probe) const;

  // Read-only probe that tolerates a missing index: returns nullopt when
  // no index has been built for `mask` (the caller falls back to a masked
  // scan) instead of CHECK-failing like LookupBuilt.  Lock-free; safe to
  // call concurrently with other const methods.
  std::optional<RowRange> TryLookupBuilt(uint64_t mask,
                                         const Tuple& probe) const;

  // True if row `i`'s masked positions equal those of `probe`.  Inline:
  // this is the verification step of every index probe, one of the
  // hottest paths of the join and the chase head-satisfaction screen.
  bool MatchesMasked(size_t i, uint64_t mask, const Tuple& probe) const {
    const Tuple& t = tuples_[i];
    for (size_t p = 0; mask != 0; ++p, mask >>= 1) {
      if ((mask & 1) && !(t[p] == probe[p])) return false;
    }
    return true;
  }

  // --- sharded concurrent staging -------------------------------------------

  size_t shard_count() const { return shards_.size(); }

  // Redistributes the dedup table over `shard_count` shards (rounded up to
  // a power of two).  Entries move by their stored hash; tuples are not
  // rehashed.  Must not be called with staged tuples pending.  Resets the
  // shard counters.
  void Reshard(size_t shard_count);

  // Thread-safe dedup-on-insert into the staging area.  Returns true if
  // the tuple was staged (i.e. absent from the canonical store); tuples
  // staged more than once within a barrier are resolved at the drain,
  // where the minimum-tag copy wins, so canonical order stays
  // schedule-independent.  The caller must keep the canonical store frozen
  // (no Insert / EnsureIndex / drain) while stagings are in flight.
  bool StageInsert(StageTag tag, Tuple t);

  // Number of staged tuples.  Driver-only: not safe while StageInsert
  // calls are in flight.
  size_t StagedCount() const;

  // Staged tuples in one shard.  Driver-only.
  size_t StagedCountShard(size_t shard_index) const {
    return shards_[shard_index]->staged.size();
  }

  // The drain appends the staged tuples to the canonical store in
  // ascending tag order, dropping same-barrier duplicates and maintaining
  // the dedup table and every built index.  It runs PrepareStagedShard on
  // every shard, then DrainPrepared once.
  //
  // Phase 1, parallelizable per shard: sorts shard
  // `shard_index`'s staged tuples by tag, drops same-barrier duplicates
  // (equal tuples share a full hash, so every copy routes to the same
  // shard — dedup is shard-local and the minimum-tag copy survives), and
  // precomputes the hash every built index will need.  Tasks for distinct
  // shards of one relation may run concurrently; the canonical store must
  // stay frozen until DrainPrepared.
  void PrepareStagedShard(size_t shard_index);

  // Phase 2: merges the prepared shards into the canonical store in
  // ascending tag order.  After PrepareStagedShard every surviving tuple
  // is globally unique and absent from the canonical store, so this is a
  // pure merge-append — no hashing, no tuple comparisons.  Driver-only
  // (one caller per relation); returns the number of rows appended (their
  // row ids are [old size, new size)).  Dropped duplicates are reclassified
  // in the shard counters.
  size_t DrainPrepared();

  // Drops all staged tuples (used on error paths).  Driver-only.
  void DiscardStaged();

  // Adds this relation's per-shard counters into `by_shard` (resized as
  // needed) and the totals into `total`.  Driver-only.
  void AccumulateShardCounters(std::vector<ShardCounters>* by_shard,
                               ShardCounters* total) const;

 private:
  static constexpr uint32_t kChainEnd = static_cast<uint32_t>(-1);

  // One built secondary index (see the header comment).  `slots_` is an
  // open-addressing (linear probing) table of chains keyed by masked hash;
  // capacity is zero or a power of two, at most 3/4 full.  `next_row_` has
  // one entry per row of the relation.
  class ChainIndex {
   public:
    RowRange Find(size_t hash) const;
    // Links `row`, which must be the relation's next row id, at the tail
    // of the chain for `hash`.
    void Append(size_t hash, uint32_t row);
    // Reserves the row links for `rows` rows in total.
    void ReserveRows(size_t rows) { next_row_.reserve(rows); }
    // Drops the `dead` rows and renumbers the rest through `remap` (an
    // order-preserving compaction to `rows` rows).  Chains are relinked by
    // walking them; slots move by their stored hash, chains left empty
    // disappear.
    void Compact(const std::vector<char>& dead,
                 const std::vector<uint32_t>& remap, size_t rows);

   private:
    struct Slot {
      uint64_t hash = 0;
      uint32_t first = kChainEnd;  // kChainEnd marks an empty slot
      uint32_t last = kChainEnd;
    };
    size_t Home(size_t hash) const {
      return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
    }
    // The slot holding `hash`'s chain, or the empty slot it would take.
    Slot& SlotFor(size_t hash);
    void Rehash(size_t capacity);

    std::vector<Slot> slots_;
    std::vector<uint32_t> next_row_;
    size_t keys_ = 0;
    unsigned shift_ = 64;
  };

  // One built hash index.
  struct IndexNode {
    uint64_t mask = 0;
    ChainIndex index;
    IndexNode* next = nullptr;  // the index built before this one
  };

  // The built indexes, newest first.  A node is complete before a release
  // store of `head` publishes it, and stays linked until the relation dies,
  // so probes walk the list without a lock; builds serialize on `build_mu`.
  // Writers of the relation (Insert, drains, EraseTuples) update the nodes'
  // contents in place, which is safe because a relation being written has
  // no concurrent readers.
  struct IndexList {
    std::atomic<IndexNode*> head{nullptr};
    std::atomic<size_t> builds{0};
    std::mutex build_mu;

    IndexList() = default;
    IndexList(IndexList&& other) noexcept;
    IndexList& operator=(IndexList&& other) noexcept;
    ~IndexList();

    void Clear();
    IndexNode* first() const { return head.load(std::memory_order_acquire); }
    const ChainIndex* Find(uint64_t mask) const {
      for (const IndexNode* n = first(); n != nullptr; n = n->next) {
        if (n->mask == mask) return &n->index;
      }
      return nullptr;
    }
  };

  // One staged (not yet canonical) tuple.
  struct Staged {
    StageTag tag;
    size_t hash = 0;
    Tuple tuple;
    // Filled by PrepareStagedShard: per-built-index masked hashes (in
    // indexes_ iteration order), and whether the entry lost a same-barrier
    // dedup race to a smaller-tag copy.
    std::vector<size_t> index_hashes;
    bool duplicate = false;
  };

  // Open-addressing (linear probing) set of canonical rows keyed by their
  // full-tuple hash.  Capacity is zero or a power of two, at most 3/4
  // full.  Several rows may share a hash; `eq` tells them apart.
  class DedupTable {
   public:
    size_t size() const { return size_; }
    // The row whose stored hash is `hash` and for which `eq(row)` holds,
    // or kNoRow.
    template <typename Eq>
    size_t Find(size_t hash, Eq&& eq) const;
    // Adds (hash, row) unless a row with that hash satisfies `eq`; returns
    // true if it was added.
    template <typename Eq>
    bool InsertUnique(size_t hash, uint32_t row, Eq&& eq);
    // Adds (hash, row); the caller knows the row's tuple is absent.
    void Insert(size_t hash, uint32_t row);
    // Makes room for `n` entries in total without further growth.
    void Reserve(size_t n);
    // Calls fn(hash, row) for every entry.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (const Slot& s : slots_) {
        if (s.row != kEmpty) fn(s.hash, s.row);
      }
    }

   private:
    static constexpr uint32_t kEmpty = static_cast<uint32_t>(-1);
    struct Slot {
      uint64_t hash = 0;
      uint32_t row = kEmpty;
    };
    // Home slot: the top bits of the mixed hash (the low bits select the
    // shard, so they are the same for every entry of one table).
    size_t Home(size_t hash) const {
      return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
    }
    void Rehash(size_t capacity);

    std::vector<Slot> slots_;
    size_t size_ = 0;
    unsigned shift_ = 64;
  };

  struct Shard {
    std::mutex mu;
    DedupTable dedup;  // this shard's canonical rows, by full-tuple hash
    std::vector<Staged> staged;
    ShardCounters counters;
  };

  Shard& ShardFor(size_t hash) const { return *shards_[hash & shard_mask_]; }
  size_t FindRow(const Tuple& t) const;
  // Builds and publishes the index for `mask` under the index lock, or
  // returns the one another thread published first.
  const ChainIndex& BuildIndex(uint64_t mask) const;
  // Canonical-store membership by precomputed hash.  Read-only.
  bool CanonicalContains(const Shard& shard, size_t hash,
                         const Tuple& t) const;

  size_t arity_;
  uint64_t version_ = 0;
  uint64_t fingerprint_ = 0;
  size_t input_rows_ = 0;
  std::vector<Tuple> tuples_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  // Mutable: building an index does not change the relation's contents.
  mutable IndexList indexes_;
};

class FactDb {
 public:
  FactDb() = default;
  FactDb(FactDb&&) = default;
  FactDb& operator=(FactDb&&) = default;
  FactDb(const FactDb&) = delete;
  FactDb& operator=(const FactDb&) = delete;

  // Copy-on-write clone: shares every relation with this database by
  // pointer, O(#relations).  Whichever database writes a shared relation
  // first copies it, so writes to either side never show in the other.
  // A database writes a relation in place only while it holds the last
  // reference; when a clone lives on another thread, destroy it (or join
  // that thread) before this database writes a relation they share.
  FactDb Clone() const;

  // The relation for `pred`, created with `arity` if absent and copied
  // first if shared.  Aborts on an arity conflict (callers validate
  // programs first).
  Relation& GetOrCreate(const std::string& pred, size_t arity);

  // nullptr if the predicate has no facts.  Never copies: a shared
  // relation is read in place.
  const Relation* Get(const std::string& pred) const;
  // For writing: copies a shared relation first (see Clone).  nullptr if
  // the predicate has no facts.
  Relation* GetMutable(const std::string& pred);

  // Convenience: insert one fact.
  bool Add(const std::string& pred, Tuple t);

  // Shares `rel` under `pred`; aborts if the predicate already exists.
  // The database never writes `rel` itself: the first write copies it.
  // Used to assemble a database over relations owned elsewhere (e.g. a
  // snapshot's per-relation encoding).
  void Adopt(const std::string& pred, std::shared_ptr<const Relation> rel);
  // The relation for `pred`, shared with this database (nullptr if
  // absent).  Later writes through this database copy it first.
  std::shared_ptr<const Relation> Share(const std::string& pred) const;

  std::vector<std::string> Predicates() const;
  size_t TotalFacts() const;

  // Reshards every relation this database owns to `shard_count` (see
  // Relation::Reshard) and makes it the default for relations created or
  // copied afterwards.  Shared relations keep their layout until a write
  // copies them.
  void ReshardAll(size_t shard_count);
  size_t default_shard_count() const { return default_shard_count_; }

  // Number of shared relations this database copied on a first write.
  size_t cow_copies() const { return cow_copies_; }

  // Visits every relation this database owns (may write in place), in
  // predicate order; shared relations hold no staged tuples and are
  // skipped.  Driver-only.
  template <typename Fn>
  void ForEachOwnedRelation(Fn&& fn) {
    for (auto& [pred, entry] : relations_) {
      if (Owns(entry)) fn(pred, const_cast<Relation&>(*entry.rel));
    }
  }

  std::string DebugString() const;

 private:
  struct Entry {
    std::shared_ptr<const Relation> rel;
    // True when a FactDb created `rel` (or copied it on a first write):
    // the object is not const and may be written in place once this
    // database holds the only reference.  False for adopted relations,
    // which are never written in place.
    bool created = false;
  };

  static bool Owns(const Entry& e) {
    return e.created && e.rel.use_count() == 1;
  }
  // `e`'s relation, copied first unless this database owns it.
  Relation& Writable(Entry& e);

  std::map<std::string, Entry> relations_;
  size_t default_shard_count_ = 1;
  size_t cow_copies_ = 0;
};

}  // namespace kgm::vadalog

#endif  // KGM_VADALOG_DATABASE_H_
