#include "vadalog/database.h"

#include <algorithm>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "base/check.h"

namespace kgm::vadalog {

namespace {

size_t RoundUpPow2(size_t n) {
  if (n <= 1) return 1;
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t HashTuple(const Tuple& t) {
  size_t h = 0x8f3a7b12;
  for (const Value& v : t) h = HashCombine(h, v.Hash());
  return h;
}

size_t HashTupleMasked(const Tuple& t, uint64_t mask) {
  size_t h = 0x51ab03c7;
  for (size_t i = 0; i < t.size(); ++i) {
    if (mask & (1ULL << i)) h = HashCombine(h, t[i].Hash());
  }
  return h;
}

TupleHasher::TupleHasher(const Tuple& t) : n_(t.size()) {
  size_t* hs = inline_;
  if (n_ > kInline) {
    heap_.resize(n_);
    hs = heap_.data();
  }
  size_t h = 0x8f3a7b12;
  for (size_t i = 0; i < n_; ++i) {
    hs[i] = t[i].Hash();
    h = HashCombine(h, hs[i]);
  }
  hashes_ = hs;
  full_ = h;
}

size_t TupleHasher::Masked(uint64_t mask) const {
  size_t h = 0x51ab03c7;
  for (size_t i = 0; i < n_; ++i) {
    if (mask & (1ULL << i)) h = HashCombine(h, hashes_[i]);
  }
  return h;
}

Relation::IndexList::IndexList(IndexList&& other) noexcept
    : head(other.head.exchange(nullptr)), builds(other.builds.load()) {}

Relation::IndexList& Relation::IndexList::operator=(
    IndexList&& other) noexcept {
  if (this != &other) {
    Clear();
    head.store(other.head.exchange(nullptr));
    builds.store(other.builds.load());
  }
  return *this;
}

Relation::IndexList::~IndexList() { Clear(); }

void Relation::IndexList::Clear() {
  IndexNode* n = head.exchange(nullptr);
  while (n != nullptr) {
    IndexNode* next = n->next;
    delete n;
    n = next;
  }
}

template <typename Eq>
size_t Relation::DedupTable::Find(size_t hash, Eq&& eq) const {
  if (size_ == 0) return kNoRow;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.row == kEmpty) return kNoRow;
    if (s.hash == hash && eq(s.row)) return s.row;
  }
}

template <typename Eq>
bool Relation::DedupTable::InsertUnique(size_t hash, uint32_t row, Eq&& eq) {
  Reserve(size_ + 1);
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.row == kEmpty) {
      s = Slot{hash, row};
      ++size_;
      return true;
    }
    if (s.hash == hash && eq(s.row)) return false;
  }
}

void Relation::DedupTable::Insert(size_t hash, uint32_t row) {
  InsertUnique(hash, row, [](uint32_t) { return false; });
}

void Relation::DedupTable::Reserve(size_t n) {
  // At most 3/4 full, so every probe sequence ends at an empty slot.
  if (n * 4 <= slots_.size() * 3) return;
  size_t capacity = std::max<size_t>(slots_.size(), 8);
  while (n * 4 > capacity * 3) capacity <<= 1;
  Rehash(capacity);
}

void Relation::DedupTable::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
  const size_t mask = capacity - 1;
  for (const Slot& s : old) {
    if (s.row == kEmpty) continue;
    size_t i = Home(s.hash);
    while (slots_[i].row != kEmpty) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

Relation::RowRange Relation::ChainIndex::Find(size_t hash) const {
  if (keys_ == 0) return RowRange();
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.first == kChainEnd) return RowRange();
    if (s.hash == hash) return RowRange(&next_row_, s.first);
  }
}

Relation::ChainIndex::Slot& Relation::ChainIndex::SlotFor(size_t hash) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.first == kChainEnd || s.hash == hash) return s;
  }
}

void Relation::ChainIndex::Append(size_t hash, uint32_t row) {
  next_row_.push_back(kChainEnd);
  // At most 3/4 full, so every probe sequence ends at an empty slot.
  if ((keys_ + 1) * 4 > slots_.size() * 3) {
    Rehash(std::max<size_t>(slots_.size() * 2, 8));
  }
  Slot& s = SlotFor(hash);
  if (s.first == kChainEnd) {
    s = Slot{hash, row, row};
    ++keys_;
  } else {
    next_row_[s.last] = row;
    s.last = row;
  }
}

void Relation::ChainIndex::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
  for (const Slot& s : old) {
    if (s.first != kChainEnd) SlotFor(s.hash) = s;
  }
}

void Relation::ChainIndex::Compact(const std::vector<char>& dead,
                                   const std::vector<uint32_t>& remap,
                                   size_t rows) {
  std::vector<uint32_t> next_row(rows, kChainEnd);
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size(), Slot{});
  keys_ = 0;
  for (const Slot& s : old) {
    if (s.first == kChainEnd) continue;
    // The remap preserves row order, so the relinked chain stays ascending.
    Slot fresh{s.hash, kChainEnd, kChainEnd};
    for (uint32_t r = s.first; r != kChainEnd; r = next_row_[r]) {
      if (dead[r]) continue;
      if (fresh.first == kChainEnd) {
        fresh.first = remap[r];
      } else {
        next_row[fresh.last] = remap[r];
      }
      fresh.last = remap[r];
    }
    if (fresh.first == kChainEnd) continue;
    SlotFor(s.hash) = fresh;
    ++keys_;
  }
  next_row_ = std::move(next_row);
}

Relation::Relation(size_t arity, size_t shard_count) : arity_(arity) {
  shard_count = RoundUpPow2(shard_count);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = shard_count - 1;
}

Relation Relation::Clone() const {
  KGM_CHECK(StagedCount() == 0);
  Relation out(arity_, shards_.size());
  out.version_ = version_;
  out.fingerprint_ = fingerprint_;
  out.input_rows_ = input_rows_;
  out.tuples_ = tuples_;
  // The dedup tables hold full-tuple hashes and the shard layout is
  // identical, so they copy as flat arrays — nothing is rehashed.
  for (size_t i = 0; i < shards_.size(); ++i) {
    out.shards_[i]->dedup = shards_[i]->dedup;
  }
  // Copy the built indexes oldest first so the copy lists them in the same
  // order; each copies as its slot and link arrays.  A concurrent build may
  // publish a newer index meanwhile; the copy simply does not see it.
  std::vector<const IndexNode*> built;
  for (const IndexNode* n = indexes_.first(); n != nullptr; n = n->next) {
    built.push_back(n);
  }
  for (auto it = built.rbegin(); it != built.rend(); ++it) {
    out.indexes_.head.store(
        new IndexNode{(*it)->mask, (*it)->index, out.indexes_.first()});
  }
  return out;
}

bool Relation::CanonicalContains(const Shard& shard, size_t hash,
                                 const Tuple& t) const {
  return shard.dedup.Find(hash, [&](uint32_t row) {
           return tuples_[row] == t;
         }) != kNoRow;
}

size_t Relation::FindRow(const Tuple& t) const {
  size_t h = HashTuple(t);
  return ShardFor(h).dedup.Find(
      h, [&](uint32_t row) { return tuples_[row] == t; });
}

bool Relation::Insert(Tuple t) {
  KGM_CHECK(t.size() == arity_);
  // Position hashes are computed once and reused for the dedup hash and
  // every maintained index mask.
  TupleHasher hasher(t);
  size_t h = hasher.full();
  uint32_t row = static_cast<uint32_t>(tuples_.size());
  if (!ShardFor(h).dedup.InsertUnique(
          h, row, [&](uint32_t r) { return tuples_[r] == t; })) {
    return false;
  }
  for (IndexNode* n = indexes_.first(); n != nullptr; n = n->next) {
    n->index.Append(hasher.Masked(n->mask), row);
  }
  tuples_.push_back(std::move(t));
  ++version_;
  fingerprint_ ^= h;
  return true;
}

size_t Relation::EraseTuples(const std::vector<Tuple>& ts) {
  KGM_CHECK(StagedCount() == 0);
  std::vector<char> dead(tuples_.size(), 0);
  size_t erased = 0;
  for (const Tuple& t : ts) {
    if (t.size() != arity_) continue;
    size_t row = FindRow(t);
    if (row == kNoRow || dead[row]) continue;
    dead[row] = 1;
    if (row < input_rows_) --input_rows_;
    fingerprint_ ^= HashTuple(t);
    ++erased;
  }
  if (erased == 0) return 0;
  // Order-preserving compaction shifts the surviving row ids, but every
  // content hash stays the same, so the dedup tables and the built indexes
  // are rebuilt from their stored hashes: drop dead entries, remap the
  // rest.  This keeps a deletion at O(entries) integer work instead of
  // rehashing every tuple — the difference dominates incremental
  // maintenance, which erases from large relations on every delta batch.
  std::vector<uint32_t> remap(tuples_.size());
  uint32_t next = 0;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    remap[i] = next;
    if (!dead[i]) ++next;
  }
  std::vector<Tuple> kept;
  kept.reserve(tuples_.size() - erased);
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (!dead[i]) kept.push_back(std::move(tuples_[i]));
  }
  tuples_ = std::move(kept);
  for (auto& shard : shards_) {
    DedupTable survivors;
    survivors.Reserve(shard->dedup.size());
    shard->dedup.ForEach([&](size_t h, uint32_t row) {
      if (!dead[row]) survivors.Insert(h, remap[row]);
    });
    shard->dedup = std::move(survivors);
  }
  for (IndexNode* n = indexes_.first(); n != nullptr; n = n->next) {
    n->index.Compact(dead, remap, tuples_.size());
  }
  ++version_;
  return erased;
}

bool Relation::Contains(const Tuple& t) const {
  return FindRow(t) != kNoRow;
}

const Relation::ChainIndex& Relation::BuildIndex(uint64_t mask) const {
  KGM_CHECK(mask != 0);
  std::lock_guard<std::mutex> lock(indexes_.build_mu);
  // Another thread may have published it while this one waited.
  if (const ChainIndex* built = indexes_.Find(mask)) return *built;
  auto node = std::make_unique<IndexNode>();
  node->mask = mask;
  node->index.ReserveRows(tuples_.size());
  for (size_t row = 0; row < tuples_.size(); ++row) {
    node->index.Append(HashTupleMasked(tuples_[row], mask),
                       static_cast<uint32_t>(row));
  }
  node->next = indexes_.first();
  indexes_.head.store(node.get(), std::memory_order_release);
  indexes_.builds.fetch_add(1, std::memory_order_relaxed);
  return node.release()->index;
}

void Relation::EnsureIndex(uint64_t mask) const {
  if (indexes_.Find(mask) == nullptr) BuildIndex(mask);
}

Relation::RowRange Relation::Lookup(uint64_t mask, const Tuple& probe) const {
  const ChainIndex* index = indexes_.Find(mask);
  if (index == nullptr) index = &BuildIndex(mask);
  return index->Find(HashTupleMasked(probe, mask));
}

Relation::RowRange Relation::LookupBuilt(uint64_t mask,
                                         const Tuple& probe) const {
  const ChainIndex* index = indexes_.Find(mask);
  KGM_CHECK(index != nullptr);
  return index->Find(HashTupleMasked(probe, mask));
}

std::optional<Relation::RowRange> Relation::TryLookupBuilt(
    uint64_t mask, const Tuple& probe) const {
  const ChainIndex* index = indexes_.Find(mask);
  if (index == nullptr) return std::nullopt;
  return index->Find(HashTupleMasked(probe, mask));
}

void Relation::Reshard(size_t shard_count) {
  shard_count = RoundUpPow2(shard_count);
  KGM_CHECK(StagedCount() == 0);
  std::vector<std::unique_ptr<Shard>> fresh;
  fresh.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    fresh.push_back(std::make_unique<Shard>());
  }
  size_t mask = shard_count - 1;
  // Entries carry their full-tuple hash, so they move by it; no tuple is
  // rehashed.
  std::vector<size_t> counts(shard_count, 0);
  for (auto& shard : shards_) {
    shard->dedup.ForEach([&](size_t h, uint32_t) { ++counts[h & mask]; });
  }
  for (size_t i = 0; i < shard_count; ++i) fresh[i]->dedup.Reserve(counts[i]);
  for (auto& shard : shards_) {
    shard->dedup.ForEach([&](size_t h, uint32_t row) {
      fresh[h & mask]->dedup.Insert(h, row);
    });
  }
  shards_ = std::move(fresh);
  shard_mask_ = mask;
}

bool Relation::StageInsert(StageTag tag, Tuple t) {
  KGM_CHECK(t.size() == arity_);
  TupleHasher hasher(t);
  size_t h = hasher.full();
  Shard& shard = ShardFor(h);
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock.lock();
    ++shard.counters.contentions;
  }
  // The canonical store is frozen while stagings are in flight, so reading
  // the shard's dedup slice under the shard lock is race-free.
  if (CanonicalContains(shard, h, t)) {
    ++shard.counters.duplicates;
    return false;
  }
  // Duplicates *within* the barrier are not chased here: the drain
  // appends in ascending tag order and drops any tuple already appended,
  // so the minimum-tag occurrence survives without a staging-side index.
  // That keeps this hot path to one hash, one lock, and one push.
  shard.staged.push_back(Staged{tag, h, std::move(t), {}, false});
  ++shard.counters.accepted;
  return true;
}

size_t Relation::StagedCount() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->staged.size();
  return n;
}

void Relation::PrepareStagedShard(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  if (shard.staged.empty()) return;
  std::sort(
      shard.staged.begin(), shard.staged.end(),
      [](const Staged& a, const Staged& b) { return a.tag < b.tag; });
  // Same-barrier duplicates are shard-local (equal tuples share a full
  // hash), so after the sort the first — minimum-tag — copy of every
  // tuple survives and later copies are flagged.  StageInsert already
  // rejected tuples present in the (frozen) canonical store.
  std::unordered_map<size_t, std::vector<const Staged*>> firsts_by_hash;
  firsts_by_hash.reserve(shard.staged.size());
  for (Staged& e : shard.staged) {
    e.duplicate = false;
    std::vector<const Staged*>& firsts = firsts_by_hash[e.hash];
    for (const Staged* f : firsts) {
      if (f->tuple == e.tuple) {
        e.duplicate = true;
        break;
      }
    }
    if (e.duplicate) {
      ++shard.counters.duplicates;
      --shard.counters.accepted;
      continue;
    }
    firsts.push_back(&e);
    // Precompute the masked hashes the merge will need, so DrainPrepared
    // never rehashes a value: this is the expensive part of a drain, and
    // it now runs per shard in parallel.
    if (indexes_.first() != nullptr) {
      TupleHasher hasher(e.tuple);
      e.index_hashes.clear();
      for (const IndexNode* n = indexes_.first(); n != nullptr; n = n->next) {
        e.index_hashes.push_back(hasher.Masked(n->mask));
      }
    }
  }
}

size_t Relation::DrainPrepared() {
  size_t total = StagedCount();
  if (total == 0) return 0;
  // K-way merge of the per-shard tag-sorted runs.
  struct Cursor {
    std::vector<Staged>* run;
    size_t pos;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(shards_.size());
  for (auto& shard : shards_) {
    if (shard->staged.empty()) continue;
    cursors.push_back(Cursor{&shard->staged, 0});
    shard->dedup.Reserve(shard->dedup.size() + shard->staged.size());
  }
  auto greater = [](const Cursor& a, const Cursor& b) {
    return (*b.run)[b.pos].tag < (*a.run)[a.pos].tag;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
      greater, std::move(cursors));
  tuples_.reserve(tuples_.size() + total);
  size_t appended = 0;
  while (!heap.empty()) {
    Cursor cur = heap.top();
    heap.pop();
    Staged& e = (*cur.run)[cur.pos];
    if (++cur.pos < cur.run->size()) heap.push(cur);
    if (e.duplicate) continue;
    uint32_t row = static_cast<uint32_t>(tuples_.size());
    ShardFor(e.hash).dedup.Insert(e.hash, row);
    size_t ii = 0;
    for (IndexNode* n = indexes_.first(); n != nullptr; n = n->next) {
      n->index.Append(e.index_hashes[ii++], row);
    }
    tuples_.push_back(std::move(e.tuple));
    fingerprint_ ^= e.hash;
    ++appended;
  }
  for (auto& shard : shards_) {
    shard->staged.clear();
  }
  if (appended > 0) ++version_;
  return appended;
}

void Relation::DiscardStaged() {
  for (auto& shard : shards_) shard->staged.clear();
}

void Relation::AccumulateShardCounters(std::vector<ShardCounters>* by_shard,
                                       ShardCounters* total) const {
  if (by_shard->size() < shards_.size()) by_shard->resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardCounters& c = shards_[i]->counters;
    (*by_shard)[i].accepted += c.accepted;
    (*by_shard)[i].duplicates += c.duplicates;
    (*by_shard)[i].contentions += c.contentions;
    total->accepted += c.accepted;
    total->duplicates += c.duplicates;
    total->contentions += c.contentions;
  }
}

FactDb FactDb::Clone() const {
  FactDb out;
  out.default_shard_count_ = default_shard_count_;
  out.relations_ = relations_;
  return out;
}

Relation& FactDb::Writable(Entry& e) {
  if (!Owns(e)) {
    auto copy = std::make_shared<Relation>(e.rel->Clone());
    if (copy->shard_count() != default_shard_count_) {
      copy->Reshard(default_shard_count_);
    }
    e.rel = std::move(copy);
    e.created = true;
    ++cow_copies_;
  }
  return const_cast<Relation&>(*e.rel);
}

Relation& FactDb::GetOrCreate(const std::string& pred, size_t arity) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) {
    Entry e{std::make_shared<Relation>(arity, default_shard_count_), true};
    it = relations_.emplace(pred, std::move(e)).first;
  }
  KGM_CHECK_MSG(it->second.rel->arity() == arity,
                ("arity conflict for predicate " + pred).c_str());
  return Writable(it->second);
}

const Relation* FactDb::Get(const std::string& pred) const {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return nullptr;
  return it->second.rel.get();
}

Relation* FactDb::GetMutable(const std::string& pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return nullptr;
  return &Writable(it->second);
}

bool FactDb::Add(const std::string& pred, Tuple t) {
  return GetOrCreate(pred, t.size()).Insert(std::move(t));
}

void FactDb::Adopt(const std::string& pred,
                   std::shared_ptr<const Relation> rel) {
  KGM_CHECK(rel != nullptr);
  const bool inserted =
      relations_.emplace(pred, Entry{std::move(rel), false}).second;
  KGM_CHECK(inserted);
}

std::shared_ptr<const Relation> FactDb::Share(const std::string& pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : it->second.rel;
}

std::vector<std::string> FactDb::Predicates() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [pred, entry] : relations_) out.push_back(pred);
  return out;
}

size_t FactDb::TotalFacts() const {
  size_t n = 0;
  for (const auto& [pred, entry] : relations_) n += entry.rel->size();
  return n;
}

void FactDb::ReshardAll(size_t shard_count) {
  default_shard_count_ = shard_count;
  ForEachOwnedRelation(
      [&](const std::string&, Relation& rel) { rel.Reshard(shard_count); });
}

std::string FactDb::DebugString() const {
  std::ostringstream os;
  for (const auto& [pred, entry] : relations_) {
    for (const Tuple& t : entry.rel->tuples()) {
      os << pred << "(";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) os << ",";
        os << t[i].ToString();
      }
      os << ")\n";
    }
  }
  return os.str();
}

}  // namespace kgm::vadalog
