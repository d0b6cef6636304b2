#include "ads/ads_index.h"

#include <algorithm>
#include <cstring>
#include <queue>

#include "series/paa.h"

namespace coconut {
namespace ads {

namespace {

using core::IndexEntry;
using core::SearchOptions;
using core::SearchResult;
using series::SaxWord;

// Branch bit taken below a node that splits `seg` whose children fix
// `parent_bits + 1` bits: the (parent_bits)-th bit of the symbol, MSB first.
inline uint8_t BranchBit(uint8_t symbol, int parent_bits, int full_bits) {
  return static_cast<uint8_t>((symbol >> (full_bits - 1 - parent_bits)) & 1);
}

}  // namespace

Result<std::unique_ptr<AdsIndex>> AdsIndex::Create(
    storage::StorageManager* storage, const std::string& prefix,
    const Options& options, core::RawSeriesStore* raw) {
  if (!options.sax.Valid()) {
    return Status::InvalidArgument("invalid SaxConfig");
  }
  if (options.leaf_capacity == 0) {
    return Status::InvalidArgument("leaf_capacity must be > 0");
  }
  if (!options.materialized && raw == nullptr) {
    return Status::InvalidArgument(
        "non-materialized ADS+ needs a raw store for verification");
  }
  auto index = std::unique_ptr<AdsIndex>(
      new AdsIndex(storage, prefix, options, raw));
  index->record_size_ =
      sizeof(IndexEntry) +
      (options.materialized ? options.sax.series_length * sizeof(float) : 0);
  return index;
}

uint32_t AdsIndex::RootMask(const SaxWord& word) const {
  const int full = options_.sax.bits_per_segment;
  uint32_t mask = 0;
  for (int s = 0; s < options_.sax.num_segments; ++s) {
    mask |= static_cast<uint32_t>((word[s] >> (full - 1)) & 1) << s;
  }
  return mask;
}

AdsNode* AdsIndex::DescendToLeaf(const SaxWord& word, bool create_root) {
  const uint32_t mask = RootMask(word);
  auto it = root_children_.find(mask);
  if (it == root_children_.end()) {
    if (!create_root) return nullptr;
    auto node = std::make_unique<AdsNode>();
    const int full = options_.sax.bits_per_segment;
    for (int s = 0; s < options_.sax.num_segments; ++s) {
      node->prefix_bits[s] = 1;
      node->prefix[s] = static_cast<uint8_t>((word[s] >> (full - 1)) & 1);
    }
    it = root_children_.emplace(mask, std::move(node)).first;
  }
  AdsNode* node = it->second.get();
  const int full = options_.sax.bits_per_segment;
  while (!node->is_leaf) {
    const int seg = node->split_segment;
    const uint8_t bit = BranchBit(word[seg], node->prefix_bits[seg], full);
    node = bit == 0 ? node->child0.get() : node->child1.get();
  }
  return node;
}

Status AdsIndex::Insert(uint64_t series_id,
                        std::span<const float> znorm_values,
                        int64_t timestamp) {
  if (znorm_values.size() != static_cast<size_t>(options_.sax.series_length)) {
    return Status::InvalidArgument("series length mismatch");
  }
  const SaxWord word = series::ComputeSax(znorm_values, options_.sax);
  IndexEntry entry;
  entry.key = series::InterleaveSax(word, options_.sax);
  entry.series_id = series_id;
  entry.timestamp = timestamp;

  AdsNode* leaf = DescendToLeaf(word, /*create_root=*/true);
  leaf->buffer.push_back(entry);
  if (options_.materialized) {
    leaf->buffer_payloads.insert(leaf->buffer_payloads.end(),
                                 znorm_values.begin(), znorm_values.end());
  }
  ++num_entries_;
  ++total_buffered_;

  if (leaf->total_entries() > options_.leaf_capacity) {
    COCONUT_RETURN_NOT_OK(SplitLeaf(leaf));
  }

  // Global memory pressure: flush the fullest leaf buffer. This is the
  // "waiting for similar series to gather" buffering the paper describes —
  // and the random I/O it degenerates to when memory is scarce.
  if (total_buffered_ > options_.global_buffer_entries) {
    AdsNode* fullest = nullptr;
    // Walk the whole tree for the largest buffer (ADS+ keeps a heap; a walk
    // keeps the code simple and the behaviour identical).
    std::vector<AdsNode*> stack;
    for (auto& [mask, child] : root_children_) stack.push_back(child.get());
    while (!stack.empty()) {
      AdsNode* n = stack.back();
      stack.pop_back();
      if (n->is_leaf) {
        if (fullest == nullptr || n->buffer.size() > fullest->buffer.size()) {
          fullest = n;
        }
      } else {
        stack.push_back(n->child0.get());
        stack.push_back(n->child1.get());
      }
    }
    if (fullest != nullptr && !fullest->buffer.empty()) {
      COCONUT_RETURN_NOT_OK(FlushLeaf(fullest));
    }
  }
  BumpSnapshotVersion();
  return Status::OK();
}

Status AdsIndex::FlushLeaf(AdsNode* leaf) {
  if (leaf->buffer.empty()) return Status::OK();
  if (leaf->file == nullptr) {
    leaf->file_name = prefix_ + ".leaf" + std::to_string(next_leaf_id_++);
    COCONUT_ASSIGN_OR_RETURN(leaf->file, storage_->CreateFile(leaf->file_name));
  }
  const size_t len = options_.sax.series_length;
  std::vector<uint8_t> bytes(leaf->buffer.size() * record_size_);
  for (size_t i = 0; i < leaf->buffer.size(); ++i) {
    uint8_t* out = bytes.data() + i * record_size_;
    std::memcpy(out, &leaf->buffer[i], sizeof(IndexEntry));
    if (options_.materialized) {
      std::memcpy(out + sizeof(IndexEntry),
                  leaf->buffer_payloads.data() + i * len, len * sizeof(float));
    }
  }
  COCONUT_RETURN_NOT_OK(leaf->file->Append(bytes.data(), bytes.size()));
  leaf->entries_on_disk += leaf->buffer.size();
  total_buffered_ -= leaf->buffer.size();
  leaf->buffer.clear();
  leaf->buffer_payloads.clear();
  return Status::OK();
}

Status AdsIndex::LoadLeafEntries(const AdsNode& leaf,
                                 std::vector<IndexEntry>* entries,
                                 std::vector<float>* payloads) const {
  const size_t len = options_.sax.series_length;
  entries->clear();
  payloads->clear();
  entries->reserve(leaf.total_entries());
  if (leaf.entries_on_disk > 0) {
    std::vector<uint8_t> bytes(leaf.entries_on_disk * record_size_);
    COCONUT_RETURN_NOT_OK(leaf.file->ReadAt(0, bytes.data(), bytes.size()));
    for (uint64_t i = 0; i < leaf.entries_on_disk; ++i) {
      const uint8_t* in = bytes.data() + i * record_size_;
      IndexEntry e;
      std::memcpy(&e, in, sizeof(e));
      entries->push_back(e);
      if (options_.materialized) {
        const float* p =
            reinterpret_cast<const float*>(in + sizeof(IndexEntry));
        payloads->insert(payloads->end(), p, p + len);
      }
    }
  }
  entries->insert(entries->end(), leaf.buffer.begin(), leaf.buffer.end());
  if (options_.materialized) {
    payloads->insert(payloads->end(), leaf.buffer_payloads.begin(),
                     leaf.buffer_payloads.end());
  }
  return Status::OK();
}

Status AdsIndex::SplitLeaf(AdsNode* leaf) {
  // iSAX 2.0 split policy: refine the coarsest segment (round-robin via
  // "fewest prefix bits", ties to the lowest index).
  const int full = options_.sax.bits_per_segment;
  int seg = -1;
  for (int s = 0; s < options_.sax.num_segments; ++s) {
    if (leaf->prefix_bits[s] >= full) continue;
    if (seg == -1 || leaf->prefix_bits[s] < leaf->prefix_bits[seg]) seg = s;
  }
  if (seg == -1) return Status::OK();  // Fully refined; leaf may grow.

  std::vector<IndexEntry> entries;
  std::vector<float> payloads;
  COCONUT_RETURN_NOT_OK(LoadLeafEntries(*leaf, &entries, &payloads));

  auto make_child = [&](uint8_t bit) {
    auto child = std::make_unique<AdsNode>();
    child->prefix = leaf->prefix;
    child->prefix_bits = leaf->prefix_bits;
    child->prefix[seg] = static_cast<uint8_t>((leaf->prefix[seg] << 1) | bit);
    child->prefix_bits[seg] = static_cast<uint8_t>(leaf->prefix_bits[seg] + 1);
    return child;
  };
  auto child0 = make_child(0);
  auto child1 = make_child(1);

  const size_t len = options_.sax.series_length;
  const int parent_bits = leaf->prefix_bits[seg];
  for (size_t i = 0; i < entries.size(); ++i) {
    const SaxWord word = series::DeinterleaveKey(entries[i].key, options_.sax);
    AdsNode* target = BranchBit(word[seg], parent_bits, full) == 0
                          ? child0.get()
                          : child1.get();
    target->buffer.push_back(entries[i]);
    if (options_.materialized) {
      target->buffer_payloads.insert(target->buffer_payloads.end(),
                                     payloads.begin() + i * len,
                                     payloads.begin() + (i + 1) * len);
    }
  }

  // The split rewrites both halves to fresh files (ADS+ pays this I/O on
  // every overflow). Buffered parent entries are no longer buffered.
  total_buffered_ -= leaf->buffer.size();
  total_buffered_ += child0->buffer.size() + child1->buffer.size();

  if (leaf->file != nullptr) {
    leaf->file.reset();
    COCONUT_RETURN_NOT_OK(storage_->RemoveFile(leaf->file_name));
    leaf->file_name.clear();
  }
  leaf->buffer.clear();
  leaf->buffer_payloads.clear();
  leaf->entries_on_disk = 0;
  leaf->is_leaf = false;
  leaf->split_segment = seg;
  leaf->child0 = std::move(child0);
  leaf->child1 = std::move(child1);

  COCONUT_RETURN_NOT_OK(FlushLeaf(leaf->child0.get()));
  COCONUT_RETURN_NOT_OK(FlushLeaf(leaf->child1.get()));

  // Skewed data can leave a child still overflowing; keep splitting.
  if (leaf->child0->total_entries() > options_.leaf_capacity) {
    COCONUT_RETURN_NOT_OK(SplitLeaf(leaf->child0.get()));
  }
  if (leaf->child1->total_entries() > options_.leaf_capacity) {
    COCONUT_RETURN_NOT_OK(SplitLeaf(leaf->child1.get()));
  }
  return Status::OK();
}

Status AdsIndex::Finalize() {
  std::vector<AdsNode*> stack;
  for (auto& [mask, child] : root_children_) stack.push_back(child.get());
  while (!stack.empty()) {
    AdsNode* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      COCONUT_RETURN_NOT_OK(FlushLeaf(n));
    } else {
      stack.push_back(n->child0.get());
      stack.push_back(n->child1.get());
    }
  }
  BumpSnapshotVersion();
  return Status::OK();
}

series::SaxRegion AdsIndex::NodeRegion(const AdsNode& node) const {
  return series::RegionFromPrefix(
      node.prefix,
      std::span<const uint8_t>(node.prefix_bits.data(),
                               options_.sax.num_segments),
      options_.sax);
}

Status AdsIndex::EvaluateLeaf(const AdsNode& leaf,
                              const seqtable::SearchContext& ctx,
                              const SearchOptions& options,
                              int max_verifications,
                              seqtable::KnnCollector* collector) {
  std::vector<IndexEntry> entries;
  std::vector<float> payloads;
  COCONUT_RETURN_NOT_OK(LoadLeafEntries(leaf, &entries, &payloads));
  if (ctx.counters != nullptr) ++ctx.counters->leaves_visited;
  return seqtable::EvaluateCandidates(ctx, options, entries, payloads,
                                      max_verifications, collector);
}

Status AdsIndex::ApproxPass(const seqtable::SearchContext& ctx,
                            const SearchOptions& options,
                            seqtable::KnnCollector* best) {
  if (root_children_.empty()) return Status::OK();
  const SaxWord word = series::ComputeSaxFromPaa(ctx.query_paa, options_.sax);

  AdsNode* leaf = DescendToLeaf(word, /*create_root=*/false);
  if (leaf == nullptr) {
    // No root child covers the query's first-bit pattern; fall back to the
    // subtree with the smallest lower bound (ADS+'s approximate fallback).
    double best_lb = std::numeric_limits<double>::infinity();
    AdsNode* fallback = nullptr;
    for (auto& [mask, child] : root_children_) {
      const double lb =
          series::MinDistSquared(ctx.query_paa, NodeRegion(*child),
                                 options_.sax);
      if (lb < best_lb) {
        best_lb = lb;
        fallback = child.get();
      }
    }
    while (fallback != nullptr && !fallback->is_leaf) {
      // Descend toward the closer child.
      const double lb0 = series::MinDistSquared(
          ctx.query_paa, NodeRegion(*fallback->child0), options_.sax);
      const double lb1 = series::MinDistSquared(
          ctx.query_paa, NodeRegion(*fallback->child1), options_.sax);
      fallback = lb0 <= lb1 ? fallback->child0.get() : fallback->child1.get();
    }
    leaf = fallback;
  }
  if (leaf == nullptr) return Status::OK();
  return EvaluateLeaf(*leaf, ctx, options, options.approx_candidates, best);
}

Status AdsIndex::BestFirstWalk(const seqtable::SearchContext& ctx,
                               const SearchOptions& options,
                               seqtable::KnnCollector* collector) {
  using Item = std::pair<double, AdsNode*>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  auto push = [&](AdsNode* node) {
    heap.emplace(
        series::MinDistSquared(ctx.query_paa, NodeRegion(*node), options_.sax),
        node);
  };
  for (auto& [mask, child] : root_children_) push(child.get());
  while (!heap.empty()) {
    auto [lb, node] = heap.top();
    heap.pop();
    if (lb >= collector->bound()) break;  // Everything else is farther.
    if (node->is_leaf) {
      COCONUT_RETURN_NOT_OK(EvaluateLeaf(*node, ctx, options,
                                         /*max_verifications=*/-1, collector));
    } else {
      push(node->child0.get());
      push(node->child1.get());
    }
  }
  return Status::OK();
}

Result<SearchResult> AdsIndex::ApproxSearch(std::span<const float> query,
                                            const SearchOptions& options,
                                            core::QueryCounters* counters) {
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector best(1);
  COCONUT_RETURN_NOT_OK(ApproxPass(ctx, options, &best));
  return best.Nearest();
}

Result<SearchResult> AdsIndex::ExactSearch(std::span<const float> query,
                                           const SearchOptions& options,
                                           core::QueryCounters* counters) {
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector best(1);
  COCONUT_RETURN_NOT_OK(ApproxPass(ctx, options, &best));
  COCONUT_RETURN_NOT_OK(BestFirstWalk(ctx, options, &best));
  return best.Nearest();
}

Result<std::vector<SearchResult>> AdsIndex::KnnSearch(
    std::span<const float> query, size_t k, const SearchOptions& options,
    core::QueryCounters* counters) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  std::vector<float> paa_storage;
  const seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa_storage, raw_, counters);
  seqtable::KnnCollector collector(k);
  COCONUT_RETURN_NOT_OK(BestFirstWalk(ctx, options, &collector));
  return collector.Take();
}

size_t AdsIndex::num_leaves() const {
  size_t count = 0;
  std::vector<const AdsNode*> stack;
  for (const auto& [mask, child] : root_children_) stack.push_back(child.get());
  while (!stack.empty()) {
    const AdsNode* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      ++count;
    } else {
      stack.push_back(n->child0.get());
      stack.push_back(n->child1.get());
    }
  }
  return count;
}

size_t AdsIndex::num_nodes() const {
  size_t count = 0;
  std::vector<const AdsNode*> stack;
  for (const auto& [mask, child] : root_children_) stack.push_back(child.get());
  while (!stack.empty()) {
    const AdsNode* n = stack.back();
    stack.pop_back();
    ++count;
    if (!n->is_leaf) {
      stack.push_back(n->child0.get());
      stack.push_back(n->child1.get());
    }
  }
  return count;
}

uint64_t AdsIndex::index_bytes() const {
  uint64_t total = 0;
  std::vector<const AdsNode*> stack;
  for (const auto& [mask, child] : root_children_) stack.push_back(child.get());
  while (!stack.empty()) {
    const AdsNode* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      if (n->file != nullptr) total += n->file->size_bytes();
    } else {
      stack.push_back(n->child0.get());
      stack.push_back(n->child1.get());
    }
  }
  return total;
}

}  // namespace ads
}  // namespace coconut
