#include "ctree/ctree.h"

#include <algorithm>
#include <cstring>

#include "core/entry.h"
#include "series/paa.h"

namespace coconut {
namespace ctree {

namespace {

using core::IndexEntry;
using core::SearchOptions;
using core::SearchResult;
using seqtable::LeafView;
using seqtable::SeqTable;
using seqtable::SeqTableBuilder;
using seqtable::SeqTableOptions;

SeqTableOptions ToTableOptions(const CTree::Options& options) {
  SeqTableOptions topts;
  topts.sax = options.sax;
  topts.materialized = options.materialized;
  topts.fill_factor = options.fill_factor;
  return topts;
}

size_t SortRecordSize(const CTree::Options& options) {
  return sizeof(IndexEntry) +
         (options.materialized
              ? options.sax.series_length * sizeof(float)
              : 0);
}

}  // namespace

// ---------------------------------------------------------------- Builder

Result<std::unique_ptr<CTree::Builder>> CTree::Builder::Create(
    storage::StorageManager* storage, const std::string& name,
    const Options& options) {
  if (!options.sax.Valid()) {
    return Status::InvalidArgument("invalid SaxConfig");
  }
  auto builder = std::unique_ptr<Builder>(new Builder(storage, name, options));
  extsort::ExternalSorter::Options sopts;
  sopts.record_size = SortRecordSize(options);
  sopts.memory_budget_bytes = options.sort_memory_bytes;
  sopts.threads = options.sort_threads;
  sopts.storage = storage;
  sopts.temp_prefix = name + ".sort";
  sopts.less = core::EntryBytesLess;  // Key prefix leads every record.
  COCONUT_ASSIGN_OR_RETURN(builder->sorter_,
                           extsort::ExternalSorter::Create(sopts));
  builder->record_scratch_.resize(sopts.record_size);
  return builder;
}

Status CTree::Builder::Add(uint64_t series_id,
                           std::span<const float> znorm_values,
                           int64_t timestamp) {
  if (znorm_values.size() != static_cast<size_t>(options_.sax.series_length)) {
    return Status::InvalidArgument("series length mismatch");
  }
  IndexEntry entry;
  entry.key = series::InterleaveSax(
      series::ComputeSax(znorm_values, options_.sax), options_.sax);
  entry.series_id = series_id;
  entry.timestamp = timestamp;
  std::memcpy(record_scratch_.data(), &entry, sizeof(entry));
  if (options_.materialized) {
    std::memcpy(record_scratch_.data() + sizeof(entry), znorm_values.data(),
                znorm_values.size() * sizeof(float));
  }
  return sorter_->Add(record_scratch_.data());
}

Result<std::unique_ptr<CTree>> CTree::Builder::Finish(
    storage::BufferPool* pool, core::RawSeriesStore* raw) {
  if (!options_.materialized && raw == nullptr) {
    return Status::InvalidArgument(
        "non-materialized CTree needs a raw store for verification");
  }
  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<extsort::SortedStream> stream,
                           sorter_->Finish());
  COCONUT_ASSIGN_OR_RETURN(
      std::unique_ptr<SeqTableBuilder> table_builder,
      SeqTableBuilder::Create(storage_, name_, ToTableOptions(options_)));

  const size_t len = options_.sax.series_length;
  while (true) {
    COCONUT_ASSIGN_OR_RETURN(bool has, stream->Next(record_scratch_.data()));
    if (!has) break;
    IndexEntry entry;
    std::memcpy(&entry, record_scratch_.data(), sizeof(entry));
    std::span<const float> payload;
    if (options_.materialized) {
      payload = std::span<const float>(
          reinterpret_cast<const float*>(record_scratch_.data() +
                                         sizeof(entry)),
          len);
    }
    COCONUT_RETURN_NOT_OK(table_builder->Add(entry, payload));
  }
  COCONUT_RETURN_NOT_OK(table_builder->Finish());

  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<SeqTable> table,
                           SeqTable::Open(storage_, name_, pool));
  return std::unique_ptr<CTree>(new CTree(std::move(table), options_, raw));
}

// ---------------------------------------------------------------- CTree

Result<std::unique_ptr<CTree>> CTree::Open(storage::StorageManager* storage,
                                           const std::string& name,
                                           storage::BufferPool* pool,
                                           core::RawSeriesStore* raw) {
  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<SeqTable> table,
                           SeqTable::Open(storage, name, pool));
  Options options;
  options.sax = table->sax();
  options.materialized = table->materialized();
  options.fill_factor = table->options().fill_factor;
  if (!options.materialized && raw == nullptr) {
    return Status::InvalidArgument(
        "non-materialized CTree needs a raw store for verification");
  }
  return std::unique_ptr<CTree>(new CTree(std::move(table), options, raw));
}

Result<SearchResult> CTree::ApproxSearch(std::span<const float> query,
                                         const SearchOptions& options,
                                         core::QueryCounters* counters) {
  std::vector<float> paa;
  seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa, raw_, counters);
  return seqtable::ApproxSearchTable(*table_, ctx, options);
}

Result<SearchResult> CTree::ExactSearch(std::span<const float> query,
                                        const SearchOptions& options,
                                        core::QueryCounters* counters) {
  std::vector<float> paa;
  seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa, raw_, counters);
  COCONUT_ASSIGN_OR_RETURN(SearchResult best,
                           seqtable::ApproxSearchTable(*table_, ctx, options));
  COCONUT_RETURN_NOT_OK(
      seqtable::ExactScanTable(*table_, ctx, options, &best));
  return best;
}

Status CTree::ExactSearchBatch(std::span<const std::span<const float>> queries,
                               const SearchOptions& options,
                               std::span<SearchResult> results,
                               std::span<core::QueryCounters> counters) {
  const size_t nq = queries.size();
  std::vector<std::vector<float>> paa_storage(nq);
  std::vector<seqtable::SearchContext> ctxs(nq);
  for (size_t q = 0; q < nq; ++q) {
    core::QueryCounters* c = counters.empty() ? nullptr : &counters[q];
    ctxs[q] = seqtable::MakeSearchContext(options_.sax, queries[q],
                                          &paa_storage[q], raw_, c);
    COCONUT_ASSIGN_OR_RETURN(
        results[q], seqtable::ApproxSearchTable(*table_, ctxs[q], options));
  }
  return seqtable::ExactScanTableMulti(*table_, ctxs, options, results);
}

Result<std::vector<SearchResult>> CTree::KnnSearch(
    std::span<const float> query, size_t k, const SearchOptions& options,
    core::QueryCounters* counters) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  std::vector<float> paa;
  seqtable::SearchContext ctx = seqtable::MakeSearchContext(
      options_.sax, query, &paa, raw_, counters);
  seqtable::KnnCollector collector(k);
  COCONUT_RETURN_NOT_OK(
      seqtable::ExactScanTable(*table_, ctx, options, &collector));
  return collector.Take();
}

Status CTree::Insert(uint64_t series_id, std::span<const float> znorm_values,
                     int64_t timestamp) {
  if (znorm_values.size() != static_cast<size_t>(options_.sax.series_length)) {
    return Status::InvalidArgument("series length mismatch");
  }
  IndexEntry entry;
  entry.key = series::InterleaveSax(
      series::ComputeSax(znorm_values, options_.sax), options_.sax);
  entry.series_id = series_id;
  entry.timestamp = timestamp;
  dirty_ = true;

  if (table_->num_leaves() == 0) {
    LeafView view;
    view.entries.push_back(entry);
    if (options_.materialized) {
      view.payloads.assign(znorm_values.begin(), znorm_values.end());
    }
    return table_->InsertLeaf(0, view).status();
  }

  const size_t leaf_idx = table_->FindLeafForKey(entry.key);
  LeafView view;
  COCONUT_RETURN_NOT_OK(table_->ReadLeaf(leaf_idx, &view));

  // Insert in key order within the leaf.
  auto it = std::upper_bound(view.entries.begin(), view.entries.end(), entry,
                             core::EntryKeyLess());
  const size_t pos = static_cast<size_t>(it - view.entries.begin());
  view.entries.insert(it, entry);
  if (options_.materialized) {
    const size_t len = options_.sax.series_length;
    view.payloads.insert(view.payloads.begin() + pos * len,
                         znorm_values.begin(), znorm_values.end());
  }

  if (view.entries.size() <= table_->leaf_capacity()) {
    return table_->UpdateLeaf(leaf_idx, view);
  }

  // Split: left half stays in place, right half goes to a fresh page at the
  // end of the file.
  const size_t mid = view.entries.size() / 2;
  const size_t len = options_.sax.series_length;
  LeafView left;
  LeafView right;
  left.entries.assign(view.entries.begin(), view.entries.begin() + mid);
  right.entries.assign(view.entries.begin() + mid, view.entries.end());
  if (options_.materialized) {
    left.payloads.assign(view.payloads.begin(),
                         view.payloads.begin() + mid * len);
    right.payloads.assign(view.payloads.begin() + mid * len,
                          view.payloads.end());
  }
  COCONUT_RETURN_NOT_OK(table_->UpdateLeaf(leaf_idx, left));
  return table_->InsertLeaf(leaf_idx + 1, right).status();
}

Status CTree::Flush() {
  if (!dirty_) return Status::OK();
  dirty_ = false;
  return table_->PersistDirectory();
}

// ------------------------------------------------------------- CTreeIndex

Result<std::unique_ptr<CTreeIndex>> CTreeIndex::Create(
    storage::StorageManager* storage, const std::string& name,
    const CTree::Options& options, storage::BufferPool* pool,
    core::RawSeriesStore* raw) {
  auto index =
      std::unique_ptr<CTreeIndex>(new CTreeIndex(options, pool, raw));
  COCONUT_ASSIGN_OR_RETURN(index->builder_,
                           CTree::Builder::Create(storage, name, options));
  return index;
}

Status CTreeIndex::Insert(uint64_t series_id,
                          std::span<const float> znorm_values,
                          int64_t timestamp) {
  if (tree_ != nullptr) {
    COCONUT_RETURN_NOT_OK(tree_->Insert(series_id, znorm_values, timestamp));
  } else {
    COCONUT_RETURN_NOT_OK(builder_->Add(series_id, znorm_values, timestamp));
    ++pending_;
  }
  BumpSnapshotVersion();
  return Status::OK();
}

Status CTreeIndex::Finalize() {
  if (tree_ != nullptr) {
    COCONUT_RETURN_NOT_OK(tree_->Flush());
  } else {
    COCONUT_ASSIGN_OR_RETURN(tree_, builder_->Finish(pool_, raw_));
    builder_.reset();
  }
  BumpSnapshotVersion();
  return Status::OK();
}

Result<CTree*> CTreeIndex::Tree() const {
  if (tree_ == nullptr) {
    return Status::Internal("CTree queried before Finalize()");
  }
  return tree_.get();
}

Result<SearchResult> CTreeIndex::ApproxSearch(std::span<const float> query,
                                              const SearchOptions& options,
                                              core::QueryCounters* counters) {
  COCONUT_ASSIGN_OR_RETURN(CTree * tree, Tree());
  return tree->ApproxSearch(query, options, counters);
}

Result<SearchResult> CTreeIndex::ExactSearch(std::span<const float> query,
                                             const SearchOptions& options,
                                             core::QueryCounters* counters) {
  COCONUT_ASSIGN_OR_RETURN(CTree * tree, Tree());
  return tree->ExactSearch(query, options, counters);
}

Status CTreeIndex::ExactSearchBatch(
    std::span<const std::span<const float>> queries,
    const SearchOptions& options, std::span<SearchResult> results,
    std::span<core::QueryCounters> counters) {
  COCONUT_ASSIGN_OR_RETURN(CTree * tree, Tree());
  return tree->ExactSearchBatch(queries, options, results, counters);
}

}  // namespace ctree
}  // namespace coconut
