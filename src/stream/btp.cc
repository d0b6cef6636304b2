#include "stream/btp.h"

#include <algorithm>
#include <map>

#include "seqtable/merge.h"

namespace coconut {
namespace stream {

Result<std::unique_ptr<BoundedTemporalPartitioningIndex>>
BoundedTemporalPartitioningIndex::Create(storage::StorageManager* storage,
                                         const std::string& prefix,
                                         const BtpOptions& options,
                                         storage::BufferPool* pool,
                                         core::RawSeriesStore* raw) {
  COCONUT_RETURN_NOT_OK(ValidateStreamOptions(
      options.sax, options.buffer_entries, options.materialized, raw, "BTP"));
  if (options.merge_k < 2) {
    return Status::InvalidArgument("merge_k must be >= 2");
  }
  Options topts;
  topts.sax = options.sax;
  topts.materialized = options.materialized;
  topts.backend = PartitionBackend::kSeqTable;
  topts.buffer_entries = options.buffer_entries;
  topts.timestamp_policy = options.timestamp_policy;
  topts.background = options.background;
  topts.max_inflight_seals = options.max_inflight_seals;
  topts.backpressure = options.backpressure;
  topts.seal_test_hook = options.seal_test_hook;
  topts.wal = options.wal;
  return std::unique_ptr<BoundedTemporalPartitioningIndex>(
      new BoundedTemporalPartitioningIndex(storage, prefix, topts, pool, raw,
                                           options.merge_k));
}

int BoundedTemporalPartitioningIndex::max_size_class() const {
  int max_class = 0;
  for (const auto& p : CurrentPartitions()->partitions) {
    max_class = std::max(max_class, p->size_class);
  }
  return max_class;
}

Status BoundedTemporalPartitioningIndex::AfterSeal() {
  // Repeatedly merge the oldest merge_k partitions that share a size class.
  // Partitions of one class are temporally adjacent (they were created in
  // stream order and merges preserve that order), so the merged partition's
  // time range is contiguous. This loop is the only partition-set mutator
  // besides the seal step and is serialized with it, so the
  // read-copy-publish below never loses a concurrent update.
  while (true) {
    const std::shared_ptr<const PartitionSet> set = CurrentPartitions();
    const Partitions& parts = set->partitions;
    // Count partitions per class.
    std::map<int, std::vector<size_t>> by_class;
    for (size_t i = 0; i < parts.size(); ++i) {
      by_class[parts[i]->size_class].push_back(i);
    }
    int merge_class = -1;
    for (const auto& [cls, indices] : by_class) {
      if (indices.size() >= static_cast<size_t>(merge_k_)) {
        merge_class = cls;
        break;
      }
    }
    if (merge_class < 0) return Status::OK();

    const std::vector<size_t>& indices = by_class[merge_class];
    std::vector<size_t> chosen(indices.begin(), indices.begin() + merge_k_);

    std::vector<const seqtable::SeqTable*> inputs;
    int64_t t_min = INT64_MAX;
    int64_t t_max = INT64_MIN;
    for (size_t idx : chosen) {
      inputs.push_back(parts[idx]->table.get());
      t_min = std::min(t_min, parts[idx]->t_min);
      t_max = std::max(t_max, parts[idx]->t_max);
    }

    seqtable::SeqTableOptions topts;
    topts.sax = options_.sax;
    topts.materialized = options_.materialized;
    const std::string out_name =
        prefix_ + ".m" + std::to_string(next_merge_id_++);
    COCONUT_ASSIGN_OR_RETURN(
        std::unique_ptr<seqtable::SeqTable> merged,
        seqtable::MergeTables(storage_, out_name, topts, inputs, ReadPool()));

    auto merged_partition = std::make_shared<SealedPartition>();
    merged_partition->table = std::move(merged);
    merged_partition->t_min = t_min;
    merged_partition->t_max = t_max;
    merged_partition->entries = merged_partition->table->num_entries();
    merged_partition->size_class = merge_class + 1;
    merged_partition->name = out_name;

    // Build the replacement set: drop the inputs, insert the merged
    // partition where the oldest input sat (keeping time order), publish,
    // and only then unlink the input files — queries holding the previous
    // snapshot keep reading through their open descriptors.
    std::vector<std::string> retired_names;
    Partitions next = parts;
    const size_t insert_at = chosen.front();
    for (auto it = chosen.rbegin(); it != chosen.rend(); ++it) {
      retired_names.push_back(next[*it]->name);
      next.erase(next.begin() + *it);
    }
    next.insert(next.begin() + insert_at, std::move(merged_partition));
    PublishPartitions(std::move(next), /*retired=*/nullptr,
                      /*merges_delta=*/1);
    for (const std::string& name : retired_names) {
      // Deferred to the next durable checkpoint when a WAL is attached:
      // the last checkpoint on disk may still reference these inputs.
      COCONUT_RETURN_NOT_OK(core_.RetireFile(name));
    }
  }
}

}  // namespace stream
}  // namespace coconut
