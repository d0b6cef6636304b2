#include "palm/factory.h"

#include "ads/ads_index.h"
#include "clsm/clsm.h"
#include "ctree/ctree.h"
#include "palm/sharded_index.h"
#include "palm/sharded_streaming_index.h"
#include "stream/btp.h"
#include "stream/pp.h"
#include "stream/tp.h"

namespace coconut {
namespace palm {

namespace {

std::string FamilyName(const VariantSpec& spec) {
  switch (spec.family) {
    case IndexFamily::kAds:
      return spec.materialized ? "ADSFull" : "ADS+";
    case IndexFamily::kCTree:
      return spec.materialized ? "CTreeFull" : "CTree";
    case IndexFamily::kClsm:
      return spec.materialized ? "CLSMFull" : "CLSM";
  }
  return "?";
}

// ADS+'s in-memory budget in entries, derived from the byte budget.
size_t AdsBufferEntries(const VariantSpec& spec) {
  const size_t record = sizeof(core::IndexEntry) +
                        (spec.materialized
                             ? spec.sax.series_length * sizeof(float)
                             : 0);
  return std::max<size_t>(64, spec.memory_budget_bytes / record);
}

Result<std::unique_ptr<core::DataSeriesIndex>> MakeInner(
    const VariantSpec& spec, storage::StorageManager* storage,
    const std::string& name, storage::BufferPool* pool,
    core::RawSeriesStore* raw, ThreadPool* clsm_background = nullptr) {
  switch (spec.family) {
    case IndexFamily::kAds: {
      ads::AdsIndex::Options opts;
      opts.sax = spec.sax;
      opts.materialized = spec.materialized;
      opts.leaf_capacity = spec.ads_leaf_capacity;
      opts.global_buffer_entries = AdsBufferEntries(spec);
      COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<ads::AdsIndex> ads,
                               ads::AdsIndex::Create(storage, name, opts, raw));
      return std::unique_ptr<core::DataSeriesIndex>(std::move(ads));
    }
    case IndexFamily::kCTree: {
      ctree::CTree::Options opts;
      opts.sax = spec.sax;
      opts.materialized = spec.materialized;
      opts.fill_factor = spec.fill_factor;
      opts.sort_memory_bytes = spec.memory_budget_bytes;
      opts.sort_threads = spec.construction_threads;
      COCONUT_ASSIGN_OR_RETURN(
          std::unique_ptr<ctree::CTreeIndex> tree,
          ctree::CTreeIndex::Create(storage, name, opts, pool, raw));
      return std::unique_ptr<core::DataSeriesIndex>(std::move(tree));
    }
    case IndexFamily::kClsm: {
      clsm::Clsm::Options opts;
      opts.sax = spec.sax;
      opts.materialized = spec.materialized;
      opts.growth_factor = spec.growth_factor;
      opts.buffer_entries = spec.buffer_entries;
      opts.background = clsm_background;
      opts.max_inflight_seals = spec.max_inflight_seals;
      opts.backpressure = spec.backpressure_policy;
      opts.seal_test_hook = spec.seal_test_hook;
      opts.wal = spec.wal;
      COCONUT_ASSIGN_OR_RETURN(
          std::unique_ptr<clsm::Clsm> lsm,
          clsm::Clsm::Create(storage, name, opts, pool, raw));
      return std::unique_ptr<core::DataSeriesIndex>(std::move(lsm));
    }
  }
  return Status::InvalidArgument("unknown index family");
}

}  // namespace

std::string VariantName(const VariantSpec& spec) {
  std::string name = FamilyName(spec);
  switch (spec.mode) {
    case StreamMode::kStatic:
      break;
    case StreamMode::kPP:
      name += "-PP";
      break;
    case StreamMode::kTP:
      name += "-TP";
      break;
    case StreamMode::kBTP:
      name += "-BTP";
      break;
  }
  if (spec.num_shards > 1) {
    name += "-S" + std::to_string(spec.num_shards);
  }
  if (spec.async_ingest) {
    name += "-async";
  }
  if (spec.durable) {
    name += "-wal";
  }
  return name;
}

bool SpecIsValid(const VariantSpec& spec, std::string* why) {
  if (!spec.sax.Valid()) {
    if (why != nullptr) *why = "invalid SaxConfig";
    return false;
  }
  if (spec.mode == StreamMode::kBTP && spec.family != IndexFamily::kClsm) {
    if (why != nullptr) {
      *why = "BTP requires sort-merged partitions; only the Coconut LSM "
             "variant supports it (Figure 1)";
    }
    return false;
  }
  if (spec.mode == StreamMode::kTP && spec.family == IndexFamily::kClsm) {
    if (why != nullptr) {
      *why = "CLSM already merges log-structured runs; plain TP applies to "
             "ADS+ and CTree partitions (Figure 1)";
    }
    return false;
  }
  if (spec.num_shards == 0) {
    if (why != nullptr) *why = "num_shards must be >= 1";
    return false;
  }
  if (spec.num_shards > 1 && spec.mode != StreamMode::kStatic &&
      !spec.async_ingest) {
    if (why != nullptr) {
      *why = "sharded streaming requires async_ingest: each shard's "
             "seal/merge cascades run on their own strand, and a "
             "synchronous per-shard seal inside Ingest would serialize "
             "the shards again";
    }
    return false;
  }
  if (spec.async_ingest) {
    if (spec.mode == StreamMode::kStatic) {
      if (why != nullptr) {
        *why = "async_ingest is a streaming knob; static builds already "
               "parallelize construction";
      }
      return false;
    }
    if (spec.mode == StreamMode::kTP && spec.family == IndexFamily::kAds) {
      if (why != nullptr) {
        *why = "async ingestion requires sorted buffered partitions; a live "
               "ADS+ tree cannot be sealed behind ingestion's back";
      }
      return false;
    }
    if (spec.mode == StreamMode::kPP && spec.family != IndexFamily::kClsm) {
      if (why != nullptr) {
        *why = "async PP needs a buffering inner index; ADS+/CTree-PP "
               "insert straight into the structure (only CLSM-PP buffers)";
      }
      return false;
    }
  }
  if (spec.durable) {
    if (spec.mode == StreamMode::kStatic) {
      if (why != nullptr) {
        *why = "durability is a streaming knob; a static build has no "
               "stream of acknowledgements to protect";
      }
      return false;
    }
    if (spec.family == IndexFamily::kAds) {
      if (why != nullptr) {
        *why = "durability requires checkpointable sorted partitions; an "
               "ADS+ tree has no manifest to restore (use CTree-TP, "
               "CLSM-BTP or CLSM-PP)";
      }
      return false;
    }
    if (spec.mode == StreamMode::kPP && spec.family != IndexFamily::kClsm) {
      if (why != nullptr) {
        *why = "durable PP needs a buffering inner index with a "
               "checkpointable run set (only CLSM-PP qualifies)";
      }
      return false;
    }
  }
  return true;
}

Result<std::unique_ptr<core::DataSeriesIndex>> CreateStaticIndex(
    const VariantSpec& spec, storage::StorageManager* storage,
    const std::string& name, storage::BufferPool* pool,
    core::RawSeriesStore* raw) {
  std::string why;
  if (!SpecIsValid(spec, &why)) return Status::InvalidArgument(why);
  if (spec.mode != StreamMode::kStatic) {
    return Status::InvalidArgument(
        "CreateStaticIndex called with a streaming mode");
  }
  if (spec.num_shards > 1) {
    // The sharded wrapper owns a full stack per shard (storage, pool, raw
    // store) under the given manager's directory; the passed-in pool and
    // raw store serve the unsharded path only.
    ShardedIndex::Options opts;
    opts.spec = spec;
    opts.num_shards = spec.num_shards;
    if (pool != nullptr) {
      // Split the caller's cache budget across shards so the aggregate
      // page cache matches the unsharded configuration — otherwise a
      // shard sweep would conflate shard speedup with extra cache.
      opts.pool_bytes_per_shard = std::max<size_t>(
          storage::kPageSize,
          pool->capacity_pages() * storage::kPageSize / spec.num_shards);
    }
    COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<ShardedIndex> sharded,
                             ShardedIndex::Create(storage, name, opts));
    return std::unique_ptr<core::DataSeriesIndex>(std::move(sharded));
  }
  return MakeInner(spec, storage, name, pool, raw);
}

Result<std::unique_ptr<stream::StreamingIndex>> CreateStreamingIndex(
    const VariantSpec& spec, storage::StorageManager* storage,
    const std::string& name, storage::BufferPool* pool,
    core::RawSeriesStore* raw) {
  std::string why;
  if (!SpecIsValid(spec, &why)) return Status::InvalidArgument(why);
  if (spec.num_shards > 1) {
    // Key-range sharding of the live stream: the wrapper owns a full
    // stack per shard (storage, pool, raw store) under the given
    // manager's directory, exactly like the static ShardedIndex.
    ShardedStreamingIndex::Options opts;
    opts.spec = spec;
    opts.num_shards = spec.num_shards;
    if (pool != nullptr) {
      opts.pool_bytes_per_shard = std::max<size_t>(
          storage::kPageSize,
          pool->capacity_pages() * storage::kPageSize / spec.num_shards);
    }
    // A durable sharded stream whose per-shard logs survive on disk is
    // recovered, not re-created (create would clear the shard
    // directories). The api layer preserves the handle directory for
    // exactly this case.
    const bool recover =
        spec.durable && ShardedStreamingIndex::HasDurableState(storage, name);
    COCONUT_ASSIGN_OR_RETURN(
        std::unique_ptr<ShardedStreamingIndex> sharded,
        recover ? ShardedStreamingIndex::Recover(storage, name, opts)
                : ShardedStreamingIndex::Create(storage, name, opts));
    return std::unique_ptr<stream::StreamingIndex>(std::move(sharded));
  }
  // Deferred seals/flushes/merges ride the caller's pool or the
  // process-wide shared one; each index serializes its own work on a
  // strand, so many streams can share a bounded worker set.
  ThreadPool* background =
      spec.async_ingest ? (spec.background_pool != nullptr
                               ? spec.background_pool
                               : SharedBackgroundPool())
                        : nullptr;
  switch (spec.mode) {
    case StreamMode::kStatic:
      return Status::InvalidArgument(
          "CreateStreamingIndex called with kStatic mode");
    case StreamMode::kPP: {
      COCONUT_ASSIGN_OR_RETURN(
          std::unique_ptr<core::DataSeriesIndex> inner,
          MakeInner(spec, storage, name, pool, raw, background));
      // PP over CTree inserts top-down into the B-tree: finalize the empty
      // bulk build up front so Ingest takes the insert path.
      if (spec.family == IndexFamily::kCTree) {
        COCONUT_RETURN_NOT_OK(inner->Finalize());
      }
      auto* lsm = dynamic_cast<clsm::Clsm*>(inner.get());
      auto pp = std::make_unique<stream::PostProcessingIndex>(
          std::move(inner), spec.timestamp_policy);
      if (lsm != nullptr) {
        pp->set_stats_provider([lsm] { return lsm->SnapshotStats(); });
        // Durability plumbing: the checkpoint manifest is CLSM's run set,
        // so the facade's restore forwards straight to the tree.
        pp->set_manifest_restorer([lsm](std::span<const uint8_t> manifest) {
          return lsm->RestoreFromManifest(manifest);
        });
      }
      pp->set_wal(spec.wal);
      return std::unique_ptr<stream::StreamingIndex>(std::move(pp));
    }
    case StreamMode::kTP: {
      stream::TemporalPartitioningIndex::Options opts;
      opts.sax = spec.sax;
      opts.materialized = spec.materialized;
      opts.backend = spec.family == IndexFamily::kAds
                         ? stream::PartitionBackend::kAds
                         : stream::PartitionBackend::kSeqTable;
      opts.buffer_entries = spec.buffer_entries;
      opts.ads_leaf_capacity = spec.ads_leaf_capacity;
      opts.timestamp_policy = spec.timestamp_policy;
      opts.background = background;
      opts.max_inflight_seals = spec.max_inflight_seals;
      opts.backpressure = spec.backpressure_policy;
      opts.seal_test_hook = spec.seal_test_hook;
      opts.wal = spec.wal;
      COCONUT_ASSIGN_OR_RETURN(
          std::unique_ptr<stream::TemporalPartitioningIndex> tp,
          stream::TemporalPartitioningIndex::Create(storage, name, opts, pool,
                                                    raw));
      return std::unique_ptr<stream::StreamingIndex>(std::move(tp));
    }
    case StreamMode::kBTP: {
      stream::BoundedTemporalPartitioningIndex::BtpOptions opts;
      opts.sax = spec.sax;
      opts.materialized = spec.materialized;
      opts.buffer_entries = spec.buffer_entries;
      opts.merge_k = spec.btp_merge_k;
      opts.timestamp_policy = spec.timestamp_policy;
      opts.background = background;
      opts.max_inflight_seals = spec.max_inflight_seals;
      opts.backpressure = spec.backpressure_policy;
      opts.seal_test_hook = spec.seal_test_hook;
      opts.wal = spec.wal;
      COCONUT_ASSIGN_OR_RETURN(
          std::unique_ptr<stream::BoundedTemporalPartitioningIndex> btp,
          stream::BoundedTemporalPartitioningIndex::Create(storage, name,
                                                           opts, pool, raw));
      return std::unique_ptr<stream::StreamingIndex>(std::move(btp));
    }
  }
  return Status::InvalidArgument("unknown stream mode");
}

}  // namespace palm
}  // namespace coconut
