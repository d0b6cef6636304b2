#include "extsort/external_sorter.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "storage/page.h"

namespace coconut {
namespace extsort {

namespace {

using storage::kPageSize;

/// Streams a sorted in-memory buffer.
class VectorStream : public SortedStream {
 public:
  VectorStream(std::vector<uint8_t> data, size_t record_size)
      : data_(std::move(data)), record_size_(record_size) {}

  Result<bool> Next(uint8_t* out) override {
    if (pos_ >= data_.size()) return false;
    std::memcpy(out, data_.data() + pos_, record_size_);
    pos_ += record_size_;
    return true;
  }

  size_t record_size() const override { return record_size_; }

 private:
  std::vector<uint8_t> data_;
  size_t record_size_;
  size_t pos_ = 0;
};

/// Buffered sequential reader over a spilled run file, or over a byte
/// slice of one (a key range of the partitioned merge). `buffer_bytes` is
/// the read-ahead granularity: larger buffers amortize the seek paid when a
/// k-way merge switches between run files, which is why merge fan-in is
/// bounded by the memory budget.
class RunFileStream : public SortedStream {
 public:
  RunFileStream(std::unique_ptr<storage::File> file, size_t record_size,
                size_t buffer_bytes)
      : RunFileStream(std::move(file), record_size, buffer_bytes, 0,
                      std::numeric_limits<uint64_t>::max()) {}

  /// Streams records in byte range [begin_offset, end_offset) of the file.
  RunFileStream(std::unique_ptr<storage::File> file, size_t record_size,
                size_t buffer_bytes, uint64_t begin_offset,
                uint64_t end_offset)
      : file_(std::move(file)),
        record_size_(record_size),
        file_offset_(begin_offset),
        end_offset_(std::min(end_offset, file_->size_bytes())) {
    chunk_records_ = std::max<size_t>(
        1, std::max(kPageSize, buffer_bytes) / record_size_);
    chunk_.resize(chunk_records_ * record_size_);
  }

  Result<bool> Next(uint8_t* out) override {
    if (chunk_pos_ >= chunk_filled_) {
      COCONUT_RETURN_NOT_OK(Refill());
      if (chunk_filled_ == 0) return false;
    }
    std::memcpy(out, chunk_.data() + chunk_pos_, record_size_);
    chunk_pos_ += record_size_;
    return true;
  }

  size_t record_size() const override { return record_size_; }

 private:
  Status Refill() {
    chunk_pos_ = 0;
    chunk_filled_ = 0;
    if (end_offset_ <= file_offset_) return Status::OK();
    const uint64_t remaining = end_offset_ - file_offset_;
    if (remaining == 0) return Status::OK();
    const size_t to_read =
        static_cast<size_t>(std::min<uint64_t>(remaining, chunk_.size()));
    COCONUT_RETURN_NOT_OK(file_->ReadAt(file_offset_, chunk_.data(), to_read));
    file_offset_ += to_read;
    chunk_filled_ = to_read;
    return Status::OK();
  }

  std::unique_ptr<storage::File> file_;
  size_t record_size_;
  size_t chunk_records_;
  std::vector<uint8_t> chunk_;
  size_t chunk_pos_ = 0;
  size_t chunk_filled_ = 0;
  uint64_t file_offset_ = 0;
  uint64_t end_offset_;
};

/// Streams child streams back to back. The partitioned merge produces one
/// sorted file per key range; ranges are disjoint and ordered, so their
/// concatenation is globally sorted.
class ConcatStream : public SortedStream {
 public:
  ConcatStream(std::vector<std::unique_ptr<SortedStream>> children,
               size_t record_size)
      : children_(std::move(children)), record_size_(record_size) {}

  Result<bool> Next(uint8_t* out) override {
    while (current_ < children_.size()) {
      COCONUT_ASSIGN_OR_RETURN(bool has, children_[current_]->Next(out));
      if (has) return true;
      ++current_;
    }
    return false;
  }

  size_t record_size() const override { return record_size_; }

 private:
  std::vector<std::unique_ptr<SortedStream>> children_;
  size_t record_size_;
  size_t current_ = 0;
};

/// K-way merge over the child streams it owns (binary heap on the
/// lookahead record). Equal records pop from the lowest-indexed child, so
/// when children are ordered by run sequence the merge is stable — the
/// property that makes sorter output byte-identical across thread counts
/// and memory budgets.
class MergeStream : public SortedStream {
 public:
  MergeStream(std::vector<std::unique_ptr<SortedStream>> children,
              size_t record_size,
              std::function<bool(const uint8_t*, const uint8_t*)> less)
      : children_(std::move(children)),
        record_size_(record_size),
        less_(std::move(less)) {
    lookahead_.resize(children_.size() * record_size_);
  }

  /// Loads the first record of every child. Must be called once before Next.
  Status Init() {
    for (size_t i = 0; i < children_.size(); ++i) {
      COCONUT_ASSIGN_OR_RETURN(bool has,
                               children_[i]->Next(LookaheadFor(i)));
      if (has) heap_.push_back(i);
    }
    auto cmp = [this](size_t a, size_t b) { return HeapAfter(a, b); };
    std::make_heap(heap_.begin(), heap_.end(), cmp);
    return Status::OK();
  }

  Result<bool> Next(uint8_t* out) override {
    if (heap_.empty()) return false;
    auto cmp = [this](size_t a, size_t b) { return HeapAfter(a, b); };
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    const size_t idx = heap_.back();
    std::memcpy(out, LookaheadFor(idx), record_size_);
    COCONUT_ASSIGN_OR_RETURN(bool has, children_[idx]->Next(LookaheadFor(idx)));
    if (has) {
      std::push_heap(heap_.begin(), heap_.end(), cmp);
    } else {
      heap_.pop_back();
    }
    return true;
  }

  size_t record_size() const override { return record_size_; }

 private:
  uint8_t* LookaheadFor(size_t i) { return lookahead_.data() + i * record_size_; }

  /// std::push_heap builds a max-heap; "a sorts after b" pops the smallest
  /// record, ties broken toward the lower child index (stability).
  bool HeapAfter(size_t a, size_t b) {
    if (less_(LookaheadFor(b), LookaheadFor(a))) return true;
    if (less_(LookaheadFor(a), LookaheadFor(b))) return false;
    return b < a;
  }

  std::vector<std::unique_ptr<SortedStream>> children_;
  size_t record_size_;
  std::function<bool(const uint8_t*, const uint8_t*)> less_;
  std::vector<uint8_t> lookahead_;
  std::vector<size_t> heap_;
};

/// K-way-merges already-opened sorted streams (ordered by run sequence for
/// stability) into a fresh file, page-buffered sequential appends. The one
/// write path shared by intermediate passes and range merges.
Status MergeStreamsToFile(
    storage::StorageManager* storage,
    std::vector<std::unique_ptr<SortedStream>> streams, size_t record_size,
    const std::function<bool(const uint8_t*, const uint8_t*)>& less,
    const std::string& output_name) {
  MergeStream merge(std::move(streams), record_size, less);
  COCONUT_RETURN_NOT_OK(merge.Init());
  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> out_file,
                           storage->CreateFile(output_name));
  std::vector<uint8_t> record(record_size);
  std::vector<uint8_t> out;
  out.reserve(kPageSize + record_size);
  while (true) {
    COCONUT_ASSIGN_OR_RETURN(bool has, merge.Next(record.data()));
    if (!has) break;
    out.insert(out.end(), record.begin(), record.end());
    if (out.size() >= kPageSize) {
      COCONUT_RETURN_NOT_OK(out_file->Append(out.data(), out.size()));
      out.clear();
    }
  }
  if (!out.empty()) {
    COCONUT_RETURN_NOT_OK(out_file->Append(out.data(), out.size()));
  }
  return Status::OK();
}

}  // namespace

ExternalSorter::ExternalSorter(Options options)
    : options_(std::move(options)) {
  if (parallel()) {
    // One producer chunk plus up to `threads` in-flight chunks share the
    // budget, so parallelism never exceeds the configured memory.
    max_buffered_records_ = std::max<size_t>(
        1, options_.memory_budget_bytes /
               ((options_.threads + 1) * options_.record_size));
  } else {
    max_buffered_records_ = std::max<size_t>(
        1, options_.memory_budget_bytes / options_.record_size);
  }
  buffer_.reserve(std::min<size_t>(max_buffered_records_, 4096) *
                  options_.record_size);
}

ExternalSorter::~ExternalSorter() {
  StopWorkers();
  // Best-effort cleanup of any leftover run files.
  for (const auto& name : run_names_) {
    (void)options_.storage->RemoveFile(name);
  }
}

Result<std::unique_ptr<ExternalSorter>> ExternalSorter::Create(
    Options options) {
  if (options.record_size == 0) {
    return Status::InvalidArgument("record_size must be > 0");
  }
  if (options.storage == nullptr) {
    return Status::InvalidArgument("storage manager is required");
  }
  if (!options.less) {
    return Status::InvalidArgument("comparator is required");
  }
  return std::unique_ptr<ExternalSorter>(
      new ExternalSorter(std::move(options)));
}

Status ExternalSorter::Add(const void* record) {
  if (finished_) return Status::Internal("Add after Finish");
  if (buffered_records_ >= max_buffered_records_) {
    COCONUT_RETURN_NOT_OK(SpillRun());
  }
  const auto* bytes = static_cast<const uint8_t*>(record);
  buffer_.insert(buffer_.end(), bytes, bytes + options_.record_size);
  ++buffered_records_;
  ++stats_.records;
  return Status::OK();
}

namespace {

/// Stable-sorts `num_records` records in `data` and writes them to a fresh
/// run file in page-sized batches (sequential I/O).
Status WriteSortedRun(storage::StorageManager* storage,
                      const std::string& name, const uint8_t* data,
                      size_t num_records, size_t record_size,
                      const std::function<bool(const uint8_t*,
                                               const uint8_t*)>& less) {
  std::vector<const uint8_t*> ptrs(num_records);
  for (size_t i = 0; i < num_records; ++i) {
    ptrs[i] = data + i * record_size;
  }
  // Stable: equal records keep input order, for deterministic output.
  std::stable_sort(ptrs.begin(), ptrs.end(), less);

  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                           storage->CreateFile(name));
  std::vector<uint8_t> out;
  out.reserve(kPageSize + record_size);
  for (const uint8_t* p : ptrs) {
    out.insert(out.end(), p, p + record_size);
    if (out.size() >= kPageSize) {
      COCONUT_RETURN_NOT_OK(file->Append(out.data(), out.size()));
      out.clear();
    }
  }
  if (!out.empty()) {
    COCONUT_RETURN_NOT_OK(file->Append(out.data(), out.size()));
  }
  return Status::OK();
}

}  // namespace

Status ExternalSorter::SpillRun() {
  if (buffered_records_ == 0) return Status::OK();
  if (parallel()) {
    // Lazy spawn: inputs that fit in one chunk never pay for threads, and
    // threads_used stays honest — it counts workers that generated runs.
    if (pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(options_.threads);
      stats_.threads_used = options_.threads;
    }
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [this] {
      return chunks_in_flight_ < options_.threads || !worker_error_.ok();
    });
    if (!worker_error_.ok()) return worker_error_;
    ++chunks_in_flight_;
  }
  std::string name =
      options_.temp_prefix + ".run" + std::to_string(next_run_id_++);
  run_names_.push_back(name);
  ++stats_.runs_spilled;
  const size_t num_records = std::exchange(buffered_records_, 0);

  if (!parallel()) {
    Status st = WriteSortedRun(options_.storage, name, buffer_.data(),
                               num_records, options_.record_size,
                               options_.less);
    buffer_.clear();
    return st;
  }
  // shared_ptr because std::function requires a copyable closure.
  auto data = std::make_shared<std::vector<uint8_t>>(std::move(buffer_));
  pool_->Submit([this, name = std::move(name), data, num_records] {
    Status st = WriteSortedRun(options_.storage, name, data->data(),
                               num_records, options_.record_size,
                               options_.less);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!st.ok() && worker_error_.ok()) worker_error_ = st;
      --chunks_in_flight_;
    }
    space_cv_.notify_all();
  });
  buffer_ = std::vector<uint8_t>();
  buffer_.reserve(std::min<size_t>(max_buffered_records_, 4096) *
                  options_.record_size);
  return Status::OK();
}

void ExternalSorter::StopWorkers() {
  if (pool_ == nullptr) return;
  pool_->Wait();  // Outstanding chunks finish spilling.
  pool_.reset();  // Joins the workers.
}

Status ExternalSorter::MergeRuns(const std::vector<std::string>& inputs,
                                 const std::string& output_name) {
  const size_t merge_buffer = std::max<size_t>(
      kPageSize, options_.memory_budget_bytes / (inputs.size() + 1));
  std::vector<std::unique_ptr<SortedStream>> streams;
  streams.reserve(inputs.size());
  for (const auto& name : inputs) {
    COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                             options_.storage->OpenFile(name));
    streams.push_back(std::make_unique<RunFileStream>(
        std::move(file), options_.record_size, merge_buffer));
  }
  COCONUT_RETURN_NOT_OK(MergeStreamsToFile(options_.storage,
                                           std::move(streams),
                                           options_.record_size,
                                           options_.less, output_name));
  // Inputs merged; delete them.
  for (const auto& name : inputs) {
    COCONUT_RETURN_NOT_OK(options_.storage->RemoveFile(name));
  }
  return Status::OK();
}

Result<std::vector<std::string>> ExternalSorter::MergePass(size_t fan_in) {
  std::vector<std::string> next;
  std::vector<std::string> outputs;
  for (size_t i = 0; i < run_names_.size(); i += fan_in) {
    const size_t end = std::min(run_names_.size(), i + fan_in);
    if (end - i == 1) {
      next.push_back(run_names_[i]);
      continue;
    }
    outputs.push_back(options_.temp_prefix + ".merge" +
                      std::to_string(next_run_id_++));
    next.push_back(outputs.back());
    const std::vector<std::string> inputs(run_names_.begin() + i,
                                          run_names_.begin() + end);
    if (Status st = MergeRuns(inputs, outputs.back()); !st.ok()) {
      // Don't leak this pass's .merge outputs (complete or partial):
      // `next` is being discarded, so nothing else tracks them.
      for (const auto& name : outputs) {
        (void)options_.storage->RemoveFile(name);
      }
      return st;
    }
  }
  return next;
}

namespace {

/// First record index in the sorted run `file` that is not less than
/// `splitter` (lower bound), by binary search over ReadAt.
Result<uint64_t> LowerBoundRecord(
    storage::File* file, size_t record_size,
    const std::function<bool(const uint8_t*, const uint8_t*)>& less,
    const uint8_t* splitter) {
  uint64_t lo = 0;
  uint64_t hi = file->size_bytes() / record_size;
  std::vector<uint8_t> rec(record_size);
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    COCONUT_RETURN_NOT_OK(
        file->ReadAt(mid * record_size, rec.data(), record_size));
    if (less(rec.data(), splitter)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Result<std::vector<std::vector<uint8_t>>> ExternalSorter::PickSplitters(
    size_t num_ranges) {
  // Deterministic sampling: fixed per-run offsets, so splitters — and with
  // them the range files — depend only on the runs, never on timing.
  constexpr size_t kSamplesPerRun = 32;
  const size_t record_size = options_.record_size;
  std::vector<std::vector<uint8_t>> samples;
  for (const auto& name : run_names_) {
    COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                             options_.storage->OpenFile(name));
    const uint64_t n = file->size_bytes() / record_size;
    const uint64_t s = std::min<uint64_t>(n, kSamplesPerRun);
    for (uint64_t j = 0; j < s; ++j) {
      const uint64_t idx = j * n / s;
      std::vector<uint8_t> rec(record_size);
      COCONUT_RETURN_NOT_OK(
          file->ReadAt(idx * record_size, rec.data(), record_size));
      samples.push_back(std::move(rec));
    }
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [this](const std::vector<uint8_t>& a,
                          const std::vector<uint8_t>& b) {
                     return options_.less(a.data(), b.data());
                   });
  std::vector<std::vector<uint8_t>> splitters;
  for (size_t i = 1; i < num_ranges && !samples.empty(); ++i) {
    const std::vector<uint8_t>& candidate =
        samples[i * samples.size() / num_ranges];
    // Keep splitters strictly ascending and strictly above the smallest
    // sample: an equal splitter would carve an empty range, and a fully
    // duplicated key space should fall back to the serial merge.
    const uint8_t* prev = splitters.empty() ? samples.front().data()
                                            : splitters.back().data();
    if (!options_.less(prev, candidate.data())) continue;
    splitters.push_back(candidate);
  }
  return splitters;
}

Result<std::unique_ptr<SortedStream>> ExternalSorter::PartitionedFinalMerge(
    size_t num_ranges) {
  // The per-stream buffer floor is one page, so each concurrent range
  // merge pins (runs + 1) pages; budget_slots is how many the budget can
  // feed at once. Fewer than two and partitioning buys nothing over the
  // streaming serial merge — decided before sampling, so declining costs
  // no I/O.
  const size_t budget_slots = std::max<size_t>(
      1, options_.memory_budget_bytes /
             ((run_names_.size() + 1) * kPageSize));
  if (budget_slots < 2) {
    return std::unique_ptr<SortedStream>(nullptr);
  }

  COCONUT_ASSIGN_OR_RETURN(std::vector<std::vector<uint8_t>> splitters,
                           PickSplitters(num_ranges));
  if (splitters.empty()) {
    // One key class dominates the sample; a single streaming merge is both
    // simpler and cheaper. nullptr tells Finish to take the serial path.
    return std::unique_ptr<SortedStream>(nullptr);
  }
  const size_t ranges = splitters.size() + 1;
  const size_t record_size = options_.record_size;

  // Per run: byte offsets of every range boundary. Lower-bound semantics
  // put each tie class entirely into one range, which is what makes the
  // concatenation byte-identical to the serial stable merge.
  std::vector<std::vector<uint64_t>> boundaries(run_names_.size());
  for (size_t r = 0; r < run_names_.size(); ++r) {
    COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                             options_.storage->OpenFile(run_names_[r]));
    boundaries[r].resize(ranges + 1);
    boundaries[r][0] = 0;
    for (size_t i = 0; i < splitters.size(); ++i) {
      COCONUT_ASSIGN_OR_RETURN(
          uint64_t idx, LowerBoundRecord(file.get(), record_size,
                                         options_.less, splitters[i].data()));
      boundaries[r][i + 1] = idx * record_size;
    }
    boundaries[r][ranges] = file->size_bytes();
  }

  // Budget: each running range merge holds one buffer per run slice plus
  // an output buffer. A pool of `concurrent` workers runs at most that many
  // at once; a queued range opens its streams only when it starts.
  const size_t concurrent = std::min({num_ranges, ranges, budget_slots});
  const size_t merge_buffer = std::max<size_t>(
      kPageSize, options_.memory_budget_bytes /
                     (concurrent * (run_names_.size() + 1)));
  stats_.merge_threads_used = concurrent;

  std::vector<std::string> range_names(ranges);
  std::vector<Status> statuses(ranges);
  {
    ThreadPool pool(concurrent);
    for (size_t range = 0; range < ranges; ++range) {
      range_names[range] =
          options_.temp_prefix + ".range" + std::to_string(range);
      pool.Submit([this, range, &range_names, &statuses, &boundaries,
                   merge_buffer, record_size] {
        statuses[range] = [&]() -> Status {
          // Children ordered by run sequence — the tie-break order the
          // stable merge relies on. Empty slices are skipped; that cannot
          // reorder the survivors.
          std::vector<std::unique_ptr<SortedStream>> streams;
          for (size_t r = 0; r < run_names_.size(); ++r) {
            const uint64_t begin = boundaries[r][range];
            const uint64_t end = boundaries[r][range + 1];
            if (begin >= end) continue;
            COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                                     options_.storage->OpenFile(run_names_[r]));
            streams.push_back(std::make_unique<RunFileStream>(
                std::move(file), record_size, merge_buffer, begin, end));
          }
          return MergeStreamsToFile(options_.storage, std::move(streams),
                                    record_size, options_.less,
                                    range_names[range]);
        }();
      });
    }
    pool.Wait();
  }
  for (const Status& st : statuses) {
    if (!st.ok()) {
      // Don't leak .range files (complete or partial); the runs are still
      // tracked by run_names_ for destructor cleanup.
      for (const auto& name : range_names) {
        (void)options_.storage->RemoveFile(name);
      }
      return st;
    }
  }

  // Runs are fully partitioned into range files; drop them and stream the
  // ranges back to back.
  for (const auto& name : run_names_) {
    COCONUT_RETURN_NOT_OK(options_.storage->RemoveFile(name));
  }
  run_names_ = range_names;  // Destructor cleanup now tracks range files.
  ++stats_.merge_passes;
  stats_.merge_ranges = ranges;

  const size_t concat_buffer = std::max<size_t>(
      kPageSize, options_.memory_budget_bytes / (ranges + 1));
  std::vector<std::unique_ptr<SortedStream>> outputs;
  outputs.reserve(ranges);
  for (const auto& name : range_names) {
    COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                             options_.storage->OpenFile(name));
    outputs.push_back(std::make_unique<RunFileStream>(
        std::move(file), record_size, concat_buffer));
  }
  return std::unique_ptr<SortedStream>(
      std::make_unique<ConcatStream>(std::move(outputs), record_size));
}

Result<std::unique_ptr<SortedStream>> ExternalSorter::Finish() {
  if (finished_) return Status::Internal("Finish called twice");
  finished_ = true;

  // Everything fits: a single in-memory sorted stream, zero I/O.
  if (run_names_.empty()) {
    std::vector<const uint8_t*> ptrs(buffered_records_);
    for (size_t i = 0; i < buffered_records_; ++i) {
      ptrs[i] = buffer_.data() + i * options_.record_size;
    }
    std::stable_sort(ptrs.begin(), ptrs.end(), options_.less);
    std::vector<uint8_t> sorted;
    sorted.reserve(buffer_.size());
    for (const uint8_t* p : ptrs) {
      sorted.insert(sorted.end(), p, p + options_.record_size);
    }
    buffer_.clear();
    buffered_records_ = 0;
    stats_.in_memory = true;
    return std::unique_ptr<SortedStream>(
        std::make_unique<VectorStream>(std::move(sorted), options_.record_size));
  }

  // Spill the tail so every record is in some run, then let the workers
  // finish theirs.
  COCONUT_RETURN_NOT_OK(SpillRun());
  StopWorkers();
  COCONUT_RETURN_NOT_OK(worker_error_);  // Workers joined: no lock needed.

  // Bound the merge fan-in by the memory budget: one page per input run
  // plus one output page.
  const size_t fan_in = std::max<size_t>(
      2, options_.memory_budget_bytes / kPageSize > 1
             ? options_.memory_budget_bytes / kPageSize - 1
             : 2);

  // Multi-pass merging under extreme memory pressure.
  while (run_names_.size() > fan_in) {
    ++stats_.merge_passes;
    COCONUT_ASSIGN_OR_RETURN(run_names_, MergePass(fan_in));
  }

  if (parallel() && run_names_.size() > 1) {
    COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<SortedStream> stream,
                             PartitionedFinalMerge(options_.threads));
    if (stream != nullptr) return stream;
  }
  ++stats_.merge_passes;

  // Final merge streamed to the caller.
  const size_t merge_buffer =
      std::max<size_t>(kPageSize,
                       options_.memory_budget_bytes / (run_names_.size() + 1));
  std::vector<std::unique_ptr<SortedStream>> streams;
  for (const auto& name : run_names_) {
    COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                             options_.storage->OpenFile(name));
    streams.push_back(std::make_unique<RunFileStream>(
        std::move(file), options_.record_size, merge_buffer));
  }
  auto merge = std::make_unique<MergeStream>(
      std::move(streams), options_.record_size, options_.less);
  COCONUT_RETURN_NOT_OK(merge->Init());
  return std::unique_ptr<SortedStream>(std::move(merge));
}

Result<std::vector<uint8_t>> SortToBytes(ExternalSorter::Options options,
                                         const std::vector<uint8_t>& records) {
  const size_t record_size = options.record_size;
  if (record_size == 0 || records.size() % record_size != 0) {
    return Status::InvalidArgument("records not a multiple of record_size");
  }
  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<ExternalSorter> sorter,
                           ExternalSorter::Create(std::move(options)));
  for (size_t off = 0; off < records.size(); off += record_size) {
    COCONUT_RETURN_NOT_OK(sorter->Add(records.data() + off));
  }
  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<SortedStream> stream,
                           sorter->Finish());
  std::vector<uint8_t> out;
  out.reserve(records.size());
  std::vector<uint8_t> record(record_size);
  while (true) {
    COCONUT_ASSIGN_OR_RETURN(bool has, stream->Next(record.data()));
    if (!has) break;
    out.insert(out.end(), record.begin(), record.end());
  }
  return out;
}

}  // namespace extsort
}  // namespace coconut
