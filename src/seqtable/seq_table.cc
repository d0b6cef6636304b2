#include "seqtable/seq_table.h"

#include <algorithm>
#include <cstring>

namespace coconut {
namespace seqtable {

namespace {

using core::IndexEntry;
using series::SaxWord;
using series::SortableKey;
using storage::kPageSize;
using storage::Page;

constexpr uint64_t kMagic = 0xC0C0471AB1E00001ULL;
constexpr uint32_t kVersion = 1;
constexpr size_t kLeafHeaderBytes = 16;
constexpr size_t kDirEntryBytes = 64;

// Header page field offsets.
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 8;
constexpr size_t kOffSeriesLength = 12;
constexpr size_t kOffNumSegments = 16;
constexpr size_t kOffBitsPerSegment = 20;
constexpr size_t kOffMaterialized = 24;
constexpr size_t kOffFillPercent = 28;
constexpr size_t kOffNumEntries = 32;
constexpr size_t kOffNumLeaves = 40;
constexpr size_t kOffDirOffset = 48;
constexpr size_t kOffMinTimestamp = 56;
constexpr size_t kOffMaxTimestamp = 64;

// Per-segment SAX bounding box of a leaf's entries (min_sym / max_sym).
void SetBoundingBox(std::span<const IndexEntry> entries,
                    const series::SaxConfig& sax, LeafMeta* meta) {
  meta->min_sym.fill(0xFF);
  meta->max_sym.fill(0);
  for (const auto& entry : entries) {
    const SaxWord word = series::DeinterleaveKey(entry.key, sax);
    for (int s = 0; s < sax.num_segments; ++s) {
      meta->min_sym[s] = std::min(meta->min_sym[s], word[s]);
      meta->max_sym[s] = std::max(meta->max_sym[s], word[s]);
    }
  }
}

void EncodeDirEntry(const LeafMeta& meta, uint8_t* out) {
  std::memcpy(out, &meta.min_key.words[0], 8);
  std::memcpy(out + 8, &meta.min_key.words[1], 8);
  std::memcpy(out + 16, meta.min_sym.data(), 16);
  std::memcpy(out + 32, meta.max_sym.data(), 16);
  std::memcpy(out + 48, &meta.count, 4);
  std::memset(out + 52, 0, 4);
  std::memcpy(out + 56, &meta.page_no, 8);
}

LeafMeta DecodeDirEntry(const uint8_t* in) {
  LeafMeta meta;
  std::memcpy(&meta.min_key.words[0], in, 8);
  std::memcpy(&meta.min_key.words[1], in + 8, 8);
  std::memcpy(meta.min_sym.data(), in + 16, 16);
  std::memcpy(meta.max_sym.data(), in + 32, 16);
  std::memcpy(&meta.count, in + 48, 4);
  std::memcpy(&meta.page_no, in + 56, 8);
  return meta;
}

}  // namespace

size_t RecordSize(const SeqTableOptions& options) {
  size_t size = sizeof(IndexEntry);
  if (options.materialized) {
    size += static_cast<size_t>(options.sax.series_length) * sizeof(float);
  }
  return size;
}

size_t LeafCapacity(const SeqTableOptions& options) {
  return (kPageSize - kLeafHeaderBytes) / RecordSize(options);
}

// ---------------------------------------------------------------- Builder

SeqTableBuilder::SeqTableBuilder(storage::StorageManager* storage,
                                 std::string name,
                                 const SeqTableOptions& options)
    : storage_(storage), name_(std::move(name)), options_(options) {
  record_size_ = RecordSize(options_);
  leaf_capacity_ = LeafCapacity(options_);
  leaf_fill_target_ = std::max<size_t>(
      1, static_cast<size_t>(leaf_capacity_ * options_.fill_factor));
}

Result<std::unique_ptr<SeqTableBuilder>> SeqTableBuilder::Create(
    storage::StorageManager* storage, const std::string& name,
    const SeqTableOptions& options) {
  if (!options.sax.Valid()) {
    return Status::InvalidArgument("invalid SaxConfig");
  }
  if (options.fill_factor <= 0.0 || options.fill_factor > 1.0) {
    return Status::InvalidArgument("fill_factor must be in (0, 1]");
  }
  if (LeafCapacity(options) == 0) {
    return Status::InvalidArgument(
        "series too long to materialize inside a page (max 1012 points)");
  }
  auto builder = std::unique_ptr<SeqTableBuilder>(
      new SeqTableBuilder(storage, name, options));
  COCONUT_RETURN_NOT_OK(builder->OpenFile());
  return builder;
}

Status SeqTableBuilder::OpenFile() {
  COCONUT_ASSIGN_OR_RETURN(file_, storage_->CreateFile(name_));
  return Status::OK();
}

Status SeqTableBuilder::Add(const core::IndexEntry& entry,
                            std::span<const float> payload) {
  if (finished_) return Status::Internal("Add after Finish");
  if (options_.materialized) {
    if (payload.size() != static_cast<size_t>(options_.sax.series_length)) {
      return Status::InvalidArgument("payload length mismatch");
    }
  } else if (!payload.empty()) {
    return Status::InvalidArgument("payload given to non-materialized table");
  }
  if (entry.key < last_key_) {
    return Status::InvalidArgument(
        "entries must be added in sortable-key order");
  }
  last_key_ = entry.key;

  leaf_entries_.push_back(entry);
  if (options_.materialized) {
    leaf_payloads_.insert(leaf_payloads_.end(), payload.begin(), payload.end());
  }
  min_timestamp_ = std::min(min_timestamp_, entry.timestamp);
  max_timestamp_ = std::max(max_timestamp_, entry.timestamp);
  ++entries_added_;

  if (leaf_entries_.size() >= leaf_fill_target_) {
    COCONUT_RETURN_NOT_OK(FlushLeaf());
  }
  return Status::OK();
}

Status SeqTableBuilder::FlushLeaf() {
  if (leaf_entries_.empty()) return Status::OK();

  Page page;
  const uint32_t count = static_cast<uint32_t>(leaf_entries_.size());
  page.Write<uint32_t>(0, count);
  size_t off = kLeafHeaderBytes;
  const size_t len = options_.sax.series_length;
  for (size_t i = 0; i < leaf_entries_.size(); ++i) {
    std::memcpy(page.data() + off, &leaf_entries_[i], sizeof(IndexEntry));
    off += sizeof(IndexEntry);
    if (options_.materialized) {
      std::memcpy(page.data() + off, leaf_payloads_.data() + i * len,
                  len * sizeof(float));
      off += len * sizeof(float);
    }
  }
  COCONUT_RETURN_NOT_OK(file_->Append(page.data(), kPageSize));

  // Directory metadata: min key plus the per-segment SAX bounding box.
  LeafMeta meta;
  meta.min_key = leaf_entries_.front().key;
  meta.count = count;
  meta.page_no = directory_.size();
  SetBoundingBox(leaf_entries_, options_.sax, &meta);
  directory_.push_back(meta);

  leaf_entries_.clear();
  leaf_payloads_.clear();
  return Status::OK();
}

Status SeqTableBuilder::Finish() {
  if (finished_) return Status::Internal("Finish called twice");
  COCONUT_RETURN_NOT_OK(FlushLeaf());
  finished_ = true;

  const uint64_t dir_offset = file_->size_bytes();
  std::vector<uint8_t> dir_bytes(directory_.size() * kDirEntryBytes);
  for (size_t i = 0; i < directory_.size(); ++i) {
    EncodeDirEntry(directory_[i], dir_bytes.data() + i * kDirEntryBytes);
  }
  // Pad to a page boundary so the footer occupies one aligned page.
  const size_t padded =
      ((dir_bytes.size() + kPageSize - 1) / kPageSize) * kPageSize;
  dir_bytes.resize(padded, 0);
  if (!dir_bytes.empty()) {
    COCONUT_RETURN_NOT_OK(file_->Append(dir_bytes.data(), dir_bytes.size()));
  }

  // Metadata lives in a footer page appended at the very end (like an
  // SSTable footer): sealing a run is a purely sequential operation — no
  // backward seek to a header block.
  Page footer;
  footer.Write<uint64_t>(kOffMagic, kMagic);
  footer.Write<uint32_t>(kOffVersion, kVersion);
  footer.Write<uint32_t>(kOffSeriesLength,
                         static_cast<uint32_t>(options_.sax.series_length));
  footer.Write<uint32_t>(kOffNumSegments,
                         static_cast<uint32_t>(options_.sax.num_segments));
  footer.Write<uint32_t>(kOffBitsPerSegment,
                         static_cast<uint32_t>(options_.sax.bits_per_segment));
  footer.Write<uint32_t>(kOffMaterialized, options_.materialized ? 1 : 0);
  footer.Write<uint32_t>(kOffFillPercent,
                         static_cast<uint32_t>(options_.fill_factor * 10000));
  footer.Write<uint64_t>(kOffNumEntries, entries_added_);
  footer.Write<uint64_t>(kOffNumLeaves, directory_.size());
  footer.Write<uint64_t>(kOffDirOffset, dir_offset);
  footer.Write<int64_t>(kOffMinTimestamp, min_timestamp_);
  footer.Write<int64_t>(kOffMaxTimestamp, max_timestamp_);
  COCONUT_RETURN_NOT_OK(file_->Append(footer.data(), kPageSize));
  return file_->Sync();
}

// ---------------------------------------------------------------- Reader

Result<std::unique_ptr<SeqTable>> SeqTable::Open(
    storage::StorageManager* storage, const std::string& name,
    storage::BufferPool* pool) {
  auto table =
      std::unique_ptr<SeqTable>(new SeqTable(storage, name, pool));
  COCONUT_RETURN_NOT_OK(table->Load());
  return table;
}

Status SeqTable::Load() {
  COCONUT_ASSIGN_OR_RETURN(file_, storage_->OpenFile(name_));
  if (file_->num_pages() == 0) {
    return Status::InvalidArgument("'" + name_ + "' is empty");
  }
  Page header;
  COCONUT_RETURN_NOT_OK(file_->ReadPage(file_->num_pages() - 1, &header));
  if (header.Read<uint64_t>(kOffMagic) != kMagic) {
    return Status::InvalidArgument("'" + name_ + "' is not a SeqTable");
  }
  if (header.Read<uint32_t>(kOffVersion) != kVersion) {
    return Status::NotSupported("unsupported SeqTable version");
  }
  options_.sax.series_length =
      static_cast<int>(header.Read<uint32_t>(kOffSeriesLength));
  options_.sax.num_segments =
      static_cast<int>(header.Read<uint32_t>(kOffNumSegments));
  options_.sax.bits_per_segment =
      static_cast<int>(header.Read<uint32_t>(kOffBitsPerSegment));
  options_.materialized = header.Read<uint32_t>(kOffMaterialized) != 0;
  options_.fill_factor = header.Read<uint32_t>(kOffFillPercent) / 10000.0;
  num_entries_ = header.Read<uint64_t>(kOffNumEntries);
  const uint64_t num_leaves = header.Read<uint64_t>(kOffNumLeaves);
  const uint64_t dir_offset = header.Read<uint64_t>(kOffDirOffset);
  min_timestamp_ = header.Read<int64_t>(kOffMinTimestamp);
  max_timestamp_ = header.Read<int64_t>(kOffMaxTimestamp);
  record_size_ = RecordSize(options_);
  leaf_capacity_ = LeafCapacity(options_);

  directory_.resize(num_leaves);
  if (num_leaves > 0) {
    std::vector<uint8_t> dir_bytes(num_leaves * kDirEntryBytes);
    COCONUT_RETURN_NOT_OK(
        file_->ReadAt(dir_offset, dir_bytes.data(), dir_bytes.size()));
    for (uint64_t i = 0; i < num_leaves; ++i) {
      directory_[i] = DecodeDirEntry(dir_bytes.data() + i * kDirEntryBytes);
    }
  }
  return Status::OK();
}

size_t SeqTable::FindLeafForKey(const series::SortableKey& key) const {
  if (directory_.empty()) return 0;
  // First leaf whose min_key > key, then step back.
  auto it = std::upper_bound(
      directory_.begin(), directory_.end(), key,
      [](const SortableKey& k, const LeafMeta& m) { return k < m.min_key; });
  if (it == directory_.begin()) return 0;
  return static_cast<size_t>(it - directory_.begin()) - 1;
}

Status SeqTable::ReadLeaf(size_t leaf_idx, LeafView* view) const {
  if (leaf_idx >= directory_.size()) {
    return Status::OutOfRange("leaf index out of range");
  }
  const uint64_t page_no = directory_[leaf_idx].page_no;
  if (pool_ != nullptr) {
    COCONUT_ASSIGN_OR_RETURN(const Page* page,
                             pool_->GetPage(file_.get(), page_no));
    return DecodeLeafPage(*page, view);
  }
  Page page;
  COCONUT_RETURN_NOT_OK(file_->ReadPage(page_no, &page));
  return DecodeLeafPage(page, view);
}

Status SeqTable::DecodeLeafPage(const storage::Page& page,
                                LeafView* view) const {
  const uint32_t count = page.Read<uint32_t>(0);
  const size_t len = options_.sax.series_length;
  view->entries.resize(count);
  view->payloads.clear();
  if (options_.materialized) view->payloads.resize(count * len);
  size_t off = kLeafHeaderBytes;
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(&view->entries[i], page.data() + off, sizeof(IndexEntry));
    off += sizeof(IndexEntry);
    if (options_.materialized) {
      std::memcpy(view->payloads.data() + i * len, page.data() + off,
                  len * sizeof(float));
      off += len * sizeof(float);
    }
  }
  return Status::OK();
}

Status SeqTable::EncodeLeafPage(const LeafView& view,
                                storage::Page* page) const {
  if (view.entries.size() > leaf_capacity_) {
    return Status::InvalidArgument("leaf view exceeds page capacity");
  }
  page->Clear();
  page->Write<uint32_t>(0, static_cast<uint32_t>(view.entries.size()));
  size_t off = kLeafHeaderBytes;
  const size_t len = options_.sax.series_length;
  for (size_t i = 0; i < view.entries.size(); ++i) {
    std::memcpy(page->data() + off, &view.entries[i], sizeof(IndexEntry));
    off += sizeof(IndexEntry);
    if (options_.materialized) {
      std::memcpy(page->data() + off, view.payloads.data() + i * len,
                  len * sizeof(float));
      off += len * sizeof(float);
    }
  }
  return Status::OK();
}

LeafMeta SeqTable::MetaFromView(const LeafView& view, uint64_t page_no) const {
  LeafMeta meta;
  meta.count = static_cast<uint32_t>(view.entries.size());
  meta.page_no = page_no;
  if (!view.entries.empty()) meta.min_key = view.entries.front().key;
  SetBoundingBox(view.entries, options_.sax, &meta);
  return meta;
}

Status SeqTable::UpdateLeaf(size_t leaf_idx, const LeafView& view) {
  if (leaf_idx >= directory_.size()) {
    return Status::OutOfRange("leaf index out of range");
  }
  const uint64_t page_no = directory_[leaf_idx].page_no;
  Page page;
  COCONUT_RETURN_NOT_OK(EncodeLeafPage(view, &page));
  COCONUT_RETURN_NOT_OK(file_->WritePage(page_no, page));
  const uint32_t old_count = directory_[leaf_idx].count;
  directory_[leaf_idx] = MetaFromView(view, page_no);
  num_entries_ += directory_[leaf_idx].count;
  num_entries_ -= old_count;
  for (const auto& entry : view.entries) {
    min_timestamp_ = std::min(min_timestamp_, entry.timestamp);
    max_timestamp_ = std::max(max_timestamp_, entry.timestamp);
  }
  if (pool_ != nullptr) pool_->Invalidate(file_->file_id());
  return Status::OK();
}

Result<size_t> SeqTable::InsertLeaf(size_t dir_pos, const LeafView& view) {
  if (dir_pos > directory_.size()) {
    return Status::OutOfRange("directory position out of range");
  }
  // New leaves land on a fresh page at the end of the file: the physical
  // scatter that accumulating splits inflict on a B-tree.
  const uint64_t page_no = file_->num_pages();
  Page page;
  COCONUT_RETURN_NOT_OK(EncodeLeafPage(view, &page));
  COCONUT_RETURN_NOT_OK(file_->WritePage(page_no, page));
  LeafMeta meta = MetaFromView(view, page_no);
  directory_.insert(directory_.begin() + dir_pos, meta);
  num_entries_ += meta.count;
  for (const auto& entry : view.entries) {
    min_timestamp_ = std::min(min_timestamp_, entry.timestamp);
    max_timestamp_ = std::max(max_timestamp_, entry.timestamp);
  }
  if (pool_ != nullptr) pool_->Invalidate(file_->file_id());
  return dir_pos;
}

Status SeqTable::PersistDirectory() {
  const uint64_t dir_offset = file_->size_bytes();
  std::vector<uint8_t> dir_bytes(directory_.size() * kDirEntryBytes);
  for (size_t i = 0; i < directory_.size(); ++i) {
    EncodeDirEntry(directory_[i], dir_bytes.data() + i * kDirEntryBytes);
  }
  const size_t padded =
      ((dir_bytes.size() + kPageSize - 1) / kPageSize) * kPageSize;
  dir_bytes.resize(padded, 0);
  if (!dir_bytes.empty()) {
    COCONUT_RETURN_NOT_OK(file_->Append(dir_bytes.data(), dir_bytes.size()));
  }
  // Fresh footer after the new directory; the previous directory and footer
  // become dead space until the next rebuild (copy-on-write metadata).
  Page footer;
  footer.Write<uint64_t>(kOffMagic, kMagic);
  footer.Write<uint32_t>(kOffVersion, kVersion);
  footer.Write<uint32_t>(kOffSeriesLength,
                         static_cast<uint32_t>(options_.sax.series_length));
  footer.Write<uint32_t>(kOffNumSegments,
                         static_cast<uint32_t>(options_.sax.num_segments));
  footer.Write<uint32_t>(kOffBitsPerSegment,
                         static_cast<uint32_t>(options_.sax.bits_per_segment));
  footer.Write<uint32_t>(kOffMaterialized, options_.materialized ? 1 : 0);
  footer.Write<uint32_t>(kOffFillPercent,
                         static_cast<uint32_t>(options_.fill_factor * 10000));
  footer.Write<uint64_t>(kOffNumEntries, num_entries_);
  footer.Write<uint64_t>(kOffNumLeaves, directory_.size());
  footer.Write<uint64_t>(kOffDirOffset, dir_offset);
  footer.Write<int64_t>(kOffMinTimestamp, min_timestamp_);
  footer.Write<int64_t>(kOffMaxTimestamp, max_timestamp_);
  COCONUT_RETURN_NOT_OK(file_->Append(footer.data(), kPageSize));
  return file_->Sync();
}

series::SaxRegion SeqTable::LeafRegion(size_t leaf_idx) const {
  const LeafMeta& meta = directory_[leaf_idx];
  return series::RegionFromSymbolRange(meta.min_sym, meta.max_sym,
                                       options_.sax);
}

Result<bool> SeqTable::Scanner::Next(core::IndexEntry* entry,
                                     std::vector<float>* payload) {
  while (true) {
    if (!view_loaded_) {
      if (leaf_idx_ >= table_->num_leaves()) return false;
      COCONUT_RETURN_NOT_OK(table_->ReadLeaf(leaf_idx_, &view_));
      view_loaded_ = true;
      pos_in_leaf_ = 0;
    }
    if (pos_in_leaf_ >= view_.entries.size()) {
      ++leaf_idx_;
      view_loaded_ = false;
      continue;
    }
    *entry = view_.entries[pos_in_leaf_];
    if (payload != nullptr && table_->materialized()) {
      const size_t len = table_->sax().series_length;
      payload->assign(view_.payloads.begin() + pos_in_leaf_ * len,
                      view_.payloads.begin() + (pos_in_leaf_ + 1) * len);
    }
    ++pos_in_leaf_;
    return true;
  }
}

}  // namespace seqtable
}  // namespace coconut
