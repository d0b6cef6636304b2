#include "palm/heatmap.h"

#include <algorithm>
#include <map>
#include <set>

namespace coconut {
namespace palm {

namespace {

// Density ramp from empty to hottest.
constexpr char kGlyphs[] = " .:-=+*#%@";
constexpr int kNumGlyphs = 10;

}  // namespace

HeatMap BuildHeatMap(std::span<const storage::AccessEvent> events,
                     size_t time_bins, size_t location_bins) {
  HeatMap map;
  map.time_bins = time_bins;
  map.location_bins = location_bins;
  map.counts.assign(time_bins * location_bins, 0);
  map.total_events = events.size();
  if (events.empty() || time_bins == 0 || location_bins == 0) return map;

  // Assign each touched file a contiguous band of the location axis, sized
  // by the span of pages the query touched in it.
  std::map<uint32_t, uint64_t> file_max_page;
  std::set<std::pair<uint32_t, uint64_t>> distinct;
  for (const auto& e : events) {
    auto [it, inserted] = file_max_page.try_emplace(e.file_id, e.page_no);
    if (!inserted) it->second = std::max(it->second, e.page_no);
    distinct.insert({e.file_id, e.page_no});
  }
  map.distinct_pages = distinct.size();
  map.distinct_files = file_max_page.size();

  std::map<uint32_t, uint64_t> band_start;
  uint64_t cursor = 0;
  for (const auto& [file, max_page] : file_max_page) {
    band_start[file] = cursor;
    cursor += max_page + 1;
  }
  const uint64_t total_span = std::max<uint64_t>(1, cursor);

  const uint64_t first_seq = events.front().sequence;
  const uint64_t last_seq = events.back().sequence;
  const uint64_t seq_span = std::max<uint64_t>(1, last_seq - first_seq + 1);

  for (const auto& e : events) {
    const uint64_t location = band_start[e.file_id] + e.page_no;
    size_t t = static_cast<size_t>((e.sequence - first_seq) * time_bins /
                                   seq_span);
    size_t l = static_cast<size_t>(location * location_bins / total_span);
    t = std::min(t, time_bins - 1);
    l = std::min(l, location_bins - 1);
    uint32_t& cell = map.counts[t * location_bins + l];
    ++cell;
    map.max_count = std::max(map.max_count, cell);
  }
  return map;
}

double AccessLocality(std::span<const storage::AccessEvent> events) {
  if (events.size() < 2) return 1.0;
  uint64_t local = 0;
  for (size_t i = 1; i < events.size(); ++i) {
    const auto& prev = events[i - 1];
    const auto& cur = events[i];
    if (prev.file_id == cur.file_id &&
        (cur.page_no == prev.page_no || cur.page_no == prev.page_no + 1)) {
      ++local;
    }
  }
  return static_cast<double>(local) / (events.size() - 1);
}

std::string RenderHeatMapText(const HeatMap& map) {
  std::string out;
  out.reserve(map.time_bins * (map.location_bins + 2));
  out += "+" + std::string(map.location_bins, '-') + "+  storage ->\n";
  for (size_t t = 0; t < map.time_bins; ++t) {
    out += '|';
    for (size_t l = 0; l < map.location_bins; ++l) {
      const uint32_t c = map.at(t, l);
      int glyph = 0;
      if (c > 0 && map.max_count > 0) {
        // c == max_count maps to the hottest glyph.
        glyph = 1 + static_cast<int>(static_cast<uint64_t>(c) *
                                     (kNumGlyphs - 2) / map.max_count);
        glyph = std::min(glyph, kNumGlyphs - 1);
      }
      out += kGlyphs[glyph];
    }
    out += t == 0 ? "|  time\n" : (t == 1 ? "|    |\n" : (t == 2 ? "|    v\n" : "|\n"));
  }
  out += "+" + std::string(map.location_bins, '-') + "+\n";
  return out;
}

}  // namespace palm
}  // namespace coconut
