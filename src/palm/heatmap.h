#ifndef COCONUT_PALM_HEATMAP_H_
#define COCONUT_PALM_HEATMAP_H_

#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "storage/access_tracker.h"

namespace coconut {
namespace palm {

/// A query's page-access pattern binned over time (rows) and storage
/// location (columns) — the heat map of Figure 2 that the demo uses to
/// attribute CTree's speed to friendly I/O. Storage locations concatenate
/// the pages of every touched file into one axis (per-file bands ordered
/// by file id), so an ADS+ query shows up as scatter across many bands
/// while a CTree scan is one advancing diagonal.
struct HeatMap {
  size_t time_bins = 0;
  size_t location_bins = 0;
  /// Row-major [time][location] access counts.
  std::vector<uint32_t> counts;
  uint32_t max_count = 0;
  uint64_t total_events = 0;
  /// Number of distinct (file, page) cells touched.
  uint64_t distinct_pages = 0;
  /// Number of distinct files touched.
  uint64_t distinct_files = 0;

  uint32_t at(size_t t, size_t l) const {
    return counts[t * location_bins + l];
  }
};

/// Bins `events` into a time_bins x location_bins heat map.
HeatMap BuildHeatMap(std::span<const storage::AccessEvent> events,
                     size_t time_bins, size_t location_bins);

/// Fraction of consecutive accesses that land on the same or the next page
/// of the same file — 1.0 for a pure sequential scan, ~0 for random hops.
/// The single number the demo's narrative boils the heat map down to.
double AccessLocality(std::span<const storage::AccessEvent> events);

/// Renders the map as text (one row per time bin, density glyphs " .:-=+*#%@").
std::string RenderHeatMapText(const HeatMap& map);

/// Serializes the map for the GUI client. Defined in api.cc beside
/// api::HeatMapFromJson: one field list is the heat map's wire shape.
void HeatMapToJson(const HeatMap& map, JsonWriter* writer);

}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_HEATMAP_H_
