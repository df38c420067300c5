#include "dsss/prepared_codebook.hpp"

#include <algorithm>

#include "obs/metrics_registry.hpp"

namespace jrsnd::dsss {

void PreparedCodebook::assign(std::vector<SpreadCode> codes) {
  codes_ = std::move(codes);
  uniform_ = uniform_code_lengths(codes_);
  table_ = uniform_ ? BatchShiftTable(codes_) : BatchShiftTable();
}

bool PreparedCodebook::assign_if_changed(std::span<const SpreadCode> codes) {
  const bool same = codes.size() == codes_.size() &&
                    std::equal(codes.begin(), codes.end(), codes_.begin());
  if (same) {
    JRSND_COUNT("dsss.prepared.codebook.hits");
    return false;
  }
  JRSND_COUNT("dsss.prepared.codebook.rebuilds");
  assign(std::vector<SpreadCode>(codes.begin(), codes.end()));
  return true;
}

const PreparedCodebook& NodeCodebookCache::prepare(NodeId id, std::span<const SpreadCode> codes) {
  PreparedCodebook& cached = entry(id);
  cached.assign_if_changed(codes);
  return cached;
}

PreparedCodebook& NodeCodebookCache::entry(NodeId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_[id];
}

}  // namespace jrsnd::dsss
