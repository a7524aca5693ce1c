#include "core/config.h"

#include <cmath>
#include <string>

namespace xbfs::core {

Status XbfsConfig::validate() const {
  if (!(alpha > 0.0) || !std::isfinite(alpha)) {
    return Status::Invalid(
        "alpha must be positive and finite (adaptive range (0,1); > 1 "
        "disables bottom-up), got " + std::to_string(alpha));
  }
  if (!(growth_threshold > 0.0) || !std::isfinite(growth_threshold)) {
    return Status::Invalid("growth_threshold must be positive and finite, "
                           "got " + std::to_string(growth_threshold));
  }
  if (block_threads < 1) {
    return Status::Invalid("block_threads must be >= 1");
  }
  if (stream_mode == StreamMode::TripleBinned &&
      medium_min_degree >= large_min_degree) {
    return Status::Invalid(
        "TripleBinned bin edges must satisfy medium_min_degree < "
        "large_min_degree, got " + std::to_string(medium_min_degree) +
        " >= " + std::to_string(large_min_degree));
  }
  if (!(bottomup_spill_factor > 0.0) || !std::isfinite(bottomup_spill_factor)) {
    return Status::Invalid("bottomup_spill_factor must be positive and "
                           "finite");
  }
  if (!(dyn_compact_threshold > 0.0) || !std::isfinite(dyn_compact_threshold)) {
    return Status::Invalid("dyn_compact_threshold must be positive and "
                           "finite, got " +
                           std::to_string(dyn_compact_threshold));
  }
  return Status::Ok();
}

}  // namespace xbfs::core
