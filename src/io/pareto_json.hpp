// JSON (de)serialization of the Pareto search's frontier. As for the
// explore format, frontier machines are stored as their derivation specs
// (re-derived through arch::derive_variant on load, so a frontier file
// cannot drift from the transform definitions), and only jobs-invariant
// quantities are serialized — engine counters stay out of the document
// so a frontier is byte-identical for every --jobs value.
#pragma once

#include "io/json.hpp"
#include "study/pareto.hpp"

namespace fpr::io {

/// Schema tag + version stamped into every pareto document; from_json
/// rejects files with a different format or a newer version.
inline constexpr std::string_view kParetoFormat = "fpr-pareto-results";
inline constexpr std::int64_t kParetoVersion = 1;

Json to_json(const study::ParetoPoint& p);

/// Top-level document: {"format", "version", "base",
/// "budget": {"max_area_ratio", "max_tdp_ratio"},
/// "objectives": ["time", ...], "frontier": [...]}.
Json to_json(const study::ParetoResults& r);

study::ParetoPoint pareto_point_from_json(const Json& j,
                                          const arch::CpuSpec& base);

/// Inverse of to_json(ParetoResults). Throws JsonError on schema
/// mismatches, unknown base machines or objectives, or frontier specs
/// that fail to re-derive to the recorded name.
study::ParetoResults pareto_from_json(const Json& j);

}  // namespace fpr::io
