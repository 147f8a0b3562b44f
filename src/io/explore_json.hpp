// JSON (de)serialization of the explore engine's results. Variant
// machines are stored as their derivation specs (plus the base machine's
// short name), never as full CpuSpecs: from_json re-derives every
// variant through arch::derive_variant, so a results file stays small
// and cannot drift from the Table I descriptions or the transform
// definitions — a spec that no longer parses, or derives to a different
// short name, is a load-time error rather than silent skew.
#pragma once

#include "io/json.hpp"
#include "study/explore.hpp"

namespace fpr::io {

/// Schema tag + version stamped into every explore document; from_json
/// rejects files with a different format or a newer version.
inline constexpr std::string_view kExploreFormat = "fpr-explore-results";
inline constexpr std::int64_t kExploreVersion = 1;

Json to_json(const study::KernelProjection& p);
Json to_json(const study::VariantScore& v);

/// Top-level document:
/// {"format", "version", "base", "baseline", "variants": [...]}.
Json to_json(const study::ExploreResults& r);

study::KernelProjection kernel_projection_from_json(const Json& j);
study::VariantScore variant_score_from_json(const Json& j,
                                            const arch::CpuSpec& base);

/// Inverse of to_json(ExploreResults). Throws JsonError on schema
/// mismatches, unknown base machines, or variant specs that fail to
/// re-derive to the recorded name.
study::ExploreResults explore_from_json(const Json& j);

}  // namespace fpr::io
