// JSON (de)serialization of the study pipeline's result types. The
// mapping is lossless for everything the pipeline computes: op counts
// round-trip as exact 64-bit integers, doubles as shortest-round-trip
// decimals, enums as their to_string spellings, and the access-pattern
// variant as a type-tagged object. MachineResult stores only the
// machine's short name; from_json rehydrates the full CpuSpec from
// arch::all_machines(), so a results file stays small and cannot drift
// from the Table I machine descriptions.
#pragma once

#include <set>
#include <string>

#include "io/json.hpp"
#include "study/study.hpp"

namespace fpr::io {

/// Schema tag + version stamped into every results document; from_json
/// rejects files with a different format or a newer version.
inline constexpr std::string_view kStudyFormat = "fpr-study-results";
inline constexpr std::int64_t kStudyVersion = 1;

/// The header check every results loader (study, explore, pareto) starts
/// with: `doc`'s `format` tag is `format`, and its `version` an integer
/// from 1 to `version`. Throws JsonError naming what the file holds.
void check_results_header(const Json& doc, std::string_view format,
                          std::int64_t version);

/// Adds `id` to `seen`; throws JsonError naming the `what` when it is
/// there already. A results file names each kernel, machine, variant and
/// frontier point once, which is what `fpr diff` matches them by.
void claim_identity(std::set<std::string>& seen, const std::string& id,
                    std::string_view what);

Json to_json(const counters::OpTally& t);
Json to_json(const memsim::AccessPatternSpec& spec);
Json to_json(const kernels::KernelTraits& t);
Json to_json(const kernels::WorkloadMeasurement& w);
Json to_json(const model::MemoryProfile& m);
Json to_json(const model::EvalResult& e);
Json to_json(const kernels::KernelInfo& info);
Json to_json(const study::MachineResult& m);
Json to_json(const study::KernelResult& k);

/// Top-level document: {"format", "version", "kernels": [...]}.
Json to_json(const study::StudyResults& r);

counters::OpTally op_tally_from_json(const Json& j);
memsim::AccessPatternSpec access_spec_from_json(const Json& j);
kernels::KernelTraits traits_from_json(const Json& j);
kernels::WorkloadMeasurement measurement_from_json(const Json& j);
model::MemoryProfile mem_profile_from_json(const Json& j);
model::EvalResult eval_from_json(const Json& j);
kernels::KernelInfo kernel_info_from_json(const Json& j);
study::MachineResult machine_result_from_json(const Json& j);
study::KernelResult kernel_result_from_json(const Json& j);

/// Inverse of to_json(StudyResults). Throws JsonError on schema
/// mismatches, unknown enum spellings, or unknown machine names.
study::StudyResults study_from_json(const Json& j);

}  // namespace fpr::io
