#include "io/explore_json.hpp"

#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "arch/machines.hpp"
#include "io/study_json.hpp"

namespace fpr::io {

Json to_json(const study::KernelProjection& p) {
  return Json::object()
      .set("abbrev", p.abbrev)
      .set("mem", to_json(p.mem))
      .set("perf", to_json(p.perf))
      .set("time_ratio", p.time_ratio)
      .set("energy_ratio", p.energy_ratio)
      .set("fp64_pct_peak", p.fp64_pct_peak);
}

study::KernelProjection kernel_projection_from_json(const Json& j) {
  study::KernelProjection p;
  p.abbrev = j.at("abbrev").as_string();
  p.mem = mem_profile_from_json(j.at("mem"));
  p.perf = eval_from_json(j.at("perf"));
  p.time_ratio = j.at("time_ratio").as_number();
  p.energy_ratio = j.at("energy_ratio").as_number();
  p.fp64_pct_peak = j.at("fp64_pct_peak").as_number();
  return p;
}

Json to_json(const study::VariantScore& v) {
  Json kernels = Json::array();
  for (const auto& k : v.kernels) kernels.push(to_json(k));
  return Json::object()
      .set("spec", v.variant.spec)
      .set("name", v.variant.cpu.short_name)
      .set("geomean_time_ratio", v.geomean_time_ratio)
      .set("geomean_energy_ratio", v.geomean_energy_ratio)
      .set("mean_fp64_pct_peak", v.mean_fp64_pct_peak)
      .set("site_pct_peak", v.site_pct_peak)
      .set("kernels", std::move(kernels));
}

study::VariantScore variant_score_from_json(const Json& j,
                                            const arch::CpuSpec& base) {
  study::VariantScore v;
  try {
    v.variant = arch::derive_variant(base, j.at("spec").as_string());
  } catch (const std::invalid_argument& e) {
    throw JsonError(e.what());
  }
  const std::string& name = j.at("name").as_string();
  if (v.variant.cpu.short_name != name) {
    throw JsonError("variant spec '" + v.variant.spec + "' derives to '" +
                    v.variant.cpu.short_name + "', file says '" + name + "'");
  }
  v.geomean_time_ratio = j.at("geomean_time_ratio").as_number();
  v.geomean_energy_ratio = j.at("geomean_energy_ratio").as_number();
  v.mean_fp64_pct_peak = j.at("mean_fp64_pct_peak").as_number();
  v.site_pct_peak = j.at("site_pct_peak").as_number();
  const std::string what = "variant '" + name + "': kernel";
  std::set<std::string> abbrevs;
  for (const auto& k : j.at("kernels").as_array()) {
    v.kernels.push_back(kernel_projection_from_json(k));
    claim_identity(abbrevs, v.kernels.back().abbrev, what);
  }
  return v;
}

Json to_json(const study::ExploreResults& r) {
  Json variants = Json::array();
  for (const auto& v : r.variants) variants.push(to_json(v));
  return Json::object()
      .set("format", std::string(kExploreFormat))
      .set("version", kExploreVersion)
      .set("base", r.base)
      .set("baseline", to_json(r.baseline))
      .set("variants", std::move(variants));
}

study::ExploreResults explore_from_json(const Json& j) {
  check_results_header(j, kExploreFormat, kExploreVersion);
  study::ExploreResults r;
  r.base = j.at("base").as_string();
  const auto base = arch::find_machine(r.base);
  if (!base) throw JsonError("unknown base machine '" + r.base + "'");
  r.baseline = variant_score_from_json(j.at("baseline"), *base);
  std::set<std::string> names{r.baseline.name()};
  for (const auto& v : j.at("variants").as_array()) {
    r.variants.push_back(variant_score_from_json(v, *base));
    claim_identity(names, r.variants.back().name(), "variant");
  }
  return r;
}

}  // namespace fpr::io
