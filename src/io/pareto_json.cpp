#include "io/pareto_json.hpp"

#include <set>
#include <string>
#include <utility>

#include "arch/machines.hpp"
#include "io/explore_json.hpp"
#include "io/study_json.hpp"

namespace fpr::io {

Json to_json(const study::ParetoPoint& p) {
  Json objectives = Json::array();
  for (const double o : p.objectives) objectives.push(Json(o));
  return Json::object()
      .set("area_ratio", p.budget.area_ratio)
      .set("tdp_ratio", p.budget.tdp_ratio)
      .set("objectives", std::move(objectives))
      .set("score", to_json(p.score));
}

study::ParetoPoint pareto_point_from_json(const Json& j,
                                          const arch::CpuSpec& base) {
  study::ParetoPoint p;
  p.budget.area_ratio = j.at("area_ratio").as_number();
  p.budget.tdp_ratio = j.at("tdp_ratio").as_number();
  for (const auto& o : j.at("objectives").as_array()) {
    p.objectives.push_back(o.as_number());
  }
  p.score = variant_score_from_json(j.at("score"), base);
  return p;
}

Json to_json(const study::ParetoResults& r) {
  Json objectives = Json::array();
  for (const auto o : r.objectives) {
    objectives.push(Json(std::string(study::to_string(o))));
  }
  Json frontier = Json::array();
  for (const auto& p : r.frontier) frontier.push(to_json(p));
  return Json::object()
      .set("format", std::string(kParetoFormat))
      .set("version", kParetoVersion)
      .set("base", r.base)
      .set("budget", Json::object()
                         .set("max_area_ratio", r.budget.max_area_ratio)
                         .set("max_tdp_ratio", r.budget.max_tdp_ratio))
      .set("objectives", std::move(objectives))
      .set("frontier", std::move(frontier));
}

study::ParetoResults pareto_from_json(const Json& j) {
  check_results_header(j, kParetoFormat, kParetoVersion);
  study::ParetoResults r;
  r.base = j.at("base").as_string();
  const auto base = arch::find_machine(r.base);
  if (!base) throw JsonError("unknown base machine '" + r.base + "'");
  const Json& budget = j.at("budget");
  r.budget.max_area_ratio = budget.at("max_area_ratio").as_number();
  r.budget.max_tdp_ratio = budget.at("max_tdp_ratio").as_number();
  for (const auto& o : j.at("objectives").as_array()) {
    try {
      r.objectives.push_back(study::objective_from_string(o.as_string()));
    } catch (const std::invalid_argument& e) {
      throw JsonError(e.what());
    }
  }
  std::set<std::string> names;
  for (const auto& p : j.at("frontier").as_array()) {
    auto point = pareto_point_from_json(p, *base);
    if (point.objectives.size() != r.objectives.size()) {
      throw JsonError("frontier point '" + point.name() + "' carries " +
                      std::to_string(point.objectives.size()) +
                      " objective values, document declares " +
                      std::to_string(r.objectives.size()));
    }
    claim_identity(names, point.name(), "frontier point");
    r.frontier.push_back(std::move(point));
  }
  return r;
}

}  // namespace fpr::io
