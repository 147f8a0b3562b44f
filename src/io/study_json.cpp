#include "io/study_json.hpp"

#include <array>
#include <limits>
#include <utility>

#include "arch/machines.hpp"
#include "model/exec_model.hpp"

namespace fpr::io {
namespace {

// Enum round-trips reuse the existing to_string spellings: serialize
// via to_string, parse by scanning the full enumerator list.
template <typename Enum, std::size_t N>
Enum enum_from_string(const std::array<Enum, N>& all, const Json& j,
                      const char* what) {
  const std::string& s = j.as_string();
  for (const Enum e : all) {
    if (to_string(e) == s) return e;
  }
  throw JsonError("unknown " + std::string(what) + " '" + s + "'");
}

constexpr std::array kSuites = {kernels::Suite::ecp, kernels::Suite::riken,
                                kernels::Suite::reference};
constexpr std::array kDomains = {
    kernels::Domain::physics,          kernels::Domain::bioscience,
    kernels::Domain::physics_bioscience,
    kernels::Domain::physics_chemistry, kernels::Domain::material_science,
    kernels::Domain::geoscience,       kernels::Domain::math_cs,
    kernels::Domain::engineering,      kernels::Domain::chemistry,
    kernels::Domain::lattice_qcd,      kernels::Domain::reference};
constexpr std::array kPatterns = {
    kernels::ComputePattern::stencil,  kernels::ComputePattern::dense_matrix,
    kernels::ComputePattern::sparse_matrix, kernels::ComputePattern::n_body,
    kernels::ComputePattern::irregular, kernels::ComputePattern::fft,
    kernels::ComputePattern::stream,   kernels::ComputePattern::io};
constexpr std::array kBounds = {model::Bound::compute, model::Bound::bandwidth,
                                model::Bound::latency, model::Bound::io};

Json pattern_to_json(const memsim::Pattern& p) {
  using namespace memsim;
  Json j = Json::object();
  std::visit(
      [&](const auto& pat) {
        using T = std::decay_t<decltype(pat)>;
        if constexpr (std::is_same_v<T, StreamPattern>) {
          j.set("type", "stream")
              .set("bytes_per_array", pat.bytes_per_array)
              .set("arrays", pat.arrays)
              .set("writes_per_iter", pat.writes_per_iter);
        } else if constexpr (std::is_same_v<T, StridedPattern>) {
          j.set("type", "strided")
              .set("footprint_bytes", pat.footprint_bytes)
              .set("stride_bytes", pat.stride_bytes);
        } else if constexpr (std::is_same_v<T, StencilPattern>) {
          j.set("type", "stencil")
              .set("nx", pat.nx)
              .set("ny", pat.ny)
              .set("nz", pat.nz)
              .set("elem_bytes", pat.elem_bytes)
              .set("radius", pat.radius)
              .set("full_box", pat.full_box);
        } else if constexpr (std::is_same_v<T, GatherPattern>) {
          j.set("type", "gather")
              .set("table_bytes", pat.table_bytes)
              .set("elem_bytes", pat.elem_bytes)
              .set("sequential_fraction", pat.sequential_fraction)
              .set("shared_table", pat.shared_table);
        } else if constexpr (std::is_same_v<T, ChasePattern>) {
          j.set("type", "chase")
              .set("footprint_bytes", pat.footprint_bytes)
              .set("node_bytes", pat.node_bytes);
        } else if constexpr (std::is_same_v<T, BlockedPattern>) {
          j.set("type", "blocked")
              .set("matrix_bytes", pat.matrix_bytes)
              .set("tile_bytes", pat.tile_bytes)
              .set("tile_reuse", pat.tile_reuse);
        }
      },
      p);
  return j;
}

// The unsigned integer at `key`, as the narrower field type Int; a value
// Int cannot hold is an error naming the key, not a silent wrap.
template <typename Int>
Int narrow_at(const Json& j, std::string_view key) {
  const std::uint64_t v = j.at(key).as_u64();
  constexpr auto kMax = static_cast<std::uint64_t>(
      std::numeric_limits<Int>::max());
  if (v > kMax) {
    std::string msg = "'";
    msg += key;
    msg += "' is ";
    msg += std::to_string(v);
    msg += ", above its field's maximum of ";
    msg += std::to_string(kMax);
    throw JsonError(msg);
  }
  return static_cast<Int>(v);
}

memsim::Pattern pattern_from_json(const Json& j) {
  using namespace memsim;
  const std::string& type = j.at("type").as_string();
  if (type == "stream") {
    StreamPattern p;
    p.bytes_per_array = j.at("bytes_per_array").as_u64();
    p.arrays = narrow_at<int>(j, "arrays");
    p.writes_per_iter = narrow_at<int>(j, "writes_per_iter");
    return p;
  }
  if (type == "strided") {
    StridedPattern p;
    p.footprint_bytes = j.at("footprint_bytes").as_u64();
    p.stride_bytes = narrow_at<std::uint32_t>(j, "stride_bytes");
    return p;
  }
  if (type == "stencil") {
    StencilPattern p;
    p.nx = j.at("nx").as_u64();
    p.ny = j.at("ny").as_u64();
    p.nz = j.at("nz").as_u64();
    p.elem_bytes = narrow_at<std::uint32_t>(j, "elem_bytes");
    p.radius = narrow_at<int>(j, "radius");
    p.full_box = j.at("full_box").as_bool();
    return p;
  }
  if (type == "gather") {
    GatherPattern p;
    p.table_bytes = j.at("table_bytes").as_u64();
    p.elem_bytes = narrow_at<std::uint32_t>(j, "elem_bytes");
    p.sequential_fraction = j.at("sequential_fraction").as_number();
    p.shared_table = j.at("shared_table").as_bool();
    return p;
  }
  if (type == "chase") {
    ChasePattern p;
    p.footprint_bytes = j.at("footprint_bytes").as_u64();
    p.node_bytes = narrow_at<std::uint32_t>(j, "node_bytes");
    return p;
  }
  if (type == "blocked") {
    BlockedPattern p;
    p.matrix_bytes = j.at("matrix_bytes").as_u64();
    p.tile_bytes = j.at("tile_bytes").as_u64();
    p.tile_reuse = j.at("tile_reuse").as_number();
    return p;
  }
  throw JsonError("unknown access pattern type '" + type + "'");
}

}  // namespace

void check_results_header(const Json& doc, std::string_view format,
                          std::int64_t version) {
  const std::string& tag = doc.at("format").as_string();
  if (tag != format) {
    throw JsonError("expected format '" + std::string(format) +
                    "', file has '" + tag + "'");
  }
  const Json& field = doc.at("version");
  const auto unsupported = [&] {
    return JsonError(std::string(format) + " version " + dump(field) +
                     " is not supported (expected an integer from 1 to " +
                     std::to_string(version) + ")");
  };
  std::uint64_t v = 0;
  try {
    v = field.as_u64();
  } catch (const JsonError&) {
    throw unsupported();
  }
  if (v < 1 || v > static_cast<std::uint64_t>(version)) throw unsupported();
}

void claim_identity(std::set<std::string>& seen, const std::string& id,
                    std::string_view what) {
  if (!seen.insert(id).second) {
    throw JsonError(std::string(what) + " '" + id +
                    "' appears more than once");
  }
}

Json to_json(const counters::OpTally& t) {
  return Json::object()
      .set("fp64", t.fp64)
      .set("fp32", t.fp32)
      .set("int_ops", t.int_ops)
      .set("branches", t.branches)
      .set("bytes_read", t.bytes_read)
      .set("bytes_written", t.bytes_written);
}

counters::OpTally op_tally_from_json(const Json& j) {
  counters::OpTally t;
  t.fp64 = j.at("fp64").as_u64();
  t.fp32 = j.at("fp32").as_u64();
  t.int_ops = j.at("int_ops").as_u64();
  t.branches = j.at("branches").as_u64();
  t.bytes_read = j.at("bytes_read").as_u64();
  t.bytes_written = j.at("bytes_written").as_u64();
  return t;
}

Json to_json(const memsim::AccessPatternSpec& spec) {
  Json comps = Json::array();
  for (const auto& c : spec.components) {
    comps.push(Json::object()
                   .set("weight", c.weight)
                   .set("pattern", pattern_to_json(c.pattern)));
  }
  return Json::object().set("components", std::move(comps));
}

memsim::AccessPatternSpec access_spec_from_json(const Json& j) {
  memsim::AccessPatternSpec spec;
  for (const auto& c : j.at("components").as_array()) {
    spec.components.push_back(
        {pattern_from_json(c.at("pattern")), c.at("weight").as_number()});
  }
  return spec;
}

Json to_json(const kernels::KernelTraits& t) {
  return Json::object()
      .set("vec_eff", t.vec_eff)
      .set("int_eff", t.int_eff)
      .set("latency_dep_fraction", t.latency_dep_fraction)
      .set("serial_fraction", t.serial_fraction)
      .set("io_write_bytes", t.io_write_bytes)
      .set("phi_adjust", Json::object()
                             .set("fp64", t.phi_adjust.fp64)
                             .set("fp32", t.phi_adjust.fp32)
                             .set("int_ops", t.phi_adjust.int_ops))
      .set("phi_scalar_penalty", t.phi_scalar_penalty)
      .set("phi_vec_penalty", t.phi_vec_penalty)
      .set("phi_latency_penalty", t.phi_latency_penalty)
      .set("uses_vnni", t.uses_vnni)
      .set("int_lane_inflation", t.int_lane_inflation);
}

kernels::KernelTraits traits_from_json(const Json& j) {
  kernels::KernelTraits t;
  t.vec_eff = j.at("vec_eff").as_number();
  t.int_eff = j.at("int_eff").as_number();
  t.latency_dep_fraction = j.at("latency_dep_fraction").as_number();
  t.serial_fraction = j.at("serial_fraction").as_number();
  t.io_write_bytes = j.at("io_write_bytes").as_number();
  const Json& adj = j.at("phi_adjust");
  t.phi_adjust.fp64 = adj.at("fp64").as_number();
  t.phi_adjust.fp32 = adj.at("fp32").as_number();
  t.phi_adjust.int_ops = adj.at("int_ops").as_number();
  t.phi_scalar_penalty = j.at("phi_scalar_penalty").as_number();
  t.phi_vec_penalty = j.at("phi_vec_penalty").as_number();
  t.phi_latency_penalty = j.at("phi_latency_penalty").as_number();
  t.uses_vnni = j.at("uses_vnni").as_bool();
  t.int_lane_inflation = j.at("int_lane_inflation").as_number();
  return t;
}

Json to_json(const kernels::WorkloadMeasurement& w) {
  return Json::object()
      .set("name", w.name)
      .set("ops", to_json(w.ops))
      .set("host_seconds", w.host_seconds)
      .set("working_set_bytes", w.working_set_bytes)
      .set("access", to_json(w.access))
      .set("traits", to_json(w.traits))
      .set("verified", w.verified)
      .set("checksum", w.checksum)
      .set("ops_scale_to_paper", w.ops_scale_to_paper);
}

kernels::WorkloadMeasurement measurement_from_json(const Json& j) {
  kernels::WorkloadMeasurement w;
  w.name = j.at("name").as_string();
  w.ops = op_tally_from_json(j.at("ops"));
  w.host_seconds = j.at("host_seconds").as_number();
  w.working_set_bytes = j.at("working_set_bytes").as_u64();
  w.access = access_spec_from_json(j.at("access"));
  w.traits = traits_from_json(j.at("traits"));
  w.verified = j.at("verified").as_bool();
  w.checksum = j.at("checksum").as_number();
  w.ops_scale_to_paper = j.at("ops_scale_to_paper").as_number();
  return w;
}

Json to_json(const model::MemoryProfile& m) {
  return Json::object()
      .set("l2_hit", m.l2_hit)
      .set("llc_hit", m.llc_hit)
      .set("offchip_fraction", m.offchip_fraction)
      .set("offchip_bytes", m.offchip_bytes)
      .set("dram_bytes", m.dram_bytes)
      .set("mcdram_capture", m.mcdram_capture)
      .set("effective_bw_gbs", m.effective_bw_gbs)
      .set("latency_ns", m.latency_ns)
      .set("dep_refs", m.dep_refs);
}

model::MemoryProfile mem_profile_from_json(const Json& j) {
  model::MemoryProfile m;
  m.l2_hit = j.at("l2_hit").as_number();
  m.llc_hit = j.at("llc_hit").as_number();
  m.offchip_fraction = j.at("offchip_fraction").as_number();
  m.offchip_bytes = j.at("offchip_bytes").as_number();
  m.dram_bytes = j.at("dram_bytes").as_number();
  m.mcdram_capture = j.at("mcdram_capture").as_number();
  m.effective_bw_gbs = j.at("effective_bw_gbs").as_number();
  m.latency_ns = j.at("latency_ns").as_number();
  m.dep_refs = j.at("dep_refs").as_number();
  return m;
}

Json to_json(const model::EvalResult& e) {
  return Json::object()
      .set("t_fp64", e.t_fp64)
      .set("t_fp32", e.t_fp32)
      .set("t_int", e.t_int)
      .set("t_compute", e.t_compute)
      .set("t_mem", e.t_mem)
      .set("t_lat", e.t_lat)
      .set("t_io", e.t_io)
      .set("seconds", e.seconds)
      .set("gflops", e.gflops)
      .set("pct_of_peak", e.pct_of_peak)
      .set("mem_throughput_gbs", e.mem_throughput_gbs)
      .set("power_w", e.power_w)
      .set("bound", std::string(model::to_string(e.bound)));
}

model::EvalResult eval_from_json(const Json& j) {
  model::EvalResult e;
  e.t_fp64 = j.at("t_fp64").as_number();
  e.t_fp32 = j.at("t_fp32").as_number();
  e.t_int = j.at("t_int").as_number();
  e.t_compute = j.at("t_compute").as_number();
  e.t_mem = j.at("t_mem").as_number();
  e.t_lat = j.at("t_lat").as_number();
  e.t_io = j.at("t_io").as_number();
  e.seconds = j.at("seconds").as_number();
  e.gflops = j.at("gflops").as_number();
  e.pct_of_peak = j.at("pct_of_peak").as_number();
  e.mem_throughput_gbs = j.at("mem_throughput_gbs").as_number();
  e.power_w = j.at("power_w").as_number();
  e.bound = enum_from_string(kBounds, j.at("bound"), "bound");
  return e;
}

Json to_json(const kernels::KernelInfo& info) {
  return Json::object()
      .set("name", info.name)
      .set("abbrev", info.abbrev)
      .set("suite", std::string(to_string(info.suite)))
      .set("domain", std::string(to_string(info.domain)))
      .set("pattern", std::string(to_string(info.pattern)))
      .set("language", info.language)
      .set("paper_input", info.paper_input);
}

kernels::KernelInfo kernel_info_from_json(const Json& j) {
  kernels::KernelInfo info;
  info.name = j.at("name").as_string();
  info.abbrev = j.at("abbrev").as_string();
  info.suite = enum_from_string(kSuites, j.at("suite"), "suite");
  info.domain = enum_from_string(kDomains, j.at("domain"), "domain");
  info.pattern = enum_from_string(kPatterns, j.at("pattern"), "pattern");
  info.language = j.at("language").as_string();
  info.paper_input = j.at("paper_input").as_string();
  return info;
}

Json to_json(const study::MachineResult& m) {
  Json sweep = Json::array();
  for (const auto& [fs, ev] : m.freq_sweep) {
    sweep.push(Json::object()
                   .set("ghz", fs.ghz)
                   .set("turbo", fs.turbo)
                   .set("eval", to_json(ev)));
  }
  return Json::object()
      .set("machine", m.cpu.short_name)
      .set("mem", to_json(m.mem))
      .set("perf", to_json(m.perf))
      .set("freq_sweep", std::move(sweep));
}

study::MachineResult machine_result_from_json(const Json& j) {
  study::MachineResult m;
  const std::string& name = j.at("machine").as_string();
  auto cpu = arch::find_machine(name);
  if (!cpu) throw JsonError("unknown machine '" + name + "'");
  m.cpu = std::move(*cpu);
  m.mem = mem_profile_from_json(j.at("mem"));
  m.perf = eval_from_json(j.at("perf"));
  for (const auto& p : j.at("freq_sweep").as_array()) {
    arch::FreqState fs;
    fs.ghz = p.at("ghz").as_number();
    fs.turbo = p.at("turbo").as_bool();
    m.freq_sweep.emplace_back(fs, eval_from_json(p.at("eval")));
  }
  return m;
}

Json to_json(const study::KernelResult& k) {
  Json machines = Json::array();
  for (const auto& m : k.machines) machines.push(to_json(m));
  return Json::object()
      .set("info", to_json(k.info))
      .set("measurement", to_json(k.meas))
      .set("machines", std::move(machines));
}

study::KernelResult kernel_result_from_json(const Json& j) {
  study::KernelResult k;
  k.info = kernel_info_from_json(j.at("info"));
  k.meas = measurement_from_json(j.at("measurement"));
  const std::string what = "kernel '" + k.info.abbrev + "': machine";
  std::set<std::string> machines;
  for (const auto& m : j.at("machines").as_array()) {
    k.machines.push_back(machine_result_from_json(m));
    claim_identity(machines, k.machines.back().cpu.short_name, what);
  }
  return k;
}

Json to_json(const study::StudyResults& r) {
  Json kernels = Json::array();
  for (const auto& k : r.kernels) kernels.push(to_json(k));
  return Json::object()
      .set("format", std::string(kStudyFormat))
      .set("version", kStudyVersion)
      .set("kernels", std::move(kernels));
}

study::StudyResults study_from_json(const Json& j) {
  check_results_header(j, kStudyFormat, kStudyVersion);
  study::StudyResults r;
  std::set<std::string> abbrevs;
  for (const auto& k : j.at("kernels").as_array()) {
    r.kernels.push_back(kernel_result_from_json(k));
    claim_identity(abbrevs, r.kernels.back().info.abbrev, "kernel");
  }
  return r;
}

}  // namespace fpr::io
