#include "arch/variant.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace fpr::arch {

namespace {

[[noreturn]] void bad(const std::string& transform, const std::string& why) {
  throw std::invalid_argument("variant transform '" + transform + "': " + why);
}

double parse_factor(const std::string& transform, const std::string& text) {
  double f = 0.0;
  try {
    std::size_t pos = 0;
    f = std::stod(text, &pos);
    if (pos != text.size()) bad(transform, "trailing junk in factor");
  } catch (const std::invalid_argument&) {
    bad(transform, "malformed factor '" + text + "'");
  } catch (const std::out_of_range&) {
    bad(transform, "factor '" + text + "' out of range");
  }
  if (!std::isfinite(f) || f <= 0.0) {
    bad(transform, "factor must be finite and > 0");
  }
  return f;
}

constexpr int kMaxInt = std::numeric_limits<int>::max();

int integer_factor(const std::string& transform, double f, int min) {
  const double r = std::round(f);
  if (std::abs(f - r) > 1e-9 || r < min || r > kMaxInt) {
    bad(transform, "factor must be an integer in [" + std::to_string(min) +
                       ", " + std::to_string(kMaxInt) + "]");
  }
  return static_cast<int>(r);
}

/// `value * factor` for a floating-point field; a result that is not
/// finite does not fit it.
double scaled_field(const std::string& transform, double value,
                    double factor) {
  const double r = value * factor;
  if (!std::isfinite(r)) bad(transform, "result is not finite");
  return r;
}

/// `value * factor` rounded for an int field, checked before the cast.
int scaled_count(const std::string& transform, double value, double factor) {
  const double r = std::round(value * factor);
  if (!(r <= kMaxInt)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value * factor);
    std::string why = "result ";
    why += buf;
    why += " does not fit an int (max ";
    why += std::to_string(kMaxInt);
    why += ')';
    bad(transform, why);
  }
  return static_cast<int>(r);
}

void require_mcdram(const CpuSpec& spec, const std::string& transform) {
  if (!spec.has_mcdram()) {
    bad(transform, spec.short_name + " has no MCDRAM");
  }
}

}  // namespace

const std::vector<TransformInfo>& transform_catalogue() {
  static const std::vector<TransformInfo> catalogue = {
      {"halve-fp64", false,
       "halve the FP64 pipes (pipe count, then vector width)"},
      {"drop-fp64-vec", false,
       "remove vector FP64 entirely; scalar (64-bit) FMA retained"},
      {"widen-fp32", true,
       "multiply the FP32/VNNI pipe count (integer factor, default 2)"},
      {"dram-bw", true, "scale the DDR Triad bandwidth (default 1.5)"},
      {"mcdram-bw", true,
       "scale the MCDRAM Triad bandwidth (Phi only, default 1.5)"},
      {"mcdram-cap", true, "scale the MCDRAM capacity (Phi only, default 2)"},
      {"cores", true, "scale the core count, rounded (default 1.25)"},
      {"tdp", true, "scale the TDP envelope (default 0.85)"},
  };
  return catalogue;
}

void apply_transform(CpuSpec& spec, const std::string& transform) {
  std::string name = transform;
  bool has_factor = false;
  double factor = 0.0;
  if (const auto eq = transform.find('='); eq != std::string::npos) {
    name = transform.substr(0, eq);
    factor = parse_factor(transform, transform.substr(eq + 1));
    has_factor = true;
  }

  if (name == "halve-fp64") {
    if (has_factor) bad(transform, "takes no factor");
    if (spec.fp64_fpu.units > 1) {
      spec.fp64_fpu.units /= 2;
    } else if (spec.fp64_fpu.vector_bits > 64) {
      spec.fp64_fpu.vector_bits /= 2;
    } else {
      bad(transform, "already down to scalar FP64");
    }
  } else if (name == "drop-fp64-vec") {
    if (has_factor) bad(transform, "takes no factor");
    // Chips that shed vector DP silicon keep scalar DP (the KNM story,
    // taken to its end): one 64-bit FMA pipe survives so the machine
    // still validates and FP64 code still runs — dog slow.
    spec.fp64_fpu = FpuConfig{.units = 1, .vector_bits = 64, .pump = 1};
  } else if (name == "widen-fp32") {
    const int k = integer_factor(transform, has_factor ? factor : 2.0, 2);
    spec.fp32_fpu.units =
        scaled_count(transform, static_cast<double>(spec.fp32_fpu.units),
                     static_cast<double>(k));
  } else if (name == "dram-bw") {
    spec.dram_bw_gbs =
        scaled_field(transform, spec.dram_bw_gbs, has_factor ? factor : 1.5);
  } else if (name == "mcdram-bw") {
    require_mcdram(spec, transform);
    spec.mcdram_bw_gbs =
        scaled_field(transform, spec.mcdram_bw_gbs, has_factor ? factor : 1.5);
  } else if (name == "mcdram-cap") {
    require_mcdram(spec, transform);
    spec.mcdram_gib =
        scaled_field(transform, spec.mcdram_gib, has_factor ? factor : 2.0);
  } else if (name == "cores") {
    spec.cores = std::max(
        1, scaled_count(transform, static_cast<double>(spec.cores),
                        has_factor ? factor : 1.25));
  } else if (name == "tdp") {
    spec.tdp_w = scaled_field(transform, spec.tdp_w, has_factor ? factor : 0.85);
  } else {
    bad(transform, "unknown transform");
  }
}

MachineVariant derive_variant(const CpuSpec& base, const std::string& spec) {
  MachineVariant v;
  v.spec = spec;
  v.cpu = base;
  if (!spec.empty()) {
    std::size_t begin = 0;
    while (begin <= spec.size()) {
      const std::size_t end = std::min(spec.find('+', begin), spec.size());
      const std::string transform = spec.substr(begin, end - begin);
      if (transform.empty()) {
        throw std::invalid_argument("variant spec '" + spec +
                                    "': empty transform");
      }
      apply_transform(v.cpu, transform);
      begin = end + 1;
    }
    v.cpu.short_name = base.short_name + "+" + spec;
    v.cpu.name = base.name + " [" + spec + "]";
    v.cpu.validate();  // a derived machine must be internally consistent
  }
  return v;
}

std::vector<std::string> builtin_variant_specs(const CpuSpec& base) {
  std::vector<std::string> specs = {"halve-fp64", "drop-fp64-vec",
                                    "widen-fp32", "dram-bw=1.5",
                                    "cores=1.25", "tdp=0.85"};
  if (base.has_mcdram()) {
    specs.insert(specs.begin() + 4, {"mcdram-bw=1.5", "mcdram-cap=2"});
  }
  return specs;
}

namespace {

// Field encoding mirrors memsim::SimCache keys: %.17g doubles (shortest
// exact decimal for any double) and decimal integers, ';'-separated.
void append_f(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
  out += ';';
}

void append_i(std::string& out, long long v) {
  out += std::to_string(v);
  out += ';';
}

}  // namespace

std::string memory_model_digest(const CpuSpec& cpu) {
  std::string key = "mem|";
  append_i(key, cpu.cores);
  append_i(key, cpu.l1_kib);
  append_i(key, cpu.l1_assoc);
  append_i(key, cpu.l2_kib_per_core);
  append_i(key, cpu.l2_assoc);
  append_i(key, cpu.llc_assoc);
  append_f(key, cpu.llc_mib);
  append_f(key, cpu.dram_gib);
  append_f(key, cpu.dram_bw_gbs);
  append_f(key, cpu.mcdram_gib);
  append_f(key, cpu.mcdram_bw_gbs);
  append_f(key, cpu.mcdram_hit_eff);
  append_f(key, cpu.dram_latency_ns);
  append_f(key, cpu.mcdram_latency_ns);
  key += '|';
  return key;
}

std::string canonical_cpu_digest(const CpuSpec& cpu) {
  std::string key = "cpu|";
  append_i(key, cpu.smt);
  append_f(key, cpu.base_ghz);
  append_f(key, cpu.turbo_ghz);
  append_f(key, cpu.peak_ref_ghz);
  for (const double f : cpu.freq_states_ghz) append_f(key, f);
  append_f(key, cpu.tdp_w);
  append_i(key, cpu.fp64_fpu.units);
  append_i(key, cpu.fp64_fpu.vector_bits);
  append_i(key, cpu.fp64_fpu.pump);
  append_i(key, cpu.fp32_fpu.units);
  append_i(key, cpu.fp32_fpu.vector_bits);
  append_i(key, cpu.fp32_fpu.pump);
  append_f(key, cpu.fpu_issue_eff);
  append_f(key, cpu.fp32_generic_eff);
  append_i(key, cpu.int_ops_per_cycle);
  key += memory_model_digest(cpu);
  return key;
}

std::string compose_specs(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "+" + b;
}

std::size_t spec_transform_count(const std::string& spec) {
  if (spec.empty()) return 0;
  return static_cast<std::size_t>(
             std::count(spec.begin(), spec.end(), '+')) +
         1;
}

namespace {

// Area coefficients, in SIMD-pipe equivalents (one 512-bit single-pump
// FMA pipe = 1.0). First-order by design: only ratios against the base
// machine are consumed, so the constants just have to order resources
// sensibly (a core is a few pipes, HBM stacks and memory PHYs are not
// free, capacity scales linearly).
constexpr double kCoreFixedArea = 2.0;      // front-end + L1 + AGU
constexpr double kL2AreaPerKiB = 1.0 / 512; // 512 KiB of L2 ~ one pipe
constexpr double kLlcAreaPerMiB = 0.25;
constexpr double kMcdramAreaPerGiB = 0.75;  // on-package stacks + I/O
constexpr double kPhyAreaPerGBs = 0.05;     // memory controller + PHY

double fpu_area(const FpuConfig& f) {
  // Double pumping reuses the datapath; it buys throughput for roughly
  // half the area of doubling the pipe count.
  return static_cast<double>(f.units) *
         (static_cast<double>(f.vector_bits) / 512.0) *
         (1.0 + 0.5 * static_cast<double>(f.pump - 1));
}

}  // namespace

double die_area_units(const CpuSpec& cpu) {
  const double core_area = kCoreFixedArea +
                           static_cast<double>(cpu.l2_kib_per_core) *
                               kL2AreaPerKiB +
                           fpu_area(cpu.fp64_fpu) + fpu_area(cpu.fp32_fpu);
  const double uncore = cpu.llc_mib * kLlcAreaPerMiB +
                        cpu.mcdram_gib * kMcdramAreaPerGiB +
                        (cpu.dram_bw_gbs + cpu.mcdram_bw_gbs) * kPhyAreaPerGBs;
  return static_cast<double>(cpu.cores) * core_area + uncore;
}

ResourceBudget variant_budget(const CpuSpec& variant, const CpuSpec& base) {
  if (base.tdp_w <= 0.0) {
    throw std::invalid_argument("variant_budget: base machine '" +
                                base.short_name + "' has no TDP");
  }
  ResourceBudget b;
  b.area_ratio = die_area_units(variant) / die_area_units(base);
  b.tdp_ratio = variant.tdp_w / base.tdp_w;
  return b;
}

bool within_budget(const ResourceBudget& b, const BudgetLimits& limits) {
  constexpr double kSlack = 1e-9;
  return b.area_ratio <= limits.max_area_ratio * (1.0 + kSlack) &&
         b.tdp_ratio <= limits.max_tdp_ratio * (1.0 + kSlack);
}

}  // namespace fpr::arch
